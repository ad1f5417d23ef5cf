"""Semigroup evolution ``rho(t) = e^{tL} rho(0)`` and its health diagnostics.

States are propagated with dense matrix exponentials of the assembled
superoperator.  A :class:`Propagator` computes each step exponential
``e^{dt S}`` once and caches it by ``dt`` (least recently used entries are
dropped beyond a fixed byte budget); a generator bundle carries one
propagator, so ``evolve``, the contraction report, the semigroup check and
the Choi analysis on the same bundle share every exponential.

Every snapshot carries diagnostics -- trace deviation, hermiticity defect,
most negative eigenvalue, and trace distance to the Gibbs density -- which
are recorded as measured and never silently corrected: a broken generator
shows up in the numbers, not in doctored states.  They are computed once
per trajectory, in one stacked pass over its ``(n, d, d)`` snapshots (one
``eigvalsh`` for the eigenvalues, one for the Gibbs distances), against the
Gibbs density the bundle caches (:attr:`GeneratorBundle.gibbs_state`); a
contraction report takes all its trace distances from one stacked
``eigvalsh`` likewise.  States are still propagated one at a time, each
with the same matrix-vector product, so every number equals the
per-snapshot formulas bit for bit.

Complete positivity of the time-``t`` channel is checked through its Choi
matrix: the channel superoperator ``E = e^{tS}`` (column-stacking
convention) reshuffles into ``J`` with ``J[(out row, in row), (out col,
in col)]`` blocks; ``E`` is completely positive iff ``J`` is positive
semidefinite, and trace-preserving iff the partial trace of ``J`` over the
output factor is the identity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import expm

from .errors import ValidationError
from .operator_core import dagger, devectorize, vectorize

if TYPE_CHECKING:
    from .generators import GeneratorBundle

__all__ = [
    "Propagator",
    "Trajectory",
    "choi_matrix",
    "choi_min_eigenvalue",
    "choi_report",
    "choi_trace_preservation_defect",
    "contraction_report",
    "evolve",
    "random_density_matrix",
    "semigroup_defect",
    "snapshot_diagnostics",
]

_STATE_TOL = 1e-10

# Largest model dimension the dense Choi analysis accepts.
CHOI_MAX_DIM = 8

# Bytes of step exponentials one propagator keeps.  The entry just computed
# is always kept, so a single step larger than the budget still works.
_STEP_CACHE_BYTES = 64 * 2**20


class Propagator:
    """Step exponentials ``e^{dt S}`` of one superoperator, cached by ``dt``.

    The cache is keyed on the exact float ``dt`` and holds at most
    ``_STEP_CACHE_BYTES`` of exponentials, evicting the least recently used.
    Returned matrices are read-only; they are the same arrays on every hit,
    so a trajectory is bit-identical to one built from fresh exponentials.
    """

    def __init__(self, superoperator) -> None:
        self.superoperator = np.asarray(superoperator, dtype=np.complex128)
        self.computed = 0  # exponentials computed so far (cache misses)
        self._steps: OrderedDict[float, np.ndarray] = OrderedDict()

    @property
    def nbytes(self) -> int:
        """Bytes held by the cached step exponentials."""
        return sum(e.nbytes for e in self._steps.values())

    def step(self, dt: float) -> np.ndarray:
        """The channel ``e^{dt S}``."""
        dt = float(dt)
        channel = self._steps.get(dt)
        if channel is not None:
            self._steps.move_to_end(dt)
            return channel
        channel = expm(self.superoperator * dt)
        channel.flags.writeable = False
        self.computed += 1
        self._steps[dt] = channel
        while len(self._steps) > 1 and self.nbytes > _STEP_CACHE_BYTES:
            self._steps.popitem(last=False)
        return channel


def _trace_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Trace distance ``0.5 * sum |eig|`` of each Hermitised ``a - b``, for
    stacks ``(..., d, d)`` (broadcast against each other), from one stacked
    ``eigvalsh``."""
    diff = a - b
    diff = 0.5 * (diff + dagger(diff))
    return 0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff)), axis=-1)


def random_density_matrix(dim: int, *, seed: int) -> np.ndarray:
    """A random full-rank density matrix ``G G^dag / tr`` with square complex
    Gaussian ``G``."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def _min_eigenvalue(matrix: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(matrix)))


def _validate_state(state: np.ndarray) -> None:
    d = state.shape[0]
    if state.shape != (d, d):
        raise ValidationError(f"state must be square, got shape {state.shape}")
    herm = float(np.linalg.norm(state - dagger(state)))
    if herm > _STATE_TOL * max(1.0, float(np.linalg.norm(state))):
        raise ValidationError(f"initial state is not Hermitian (defect {herm:.3e})")
    tr = complex(np.trace(state))
    if abs(tr - 1.0) > _STATE_TOL:
        raise ValidationError(f"initial state has trace {tr:.6g}, expected 1")
    min_eig = _min_eigenvalue(0.5 * (state + dagger(state)))
    if min_eig < -_STATE_TOL:
        raise ValidationError(
            f"initial state has negative eigenvalue {min_eig:.3e}"
        )


def _row_dots(rows: np.ndarray) -> np.ndarray:
    """``x . x`` of every row of a real ``(n, k)`` array, each as one BLAS
    dot product (a vector-by-vector ``matmul``), the summation
    ``np.linalg.norm`` uses for one flattened matrix."""
    return (rows[:, None, :] @ rows[:, :, None])[:, 0, 0]


def snapshot_diagnostics(states: np.ndarray, reference: np.ndarray | None) -> tuple[dict, ...]:
    """Health numbers of each snapshot of an ``(n, d, d)`` stack, one row per
    snapshot (recorded, never corrected).

    One pass over the whole stack: the Hermitised snapshots' eigenvalues come
    from one ``eigvalsh``, their trace distances to ``reference`` from
    another.  Each number equals the one-snapshot formula bit for bit: the
    deviation ``|tr rho - 1|`` is taken with ``np.hypot``, as Python's
    ``abs`` of a complex takes it (NumPy's complex ``abs`` rounds
    differently), and the hermiticity defect ``||rho - rho^dag||_F`` with
    the dot products of ``np.linalg.norm``.
    """
    states = np.asarray(states, dtype=np.complex128)
    adjoints = dagger(states)
    herm = 0.5 * (states + adjoints)
    skew = (states - adjoints).reshape(states.shape[0], -1)
    deviation = np.trace(states, axis1=1, axis2=2) - 1.0
    columns = {
        "trace_deviation": np.hypot(deviation.real, deviation.imag),
        "hermiticity_defect": np.sqrt(_row_dots(skew.real) + _row_dots(skew.imag)),
        "min_eigenvalue": np.min(np.linalg.eigvalsh(herm), axis=-1),
    }
    if reference is not None:
        columns["gibbs_distance"] = _trace_distances(herm, reference)
    rows = zip(*(column.tolist() for column in columns.values()))
    return tuple(dict(zip(columns, row)) for row in rows)


@dataclass(frozen=True)
class Trajectory:
    """Evolved states at requested times with per-snapshot diagnostics."""

    times: np.ndarray
    states: np.ndarray  # (n_times, d, d)
    diagnostics: tuple = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    def state_at(self, time: float) -> np.ndarray:
        hits = np.nonzero(np.isclose(self.times, time, rtol=0.0, atol=1e-12))[0]
        if hits.size == 0:
            raise ValidationError(f"time {time!r} is not a snapshot of this trajectory")
        return self.states[int(hits[0])]

    def column(self, key: str) -> np.ndarray:
        return np.array([row[key] for row in self.diagnostics])


def _propagate(
    propagator: Propagator, initial_state: np.ndarray, times
) -> tuple[np.ndarray, np.ndarray]:
    """Validated time grid and the ``(n_times, d, d)`` stack of the states
    at its times.

    ``times`` must be non-negative and strictly increasing; a leading
    ``0.0`` snapshot is allowed.  No snapshot diagnostics are computed.
    """
    superop = propagator.superoperator
    ts = np.asarray(times, dtype=np.float64)
    if ts.ndim != 1 or ts.size == 0:
        raise ValidationError("times must be a non-empty 1-D sequence")
    if np.any(ts < 0.0):
        raise ValidationError("times must be non-negative")
    if np.any(np.diff(ts) <= 0.0):
        raise ValidationError("times must be strictly increasing")

    state = np.asarray(initial_state, dtype=np.complex128)
    d = state.shape[0]
    if superop.shape != (d * d, d * d):
        raise ValidationError(
            f"superoperator shape {superop.shape} does not match state dimension {d}"
        )
    _validate_state(state)

    vec = vectorize(state)
    snapshots = []
    previous_t = 0.0
    for t in ts:
        step = float(t - previous_t)
        if step > 0.0:
            vec = propagator.step(step) @ vec
        previous_t = float(t)
        snapshots.append(devectorize(vec, d))
    return ts, np.array(snapshots)


def evolve(bundle: GeneratorBundle, initial_state: np.ndarray, times) -> Trajectory:
    """Propagate a state to each requested time with the bundle's cached
    step exponentials.

    ``times`` must be non-negative and strictly increasing; a leading
    ``0.0`` snapshot is allowed.  Each snapshot's diagnostics include the
    trace distance to the bundle's cached Gibbs density; all of them come
    from one :func:`snapshot_diagnostics` call on the whole trajectory.
    """
    ts, states = _propagate(bundle.propagator, initial_state, times)
    diagnostics = snapshot_diagnostics(states, bundle.gibbs_state)
    return Trajectory(times=ts, states=states, diagnostics=diagnostics)


def semigroup_defect(bundle: GeneratorBundle, t: float, s: float) -> float:
    """Relative defect of ``e^{(t+s)L} = e^{tL} e^{sL}``."""
    propagator = bundle.propagator
    whole = propagator.step(t + s)
    split = propagator.step(t) @ propagator.step(s)
    return float(np.linalg.norm(whole - split)) / max(1.0, float(np.linalg.norm(whole)))


def contraction_report(bundle: GeneratorBundle, state_pairs, times) -> dict:
    """Trace distances between evolved state pairs at increasing times.

    Returns rows ``{pair, distances}`` where ``distances[k]`` is the trace
    distance at ``times[k]``; under a trace-preserving positive semigroup
    each row must be non-increasing (up to numerical tolerance -- asserted
    by callers, reported here).  Each state is propagated on its own; the
    distances of all pairs and times come from one stacked ``eigvalsh``.
    """
    propagator = bundle.propagator
    states_a, states_b = [], []
    for rho_a, rho_b in state_pairs:
        states_a.append(_propagate(propagator, rho_a, times)[1])
        states_b.append(_propagate(propagator, rho_b, times)[1])
    rows = []
    if states_a:
        distances = _trace_distances(np.array(states_a), np.array(states_b)).tolist()
        rows = [{"pair": idx, "distances": row} for idx, row in enumerate(distances)]
    worst_increase = 0.0
    worst_pair = None
    worst_time = None
    for row in rows:
        d = row["distances"]
        for k, (a, b) in enumerate(zip(d[:-1], d[1:])):
            if b - a > worst_increase:
                worst_increase = b - a
                worst_pair = row["pair"]
                worst_time = float(times[k + 1])
    return {
        "rows": rows,
        "worst_increase": worst_increase,
        "worst_pair": worst_pair,
        "worst_time": worst_time,
        "times": list(map(float, times)),
    }


def choi_matrix(channel: np.ndarray) -> np.ndarray:
    """Choi matrix of a channel superoperator (column-stacking convention).

    ``J = sum_{ij} E(|i><j|) tensor |i><j|`` rearranged so that ``J`` is
    positive semidefinite exactly when the channel is completely positive.
    At ``E = I`` the spectrum is ``{d, 0, ..., 0}``.
    """
    e = np.asarray(channel, dtype=np.complex128)
    d2 = e.shape[0]
    d = int(round(d2**0.5))
    if d * d != d2 or e.shape != (d2, d2):
        raise ValidationError(f"channel must be (d^2, d^2), got {e.shape}")
    return e.reshape(d, d, d, d).transpose(3, 1, 2, 0).reshape(d2, d2)


def _hermitian_choi(bundle: GeneratorBundle, t: float) -> np.ndarray:
    """Hermitised Choi matrix of the cached time-``t`` channel."""
    j = choi_matrix(bundle.propagator.step(t))
    return 0.5 * (j + dagger(j))


def _partial_trace_defect(j: np.ndarray) -> float:
    d = int(round(j.shape[0] ** 0.5))
    partial = np.einsum("iaja->ij", j.reshape(d, d, d, d))
    return float(np.linalg.norm(partial - np.eye(d)))


def choi_min_eigenvalue(bundle: GeneratorBundle, t: float) -> float:
    """Most negative Choi eigenvalue of the time-``t`` channel."""
    return _min_eigenvalue(_hermitian_choi(bundle, t))


def choi_trace_preservation_defect(bundle: GeneratorBundle, t: float) -> float:
    """Distance of the Choi partial trace from the identity."""
    return _partial_trace_defect(_hermitian_choi(bundle, t))


def choi_report(bundle: GeneratorBundle, t: float) -> dict:
    """Complete-positivity numbers of the time-``t`` channel (dense; d <= 8):
    the most negative Choi eigenvalue and the trace-preservation defect.
    Whether they pass is the caller's tolerance to judge."""
    if bundle.dim > CHOI_MAX_DIM:
        raise ValidationError(
            f"Choi analysis is dense and limited to dimension {CHOI_MAX_DIM}, got {bundle.dim}"
        )
    j = _hermitian_choi(bundle, t)
    return {
        "time": float(t),
        "min_eigenvalue": _min_eigenvalue(j),
        "trace_preservation_defect": _partial_trace_defect(j),
    }
