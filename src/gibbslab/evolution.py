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
``eigvalsh`` likewise.  Every state of a call is propagated in one stack:
the states are validated together (from the same health numbers the
diagnostics report) and each time step is one product of the step
exponential with the ``(n, d^2, 1)`` stack of vectorised states, which
NumPy runs as one matrix-vector product per state, so every number equals
the one-state formulas bit for bit.

Complete positivity of the time-``t`` channel is checked through its Choi
matrix: the channel superoperator ``E = e^{tS}`` (column-stacking
convention) reshuffles into ``J`` with ``J[(out row, in row), (out col,
in col)]`` blocks; ``E`` is completely positive iff ``J`` is positive
semidefinite, and trace-preserving iff the partial trace of ``J`` over the
output factor is the identity.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from scipy.linalg import expm

from .errors import NumericalGuardError, ValidationError
from .operator_core import dagger

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
        """The channel ``e^{dt S}`` for a finite ``dt >= 0``;
        :class:`NumericalGuardError` when it is not finite."""
        dt = float(dt)
        if not (np.isfinite(dt) and dt >= 0.0):
            raise ValidationError(f"time must be finite and non-negative, got {dt!r}")
        channel = self._steps.get(dt)
        if channel is not None:
            self._steps.move_to_end(dt)
            return channel
        channel = expm(self.superoperator * dt)
        # At huge steps (t = 1e40 on the qubit) the squaring overflows to NaN.
        if not np.isfinite(channel).all():
            raise NumericalGuardError(f"the step exponential at dt = {dt!r} is not finite")
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


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """``||x||_F`` of each matrix of an ``(n, d, d)`` stack, summed as
    ``np.linalg.norm`` sums one matrix: ``re . re + im . im`` of the
    flattened matrix, each as one BLAS dot product (a vector-by-vector
    ``matmul``)."""
    flat = stack.reshape(stack.shape[0], 1, -1)
    return np.sqrt(sum((part @ part.swapaxes(1, 2))[:, 0, 0] for part in (flat.real, flat.imag)))


def _health(states: np.ndarray) -> tuple[np.ndarray, dict]:
    """The Hermitised ``(n, d, d)`` stack and, per state, its trace
    deviation, hermiticity defect and smallest eigenvalue.

    Each number equals the one-state formula bit for bit: the deviation
    ``|tr rho - 1|`` is taken with ``np.hypot``, as Python's ``abs`` of a
    complex takes it (NumPy's complex ``abs`` rounds differently), the
    hermiticity defect ``||rho - rho^dag||_F`` with the dot products of
    ``np.linalg.norm``, and the eigenvalues of the whole stack from one
    ``eigvalsh``.
    """
    adjoints = dagger(states)
    herm = 0.5 * (states + adjoints)
    deviation = np.trace(states, axis1=1, axis2=2) - 1.0
    return herm, {
        "trace_deviation": np.hypot(deviation.real, deviation.imag),
        "hermiticity_defect": _frobenius(states - adjoints),
        "min_eigenvalue": np.min(np.linalg.eigvalsh(herm), axis=-1),
    }


def snapshot_diagnostics(states: np.ndarray, reference: np.ndarray) -> dict:
    """Health numbers of the snapshots of an ``(n, d, d)`` stack (recorded,
    never corrected): ``{name: list}``, one entry per snapshot in each list.

    One pass over the whole stack (:func:`_health`), plus the trace
    distances of the Hermitised snapshots to ``reference`` from one more
    ``eigvalsh``; each number equals the one-snapshot formula bit for bit.
    """
    herm, columns = _health(np.asarray(states, dtype=np.complex128))
    columns["gibbs_distance"] = _trace_distances(herm, reference)
    return {name: column.tolist() for name, column in columns.items()}


@dataclass(frozen=True)
class Trajectory:
    """Evolved states at requested times with per-snapshot diagnostics
    (:func:`snapshot_diagnostics`: one list per name)."""

    times: np.ndarray
    states: np.ndarray  # (n_times, d, d)
    diagnostics: dict


def _time_grid(times, field: str = "times") -> np.ndarray:
    """``times`` as a float array, which must be a non-empty list of finite,
    non-negative, strictly increasing times; a leading ``0.0`` snapshot is
    allowed.  ``field`` names the input in the message."""
    ts = np.asarray(times, dtype=np.float64)
    valid = ts.ndim == 1 and ts.size and np.isfinite(ts).all() and ts[0] >= 0.0
    if not (valid and (np.diff(ts) > 0.0).all()):
        raise ValidationError(
            f"{field} must be a non-empty list of finite, non-negative, strictly increasing times"
        )
    return ts


def _propagate(propagator: Propagator, states, ts: np.ndarray) -> np.ndarray:
    """The ``(n_times, n, d, d)`` stack of the ``n`` density matrices
    ``states``, validated together, at each time of the checked grid ``ts``.

    Each time step is one product of the step exponential with the
    ``(n, d^2, 1)`` stack of column-stacked states.  No snapshot
    diagnostics are computed.
    """
    superop = propagator.superoperator
    for state in states:
        shape = np.shape(state)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValidationError(f"state must be square, got shape {shape}")
        if superop.shape != (shape[0] ** 2,) * 2:
            raise ValidationError(
                f"superoperator shape {superop.shape} does not match state dimension {shape[0]}"
            )
    states = np.asarray(states, dtype=np.complex128)
    n, d = states.shape[:2]
    # A NaN or an infinity would stop the stacked eigvalsh of the checks below.
    if not np.isfinite(states).all():
        i, r, c = np.argwhere(~np.isfinite(states))[0]
        raise ValidationError(f"initial state {i} has a non-finite entry at ({r}, {c})")

    # The first state that fails a check, with its first failed check.
    _, health = _health(states)
    defect = health["hermiticity_defect"]
    not_hermitian = defect > _STATE_TOL * np.maximum(1.0, _frobenius(states))
    bad_trace = health["trace_deviation"] > _STATE_TOL
    negative = health["min_eigenvalue"] < -_STATE_TOL
    failed = np.flatnonzero(not_hermitian | bad_trace | negative)
    if failed.size:
        i = failed[0]
        if not_hermitian[i]:
            raise ValidationError(f"initial state is not Hermitian (defect {defect[i]:.3e})")
        if bad_trace[i]:
            tr = complex(np.trace(states[i]))
            raise ValidationError(f"initial state has trace {tr:.6g}, expected 1")
        raise ValidationError(
            f"initial state has negative eigenvalue {health['min_eigenvalue'][i]:.3e}"
        )

    vecs = states.transpose(0, 2, 1).reshape(n, d * d, 1)
    snapshots = np.empty((ts.size, n, d, d), dtype=np.complex128)
    previous_t = 0.0
    for k, t in enumerate(ts):
        step = float(t - previous_t)
        if step > 0.0:
            vecs = propagator.step(step) @ vecs
        previous_t = float(t)
        snapshots[k] = vecs.reshape(n, d, d).transpose(0, 2, 1)
    return snapshots


def evolve(bundle: GeneratorBundle, initial_state: np.ndarray, times) -> Trajectory:
    """Propagate a state to each requested time with the bundle's cached
    step exponentials.

    ``times`` must be finite, non-negative and strictly increasing
    (:func:`_time_grid`); a leading ``0.0`` snapshot is allowed.  Each
    snapshot's diagnostics include the trace distance to the bundle's cached
    Gibbs density; all of them come from one :func:`snapshot_diagnostics`
    call on the whole trajectory.
    """
    ts = _time_grid(times)
    states = _propagate(bundle.propagator, [initial_state], ts)[:, 0]
    diagnostics = snapshot_diagnostics(states, bundle.gibbs_state)
    return Trajectory(times=ts, states=states, diagnostics=diagnostics)


def semigroup_defect(bundle: GeneratorBundle, t: float, s: float) -> float:
    """Relative defect of ``e^{(t+s)L} = e^{tL} e^{sL}``; ``t`` and ``s``
    must be finite and non-negative (:meth:`Propagator.step`)."""
    propagator = bundle.propagator
    whole = propagator.step(t + s)
    split = propagator.step(t) @ propagator.step(s)
    return float(np.linalg.norm(whole - split)) / max(1.0, float(np.linalg.norm(whole)))


def contraction_report(bundle: GeneratorBundle, state_pairs, times) -> dict:
    """Trace distances between evolved state pairs at increasing times
    (finite, non-negative and strictly increasing, as for :func:`evolve`).

    Returns rows ``{pair, distances}`` where ``distances[k]`` is the trace
    distance at ``times[k]``; under a trace-preserving positive semigroup
    each row must be non-increasing (up to numerical tolerance -- asserted
    by callers, reported here).  The worst increase is the first largest
    step up between neighbouring times, if any is positive.  Both states of
    every pair are propagated as one stack, and the distances of all pairs
    and times come from one stacked ``eigvalsh``.
    """
    states = [state for rho_a, rho_b in state_pairs for state in (rho_a, rho_b)]
    ts = _time_grid(times)
    report = {
        "rows": [],
        "worst_increase": 0.0,
        "worst_pair": None,
        "worst_time": None,
        "times": ts.tolist(),
    }
    if not states:
        return report
    evolved = _propagate(bundle.propagator, states, ts).swapaxes(0, 1)
    distances = _trace_distances(evolved[0::2], evolved[1::2])
    report["rows"] = [{"pair": i, "distances": row} for i, row in enumerate(distances.tolist())]
    increases = np.fmax(np.diff(distances, axis=1), 0.0)  # a fall or a NaN step is no increase
    if increases.any():
        pair, k = np.unravel_index(np.argmax(increases), increases.shape)
        report.update(
            worst_increase=float(increases[pair, k]), worst_pair=int(pair), worst_time=float(ts[k + 1])
        )
    return report


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
    """Most negative Choi eigenvalue of the time-``t`` channel (``t`` finite
    and non-negative, as for every ``choi_*`` function)."""
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
