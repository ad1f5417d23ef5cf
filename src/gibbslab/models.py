"""Benchmark models: Hamiltonians, adjoint-closed jump families, Gibbs states.

A :class:`Model` is a Hermitian ``P`` (the generator's Hamiltonian reference,
shifted so its lowest eigenvalue is exactly 1) together with a finite family
of jump operators closed under the adjoint.  The builders are:

* ``qubit_model`` -- two levels split by 1, a single self-adjoint flip jump.
* ``oscillator_model`` -- truncated harmonic ladder ``diag(1..dim)`` with the
  pinned lowering operator ``a[i, i+1] = sqrt(i+1)`` and its adjoint.
* ``schrodinger_line_model`` -- Dirichlet finite differences for
  ``-Laplacian + V`` on ``(-L, L)`` with a drift-plus-position jump.
* ``torus_model`` -- divergence-form periodic finite differences
  ``-div(p grad) + V`` on the unit circle.
* ``random_model`` -- seeded Haar-basis Hamiltonian with a prescribed
  spectrum and random unit-norm jump pairs.

All spectra are produced in ascending order.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from decimal import Decimal
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .bohr import BohrSpectrum, bohr_spectrum
from .errors import NumericalGuardError, ValidationError
from .operator_core import EigenSystem, dagger, eig_hermitian

__all__ = [
    "Model",
    "model_from_config",
    "named_potential",
    "oscillator_model",
    "qubit_model",
    "random_model",
    "schrodinger_line_model",
    "torus_model",
]

# Jump norms are kept at unit scale so generator residual tolerances mean the
# same thing across models.  The distance at which a jump's adjoint counts as
# in its family: when a family is closed, and when a generator checks it.
_ADJOINT_CLOSURE_TOL = 1e-12

# A verify-stationarity build of line32 and line48 peaked at 1.97 and 1.86
# times one d^2 x d^2 complex matrix (16 d^4 bytes) above the imports.
_BUILD_MATRICES = 2


def _require_buildable(dim: int, n_jumps: int) -> None:
    """Refuse, before anything is allocated, a model whose dense generator
    and jumps the host's physical memory cannot hold: an estimated
    ``_BUILD_MATRICES`` times ``16 d^4`` bytes, plus ``2 x 16 d^2`` bytes a
    jump (the jump and its copy in the eigenbasis), against the physical
    memory ``os.sysconf`` reports (no bound where it reports none)."""
    try:
        physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return
    d = int(dim)
    need = _BUILD_MATRICES * 16 * d**4 + int(n_jumps) * 2 * 16 * d**2
    if 0 < physical < need:
        # Decimal, since a dimension or jump count read from a config may be
        # any integer and the bytes need not fit in a float.
        need_gib, physical_gib = (Decimal(n) / 2**30 for n in (need, physical))
        raise NumericalGuardError(
            f"a model of dimension {Decimal(dim):.6g} with {Decimal(n_jumps):.6g} jumps needs an "
            f"estimated {need_gib:.3g} GiB to build its generator ({_BUILD_MATRICES} x 16 d^4 "
            f"bytes) and its jumps (2 x 16 d^2 bytes each), more than the "
            f"{physical_gib:.3g} GiB of physical memory on this host"
        )


def _read_only(*arrays: np.ndarray) -> None:
    for array in arrays:
        array.flags.writeable = False


@dataclass(frozen=True)
class _Frame:
    """The spectral data every generator of a model is built on: the Bohr
    spectrum of its Hamiltonian, its jumps in the eigenbasis, and the jump
    family's adjoint-closure defect and squared-norm sum."""

    spectrum: BohrSpectrum
    jumps_eig: tuple[np.ndarray, ...]
    adjoint_closure_defect: float
    jump_norm_squared_sum: float


@dataclass(frozen=True)
class Model:
    """A Hamiltonian with an adjoint-closed jump family.

    Attributes:
        model_id: short, stable identifier (used in configs and reports).
        hamiltonian: Hermitian ``(d, d)`` array with smallest eigenvalue 1.
        jumps: tuple of ``(d, d)`` jump operators, closed under the adjoint.

    The Hamiltonian and the jumps are made read-only on construction, so the
    eigensystem and the :attr:`frame`, cached read-only on first use, cannot
    go stale (``dataclasses.replace`` starts a new cache).
    """

    model_id: str
    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        _read_only(self.hamiltonian, *self.jumps)

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def eigensystem(self) -> EigenSystem:
        """The Hamiltonian's eigensystem (computed once, read-only)."""
        return self._system

    @cached_property
    def _system(self) -> EigenSystem:
        system = eig_hermitian(self.hamiltonian)
        _read_only(system.eigenvalues, system.eigenvectors)
        return system

    @cached_property
    def frame(self) -> _Frame:
        """The model's spectral frame, computed on first read; read-only and
        shared by every generator built on the model."""
        system = self.eigensystem()
        spectrum = bohr_spectrum(system)
        jumps_eig = tuple(system.to_eigenbasis(a) for a in self.jumps)
        _read_only(spectrum.frequencies, spectrum.pair_index, *jumps_eig)
        return _Frame(spectrum, jumps_eig, self.adjoint_closure_defect(), self.jump_norm_squared_sum())

    def jump_norm_squared_sum(self) -> float:
        return float(sum(np.linalg.norm(j) ** 2 for j in self.jumps))

    def adjoint_closure_defect(self) -> float:
        """Distance from the jump family to its adjoint image.

        For each jump the nearest adjoint of a family member is found; the
        worst such distance is returned (0 for exactly closed families).
        """
        worst = 0.0
        for a in self.jumps:
            best = min(float(np.linalg.norm(dagger(a) - b)) for b in self.jumps)
            worst = max(worst, best)
        return worst


def _shift_spectrum_to_one(h: np.ndarray) -> np.ndarray:
    """Shift a Hermitian matrix so its smallest eigenvalue is exactly 1."""
    shift = 1.0 - float(eig_hermitian(h).eigenvalues[0])
    return h + shift * np.eye(h.shape[0])


def _close_under_adjoint(jumps: Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
    """Append missing adjoints so the family is exactly closed."""
    closed = [np.asarray(j, dtype=np.complex128) for j in jumps]
    for j in list(closed):
        adj = dagger(j)
        if min(float(np.linalg.norm(adj - b)) for b in closed) > _ADJOINT_CLOSURE_TOL:
            closed.append(adj)
    return tuple(closed)


# ---------------------------------------------------------------------------
# Named benchmark models
# ---------------------------------------------------------------------------


def qubit_model() -> Model:
    """Two-level model: energies ``(1, 2)`` and a single flip jump ``sigma_x``."""
    h = np.diag([1.0, 2.0]).astype(np.complex128)
    flip = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    return Model(
        model_id="qubit",
        hamiltonian=h,
        jumps=(flip,),
    )


def oscillator_model(dim: int = 6) -> Model:
    """Truncated harmonic ladder with the standard lowering/raising pair.

    ``P = diag(1, ..., dim)`` and ``a[i, i+1] = sqrt(i+1)``; the jumps are
    ``(a, a^dagger)``.  The lowering operator is kept in its standard
    unnormalised form -- norms grow with ``dim``, which residual tolerances
    account for by using relative scales.
    """
    if dim < 3:
        raise ValidationError(f"oscillator needs dim >= 3, got {dim}")
    _require_buildable(dim, 2)
    h = np.diag(np.arange(1, dim + 1, dtype=np.float64)).astype(np.complex128)
    lower = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim - 1):
        lower[i, i + 1] = math.sqrt(i + 1.0)
    return Model(
        model_id=f"oscillator{dim}",
        hamiltonian=h,
        jumps=(lower, dagger(lower)),
    )


def named_potential(name: str, coefficient: float = 1.0) -> Callable[[np.ndarray], np.ndarray]:
    """Built-in potential shapes for the grid models.

    ``quadratic``: ``c x^2``; ``quartic``: ``c x^4``; ``cosine``:
    ``c (1 - cos(2 pi x))`` (periodic well).  Tabulated samples can be passed
    directly to the builders instead; there is deliberately no expression
    parser.
    """
    if name == "quadratic":
        return lambda x: coefficient * np.square(x)
    if name == "quartic":
        return lambda x: coefficient * np.square(x) ** 2
    if name == "cosine":
        return lambda x: coefficient * (1.0 - np.cos(2.0 * math.pi * np.asarray(x)))
    raise ValidationError(f"unknown potential {name!r}; known: quadratic, quartic, cosine")


def _potential_values(potential, x: np.ndarray, name: str) -> np.ndarray:
    if callable(potential):
        v = np.asarray(potential(x), dtype=np.float64)
    else:
        v = np.asarray(potential, dtype=np.float64)
    if v.shape != x.shape:
        raise ValidationError(
            f"{name} potential evaluated to shape {v.shape}, expected {x.shape}"
        )
    if not np.all(np.isfinite(v)):
        raise ValidationError(f"{name} potential has non-finite values")
    return v


def _jump_pair(coefficients, name: str) -> tuple[float, float]:
    """The two jump coefficients ``(c1, c2)`` of a grid model."""
    if len(coefficients) != 2:
        raise ValidationError(
            f"{name} model needs two jump coefficients, got {len(coefficients)}"
        )
    return float(coefficients[0]), float(coefficients[1])


def schrodinger_line_model(
    n_grid: int = 16,
    box_half_width: float = 8.0,
    potential=None,
    jump_coefficients: tuple[float, float] = (0.35, 0.1),
) -> Model:
    """Dirichlet discretisation of ``-d^2/dx^2 + V`` on ``(-L, L)``.

    The grid is ``x_k = -L + (k + 1) h`` with ``h = 2L / (n_grid + 1)``; the
    Laplacian is the standard second-difference stencil with Dirichlet walls,
    so doubling ``n_grid`` improves eigenvalues at second order.  The jump is
    ``c1 * D_x + c2 * diag(x)`` (antisymmetric drift plus position), plus its
    adjoint; coefficients default to a scale that keeps the jump norm near 1.

    The potential must confine: ``V(+-L)`` must be at least ten times the
    median of ``V`` over the central half of the grid ``|x| <= L/2``.  (The
    median over the whole grid would put the bar above ``V`` at the walls for
    every quadratic well, so the comparison region is the center.)
    """
    if n_grid < 16:
        raise ValidationError(f"line model needs n_grid >= 16, got {n_grid}")
    c1, c2 = _jump_pair(jump_coefficients, "line")
    if not (np.isfinite(box_half_width) and box_half_width > 0.0):
        raise ValidationError(f"box half-width must be positive, got {box_half_width!r}")
    _require_buildable(n_grid, 2)
    L = float(box_half_width)
    if potential is None:
        potential = named_potential("quadratic")
    h = 2.0 * L / (n_grid + 1)
    x = -L + h * np.arange(1, n_grid + 1)
    v = _potential_values(potential, x, "line")

    wall = (
        float(min(potential(np.array([L]))[0], potential(np.array([-L]))[0]))
        if callable(potential)
        else float(min(v[0], v[-1]))
    )
    central = v[np.abs(x) <= 0.5 * L]
    if central.size == 0:
        raise ValidationError("grid has no points in the central half of the box")
    bar = 10.0 * float(np.median(central))
    if wall < bar:
        raise ValidationError(
            f"potential does not confine: V at the walls is {wall:.6g}, "
            f"below 10 * median over the central half = {bar:.6g}"
        )

    main = np.full(n_grid, 2.0 / (h * h))
    off = np.full(n_grid - 1, -1.0 / (h * h))
    kinetic = np.diag(main) + np.diag(off, 1) + np.diag(off, -1)
    ham = kinetic + np.diag(v)
    ham = _shift_spectrum_to_one(ham.astype(np.complex128))

    drift = (np.diag(np.full(n_grid - 1, 1.0), 1) - np.diag(np.full(n_grid - 1, 1.0), -1)) / (
        2.0 * h
    )
    jump = (c1 * drift + c2 * np.diag(x)).astype(np.complex128)
    return Model(
        model_id=f"line{n_grid}",
        hamiltonian=ham,
        jumps=_close_under_adjoint((jump,)),
    )


def torus_model(
    n_grid: int = 12,
    p_coefficient=None,
    potential=None,
    jump_coefficients: tuple[float, float] = (0.25, 0.3),
) -> Model:
    """Divergence-form periodic discretisation of ``-d/dx (p(x) d/dx) + V``.

    The unit circle is sampled at ``x_k = k/n``; the diffusion coefficient is
    evaluated at the midpoints ``(x_k + x_{k+1})/2`` so the stencil is exactly
    symmetric, and ``p`` must be uniformly positive (elliptic).  The jump is
    ``c1`` times the unit-scale centered shift difference plus
    ``c2 * diag(cos(2 pi x))``, plus its adjoint.

    The periodic benchmark is dimension 12; any ``n_grid >= 4`` is accepted.
    """
    if n_grid < 4:
        raise ValidationError(f"torus model needs n_grid >= 4, got {n_grid}")
    _require_buildable(n_grid, 2)
    c1, c2 = _jump_pair(jump_coefficients, "torus")
    n = int(n_grid)
    h = 1.0 / n
    x = h * np.arange(n)
    mid = x + 0.5 * h

    if p_coefficient is None:
        p_vals = np.ones(n)
    elif callable(p_coefficient):
        p_vals = np.asarray(p_coefficient(mid), dtype=np.float64)
    else:
        p_vals = np.asarray(p_coefficient, dtype=np.float64)
    if p_vals.shape != (n,):
        raise ValidationError(f"diffusion coefficient has shape {p_vals.shape}, expected ({n},)")
    if not np.all(np.isfinite(p_vals)) or np.min(p_vals) <= 0.0:
        raise ValidationError(
            f"diffusion coefficient must be strictly positive everywhere; "
            f"min value {np.min(p_vals):.6g}"
        )

    v = (
        np.zeros(n)
        if potential is None
        else _potential_values(potential, x, "torus")
    )

    ham = np.zeros((n, n))
    for k in range(n):
        kp = (k + 1) % n
        # Flux through the midpoint between k and k+1.
        ham[k, k] += p_vals[k] / (h * h)
        ham[kp, kp] += p_vals[k] / (h * h)
        ham[k, kp] -= p_vals[k] / (h * h)
        ham[kp, k] -= p_vals[k] / (h * h)
    ham += np.diag(v)
    ham = _shift_spectrum_to_one(ham.astype(np.complex128))

    # Unit-scale centered shift difference (the h-scaled drift stencil), so
    # the jump norm stays near 1 independent of the grid resolution.
    shift_diff = np.zeros((n, n))
    for k in range(n):
        shift_diff[k, (k + 1) % n] = 0.5
        shift_diff[k, (k - 1) % n] = -0.5
    jump = (c1 * shift_diff + c2 * np.diag(np.cos(2.0 * math.pi * x))).astype(np.complex128)
    return Model(
        model_id=f"torus{n}",
        hamiltonian=ham,
        jumps=_close_under_adjoint((jump,)),
    )


def random_model(
    dim: int,
    n_jump_pairs: int = 1,
    seed: int = 0,
    spectrum: Sequence[float] | None = None,
) -> Model:
    """Seeded random model: Haar eigenbasis, prescribed or random spectrum.

    Jumps come in ``(A, A^dagger)`` pairs with ``A`` scaled to unit operator
    norm.  A prescribed spectrum is shifted so its minimum is 1; a random one
    is drawn with unit mean gaps.
    """
    if dim < 2:
        raise ValidationError(f"random model needs dim >= 2, got {dim}")
    if n_jump_pairs < 1:
        raise ValidationError(f"need at least one jump pair, got {n_jump_pairs}")
    _require_buildable(dim, 2 * n_jump_pairs)
    rng = np.random.default_rng(seed)
    if spectrum is None:
        gaps = rng.uniform(0.5, 1.5, size=dim - 1)
        energies = np.concatenate([[0.0], np.cumsum(gaps)])
    else:
        energies = np.sort(np.asarray(spectrum, dtype=np.float64))
        if energies.shape != (dim,):
            raise ValidationError(
                f"spectrum has {energies.shape[0]} values, expected {dim}"
            )
    energies = energies + (1.0 - float(energies[0]))

    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    q = q * (np.diag(r) / np.abs(np.diag(r)))  # fix phases for determinism
    ham = (q * energies) @ dagger(q)

    jumps: list[np.ndarray] = []
    for _ in range(n_jump_pairs):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        a = a / np.linalg.norm(a, ord=2)
        jumps.append(a)
        jumps.append(dagger(a))
    return Model(
        model_id=f"random{dim}_seed{seed}",
        hamiltonian=ham.astype(np.complex128),
        jumps=tuple(jumps),
    )


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------


def config_number(value, context: str, kind: type = float):
    """``kind(value)`` for a config entry that must be a finite number.

    Only numbers are read: a boolean, a string or anything else is not
    coerced, and an ``int`` entry must be integral (``16.7`` is not read as
    16).  NaN and the infinities (which JSON readers accept as ``NaN``,
    ``Infinity`` or ``1e400``) are rejected too, each with a
    :class:`ValidationError` naming ``context``.
    """
    noun = "an integer" if kind is int else "a number"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{context} must be {noun}, got {value!r}")
    try:
        x = kind(value)
    except (ValueError, OverflowError):
        raise ValidationError(f"{context} must be {noun}, got {value!r}") from None
    if not math.isfinite(x):
        raise ValidationError(f"{context} must be finite, got {value!r}")
    if kind is int and x != value:
        raise ValidationError(f"{context} must be {noun}, got {value!r}")
    return x


def _param(params: dict, key: str, default, kind: type = float):
    return config_number(params.get(key, default), f"model.{key}", kind)


def _numbers(params: dict, key: str, default=None) -> tuple[float, ...] | None:
    if key not in params:
        return default
    values = params[key]
    if not isinstance(values, (list, tuple)):
        raise ValidationError(f"model.{key} must be a list of numbers, got {values!r}")
    return tuple(config_number(v, f"model.{key} entry") for v in values)


_POTENTIAL_KEYS = ("potential", "potential_coefficient", "potential_values")

# Model name -> (the parameter keys its builder reads, the builder).
_MODEL_BUILDERS: dict[str, tuple[tuple[str, ...], Callable[[dict], Model]]] = {
    "qubit": ((), lambda params: qubit_model()),
    "oscillator": (("dim",), lambda params: oscillator_model(_param(params, "dim", 6, int))),
    "line": (
        ("n_grid", "box_half_width", "jump_coefficients", *_POTENTIAL_KEYS),
        lambda params: schrodinger_line_model(
            n_grid=_param(params, "n_grid", 16, int),
            box_half_width=_param(params, "box_half_width", 8.0),
            potential=_potential_from_params(params),
            jump_coefficients=_numbers(params, "jump_coefficients", (0.35, 0.1)),
        ),
    ),
    "torus": (
        ("n_grid", "p_values", "jump_coefficients", *_POTENTIAL_KEYS),
        lambda params: torus_model(
            n_grid=_param(params, "n_grid", 12, int),
            p_coefficient=_numbers(params, "p_values"),
            potential=_potential_from_params(params),
            jump_coefficients=_numbers(params, "jump_coefficients", (0.25, 0.3)),
        ),
    ),
    "random": (
        ("dim", "n_jump_pairs", "seed", "spectrum"),
        lambda params: random_model(
            dim=_param(params, "dim", 4, int),
            n_jump_pairs=_param(params, "n_jump_pairs", 1, int),
            seed=_param(params, "seed", 0, int),
            spectrum=_numbers(params, "spectrum"),
        ),
    ),
}


def _potential_from_params(params: dict):
    """The grid potential of a line or torus config: its ``potential_values``,
    else its named ``potential`` times ``potential_coefficient``, else the
    builder's default.  A key the chosen form would not read is refused."""
    if "potential_values" in params:
        unread = [f"model.{k}" for k in ("potential", "potential_coefficient") if k in params]
        if unread:
            raise ValidationError(
                f"model.potential_values gives the potential itself; drop {', '.join(unread)}"
            )
        return _numbers(params, "potential_values")
    if "potential" in params:
        return named_potential(
            str(params["potential"]), _param(params, "potential_coefficient", 1.0)
        )
    if "potential_coefficient" in params:
        raise ValidationError("model.potential_coefficient needs a named model.potential")
    return None


def model_from_config(config: dict) -> Model:
    """Build a model from a config mapping ``{"name": ..., **params}``.

    Unknown names and unknown parameter keys are rejected so that typos fail
    loudly instead of silently running a default.
    """
    if not isinstance(config, dict):
        raise ValidationError(f"model config must be a mapping, got {type(config)!r}")
    params = dict(config)
    name = params.pop("name", None)
    if name not in _MODEL_BUILDERS:
        raise ValidationError(
            f"unknown model name {name!r}; known: {sorted(_MODEL_BUILDERS)}"
        )
    keys, build = _MODEL_BUILDERS[name]
    unknown = set(params) - set(keys)
    if unknown:
        raise ValidationError(
            f"unknown keys for model {name!r}: {sorted(unknown)}; allowed: {sorted(keys)}"
        )
    return build(params)
