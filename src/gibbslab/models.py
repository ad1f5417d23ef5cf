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

All spectra are produced in ascending order; ``meta["spectral_shift"]``
records the constant added to pin the ground energy at 1 (the Gibbs state and
all Bohr frequencies are shift-invariant).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ValidationError
from .operator_core import EigenSystem, dagger, eig_hermitian

__all__ = [
    "Model",
    "WELL_SEPARATED_SPECTRUM_6",
    "benchmark_models",
    "gibbs_state",
    "model_from_config",
    "named_potential",
    "oscillator_model",
    "qubit_model",
    "random_model",
    "schrodinger_line_model",
    "torus_model",
]

#: Six-level spectrum whose 15 pairwise gaps are all distinct and at least
#: 0.5 apart, used by the coherent-term and delocalisation studies where a
#: well-separated Bohr spectrum is required.
WELL_SEPARATED_SPECTRUM_6 = (0.0, 0.5, 1.5, 3.5, 6.0, 10.0)

# Jump norms are kept at unit scale so generator residual tolerances mean the
# same thing across models.
_ADJOINT_CLOSURE_TOL = 1e-12


@dataclass(frozen=True)
class Model:
    """A Hamiltonian with an adjoint-closed jump family.

    Attributes:
        model_id: short, stable identifier (used in configs and reports).
        hamiltonian: Hermitian ``(d, d)`` array with smallest eigenvalue 1.
        jumps: tuple of ``(d, d)`` jump operators, closed under the adjoint.
        meta: construction record (grid sizes, potentials, shifts, seeds).
        truncation_note: human-readable caveat when the model is a finite
            truncation of an unbounded one.
    """

    model_id: str
    hamiltonian: np.ndarray
    jumps: tuple[np.ndarray, ...]
    meta: dict = field(default_factory=dict)
    truncation_note: str | None = None

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    def eigensystem(self) -> EigenSystem:
        return eig_hermitian(self.hamiltonian)

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


def _shift_spectrum_to_one(h: np.ndarray) -> tuple[np.ndarray, float]:
    """Shift a Hermitian matrix so its smallest eigenvalue is exactly 1."""
    system = eig_hermitian(h)
    shift = 1.0 - float(system.eigenvalues[0])
    return h + shift * np.eye(h.shape[0]), shift


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
        meta={"spectral_shift": 1.0, "splitting": 1.0},
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
    h = np.diag(np.arange(1, dim + 1, dtype=np.float64)).astype(np.complex128)
    lower = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(dim - 1):
        lower[i, i + 1] = math.sqrt(i + 1.0)
    return Model(
        model_id=f"oscillator{dim}",
        hamiltonian=h,
        jumps=(lower, dagger(lower)),
        meta={"spectral_shift": 0.0, "dim": dim},
        truncation_note=(
            "finite truncation of the harmonic ladder; the top level has no "
            "raising transition"
        ),
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
    ham, shift = _shift_spectrum_to_one(ham.astype(np.complex128))

    drift = (np.diag(np.full(n_grid - 1, 1.0), 1) - np.diag(np.full(n_grid - 1, 1.0), -1)) / (
        2.0 * h
    )
    jump = (c1 * drift + c2 * np.diag(x)).astype(np.complex128)
    return Model(
        model_id=f"line{n_grid}",
        hamiltonian=ham,
        jumps=_close_under_adjoint((jump,)),
        meta={
            "spectral_shift": shift,
            "n_grid": n_grid,
            "box_half_width": L,
            "grid_step": h,
            "jump_coefficients": (c1, c2),
        },
        truncation_note="finite-difference truncation of a continuum operator",
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
    ham, shift = _shift_spectrum_to_one(ham.astype(np.complex128))

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
        meta={
            "spectral_shift": shift,
            "n_grid": n,
            "grid_step": h,
            "jump_coefficients": (c1, c2),
        },
        truncation_note="finite-difference truncation of a periodic continuum operator",
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
    shift = 1.0 - float(energies[0])
    energies = energies + shift

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
        meta={
            "spectral_shift": shift,
            "seed": seed,
            "n_jump_pairs": n_jump_pairs,
            "spectrum": tuple(float(e) for e in energies),
        },
    )


def benchmark_models() -> tuple[Model, ...]:
    """The four standard benchmarks: qubit, 6-level ladder, 16-point line,
    12-point torus."""
    return (
        qubit_model(),
        oscillator_model(6),
        schrodinger_line_model(16),
        torus_model(12),
    )


def gibbs_state(model: Model) -> np.ndarray:
    """Normalised Gibbs density ``e^{-P} / tr e^{-P}`` of a model.

    Computed through the spectrum with the ground energy subtracted before
    exponentiating, so no underflow occurs for wide spectra.
    """
    system = model.eigensystem()
    ground = float(system.eigenvalues[0])
    rho = system.function_of(lambda e: np.exp(-(e - ground)))
    rho = 0.5 * (rho + dagger(rho))
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Config round-trip
# ---------------------------------------------------------------------------


def config_number(value, context: str, kind: type = float):
    """``kind(value)`` for a config entry that must be a finite number.

    Anything ``kind`` cannot convert, and NaN or an infinity (which JSON
    readers accept as ``NaN``, ``Infinity`` or ``1e400``), is rejected with
    a :class:`ValidationError` naming ``context``.
    """
    try:
        x = kind(value)
    except (TypeError, ValueError, OverflowError):
        noun = "an integer" if kind is int else "a number"
        raise ValidationError(f"{context} must be {noun}, got {value!r}") from None
    if not math.isfinite(x):
        raise ValidationError(f"{context} must be finite, got {value!r}")
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


_MODEL_BUILDERS: dict[str, Callable[..., Model]] = {
    "qubit": lambda params: qubit_model(),
    "oscillator": lambda params: oscillator_model(_param(params, "dim", 6, int)),
    "line": lambda params: schrodinger_line_model(
        n_grid=_param(params, "n_grid", 16, int),
        box_half_width=_param(params, "box_half_width", 8.0),
        potential=_potential_from_params(params),
        jump_coefficients=_numbers(params, "jump_coefficients", (0.35, 0.1)),
    ),
    "torus": lambda params: torus_model(
        n_grid=_param(params, "n_grid", 12, int),
        p_coefficient=_numbers(params, "p_values"),
        potential=_potential_from_params(params),
        jump_coefficients=_numbers(params, "jump_coefficients", (0.25, 0.3)),
    ),
    "random": lambda params: random_model(
        dim=_param(params, "dim", 4, int),
        n_jump_pairs=_param(params, "n_jump_pairs", 1, int),
        seed=_param(params, "seed", 0, int),
        spectrum=_numbers(params, "spectrum"),
    ),
}

_KNOWN_MODEL_KEYS = {
    "qubit": set(),
    "oscillator": {"dim"},
    "line": {"n_grid", "box_half_width", "potential", "potential_coefficient",
             "potential_values", "jump_coefficients"},
    "torus": {"n_grid", "p_values", "potential", "potential_coefficient",
              "potential_values", "jump_coefficients"},
    "random": {"dim", "n_jump_pairs", "seed", "spectrum"},
}


def _potential_from_params(params: dict):
    if "potential_values" in params:
        return _numbers(params, "potential_values")
    if "potential" in params:
        return named_potential(
            str(params["potential"]), _param(params, "potential_coefficient", 1.0)
        )
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
    unknown = set(params) - _KNOWN_MODEL_KEYS[name]
    if unknown:
        raise ValidationError(
            f"unknown keys for model {name!r}: {sorted(unknown)}; "
            f"allowed: {sorted(_KNOWN_MODEL_KEYS[name])}"
        )
    return _MODEL_BUILDERS[name](params)
