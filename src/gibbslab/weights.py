"""Gaussian time filters, thermal weight functions, and the scalar kernels of
the balanced construction.

This module owns every scalar ingredient of the generator assembly:

* ``GaussianFilter`` — the unit bandwidth-``sigma`` Gaussian time profile

  .. math:: f_\\sigma(t) = \\sigma^{1/2} \\pi^{1/4} e^{-t^2 \\sigma^2 / 2},

  whose frequency profile is ``f_{1/sigma}``.  With this normalisation the
  squared frequency profile integrates to ``pi`` (not 1); the constant is
  exposed as :data:`FILTER_SQUARED_MASS` and propagated consciously wherever
  the delocalised (small ``sigma``) limit is compared against an unfiltered
  generator.

* Weight functions ``gamma(omega)`` attached to jump operators:

  - detailed-balance (KMS) weights ``gamma(-omega) = e^omega gamma(omega)``
    for the unfiltered generator (``glauber`` and ``metropolis``),
  - the *balanced* family ``gamma(omega) = e^{-omega/2} phi(omega + sigma^2/4)``
    with ``phi`` even, which makes the Gaussian-filtered generator stationary
    on the Gibbs density ``e^{-P}``,
  - an intentionally unbalanced control (the ``sigma^2/4`` argument shift
    removed) used by negative tests, and
  - the delocalised-limit weight ``pi * e^{-omega/2} phi(omega)`` that the
    filtered generator's diagonal coupling actually converges to as
    ``sigma -> 0`` (the factor ``pi`` is exactly the squared filter mass).

* The Gaussian-smoothed weight

  .. math:: H(c) = \\int \\gamma(\\omega) e^{-(\\omega - c)^2/\\sigma^2}\\,d\\omega,

  the single quadrature family from which the overlap couplings, the coherent
  couplings and the stationarity identity are all built.  Balance of the
  weight is equivalent to ``H(c) = e^{-c} H(-c)``.

* Coherent-term kernels: the odd difference factor, the smoothed sum factor,
  their product (the pair coefficient), the matching time-domain kernel and
  envelope, and the closed-form ``L^1`` mass of the time kernel.

* A small quadrature engine: shifted Gauss-Hermite rules for smooth
  integrands, kink-aligned Gauss-Legendre panels when the weight has
  breakpoints, and a deliberately independent adaptive-trapezoid path used as
  the cross-checking oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import erf, expit

from .errors import ValidationError

__all__ = [
    "FILTER_SQUARED_MASS",
    "COHERENT_L1_LIMIT",
    "TIME_KERNEL_ENVELOPE_SCALE",
    "TIME_KERNEL_SPECTRAL_SCALE",
    "MAX_SPECTRAL_WIDTH",
    "GaussianFilter",
    "WeightFunction",
    "PHI_LIBRARY",
    "resolve_phi",
    "kms_gamma",
    "balanced_gamma",
    "unshifted_gamma",
    "delocalised_limit_gamma",
    "kms_defect",
    "QuadratureRule",
    "DEFAULT_RULE",
    "ORACLE_RULE",
    "refined",
    "adaptive_trapezoid",
    "gaussian_weighted_integral",
    "smoothed_weight",
    "smoothed_weight_table",
    "tilted_weight_moment",
    "tilt_balance_residual",
    "coherent_difference_factor",
    "coherent_sum_factor",
    "coherent_pair_coefficient",
    "dissipator_gibbs_coefficient",
    "stationarity_identity_residual",
    "coherent_time_kernel",
    "coherent_time_envelope",
    "coherent_time_kernel_l1",
]

#: Integral of the squared frequency profile of the Gaussian filter.  The
#: printed normalisation sigma^{1/2} pi^{1/4} makes this pi rather than 1;
#: every delocalised-limit comparison in the package carries it explicitly.
FILTER_SQUARED_MASS = math.pi

#: Small-sigma limit of the L^1 mass of the coherent time kernel in the
#: envelope normalisation: sqrt(pi)/32.
COHERENT_L1_LIMIT = math.sqrt(math.pi) / 32.0

#: Normalisation of the coherent time kernel that pairs with the envelope
#: bound sqrt(pi)/32 (the convention used by the L^1 diagnostic).
TIME_KERNEL_ENVELOPE_SCALE = math.sqrt(math.pi) / 8.0

#: Normalisation under which the time kernel is exactly the inverse Fourier
#: transform of the odd difference factor (the convention used when pairing
#: with the time envelope in the time-domain assembly).
TIME_KERNEL_SPECTRAL_SCALE = 1.0 / math.sqrt(2.0 * math.pi)

#: Largest admissible spread of Bohr frequencies.  Exponentials e^{+-x/2} of
#: frequency differences appear throughout; this cap keeps them inside the
#: double-precision range with a wide safety margin.
MAX_SPECTRAL_WIDTH = 600.0


# ---------------------------------------------------------------------------
# Gaussian filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianFilter:
    """Gaussian time-localisation profile of bandwidth ``sigma``.

    ``time_profile`` is ``sigma^{1/2} pi^{1/4} exp(-t^2 sigma^2 / 2)``; its
    Fourier transform, ``frequency_profile``, equals the time profile with
    ``sigma -> 1/sigma``.  Both are implemented directly from their own
    formulas so that the exchange identity is a testable statement, not a
    definition.
    """

    sigma: float

    def __post_init__(self) -> None:
        if not (np.isfinite(self.sigma) and self.sigma > 0.0):
            raise ValidationError(
                f"filter bandwidth must be a finite positive number, got {self.sigma!r}"
            )

    def time_profile(self, t):
        t = np.asarray(t, dtype=np.float64)
        return math.sqrt(self.sigma) * math.pi**0.25 * np.exp(-0.5 * (t * self.sigma) ** 2)

    def frequency_profile(self, tau):
        tau = np.asarray(tau, dtype=np.float64)
        return math.pi**0.25 / math.sqrt(self.sigma) * np.exp(-0.5 * (tau / self.sigma) ** 2)

    def frequency_profile_squared_mass(self) -> float:
        """Exact value of ``integral frequency_profile(tau)^2 dtau``."""
        return FILTER_SQUARED_MASS


# ---------------------------------------------------------------------------
# Weight functions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightFunction:
    """A concrete weight ``gamma(omega)`` with its provenance.

    Fields
    ------
    kind:
        One of ``kms_glauber``, ``kms_metropolis``, ``balanced_from_phi``,
        ``unshifted_control``, ``delocalised_limit``.
    evaluate:
        Vectorised callable ``omega -> gamma(omega) >= 0``.
    sigma:
        Bandwidth the weight was built for (``None`` for bandwidth-free
        weights).  The generator assembly refuses to combine a filter with a
        weight built for a different bandwidth.
    phi_name:
        Name of the even profile used, if any.
    breakpoints:
        Points where ``gamma`` is continuous but not smooth; every quadrature
        in the package splits its panels there.
    """

    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    sigma: float | None = None
    phi_name: str | None = None
    breakpoints: tuple[float, ...] = ()
    description: str = ""

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=np.float64)
        out = np.asarray(self.evaluate(omega), dtype=np.float64)
        return out


@dataclass(frozen=True)
class PhiProfile:
    """A named even profile ``phi >= 0`` with its non-smooth points."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    breakpoints: tuple[float, ...] = ()


def _phi_gaussian(x):
    return np.exp(-np.square(x))


def _phi_sech(x):
    # 1/cosh(x/2), computed from exponentials of -|x| to avoid overflow.
    a = np.abs(x) * 0.5
    return 2.0 * np.exp(-a) / (1.0 + np.exp(-2.0 * a))


def _phi_exp_abs(x):
    return np.exp(-np.abs(x))


PHI_LIBRARY: dict[str, PhiProfile] = {
    "gaussian": PhiProfile("gaussian", _phi_gaussian),
    "sech": PhiProfile("sech", _phi_sech),
    "exp_abs": PhiProfile("exp_abs", _phi_exp_abs, breakpoints=(0.0,)),
}


def resolve_phi(phi) -> PhiProfile:
    """Return the named profile, or wrap a user-supplied even callable.

    A callable is accepted as-is with no declared breakpoints; callers
    providing kinked custom profiles should register them with explicit
    breakpoints by constructing a :class:`PhiProfile` themselves.
    """
    if isinstance(phi, PhiProfile):
        return phi
    if isinstance(phi, str):
        try:
            return PHI_LIBRARY[phi]
        except KeyError:
            raise ValidationError(
                f"unknown profile name {phi!r}; known profiles: {sorted(PHI_LIBRARY)}"
            ) from None
    if callable(phi):
        return PhiProfile("custom", phi)
    raise ValidationError(f"profile must be a name, a PhiProfile, or a callable, got {type(phi)!r}")


_PHI_EVEN_SAMPLES = np.linspace(0.25, 8.0, 32)
_PHI_TAIL_SAMPLES = (8.0, 12.0, 17.0, 23.0, 30.0, 40.0)


def _validate_phi(profile: PhiProfile) -> None:
    """Check evenness, non-negativity and tail decay of a profile.

    The tail requirement is that ``phi(x) * e^{|x|/4}`` is non-increasing on
    a fixed sample ladder out to ``|x| = 40`` (both signs).  That guarantees
    every Gaussian-tilted integral of the derived weights converges and keeps
    the smoothed sum factor bounded on any admissible spectrum; profiles with
    polynomial or constant tails are rejected.
    """
    fn = profile.fn
    xs = _PHI_EVEN_SAMPLES
    plus = np.asarray(fn(xs), dtype=np.float64)
    minus = np.asarray(fn(-xs), dtype=np.float64)
    if not (np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))):
        raise ValidationError(f"profile {profile.name!r} is not finite on the test grid")
    defect = np.abs(plus - minus)
    tol = 1e-12 * (1.0 + np.abs(plus))
    if np.any(defect > tol):
        k = int(np.argmax(defect - tol))
        raise ValidationError(
            f"profile {profile.name!r} is not even: worst asymmetry {defect[k]:.3e} at x={xs[k]:.6g}"
        )
    sample_grid = np.concatenate([[0.0], xs, -xs])
    vals = np.asarray(fn(sample_grid), dtype=np.float64)
    if np.any(vals < 0.0):
        k = int(np.argmin(vals))
        raise ValidationError(
            f"profile {profile.name!r} is negative: phi({sample_grid[k]:.6g}) = {vals[k]:.3e}"
        )
    for sign in (1.0, -1.0):
        ts = sign * np.asarray(_PHI_TAIL_SAMPLES)
        tail = np.asarray(fn(ts), dtype=np.float64) * np.exp(np.abs(ts) / 4.0)
        if not np.all(np.isfinite(tail)):
            raise ValidationError(f"profile {profile.name!r} has a non-finite tilted tail")
        grow = np.diff(tail) > 1e-9 * (1.0 + tail[:-1])
        if np.any(grow):
            k = int(np.argmax(grow))
            raise ValidationError(
                f"profile {profile.name!r} decays too slowly: "
                f"phi(x) e^{{|x|/4}} grows from x={ts[k]:.6g} to x={ts[k + 1]:.6g}"
            )


def kms_gamma(kind: str) -> WeightFunction:
    """Detailed-balance weight for the unfiltered generator.

    ``glauber``: ``1 / (1 + e^omega)``; ``metropolis``: ``min(1, e^-omega)``.
    Both satisfy ``gamma(-omega) = e^omega gamma(omega)`` exactly.
    """
    if kind == "glauber":
        return WeightFunction(
            kind="kms_glauber",
            evaluate=lambda w: expit(-np.asarray(w, dtype=np.float64)),
            description="1/(1+e^omega)",
        )
    if kind == "metropolis":
        return WeightFunction(
            kind="kms_metropolis",
            evaluate=lambda w: np.exp(np.minimum(0.0, -np.asarray(w, dtype=np.float64))),
            breakpoints=(0.0,),
            description="min(1, e^-omega)",
        )
    raise ValidationError(f"unknown detailed-balance weight kind {kind!r}")


def _shifted_profile_weight(profile: PhiProfile, shift: float) -> Callable:
    fn = profile.fn

    def evaluate(w):
        w = np.asarray(w, dtype=np.float64)
        p = np.asarray(fn(w + shift), dtype=np.float64)
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        out = np.exp(-0.5 * w + logp)
        return np.where(p > 0.0, out, 0.0)

    return evaluate


def balanced_gamma(phi, sigma: float) -> WeightFunction:
    """Balanced weight ``e^{-omega/2} phi(omega + sigma^2/4)`` for bandwidth ``sigma``.

    The argument shift by ``sigma^2/4`` is exactly what makes the Gaussian
    smoothing of the weight satisfy ``H(c) = e^{-c} H(-c)``, and hence the
    filtered generator stationary on the Gibbs density.
    """
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValidationError(f"bandwidth must be a finite positive number, got {sigma!r}")
    profile = resolve_phi(phi)
    _validate_phi(profile)
    shift = 0.25 * sigma * sigma
    return WeightFunction(
        kind="balanced_from_phi",
        evaluate=_shifted_profile_weight(profile, shift),
        sigma=float(sigma),
        phi_name=profile.name,
        breakpoints=tuple(sorted(b - shift for b in profile.breakpoints)),
        description=f"e^(-omega/2) {profile.name}(omega + {shift:.6g})",
    )


def unshifted_gamma(phi, sigma: float) -> WeightFunction:
    """Negative-control weight: the balanced form with the argument shift removed.

    Same smoothness and decay as :func:`balanced_gamma`, but the smoothing
    identity fails by a factor ``~ e^{sigma^2/4}`` scale, so the filtered
    generator visibly does not fix the Gibbs density.
    """
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValidationError(f"bandwidth must be a finite positive number, got {sigma!r}")
    profile = resolve_phi(phi)
    _validate_phi(profile)
    return WeightFunction(
        kind="unshifted_control",
        evaluate=_shifted_profile_weight(profile, 0.0),
        sigma=float(sigma),
        phi_name=profile.name,
        breakpoints=tuple(sorted(profile.breakpoints)),
        description=f"e^(-omega/2) {profile.name}(omega)  [balance intentionally broken]",
    )


def delocalised_limit_gamma(phi) -> WeightFunction:
    """The weight the filtered coupling table converges to as ``sigma -> 0``.

    The diagonal of the overlap table tends to ``pi * e^{-omega/2} phi(omega)``
    -- the factor ``pi`` is the squared mass of the frequency profile under
    the printed normalisation.  The result satisfies detailed balance
    exactly, so it is a valid unfiltered-generator weight.
    """
    profile = resolve_phi(phi)
    _validate_phi(profile)
    fn = profile.fn

    def evaluate(w):
        w = np.asarray(w, dtype=np.float64)
        p = np.asarray(fn(w), dtype=np.float64)
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        out = FILTER_SQUARED_MASS * np.exp(-0.5 * w + logp)
        return np.where(p > 0.0, out, 0.0)

    return WeightFunction(
        kind="delocalised_limit",
        evaluate=evaluate,
        phi_name=profile.name,
        breakpoints=tuple(sorted(profile.breakpoints)),
        description=f"pi e^(-omega/2) {profile.name}(omega)",
    )


def kms_defect(weight: WeightFunction, omegas) -> float:
    """Worst detailed-balance violation ``|gamma(-w) - e^w gamma(w)| / (1 + gamma(w))``."""
    w = np.asarray(omegas, dtype=np.float64).ravel()
    g_plus = weight(w)
    g_minus = weight(-w)
    with np.errstate(over="ignore"):
        expected = np.exp(w) * g_plus
    defect = np.abs(g_minus - expected) / (1.0 + g_plus)
    return float(np.max(defect)) if defect.size else 0.0


# ---------------------------------------------------------------------------
# Quadrature engine
# ---------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _gauss_hermite(order: int):
    x, w = hermgauss(order)
    return x, w


@lru_cache(maxsize=32)
def _gauss_legendre(order: int):
    x, w = leggauss(order)
    return x, w


@dataclass(frozen=True)
class QuadratureRule:
    """Recipe for the weighted integrals used throughout the package.

    ``gauss_hermite_shifted`` integrates ``fn(w) e^{-((w-c)/width)^2}`` by the
    shifted-and-scaled Gauss-Hermite rule of the given order when the
    integrand is smooth inside the window, and falls back to Gauss-Legendre
    panels aligned to the weight's breakpoints otherwise.

    ``adaptive_trapezoid`` is the deliberately independent oracle path: plain
    trapezoid sums on the window (split at breakpoints), doubling the node
    count until two successive refinements agree to ``rel_tol``.
    """

    kind: str = "gauss_hermite_shifted"
    order: int = 180
    panel_order: int = 16
    panel_width_fraction: float = 0.5
    window_radius: float = 8.0
    rel_tol: float = 1e-11
    max_doublings: int = 18
    initial_nodes: int = 65

    def __post_init__(self) -> None:
        if self.kind not in ("gauss_hermite_shifted", "adaptive_trapezoid"):
            raise ValidationError(f"unknown quadrature kind {self.kind!r}")
        if self.order < 2 or self.panel_order < 2:
            raise ValidationError("quadrature orders must be at least 2")
        if not (0.0 < self.panel_width_fraction <= 2.0):
            raise ValidationError("panel width fraction must lie in (0, 2]")
        if self.window_radius < 4.0:
            raise ValidationError("window radius below 4 standard widths loses tail mass")

    def reference_nodes(self) -> np.ndarray:
        if self.kind == "gauss_hermite_shifted":
            return _gauss_hermite(self.order)[0].copy()
        return np.linspace(-1.0, 1.0, self.initial_nodes)

    def reference_weights(self) -> np.ndarray:
        if self.kind == "gauss_hermite_shifted":
            return _gauss_hermite(self.order)[1].copy()
        n = self.initial_nodes
        w = np.full(n, 2.0 / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return w


DEFAULT_RULE = QuadratureRule()
ORACLE_RULE = QuadratureRule(kind="adaptive_trapezoid")


def refined(rule: QuadratureRule) -> QuadratureRule:
    """A strictly finer version of ``rule``, used for convergence estimates."""
    return replace(
        rule,
        order=rule.order * 2,
        panel_order=rule.panel_order + 8,
        panel_width_fraction=rule.panel_width_fraction * 0.5,
        rel_tol=rule.rel_tol * 0.1,
        initial_nodes=2 * rule.initial_nodes - 1,
    )


def adaptive_trapezoid(
    fn: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    *,
    breakpoints: Sequence[float] = (),
    rel_tol: float = 1e-11,
    max_doublings: int = 18,
    initial_nodes: int = 65,
    cancellation_floor: float = 0.0,
):
    """Trapezoid quadrature of ``fn`` on ``[lo, hi]`` with doubling refinement.

    The interval is split at interior breakpoints; within each segment the
    node count doubles until two successive totals agree to ``rel_tol`` in
    relative terms.  Raises if the refinement never settles.

    ``cancellation_floor``, when positive, also accepts a refinement step
    once successive totals agree to ``cancellation_floor`` times the
    integral of ``|fn|``: an integrand whose positive and negative parts
    cancel that many digits has hit its roundoff accuracy floor, and no
    further refinement can improve the answer.
    """
    if not (np.isfinite(lo) and np.isfinite(hi) and hi > lo):
        raise ValidationError(f"invalid integration window [{lo!r}, {hi!r}]")
    edges = [lo] + sorted(float(b) for b in breakpoints if lo < b < hi) + [hi]
    prev = None
    n = max(int(initial_nodes), 9)
    for _ in range(max_doublings + 1):
        total = 0.0
        mass = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            xs = np.linspace(a, b, n)
            ys = np.asarray(fn(xs))
            total = total + np.trapezoid(ys, xs)
            if cancellation_floor > 0.0:
                mass = mass + np.trapezoid(np.abs(ys), xs)
        if prev is not None:
            scale = max(abs(total), abs(prev), 1e-300)
            if abs(total - prev) <= rel_tol * scale + cancellation_floor * mass:
                return total
        prev = total
        n = 2 * n - 1
    raise ValidationError(
        f"trapezoid refinement did not settle to rel_tol={rel_tol:g} "
        f"within {max_doublings} doublings on [{lo:g}, {hi:g}]"
    )


def _panel_quadrature(edges: np.ndarray, order: int):
    """Gauss-Legendre nodes/weights tiling the consecutive segments of ``edges``."""
    x_ref, w_ref = _gauss_legendre(order)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * np.diff(edges)
    nodes = (mids[:, None] + half[:, None] * x_ref[None, :]).ravel()
    weights = (half[:, None] * w_ref[None, :]).ravel()
    return nodes, weights


def _kink_panel_edges(lo: float, hi: float, anchor: float, width: float) -> np.ndarray:
    """A lattice of panel edges of step ``width`` containing ``anchor`` as an edge."""
    k0 = math.floor((lo - anchor) / width)
    k1 = math.ceil((hi - anchor) / width)
    return anchor + width * np.arange(k0, k1 + 1)


def gaussian_weighted_integral(
    fn: Callable[[np.ndarray], np.ndarray],
    center: float,
    width: float,
    *,
    rule: QuadratureRule = DEFAULT_RULE,
    breakpoints: Sequence[float] = (),
) -> float:
    """Evaluate ``integral fn(w) * exp(-((w - center)/width)^2) dw``.

    The Gaussian factor is supplied by the quadrature, not by ``fn``.  The
    window spans ``rule.window_radius`` widths on both sides of the center;
    mass outside is below ``e^{-64}`` of the peak and ignored.
    """
    if not (np.isfinite(center) and np.isfinite(width) and width > 0.0):
        raise ValidationError(f"invalid Gaussian window (center={center!r}, width={width!r})")
    lo = center - rule.window_radius * width
    hi = center + rule.window_radius * width
    bps = [float(b) for b in breakpoints if lo < float(b) < hi]
    if rule.kind == "adaptive_trapezoid":
        def integrand(w):
            return np.asarray(fn(w)) * np.exp(-(((w - center) / width) ** 2))

        return adaptive_trapezoid(
            integrand,
            lo,
            hi,
            breakpoints=bps,
            rel_tol=rule.rel_tol,
            max_doublings=rule.max_doublings,
            initial_nodes=rule.initial_nodes,
        )
    if not bps:
        x, w = _gauss_hermite(rule.order)
        vals = np.asarray(fn(center + width * x))
        return float(width * np.sum(w * vals))
    panel_width = width * rule.panel_width_fraction
    edges = _kink_panel_edges(lo, hi, bps[0], panel_width)
    edges = np.unique(np.concatenate([edges, np.asarray(bps, dtype=np.float64)]))
    nodes, weights = _panel_quadrature(edges, rule.panel_order)
    vals = np.asarray(fn(nodes))
    gauss = np.exp(-(((nodes - center) / width) ** 2))
    return float(np.sum(weights * vals * gauss))


# ---------------------------------------------------------------------------
# Smoothed weight H and its table
# ---------------------------------------------------------------------------


def smoothed_weight(
    center: float,
    sigma: float,
    weight: WeightFunction,
    *,
    rule: QuadratureRule = DEFAULT_RULE,
) -> float:
    """Gaussian smoothing ``H(c) = integral gamma(w) e^{-(w-c)^2/sigma^2} dw``."""
    return gaussian_weighted_integral(
        weight, float(center), float(sigma), rule=rule, breakpoints=weight.breakpoints
    )


def smoothed_weight_table(
    weight: WeightFunction,
    sigma: float,
    centers,
    *,
    rule: QuadratureRule = DEFAULT_RULE,
) -> np.ndarray:
    """Vectorised :func:`smoothed_weight` over an array of centers.

    Smooth weights use the shifted Gauss-Hermite rule per center.  Weights
    with breakpoints share one global kink-aligned Gauss-Legendre panel
    lattice: the weight is evaluated once on all lattice nodes and each
    center reads its ``window_radius``-width slice, so the same node set
    serves every center and the balance identity ``H(c) = e^{-c} H(-c)``
    is preserved at quadrature accuracy.
    """
    centers = np.asarray(centers, dtype=np.float64).ravel()
    if centers.size == 0:
        return np.zeros(0)
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValidationError(f"bandwidth must be a finite positive number, got {sigma!r}")
    if not np.all(np.isfinite(centers)):
        raise ValidationError("smoothing centers must be finite")
    if rule.kind == "adaptive_trapezoid":
        return np.array([smoothed_weight(c, sigma, weight, rule=rule) for c in centers])

    order = np.argsort(centers, kind="stable")
    sorted_c = centers[order]
    out = np.empty_like(sorted_c)
    radius = rule.window_radius * sigma

    span_bps = [
        float(b)
        for b in weight.breakpoints
        if sorted_c[0] - radius < float(b) < sorted_c[-1] + radius
    ]
    if not span_bps:
        x, w = _gauss_hermite(rule.order)
        chunk = max(1, int(4_000_000 // max(rule.order, 1)))
        for start in range(0, sorted_c.size, chunk):
            c = sorted_c[start : start + chunk]
            omegas = c[:, None] + sigma * x[None, :]
            out[start : start + chunk] = sigma * (weight(omegas) @ w)
    else:
        panel_width = sigma * rule.panel_width_fraction
        lo = sorted_c[0] - radius - panel_width
        hi = sorted_c[-1] + radius + panel_width
        edges = _kink_panel_edges(lo, hi, span_bps[0], panel_width)
        edges = np.unique(np.concatenate([edges, np.asarray(span_bps)]))
        nodes, wts = _panel_quadrature(edges, rule.panel_order)
        sort_n = np.argsort(nodes, kind="stable")
        nodes = nodes[sort_n]
        wts = wts[sort_n]
        weighted_vals = weight(nodes) * wts
        chunk = 128
        for start in range(0, sorted_c.size, chunk):
            c = sorted_c[start : start + chunk]
            a = np.searchsorted(nodes, c[0] - radius, side="left")
            b = np.searchsorted(nodes, c[-1] + radius, side="right")
            sub_nodes = nodes[a:b]
            sub_vals = weighted_vals[a:b]
            gauss = np.exp(-(((sub_nodes[None, :] - c[:, None]) / sigma) ** 2))
            out[start : start + chunk] = gauss @ sub_vals

    result = np.empty_like(out)
    result[order] = out
    return result


def tilted_weight_moment(
    zeta: float,
    sigma: float,
    weight: WeightFunction,
    *,
    rule: QuadratureRule = DEFAULT_RULE,
) -> float:
    """Gaussian-tilted moment ``integral gamma(w) e^{-w^2/sigma^2} e^{-zeta w / sigma^2} dw``.

    Completing the square gives ``e^{zeta^2/(4 sigma^2)} H(-zeta/2)``, which is
    how it is evaluated.  For balanced weights it obeys the divisibility
    identity ``A(-zeta) = e^{-zeta/2} A(zeta)``.
    """
    zeta = float(zeta)
    if zeta * zeta / (4.0 * sigma * sigma) > 700.0:
        raise ValidationError(
            f"tilt zeta={zeta:g} overflows the Gaussian completion at bandwidth {sigma:g}"
        )
    return math.exp(zeta * zeta / (4.0 * sigma * sigma)) * smoothed_weight(
        -0.5 * zeta, sigma, weight, rule=rule
    )


def tilt_balance_residual(
    zeta: float,
    sigma: float,
    weight: WeightFunction,
    *,
    rule: QuadratureRule = DEFAULT_RULE,
) -> float:
    """Relative defect of ``A(-zeta) = e^{-zeta/2} A(zeta)`` for the tilted moment."""
    a_minus = tilted_weight_moment(-zeta, sigma, weight, rule=rule)
    a_plus = tilted_weight_moment(zeta, sigma, weight, rule=rule)
    if abs(zeta) > MAX_SPECTRAL_WIDTH:
        raise ValidationError(
            f"|zeta| = {abs(zeta):g} exceeds the supported spectral width {MAX_SPECTRAL_WIDTH:g}"
        )
    expected = math.exp(-0.5 * zeta) * a_plus
    scale = max(abs(a_minus), abs(expected), 1e-300)
    return abs(a_minus - expected) / scale


# ---------------------------------------------------------------------------
# Coherent-term kernels
# ---------------------------------------------------------------------------


def coherent_difference_factor(xi, sigma: float):
    """Odd, purely imaginary factor of the coherent pair coefficient.

    ``-(i / (4 sigma sqrt(pi))) e^{-xi^2/(4 sigma^2)} tanh(xi/4)`` as a
    function of the frequency difference ``xi``.  The sign is fixed by the
    requirement that the assembled coherent part cancel the dissipator's
    action on the Gibbs density; see ``coherent_pair_coefficient``.
    """
    xi = np.asarray(xi, dtype=np.float64)
    mag = np.exp(-np.square(xi) / (4.0 * sigma * sigma)) * np.tanh(0.25 * xi)
    return -1j / (4.0 * sigma * math.sqrt(math.pi)) * mag


def _check_scalar_refinement(value: float, value_fine: float, what: str) -> None:
    scale = max(abs(value), abs(value_fine), 1e-300)
    if abs(value - value_fine) > 1e-10 * scale:
        raise ValidationError(
            f"{what} is under-resolved: refinement changed the value by "
            f"{abs(value - value_fine) / scale:.3e} (relative), above 1e-10"
        )


def coherent_sum_factor(
    zeta,
    sigma: float,
    weight: WeightFunction,
    *,
    rule: QuadratureRule = DEFAULT_RULE,
    check_resolution: bool = True,
):
    """Real factor ``e^{-zeta/2} H(-zeta/2)`` of the coherent pair coefficient.

    A function of the frequency sum ``zeta``.  Scalar inputs are recomputed
    with a refined rule and rejected if the two values disagree beyond 1e-10
    relative; array inputs skip that check (the table construction carries
    its own convergence diagnostics).
    """
    zeta_arr = np.asarray(zeta, dtype=np.float64)
    if np.any(np.abs(zeta_arr) > 2.0 * MAX_SPECTRAL_WIDTH):
        raise ValidationError(
            f"frequency sum exceeds the supported spectral width {MAX_SPECTRAL_WIDTH:g}"
        )
    if zeta_arr.ndim == 0:
        z = float(zeta_arr)
        h = smoothed_weight(-0.5 * z, sigma, weight, rule=rule)
        value = math.exp(-0.5 * z) * h
        if check_resolution and rule.kind == "gauss_hermite_shifted":
            h_fine = smoothed_weight(-0.5 * z, sigma, weight, rule=refined(rule))
            _check_scalar_refinement(value, math.exp(-0.5 * z) * h_fine, "coherent sum factor")
        return value
    h = smoothed_weight_table(weight, sigma, -0.5 * zeta_arr, rule=rule)
    return np.exp(-0.5 * zeta_arr) * h


def coherent_pair_coefficient(
    nu,
    nu_prime,
    sigma: float,
    weight: WeightFunction,
    *,
    rule: QuadratureRule = DEFAULT_RULE,
):
    """Coefficient of ``A_nu^dagger A_nu'`` in the coherent part.

    ``2 pi * coherent_difference_factor(nu - nu') * coherent_sum_factor(nu + nu')``.
    The difference factor's argument order (``nu - nu'``) is the one under
    which the coherent part cancels the dissipator's action on the Gibbs
    density; the opposite order flips the sign of the whole term.
    Hermiticity of the assembled matrix follows from ``conj(b(nu, nu')) =
    b(nu', nu)`` term by term.
    """
    diff = coherent_difference_factor(np.asarray(nu) - np.asarray(nu_prime), sigma)
    total = coherent_sum_factor(
        np.asarray(nu) + np.asarray(nu_prime), sigma, weight, rule=rule, check_resolution=False
    )
    return 2.0 * math.pi * diff * total


def dissipator_gibbs_coefficient(
    tau: float,
    tau_prime: float,
    sigma: float,
    weight: WeightFunction,
    *,
    method: str = "closed_form",
    rule: QuadratureRule | None = None,
) -> float:
    """Coefficient of ``A_tau^dagger A_tau' e^{-P}`` in the dissipator's Gibbs action.

    ``closed_form`` assembles it from the Gaussian-tilted moment:

    ``sigma^-1 sqrt(pi) e^{-(zeta^2+xi^2)/(4 sigma^2)} [ e^{-(zeta-xi)/2} A(zeta)
    - (1/2)(1 + e^xi) A(-zeta) ]`` with ``xi = tau - tau'``, ``zeta = tau + tau'``.

    ``quadrature`` integrates the definition directly against the filter's
    frequency profile on an adaptive trapezoid grid, making the two methods
    genuinely independent evaluation paths.
    """
    xi = float(tau) - float(tau_prime)
    zeta = float(tau) + float(tau_prime)
    if max(abs(xi), abs(zeta)) > 2.0 * MAX_SPECTRAL_WIDTH:
        raise ValidationError(
            f"frequency pair ({tau:g}, {tau_prime:g}) exceeds the supported spectral width"
        )
    if method == "closed_form":
        use_rule = rule if rule is not None else DEFAULT_RULE
        a_plus = tilted_weight_moment(zeta, sigma, weight, rule=use_rule)
        a_minus = tilted_weight_moment(-zeta, sigma, weight, rule=use_rule)
        front = math.sqrt(math.pi) / sigma * math.exp(
            -(zeta * zeta + xi * xi) / (4.0 * sigma * sigma)
        )
        value = front * (
            math.exp(-0.5 * (zeta - xi)) * a_plus - 0.5 * (1.0 + math.exp(xi)) * a_minus
        )
        if use_rule.kind == "gauss_hermite_shifted":
            a_plus_f = tilted_weight_moment(zeta, sigma, weight, rule=refined(use_rule))
            a_minus_f = tilted_weight_moment(-zeta, sigma, weight, rule=refined(use_rule))
            fine = front * (
                math.exp(-0.5 * (zeta - xi)) * a_plus_f - 0.5 * (1.0 + math.exp(xi)) * a_minus_f
            )
            scale = max(abs(value), abs(fine), 1e-300)
            if abs(value - fine) > 1e-9 * scale + 1e-18:
                raise ValidationError(
                    "dissipator Gibbs coefficient is under-resolved: "
                    f"refinement moved it by {abs(value - fine) / scale:.3e} relative"
                )
        return value
    if method == "quadrature":
        use_rule = rule if rule is not None else ORACLE_RULE
        filt = GaussianFilter(sigma)
        t, tp = float(tau), float(tau_prime)

        def integrand(w):
            g = weight(w)
            first = math.exp(-tp) * filt.frequency_profile(w + t) * filt.frequency_profile(w + tp)
            second = (
                0.5
                * (1.0 + math.exp(t - tp))
                * filt.frequency_profile(w - t)
                * filt.frequency_profile(w - tp)
            )
            return g * (first - second)

        half_span = 0.5 * (abs(t) + abs(tp)) + use_rule.window_radius * sigma
        lo, hi = -half_span - 1.0, half_span + 1.0
        return adaptive_trapezoid(
            integrand,
            lo,
            hi,
            breakpoints=weight.breakpoints,
            rel_tol=use_rule.rel_tol,
            max_doublings=use_rule.max_doublings,
            initial_nodes=max(use_rule.initial_nodes, 257),
            cancellation_floor=1e-13,
        )
    raise ValidationError(f"unknown evaluation method {method!r}")


def stationarity_identity_residual(
    tau: float,
    tau_prime: float,
    sigma: float,
    weight: WeightFunction,
) -> float:
    """Scalar identity behind Gibbs stationarity, checked by two independent paths.

    Compares the dissipator's Gibbs-action coefficient, integrated directly
    on an adaptive trapezoid grid, against ``i (1 - e^{tau - tau'}) *
    coherent_pair_coefficient(tau, tau')`` evaluated through the smoothed
    weight.  Returns ``|lhs - rhs| / (1 + |lhs|)``.
    """
    lhs = dissipator_gibbs_coefficient(
        tau, tau_prime, sigma, weight, method="quadrature", rule=ORACLE_RULE
    )
    factor = 1.0 - math.exp(float(tau) - float(tau_prime))
    rhs = 1j * factor * coherent_pair_coefficient(tau, tau_prime, sigma, weight)
    if abs(rhs.imag) > 1e-13 * (1.0 + abs(rhs.real)):
        raise ValidationError(
            f"coherent side of the stationarity identity is not real: {rhs!r}"
        )
    return abs(lhs - rhs.real) / (1.0 + abs(lhs))


# ---------------------------------------------------------------------------
# Time-domain kernels
# ---------------------------------------------------------------------------


def coherent_time_kernel(
    t,
    sigma: float,
    *,
    scale: float = TIME_KERNEL_SPECTRAL_SCALE,
    panel_order: int = 16,
) -> np.ndarray:
    """Time profile paired with the odd difference factor.

    ``scale * integral_0^inf [e^{-sigma^2 (t-s)^2} - e^{-sigma^2 (t+s)^2}]
    / sinh(2 pi s) ds``.  With the spectral scale ``1/sqrt(2 pi)`` this is
    exactly the inverse Fourier transform of the difference factor; the
    envelope scale ``sqrt(pi)/8`` is the convention under which its ``L^1``
    mass is bounded by ``sqrt(pi)/32``.  Odd in ``t``, positive for ``t > 0``.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValidationError(f"bandwidth must be a finite positive number, got {sigma!r}")
    s_max = float(np.max(np.abs(t_arr))) + 12.0 / sigma + 2.0
    panel = min(0.5 / sigma, 0.25)
    n_panels = int(math.ceil(s_max / panel))
    edges = np.linspace(0.0, n_panels * panel, n_panels + 1)
    nodes, wts = _panel_quadrature(edges, panel_order)
    with np.errstate(over="ignore"):
        csch = wts / np.sinh(2.0 * math.pi * nodes)
    diff = np.exp(-(sigma * (t_arr[:, None] - nodes[None, :])) ** 2) - np.exp(
        -(sigma * (t_arr[:, None] + nodes[None, :])) ** 2
    )
    vals = scale * diff @ csch
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(vals[0])
    return vals


def coherent_time_envelope(
    s,
    sigma: float,
    weight: WeightFunction,
    *,
    rule: QuadratureRule = DEFAULT_RULE,
) -> np.ndarray:
    """Complex time envelope paired with the smoothed sum factor.

    ``2 sqrt(pi) sigma e^{-sigma^2 (2s + i)^2 / 4} * ghat(2s + i)`` where
    ``ghat(2s + i)`` is ``(2 pi)^{-1/2} integral gamma(w) e^{+w} e^{-2 i w s} dw``
    -- the Fourier transform of the exponentially tilted weight, analytically
    continued one unit into the upper half-plane.  Its Fourier transform is
    the smoothed sum factor, which the tests verify numerically.

    Requires ``gamma(w) e^{w}`` to be integrable; weights whose tilted tail
    does not decay (for example the ``sech`` profile, where
    ``e^{w} gamma(w)`` tends to a constant) are rejected.

    Panel rule: the ``w`` window is cut at the weight's breakpoints and into
    Gauss-Legendre panels of ``rule.panel_order`` nodes, each at most
    ``min(0.5 pi / max(|s|, 1), 0.5)`` wide -- half a period of
    ``e^{-2iws}`` at the largest requested ``|s|``.  The tilted weight is
    smooth on each panel, so the default 16 nodes per half period resolve
    the oscillation to machine precision: on the selftest grid the values
    agree with those of ten times narrower panels to 1.5e-15 of the
    largest.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=np.float64))
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValidationError(f"bandwidth must be a finite positive number, got {sigma!r}")

    def tilted(w):
        w = np.asarray(w, dtype=np.float64)
        return weight(w) * np.exp(w)

    probe = np.linspace(-80.0, 80.0, 2001)
    tilted_vals = tilted(probe)
    peak = float(np.max(tilted_vals))
    if peak <= 0.0:
        raise ValidationError("weight is identically zero on the probe window")
    tail = tilted(np.array([30.0, 40.0, 50.0]))
    if np.any(np.diff(tail) > -1e-12 * peak) and tail[0] > 1e-20 * peak:
        raise ValidationError(
            "exponentially tilted weight does not decay; "
            "the time envelope is undefined for this weight"
        )
    live = probe[tilted_vals >= peak * 1e-26]
    lo = float(live[0]) - 5.0
    hi = float(live[-1]) + 5.0
    bps = [float(b) for b in weight.breakpoints if lo < float(b) < hi]
    edges = np.unique(np.concatenate([np.array([lo, hi]), np.asarray(bps, dtype=np.float64)]))
    seg_edges = []
    max_step = min(0.5 * math.pi / max(float(np.max(np.abs(s_arr))), 1.0), 0.5)
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, int(math.ceil((b - a) / max_step)))
        seg_edges.append(np.linspace(a, b, k + 1)[:-1])
    seg_edges.append(np.array([hi]))
    all_edges = np.concatenate(seg_edges)
    nodes, wts = _panel_quadrature(all_edges, rule.panel_order)
    gvals = tilted(nodes) * wts
    ghat = np.empty(s_arr.size, dtype=np.complex128)
    chunk = max(1, 4_000_000 // max(nodes.size, 1))
    for start in range(0, s_arr.size, chunk):
        block = s_arr[start : start + chunk]
        ghat[start : start + chunk] = np.exp(-2j * np.outer(block, nodes)) @ gvals
    ghat /= math.sqrt(2.0 * math.pi)
    front = 2.0 * math.sqrt(math.pi) * sigma * np.exp(
        -0.25 * sigma * sigma * (2.0 * s_arr + 1j) ** 2
    )
    vals = front * ghat
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return complex(vals[0])
    return vals


def coherent_time_kernel_l1(
    sigma: float,
    *,
    scale: float = TIME_KERNEL_ENVELOPE_SCALE,
    panel_order: int = 16,
) -> float:
    """``L^1`` mass of the coherent time kernel.

    The kernel is sign-definite on each half-line, so the ``|t|`` integral of
    the Gaussian difference evaluates in closed form to
    ``(sqrt(pi)/sigma) erf(sigma s)``, leaving

    ``scale * (2 sqrt(pi) / sigma) integral_0^inf erf(sigma s)/sinh(2 pi s) ds``.

    In the envelope normalisation (scale ``sqrt(pi)/8``) the value increases
    towards ``sqrt(pi)/32`` as ``sigma -> 0`` and stays strictly below it for
    every positive bandwidth.
    """
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValidationError(f"bandwidth must be a finite positive number, got {sigma!r}")
    s_max = 12.0
    panel = 0.125
    n_panels = int(math.ceil(s_max / panel))
    edges = np.linspace(0.0, n_panels * panel, n_panels + 1)
    nodes, wts = _panel_quadrature(edges, panel_order)
    integrand = erf(sigma * nodes) / np.sinh(2.0 * math.pi * nodes)
    reduced = float(np.sum(wts * integrand))
    return scale * 2.0 * math.sqrt(math.pi) / sigma * reduced
