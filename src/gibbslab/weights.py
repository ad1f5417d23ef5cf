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
    on the Gibbs density ``e^{-P}``; each library profile writes its shifted
    weight as one expression, and sech and glauber share one logistic,
  - an intentionally unbalanced control (the ``sigma^2/4`` argument shift
    removed) used by negative tests, and
  - the delocalised-limit weight ``pi * e^{-omega/2} phi(omega)`` that the
    filtered generator's diagonal coupling actually converges to as
    ``sigma -> 0`` (the factor ``pi`` is exactly the squared filter mass).

* The Gaussian-smoothed weight

  .. math:: H(c) = \\int \\gamma(\\omega) e^{-(\\omega - c)^2/\\sigma^2}\\,d\\omega,

  the single quadrature family from which the overlap couplings and the
  coherent couplings are both built.  Balance of the weight is equivalent to
  ``H(c) = e^{-c} H(-c)``.  The library ``gaussian`` and ``exp_abs``
  profiles carry ``H`` in closed form, which their weights hold as
  ``WeightFunction.smoothed`` and :func:`smoothed_weight_table` returns;
  ``sech`` is integrated by the Gauss-Hermite rule below, a weight with
  breakpoints and no closed form is refused, and :func:`smoothing_rule`
  names which rule a table used.

* Coherent-term kernels: the odd difference factor, the matching
  time-domain kernel and envelope, and the closed-form ``L^1`` mass of the
  time kernel.

* One fixed quadrature recipe, named by four constants: the shifted
  Gauss-Hermite rule of order :data:`HERMITE_ORDER` for smooth integrands;
  and the kink-aligned Gauss-Legendre panels of :data:`PANEL_ORDER` nodes
  and width :data:`PANEL_WIDTH_FRACTION` times ``sigma`` that carry the node
  sum of the ``omega_quadrature`` generator path, laid within
  :data:`WINDOW_RADIUS` widths of each Bohr frequency.  The independent
  QUADPACK references for every scalar quantity live with the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.special import erf, erfc, erfcx

from .errors import ValidationError

__all__ = [
    "FILTER_SQUARED_MASS",
    "COHERENT_L1_LIMIT",
    "TIME_KERNEL_ENVELOPE_SCALE",
    "TIME_KERNEL_SPECTRAL_SCALE",
    "MAX_SPECTRAL_WIDTH",
    "HERMITE_ORDER",
    "PANEL_ORDER",
    "PANEL_WIDTH_FRACTION",
    "WINDOW_RADIUS",
    "GaussianFilter",
    "WeightFunction",
    "PHI_LIBRARY",
    "resolve_phi",
    "kms_gamma",
    "balanced_gamma",
    "unshifted_gamma",
    "delocalised_limit_gamma",
    "kms_defect",
    "smoothing_rule",
    "smoothed_weight_table",
    "coherent_difference_factor",
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

#: Largest admissible spread of Bohr frequencies, for both generator
#: families.  Exponentials e^{+-x/2} of frequency differences appear
#: throughout, and e^{nu} of single frequencies in the detailed-balance
#: check; this cap keeps them inside the double-precision range with a wide
#: safety margin.
MAX_SPECTRAL_WIDTH = 600.0

#: Largest admissible filter bandwidth, for every weight.  It guards the
#: Gauss-Hermite rule that smooths the sech profile (the others are smoothed
#: in closed form): that rule integrates against a Gaussian of
#: width sigma, which outgrows the weight's own body as sigma rises.  Run
#: on the gaussian weight with its closed form removed
#: (``replace(balanced_gamma("gaussian", sigma), smoothed=None)``), the
#: qubit's midpoint table is off the closed form by 1.3e-9 relative at
#: sigma = 4, 1.2e-4 at 6 and 0.78 at 20, while every library profile
#: passes its stationarity check up to sigma = 3.5.
MAX_BANDWIDTH = 3.0

#: Smallest admissible filter bandwidth, for every weight.  The node sum's
#: lattice sits at absolute frequencies, whose rounding grows relative to
#: ``sigma`` as it falls: the library profiles pass every verify check at
#: 1e-6 (sech's dual path reads 5.3e-9 at width 599), and at 3e-7 sech's
#: dual path misses its 1e-8 tolerance.  The overlap tables stay within
#: 6e-16 of their definitional entries down to 1e-7.
MIN_BANDWIDTH = 1e-6

#: Order of the shifted Gauss-Hermite rule used when the weight is smooth.
HERMITE_ORDER = 180

#: Gauss-Legendre nodes per panel wherever the package tiles a window.
PANEL_ORDER = 16

#: Width of the kink-aligned panels, in units of the bandwidth ``sigma``.
PANEL_WIDTH_FRACTION = 0.5

#: Half-width of every Gaussian window, in units of its width: the mass
#: outside is below ``e^{-64}`` of the peak.
WINDOW_RADIUS = 8.0


def _require_bandwidth(sigma) -> None:
    """Reject a bandwidth that is not a finite positive number."""
    if not (np.isfinite(sigma) and sigma > 0.0):
        raise ValidationError(f"bandwidth must be a finite positive number, got {sigma!r}")


def _finite_times(t) -> np.ndarray:
    """``t`` as a 1-d float array; refuse an empty ``t`` and any entry that
    is not finite."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if not t_arr.size:
        raise ValidationError("no time given")
    bad = t_arr[~np.isfinite(t_arr)]
    if bad.size:
        raise ValidationError(f"time must be finite, got {float(bad[0])!r}")
    return t_arr


def _require_table_bandwidth(sigma, field: str = "bandwidth") -> float:
    """``sigma``, refused unless in ``[MIN_BANDWIDTH, MAX_BANDWIDTH]``, where
    the quadratures resolve a table; ``field`` names it in the message."""
    if not MIN_BANDWIDTH <= sigma <= MAX_BANDWIDTH:
        raise ValidationError(
            f"{field} must be in [{MIN_BANDWIDTH:g}, {MAX_BANDWIDTH:g}], got {sigma!r}; "
            "the quadratures do not resolve narrower or wider filters"
        )
    return sigma


def _require_spectral_width(frequencies: np.ndarray) -> None:
    """Reject ascending Bohr frequencies whose largest ``|nu|`` exceeds
    ``MAX_SPECTRAL_WIDTH``.  The frequencies are closed under negation, so
    that is the Hamiltonian's spectral width."""
    width = float(max(abs(frequencies[0]), abs(frequencies[-1]))) if frequencies.size else 0.0
    if width > MAX_SPECTRAL_WIDTH:
        raise ValidationError(
            f"largest Bohr frequency {width:.3g} exceeds the supported "
            f"range {MAX_SPECTRAL_WIDTH:g}"
        )


# ---------------------------------------------------------------------------
# Gaussian filter
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaussianFilter:
    """Gaussian time-localisation profile of bandwidth ``sigma``.

    The time profile is ``sigma^{1/2} pi^{1/4} exp(-t^2 sigma^2 / 2)``;
    ``frequency_profile`` is its Fourier transform, the same Gaussian with
    ``sigma -> 1/sigma``, written from its own formula.
    """

    sigma: float

    def __post_init__(self) -> None:
        _require_bandwidth(self.sigma)

    def frequency_profile(self, tau) -> np.ndarray:
        """The profile at ``tau``, a new array."""
        return self.frequency_profile_in_place(np.array(tau, dtype=np.float64))

    def frequency_profile_in_place(self, tau: np.ndarray) -> np.ndarray:
        """Overwrite the float64 array ``tau`` with the profile at ``tau``
        and return it: no temporary of its size."""
        tau /= self.sigma
        np.square(tau, out=tau)
        tau *= -0.5
        np.exp(tau, out=tau)
        tau *= math.pi**0.25 / math.sqrt(self.sigma)
        return tau


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
        Points where ``gamma`` is continuous but not smooth.  A weight with
        breakpoints must carry ``smoothed``; the node sum's panels are
        aligned with the first.
    smoothed:
        The Gaussian smoothing ``(sigma, centers) -> H(centers)`` of this
        weight in closed form, which :func:`smoothed_weight_table` returns
        in place of quadrature, or ``None`` when there is none.
    """

    kind: str
    evaluate: Callable[[np.ndarray], np.ndarray]
    sigma: float | None = None
    phi_name: str | None = None
    breakpoints: tuple[float, ...] = ()
    smoothed: Callable[[float, np.ndarray], np.ndarray] | None = None

    def __call__(self, omega):
        omega = np.asarray(omega, dtype=np.float64)
        out = np.asarray(self.evaluate(omega), dtype=np.float64)
        return out


@dataclass(frozen=True)
class PhiProfile:
    """A library profile: a named even ``phi >= 0``, held as ``weight``,
    ``shift -> evaluate`` of ``e^{-w/2} phi(w + shift)`` in one expression;
    its non-smooth points; and ``closed_form``, ``shift -> smoothed``."""

    name: str
    weight: Callable[[float], Callable[[np.ndarray], np.ndarray]]
    breakpoints: tuple[float, ...] = ()
    closed_form: Callable[[float], Callable[[float, np.ndarray], np.ndarray]] | None = None


def _logistic(x):
    """``1 / (1 + e^{-x})`` from ``e = e^{-|x|}``, which never overflows:
    ``1 / (1 + e)`` for ``x >= 0`` and ``e / (1 + e)`` below."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, e) / (1.0 + e)


def _gaussian_weight(shift: float) -> Callable:
    """``e^{-w/2} e^{-(w + shift)^2}`` as the completed square of
    :func:`_gaussian_smoothed`, one exponential."""
    peak = 0.25 + shift
    log_front = (1.0 + 8.0 * shift) / 16.0
    return lambda w: np.exp(log_front - np.square(w + peak))


def _gaussian_smoothed(shift: float) -> Callable:
    """Closed-form ``H`` of ``e^{-w/2} e^{-(w + shift)^2}``.

    The tilt folds into the Gaussian, ``e^{-w/2 - (w + s)^2} = e^{(1 + 8s)/16}
    e^{-(w + s + 1/4)^2}``, and Gaussians of widths 1 and ``sigma`` convolve
    to one of width ``sqrt(1 + sigma^2)``.  Written in this completed-square
    form only: expanding the square cancels (about 1e-10 lost at
    ``sigma = 0.05``).
    """
    peak = 0.25 + shift
    log_front = (1.0 + 8.0 * shift) / 16.0

    def smoothed(sigma, centers):
        var = sigma * sigma
        y = np.asarray(centers, dtype=np.float64) + peak
        return math.sqrt(math.pi * var / (1.0 + var)) * np.exp(log_front - y * y / (1.0 + var))

    return smoothed


def _sech_weight(shift: float) -> Callable:
    """``e^{-w/2} sech((w + shift)/2) = 2 e^{shift/2} / (1 + e^{w + shift})``:
    the glauber weight moved by ``shift`` and scaled."""
    front = 2.0 * math.exp(0.5 * shift)
    return lambda w: front * _logistic(-(w + shift))


def _exp_abs_weight(shift: float) -> Callable:
    """``e^{-w/2} e^{-|w + shift|} = e^{shift/2} e^{u/2 - 2 max(u, 0)}``,
    ``u = w + shift``, one exponential: for ``u < 0`` its exponent rounds
    only in ``u``, for ``u >= 0`` once more, in ``-3u/2``."""
    front = math.exp(0.5 * shift)
    return lambda w: front * np.exp(0.5 * (w + shift) - 2.0 * np.maximum(w + shift, 0.0))


def _exp_abs_smoothed(shift: float) -> Callable:
    """Closed-form ``H`` of ``e^{-w/2} e^{-|w + shift|}``.

    With ``a = c + shift`` and ``u = w + shift`` the integrand is
    ``e^{shift/2} e^{-u/2 - |u|} e^{-(u - a)^2/sigma^2}``.  Completing the
    square on each side of the kink ``u = 0`` gives
    ``H = e^{shift/2} (sigma sqrt(pi)/2) (R + L)`` with
    ``R = e^{9 sigma^2/16 - 3a/2} erfc(b_R)``, ``b_R = (3 sigma^2/4 - a)/sigma``
    (``u > 0``), and ``L = e^{sigma^2/16 + a/2} erfc(b_L)``,
    ``b_L = (a + sigma^2/4)/sigma``.  Both terms are positive, so nothing
    cancels.  Where a term's ``b`` is negative its exponential is below 1;
    elsewhere the exponential can overflow while ``erfc`` underflows, so the
    term is written ``erfcx(b) e^{-a^2/sigma^2}``, the same value.
    """
    front = math.exp(0.5 * shift) * 0.5 * math.sqrt(math.pi)

    def smoothed(sigma, centers):
        var = sigma * sigma
        a = np.asarray(centers, dtype=np.float64) + shift
        gauss = np.exp(-np.square(a / sigma))
        total = np.zeros_like(a)
        for b, log_scale in (
            ((0.75 * var - a) / sigma, 0.5625 * var - 1.5 * a),
            ((a + 0.25 * var) / sigma, 0.0625 * var + 0.5 * a),
        ):
            total += np.where(
                b < 0.0,
                np.exp(np.minimum(log_scale, 0.0)) * erfc(b),
                erfcx(np.maximum(b, 0.0)) * gauss,
            )
        return front * sigma * total

    return smoothed


PHI_LIBRARY: dict[str, PhiProfile] = {
    "gaussian": PhiProfile("gaussian", _gaussian_weight, closed_form=_gaussian_smoothed),
    "sech": PhiProfile("sech", _sech_weight),
    "exp_abs": PhiProfile(
        "exp_abs", _exp_abs_weight, breakpoints=(0.0,), closed_form=_exp_abs_smoothed
    ),
}


def resolve_phi(name) -> PhiProfile:
    """The library profile of this name."""
    profile = PHI_LIBRARY.get(name) if isinstance(name, str) else None
    if profile is None:
        raise ValidationError(
            f"unknown profile name {name!r}; known profiles: {sorted(PHI_LIBRARY)}"
        )
    return profile


def kms_gamma(kind: str) -> WeightFunction:
    """Detailed-balance weight for the unfiltered generator.

    ``glauber``: ``1 / (1 + e^omega)``; ``metropolis``: ``min(1, e^-omega)``.
    Both satisfy ``gamma(-omega) = e^omega gamma(omega)`` exactly.
    """
    if kind == "glauber":
        return WeightFunction(kind="kms_glauber", evaluate=lambda w: _logistic(-w))
    if kind == "metropolis":
        return WeightFunction(
            kind="kms_metropolis",
            evaluate=lambda w: np.exp(np.minimum(0.0, -np.asarray(w, dtype=np.float64))),
            breakpoints=(0.0,),
        )
    raise ValidationError(f"unknown detailed-balance weight kind {kind!r}")


def _profile_weight(kind: str, phi, sigma: float | None, shift: float) -> WeightFunction:
    """The weight ``e^{-omega/2} phi(omega + shift)`` of the library profile
    named ``phi``, built for bandwidth ``sigma`` (``None`` for none), with
    its closed-form smoothing where the profile has one, and the profile's
    breakpoints moved by the shift."""
    profile = resolve_phi(phi)
    return WeightFunction(
        kind=kind,
        evaluate=profile.weight(shift),
        sigma=sigma,
        phi_name=profile.name,
        breakpoints=tuple(sorted(b - shift for b in profile.breakpoints)),
        smoothed=profile.closed_form(shift) if profile.closed_form else None,
    )


def balanced_gamma(phi, sigma: float) -> WeightFunction:
    """Balanced weight ``e^{-omega/2} phi(omega + sigma^2/4)`` for bandwidth ``sigma``.

    The argument shift by ``sigma^2/4`` is exactly what makes the Gaussian
    smoothing of the weight satisfy ``H(c) = e^{-c} H(-c)``, and hence the
    filtered generator stationary on the Gibbs density.
    """
    _require_bandwidth(sigma)
    return _profile_weight("balanced_from_phi", phi, float(sigma), 0.25 * sigma * sigma)


def unshifted_gamma(phi, sigma: float) -> WeightFunction:
    """Negative-control weight: the balanced form with the argument shift removed.

    Same smoothness and decay as :func:`balanced_gamma`, but the smoothing
    identity fails by a factor ``~ e^{sigma^2/4}`` scale, so the filtered
    generator visibly does not fix the Gibbs density.
    """
    _require_bandwidth(sigma)
    return _profile_weight("unshifted_control", phi, float(sigma), 0.0)


def delocalised_limit_gamma(phi) -> WeightFunction:
    """The weight the filtered coupling table converges to as ``sigma -> 0``.

    The diagonal of the overlap table tends to ``pi * e^{-omega/2} phi(omega)``
    -- the factor ``pi`` is the squared mass of the frequency profile under
    the printed normalisation.  The result satisfies detailed balance
    exactly, so it is a valid unfiltered-generator weight.  It is ``pi``
    times the unshifted weight, bandwidth-free, with no closed-form
    smoothing.
    """
    base = _profile_weight("delocalised_limit", phi, None, 0.0)
    return replace(
        base,
        evaluate=lambda w: FILTER_SQUARED_MASS * base.evaluate(w),
        smoothed=None,
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


@lru_cache(maxsize=1)
def _gauss_hermite():
    return hermgauss(HERMITE_ORDER)


@lru_cache(maxsize=1)
def _gauss_legendre():
    return leggauss(PANEL_ORDER)


def _panel_nodes(lower: np.ndarray, upper: np.ndarray):
    """Gauss-Legendre nodes/weights (``PANEL_ORDER`` per panel) on the panels
    ``[lower[k], upper[k]]``."""
    x_ref, w_ref = _gauss_legendre()
    mids = 0.5 * (lower + upper)
    half = 0.5 * (upper - lower)
    nodes = (mids[:, None] + half[:, None] * x_ref[None, :]).ravel()
    weights = (half[:, None] * w_ref[None, :]).ravel()
    return nodes, weights


# ---------------------------------------------------------------------------
# Smoothed weight H
# ---------------------------------------------------------------------------


def _require_closed_form_at_kinks(weight: WeightFunction) -> None:
    """Refuse a weight with breakpoints but no closed-form smoothing,
    which Gauss-Hermite would integrate straight across its kink."""
    if weight.breakpoints and weight.smoothed is None:
        raise ValidationError(
            f"weight {weight.kind!r} has breakpoints {weight.breakpoints} but no "
            "closed-form smoothing; no quadrature here integrates across a kink"
        )


def smoothing_rule(weight: WeightFunction) -> str:
    """Which rule :func:`smoothed_weight_table` evaluates ``H`` of this
    weight by: ``closed_form`` when the weight carries ``smoothed``, else
    ``gauss_hermite``."""
    return "closed_form" if weight.smoothed is not None else "gauss_hermite"


def smoothed_weight_table(weight: WeightFunction, sigma: float, centers) -> np.ndarray:
    """Gaussian smoothing ``H(c) = integral gamma(w) e^{-(w-c)^2/sigma^2} dw``
    at every entry of ``centers``, by the rule :func:`smoothing_rule` names.

    A weight with a closed form (``WeightFunction.smoothed``) is evaluated
    by it, elementwise.  A smooth weight without one uses the shifted
    Gauss-Hermite rule of order ``HERMITE_ORDER``, which costs that many
    weight evaluations a center: it is applied once per distinct center and
    the values are scattered back.  A weight with breakpoints but no closed
    form raises :class:`ValidationError`.
    """
    _require_closed_form_at_kinks(weight)
    centers = np.asarray(centers, dtype=np.float64).ravel()
    if centers.size == 0:
        return np.zeros(0)
    _require_bandwidth(sigma)
    if not np.all(np.isfinite(centers)):
        raise ValidationError("smoothing centers must be finite")
    if weight.smoothed is not None:
        return weight.smoothed(sigma, centers)

    centers, inverse = np.unique(centers, return_inverse=True)
    out = np.empty_like(centers)
    x, w = _gauss_hermite()
    # A few hundred centers keep each (centers x nodes) temporary in
    # cache; millions of nodes at once re-fault tens of MiB per table.
    chunk = 256
    for start in range(0, centers.size, chunk):
        c = centers[start : start + chunk]
        omegas = c[:, None] + sigma * x[None, :]
        out[start : start + chunk] = sigma * (weight(omegas) @ w)
    return out[inverse]


def _window_quadrature(weight: WeightFunction, sigma: float, sorted_c: np.ndarray):
    """Gauss-Legendre nodes/weights on the window lattice of the sorted centers.

    Panel ``k`` is ``[anchor + k w, anchor + (k + 1) w]`` with the weight's
    first breakpoint as anchor (else 0) and ``w = PANEL_WIDTH_FRACTION *
    sigma``, so no panel straddles a library profile's kink.  Only the panels
    that meet some center's window are laid: at most 33 a center, however
    sparse the centers.  A weight with breakpoints but no closed form raises
    :class:`ValidationError`.
    """
    _require_closed_form_at_kinks(weight)
    radius = WINDOW_RADIUS * sigma
    width = sigma * PANEL_WIDTH_FRACTION
    anchor = float(weight.breakpoints[0]) if weight.breakpoints else 0.0
    first = np.floor((sorted_c - radius - anchor) / width).astype(np.int64)
    stop = np.ceil((sorted_c + radius - anchor) / width).astype(np.int64)
    # Both bounds rise with the center, so a run of consecutive panels
    # ends exactly where the next window starts past the previous one's end.
    starts = np.flatnonzero(np.concatenate([[True], first[1:] > stop[:-1]]))
    run_lo = first[starts]
    run_len = stop[np.append(starts[1:], sorted_c.size) - 1] - run_lo
    offsets = np.cumsum(run_len) - run_len
    panels = np.arange(int(run_len.sum())) + np.repeat(run_lo - offsets, run_len)
    return _panel_nodes(anchor + width * panels, anchor + width * (panels + 1))


# ---------------------------------------------------------------------------
# Coherent-term kernels
# ---------------------------------------------------------------------------


def coherent_difference_factor(xi, sigma: float):
    """Imaginary part of the odd, purely imaginary factor of the coherent
    pair coefficient: ``-(1 / (4 sigma sqrt(pi))) e^{-xi^2/(4 sigma^2)}
    tanh(xi/4)`` of the frequency difference ``xi``.  The sign is fixed by
    the requirement that the assembled coherent part cancel the dissipator's
    action on the Gibbs density.  ``oft.overlap_table`` multiplies it by
    the smoothed sum factor ``e^{-zeta/2} H(-zeta/2)``, ``zeta = nu + nu'``,
    into the imaginary part of the coherent pair table.
    """
    xi = np.asarray(xi, dtype=np.float64)
    mag = np.exp(-np.square(xi) / (4.0 * sigma * sigma)) * np.tanh(0.25 * xi)
    return -1.0 / (4.0 * sigma * math.sqrt(math.pi)) * mag


# ---------------------------------------------------------------------------
# Time-domain kernels
# ---------------------------------------------------------------------------


def coherent_time_kernel(t, sigma: float) -> np.ndarray:
    """Time profile paired with the odd difference factor.

    ``(2 pi)^{-1/2} integral_0^inf [e^{-sigma^2 (t-s)^2} - e^{-sigma^2 (t+s)^2}]
    / sinh(2 pi s) ds``: with the spectral scale ``1/sqrt(2 pi)`` this is
    exactly the inverse Fourier transform of the difference factor.  Odd in
    ``t``, positive for ``t > 0``.

    Each ``|t|`` is summed only over its live window.  Past ``s`` of order
    one, ``1/sinh(2 pi s)`` is ``2 e^{-2 pi s}``, so the integrand's
    log-magnitude is ``-sigma^2 (s - s*)^2 + const`` about its peak
    ``s* = max(0, |t| - pi/sigma^2)`` and falls below ``e^{-64}`` of the
    peak outside ``[s* - R/sigma, s* + R/sigma]``, ``R = WINDOW_RADIUS``:
    relative accuracy holds at every ``t``, also where ``K`` is far below
    1e-40.  A window that reaches ``s = 0`` sums the cancelling ``(t+s)``
    term there with the ``(t-s)`` one.

    Panel rule: Gauss-Legendre panels of ``PANEL_ORDER`` nodes, of width
    ``min(0.5/sigma, 0.25)`` on ``[0, 1]`` (rounded up to whole panels) and
    ``min(2, 3/sigma)`` beyond.  The integrand's only singularities are the
    poles of ``csch(2 pi s)`` on the imaginary axis, the nearest at
    ``+-i/2``.  They limit a panel that starts at ``s = 0``: a unit panel
    there would converge only as ``2.9^{-32}``, about 2e-15.  A panel at
    most two units wide that starts at ``s >= 1`` has them outside its
    Bernstein ellipse of parameter 3.9 (``3.9^{-32}`` is about 1e-19), and
    ``e^{-2 pi s}`` across two units is resolved to the same order.  Out
    there the Gaussian sets the width: three of its widths ``1/sigma``.
    """
    t_arr = _finite_times(t)
    _require_bandwidth(sigma)
    # Odd in t: evaluate once per distinct |t| and restore the sign, so
    # K(-t) = -K(t) holds bit for bit and a mirrored grid costs half.
    mags, where = np.unique(np.abs(t_arr), return_inverse=True)
    radius = WINDOW_RADIUS / sigma
    peaks = np.maximum(mags - math.pi / (sigma * sigma), 0.0)
    near, far = min(0.5 / sigma, 0.25), min(2.0, 3.0 / sigma)
    n_near = math.ceil(1.0 / near)
    n_far = max(0, math.ceil((float(peaks[-1]) + radius - n_near * near) / far))
    edges = np.concatenate(
        [near * np.arange(n_near + 1), n_near * near + far * np.arange(1, n_far + 1)]
    )
    nodes, wts = _panel_nodes(edges[:-1], edges[1:])
    with np.errstate(over="ignore"):
        csch = wts / np.sinh(2.0 * math.pi * nodes)

    # The peaks rise with |t|.  Each chunk of at most 64 values whose peaks
    # span half a radius sums over the union of its windows, a quarter wider
    # than one window, so every (values x nodes) temporary stays in cache.
    sums = np.empty_like(mags)
    start = 0
    while start < mags.size:
        end = min(start + 64, peaks.searchsorted(peaks[start] + 0.5 * radius, "right"))
        a = nodes.searchsorted(peaks[start] - radius, "left")
        b = nodes.searchsorted(peaks[end - 1] + radius, "right")
        m = mags[start:end, None]
        s = nodes[None, a:b]
        diff = np.exp(-(sigma * (m - s)) ** 2) - np.exp(-(sigma * (m + s)) ** 2)
        sums[start:end] = diff @ csch[a:b]
        start = end
    vals = np.sign(t_arr) * (TIME_KERNEL_SPECTRAL_SCALE * sums)[where]
    if np.isscalar(t) or np.asarray(t).ndim == 0:
        return float(vals[0])
    return vals


def coherent_time_envelope(
    s,
    sigma: float,
    weight: WeightFunction,
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
    Gauss-Legendre panels of ``PANEL_ORDER`` nodes, each at most
    ``min(0.5 pi / max(|s|, 1), 0.5)`` wide -- half a period of
    ``e^{-2iws}`` at the largest requested ``|s|``.  The tilted weight is
    smooth on each panel, so 16 nodes per half period resolve
    the oscillation to machine precision: on the selftest grid the values
    agree with those of ten times narrower panels to 1.5e-15 of the
    largest.

    Panel-centre split: the panels of one segment share their half-width
    ``h``, so every node is ``w = c_p + h x_j`` and
    ``e^{-2isw} = e^{-2is c_p} e^{-2is h x_j}``.  Each segment is one
    complex matrix product of the ``(s x 16)`` node phases with the
    ``(16 x panels)`` weighted tilted values, and then a phase per panel
    centre.  The centres are uniform, ``c_p = c_0 + 2hp``: with
    ``g = ceil(sqrt(panels))`` and ``p = q g + r``, the centre phase is
    ``e^{-2is (c_0 + 2hgq)} e^{-4ishr}``, a coarse table of ``panels / g``
    columns times a fine one of ``g``.  That is
    ``n_s (2 sqrt(panels) + 16)`` complex exponentials where the direct sum
    takes ``16 n_s panels``.  The tilted weight is real, so
    ``ghat(-s) = conj(ghat(s))`` and each distinct ``|s|`` is summed once.
    """
    s_arr = _finite_times(s)
    _require_bandwidth(sigma)

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
    mags, where = np.unique(np.abs(s_arr), return_inverse=True)
    max_step = min(0.5 * math.pi / max(float(mags[-1]), 1.0), 0.5)
    x_ref, w_ref = _gauss_legendre()
    ghat = np.zeros(mags.size, dtype=np.complex128)
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, int(math.ceil((b - a) / max_step)))
        seg = np.linspace(a, b, k + 1)
        centres = 0.5 * (seg[:-1] + seg[1:])
        half = 0.5 * (b - a) / k
        # Zero rows pad the k panels up to n_q whole groups of g.
        g = math.ceil(math.sqrt(k))
        n_q = -(-k // g)
        gvals = np.zeros((n_q * g, x_ref.size))
        gvals[:k] = tilted(centres[:, None] + half * x_ref[None, :]) * (half * w_ref)
        local = np.exp(-2j * half * np.outer(mags, x_ref)) @ gvals.T
        fine = np.exp(-4j * half * np.outer(mags, np.arange(g)))
        coarse = np.exp(-2j * np.outer(mags, centres[0] + 2.0 * half * g * np.arange(n_q)))
        by_q = np.matmul(local.reshape(mags.size, n_q, g), fine[:, :, None])[:, :, 0]
        ghat += np.einsum("sq,sq->s", coarse, by_q)
    ghat = ghat[where] / math.sqrt(2.0 * math.pi)
    ghat = np.where(s_arr < 0.0, ghat.conj(), ghat)
    front = 2.0 * math.sqrt(math.pi) * sigma * np.exp(
        -0.25 * sigma * sigma * (2.0 * s_arr + 1j) ** 2
    )
    vals = front * ghat
    if np.isscalar(s) or np.asarray(s).ndim == 0:
        return complex(vals[0])
    return vals


def coherent_time_kernel_l1(sigma: float) -> float:
    """``L^1`` mass of the coherent time kernel in the envelope normalisation.

    The kernel is sign-definite on each half-line, so the ``|t|`` integral of
    the Gaussian difference evaluates in closed form to
    ``(sqrt(pi)/sigma) erf(sigma s)``, leaving

    ``scale * (2 sqrt(pi) / sigma) integral_0^inf erf(sigma s)/sinh(2 pi s) ds``

    with the envelope scale ``sqrt(pi)/8``.  The value increases towards
    ``sqrt(pi)/32`` as ``sigma -> 0`` and stays strictly below it for every
    positive bandwidth.
    """
    _require_bandwidth(sigma)
    s_max = 12.0
    panel = 0.125
    n_panels = int(math.ceil(s_max / panel))
    edges = np.linspace(0.0, n_panels * panel, n_panels + 1)
    nodes, wts = _panel_nodes(edges[:-1], edges[1:])
    integrand = erf(sigma * nodes) / np.sinh(2.0 * math.pi * nodes)
    reduced = float(np.sum(wts * integrand))
    return TIME_KERNEL_ENVELOPE_SCALE * 2.0 * math.sqrt(math.pi) / sigma * reduced
