"""Operator Fourier transforms and the frequency-overlap coupling table.

The Gaussian-filtered jump operator at probe frequency ``omega`` is the
frequency-profile-weighted sum of Bohr components,

    A_f(omega) = sum_nu fhat_sigma(omega - nu) A_nu,

equivalently the time integral ``(2 pi)^{-1/2} integral f_sigma(t)
e^{iPt} A e^{-iPt} e^{-i omega t} dt``; the tests evaluate that integral
directly on a truncated time grid as an independent cross-check.

The overlap table collects the couplings

    G(nu, nu') = integral gamma(omega) fhat(omega - nu) fhat(omega - nu') domega
               = (sqrt(pi)/sigma) e^{-(nu - nu')^2/(4 sigma^2)} H((nu + nu')/2),

where ``H`` is the Gaussian-smoothed weight.  The table is real symmetric and
positive semidefinite (it is the Gram matrix of the functions
``sqrt(gamma) fhat(. - nu)``); its diagonal converges to
``pi * gamma(nu)`` as ``sigma -> 0`` -- the factor ``pi`` being the squared
mass of the frequency profile -- while off-diagonal entries die off at the
Gaussian rate ``e^{-gap^2/(4 sigma^2)}``.

The same build yields the coherent pair table

    b(nu, nu') = 2 pi c(nu - nu') e^{-(nu + nu')/2} H(-(nu + nu')/2),

with ``c`` the odd difference factor of ``weights.coherent_difference_factor``.
The Bohr frequencies are closed under negation, so ``-(nu + nu')/2`` is the
midpoint of the negated pair and both tables read one evaluation of ``H``.

Both tables are left at zero on pairs whose Gaussian factor is below
``e^{-200}``, and on entries below ``sqrt(tiny) max(1, max|x|)`` (about
``1.5e-154`` of the table's scale, ``tiny`` the smallest normal double):
such entries are more than 138 orders of magnitude below double precision,
but products of two of them underflow, and on common x86 processors every
subnormal operation in the dense kernels that read the tables costs a
microcode assist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bohr import BohrDecomposition, BohrSpectrum
from .errors import NumericalGuardError, ValidationError
from .weights import (
    MAX_BANDWIDTH,
    MAX_SPECTRAL_WIDTH,
    WINDOW_RADIUS,
    GaussianFilter,
    WeightFunction,
    _require_bandwidth,
    coherent_difference_factor,
    smoothed_weight_table,
    smoothing_rule,
)

__all__ = [
    "OverlapTable",
    "oft_eval",
    "overlap_table",
]

# Exponent cap for the Gaussian pair factor: pairs with
# (gap/(2 sigma))^2 above this contribute below 1e-87 relatively and are
# skipped outright.
_PAIR_EXPONENT_CAP = 200.0

# Entries below this fraction of a table's scale are zeroed, so that no
# product of two kept entries underflows (``_drop_underflow``).
_UNDERFLOW_FLOOR = math.sqrt(np.finfo(float).tiny)

# Number of table entries re-derived by direct definitional quadrature at
# construction time (a standing regression check).
_CROSS_CHECK_SAMPLES = 12
_CROSS_CHECK_TOL = 1e-8


def oft_eval(source: BohrDecomposition, omega: float, sigma: float) -> np.ndarray:
    """The filtered operator ``sum_nu fhat(omega - nu) A_nu`` at probe
    frequency ``omega``, in the basis of the decomposed operator."""
    if not (np.isfinite(omega)):
        raise ValidationError(f"probe frequency must be finite, got {omega!r}")
    filt = GaussianFilter(sigma)
    weights = filt.frequency_profile(omega - source.frequencies)
    return np.tensordot(weights, source.components, axes=(0, 0))


@dataclass(frozen=True)
class OverlapTable:
    """Symmetric coupling table ``G(nu, nu')`` over a Bohr spectrum, with the
    coherent pair table ``b(nu, nu')`` built from the same smoothed weight.

    Attributes:
        spectrum: the Bohr spectrum indexing rows and columns.
        values: real symmetric ``(m, m)`` array of couplings.
        coherent: complex ``(m, m)`` array of coherent pair coefficients.
        sigma: filter bandwidth.
        weight: the weight function integrated against.
        smoothing_rule: the rule that evaluated the smoothed weight,
            ``closed_form``, ``gauss_hermite`` or ``panels``
            (:func:`gibbslab.weights.smoothing_rule`).
        cross_check_defect: worst relative disagreement of the sampled
            entries against direct definitional quadrature (recorded at
            construction).
        cross_check_entries: number of entries re-derived by that quadrature.
        cross_check_evaluations: integrand evaluations it spent on them (the
            sum of QUADPACK's ``neval``).
        dropped_entries: entries of ``values`` left at zero by the exponent
            cap or the underflow floor.
    """

    spectrum: BohrSpectrum
    values: np.ndarray
    coherent: np.ndarray
    sigma: float
    weight: WeightFunction
    smoothing_rule: str
    cross_check_defect: float = 0.0
    cross_check_entries: int = 0
    cross_check_evaluations: int = 0
    dropped_entries: int = 0

    def entry(self, nu: float, nu_prime: float) -> float:
        i = self.spectrum.index_of(nu)
        j = self.spectrum.index_of(nu_prime)
        return float(self.values[i, j])

    def symmetry_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values.T)))

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the symmetrised table (PSD diagnostic)."""
        sym = 0.5 * (self.values + self.values.T)
        return float(np.linalg.eigvalsh(sym)[0])


def _drop_underflow(table: np.ndarray) -> None:
    """Zero, in place, every entry of ``table`` below
    ``_UNDERFLOW_FLOOR * max(1, max|table|)``.

    A product of two kept entries is then a normal number, so BLAS and
    LAPACK never underflow on them.  On a table of scale 1 or more, each
    dropped entry is more than 138 orders of magnitude below roundoff.
    """
    magnitude = np.abs(table)
    floor = _UNDERFLOW_FLOOR * max(1.0, float(magnitude.max(initial=0.0)))
    table[magnitude < floor] = 0.0


def _definitional_entry(
    nu: float,
    nu_prime: float,
    weight: WeightFunction,
    sigma: float,
) -> tuple[float, int]:
    """One coupling by direct adaptive quadrature of the definition.

    Uses QUADPACK (a different algorithm and code path from the table's
    closed-form, Gauss-Hermite or panel evaluation of ``H``, which it never
    reads), on a window wide enough to hold both
    the filter pair's hull and the weight's own body -- tilted weights can
    pull the product's mass well outside the filter hull.  The integrand is
    the weight times the two frequency profiles, each written from its
    formula ``(sqrt(pi)/sigma)^{1/2} e^{-x^2/(2 sigma^2)}``.  The weight is
    read through its plain-float form ``weight.scalar`` when it has one
    (library profiles; it agrees with the vectorised weight to a few ulps
    at some 40 times less cost per call), else through ``float(weight(w))``,
    so user profiles are cross-checked too.  The integrand is
    integrated over ``u = w - mid`` with ``mid = (nu + nu')/2``, so the
    profile arguments ``u - (nu - mid)`` carry no rounding from ``|w|``
    (at ``sigma = 0.001`` and ``|nu| = 60`` that rounding alone costs about
    3e-12 relative).

    Anchor rule: the window is split at the two frequencies, the origin, the
    weight's breakpoints, ``mid`` and at ``mid +- k sigma`` for ``k`` in 1,
    2, 4 and ``WINDOW_RADIUS``.  The filter product is a Gaussian of
    width ``sigma/sqrt(2)`` about ``mid``, so QUADPACK's first subdivision
    already lays intervals of width ``sigma`` to ``4 sigma`` over the peak
    at every bandwidth: a peak far narrower than the window cannot fall
    between the 21 Kronrod nodes of one wide interval, and wide bandwidths
    need fewer bisections.

    Returns the value and the number of integrand evaluations QUADPACK made.
    """
    from scipy.integrate import quad

    amplitude = math.sqrt(math.pi) / sigma  # product of the two profile prefactors
    inv_two_var = 0.5 / (sigma * sigma)
    mid = 0.5 * (nu + nu_prime)
    offset, offset_prime = nu - mid, nu_prime - mid
    gamma = weight.scalar
    if gamma is None:
        gamma = lambda w: float(weight(w))

    def integrand(u: float) -> float:
        a = u - offset
        b = u - offset_prime
        return gamma(mid + u) * amplitude * math.exp(-(a * a + b * b) * inv_two_var)

    pad = WINDOW_RADIUS * sigma + 60.0
    lo = min(nu, nu_prime, 0.0) - pad - mid
    hi = max(nu, nu_prime, 0.0) + pad - mid
    anchors = {offset, offset_prime, 0.0, -mid}
    for k in (1.0, 2.0, 4.0, WINDOW_RADIUS):
        anchors.update((-k * sigma, k * sigma))
    anchors.update(float(b) - mid for b in weight.breakpoints)
    # Anchors that coincide up to rounding (nu and mid - 8 sigma when
    # nu' = -nu = 4 sigma, say) would leave a sliver QUADPACK rejects as
    # "extremely bad integrand behavior"; keep one of each such cluster.
    points: list[float] = []
    for a in sorted(a for a in anchors if lo < a < hi):
        if not points or a - points[-1] > 1e-6 * sigma:
            points.append(a)
    value, _, info, *tail = quad(
        integrand,
        lo,
        hi,
        points=points,
        limit=400,
        epsabs=1e-300,
        epsrel=1e-12,
        full_output=True,
    )
    if tail:  # non-empty only when QUADPACK reports a failure message
        raise NumericalGuardError(
            f"definitional quadrature failed for pair ({nu:g}, {nu_prime:g}): {tail[0]}"
        )
    return float(value), int(info["neval"])


def overlap_table(
    spectrum: BohrSpectrum,
    weight: WeightFunction,
    sigma: float,
    *,
    cross_check: bool = True,
) -> OverlapTable:
    """Build the full coupling table and the coherent pair table over a Bohr
    spectrum.

    Entries are assembled from the smoothed weight,
    ``(sqrt(pi)/sigma) e^{-gap^2/(4 sigma^2)} H(midpoint)`` and
    ``2 pi c(gap) e^{-midpoint} H(-midpoint)``, with ``H`` evaluated once on
    the distinct midpoints; pairs whose Gaussian factor is below ``e^{-200}``
    are left at zero, and so is every entry below ``sqrt(tiny)`` (about
    ``1.5e-154``) times ``max(1, max|x|)`` of its table, so that no product
    of two entries underflows in the kernels that read them; the number of
    overlap entries left at zero is recorded as ``dropped_entries``.  A
    deterministic sample of overlap entries (extreme and central pairs) is
    re-derived by direct definitional quadrature;
    disagreement beyond ``1e-8`` relative, or a QUADPACK failure on one of
    them, raises :class:`NumericalGuardError`, signalling a regression in
    either path.  Bandwidths above ``MAX_BANDWIDTH``, where the
    Gauss-Hermite rule no longer resolves the weight, raise
    :class:`ValidationError`.  The table records which rule smoothed the
    weight as ``smoothing_rule``.
    """
    _require_bandwidth(sigma)
    if sigma > MAX_BANDWIDTH:
        raise ValidationError(
            f"bandwidth {sigma!r} exceeds the supported range {MAX_BANDWIDTH:g}"
        )
    freqs = spectrum.frequencies
    m = freqs.size
    # The representability constraint is on exponentials of single
    # frequencies, e^{+-nu/2}; the largest |nu| equals the Hamiltonian's
    # spectral width (the frequency list is symmetric about zero).
    width = float(max(abs(freqs[0]), abs(freqs[-1]))) if m else 0.0
    if width > MAX_SPECTRAL_WIDTH:
        raise ValidationError(
            f"largest Bohr frequency {width:.3g} exceeds the supported "
            f"range {MAX_SPECTRAL_WIDTH:g}"
        )

    gaps = freqs[:, None] - freqs[None, :]
    exponents = np.square(gaps) / (4.0 * sigma * sigma)
    live = exponents <= _PAIR_EXPONENT_CAP
    mids = 0.5 * (freqs[:, None] + freqs[None, :])

    # The midpoints and the live mask are exactly symmetric, so the distinct
    # centres are those of the upper triangle, and its values are mirrored.
    upper = np.triu(live)
    uniq_centers, inverse = np.unique(mids[upper], return_inverse=True)
    h_mid = np.zeros((m, m))
    h_mid[upper] = smoothed_weight_table(weight, sigma, uniq_centers)[inverse]
    h_mid = np.where(upper, h_mid, h_mid.T)

    overlap = math.sqrt(math.pi) / sigma * np.exp(-exponents[live]) * h_mid[live]

    # H(-midpoint) is H at the midpoint of the negated pair.
    neg = spectrum.negation_index()
    h_neg = h_mid[np.ix_(neg, neg)][live]
    with np.errstate(over="ignore", under="ignore"):
        sum_factor = np.exp(-mids[live]) * h_neg
    pair = 2.0 * math.pi * coherent_difference_factor(gaps[live], sigma) * sum_factor
    if not np.all(np.isfinite(pair)):
        raise ValidationError(
            "coherent pair table has non-finite entries; the spectral width "
            "likely exceeds the supported range"
        )
    # The pairs past the cap are zero already; floor the live ones.
    _drop_underflow(overlap)
    _drop_underflow(pair)
    values = np.zeros((m, m))
    values[live] = overlap
    coherent = np.zeros((m, m), dtype=np.complex128)
    coherent[live] = pair

    defect = 0.0
    evaluations = 0
    pairs = set()
    if cross_check and m:
        vmax = float(np.max(np.abs(values)))
        flat_vals = np.abs(values.ravel())
        eligible = np.nonzero(flat_vals >= max(vmax, 1e-300) * 1e-30)[0]
        order = eligible[np.argsort(flat_vals[eligible], kind="stable")]
        take = np.unique(
            np.linspace(0, order.size - 1, min(_CROSS_CHECK_SAMPLES, order.size)).astype(int)
        )
        pairs = {divmod(int(order[t]), m) for t in take}
        pairs |= {(i, i) for i in (0, m // 2, m - 1)}
        for i, j in sorted(pairs):
            direct, neval = _definitional_entry(float(freqs[i]), float(freqs[j]), weight, sigma)
            evaluations += neval
            scale = max(abs(values[i, j]), abs(direct), 1e-300)
            rel = abs(values[i, j] - direct) / scale
            if max(abs(direct), abs(values[i, j])) < max(vmax, 1e-300) * 1e-30:
                rel = 0.0  # both sides negligible relative to the table scale
            defect = max(defect, rel)
        if defect > _CROSS_CHECK_TOL:
            raise NumericalGuardError(
                f"overlap table disagrees with definitional quadrature by "
                f"{defect:.3e} relative (above {_CROSS_CHECK_TOL:g}); "
                "one of the evaluation paths has regressed"
            )

    return OverlapTable(
        spectrum=spectrum,
        values=values,
        coherent=coherent,
        sigma=float(sigma),
        weight=weight,
        smoothing_rule=smoothing_rule(weight, sigma, uniq_centers),
        cross_check_defect=defect,
        cross_check_entries=len(pairs),
        cross_check_evaluations=evaluations,
        dropped_entries=int(values.size - np.count_nonzero(values)),
    )
