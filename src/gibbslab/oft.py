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
``e^{-200}`` -- the frequencies ascend, so the rest form one band about the
diagonal, the only pairs a build computes -- and on entries below
``sqrt(tiny) max(1, max|x|)`` (about ``1.5e-154`` of the table's scale,
``tiny`` the smallest normal double):
such entries are more than 138 orders of magnitude below double precision,
but products of two of them underflow, and on common x86 processors every
subnormal operation in the dense kernels that read the tables costs a
microcode assist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bohr import BohrDecomposition, BohrSpectrum
from .errors import NumericalGuardError, ValidationError
from .weights import (
    WINDOW_RADIUS,
    GaussianFilter,
    WeightFunction,
    _gauss_legendre,
    _require_spectral_width,
    _require_table_bandwidth,
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

# Stopping rule of that quadrature: an entry is done when its estimated
# error is below this fraction of its value, or below the absolute floor.
_QUADRATURE_RTOL = 1e-13
_QUADRATURE_ATOL = 1e-300
# Most panels one table's quadrature may evaluate, over all its passes (the
# library profiles on qubit to line32 at sigma 0.001 to 3 need at most 229):
# at 48 nodes a panel, no temporary of a pass exceeds 384 KiB.
_QUADRATURE_PANEL_CAP = 1024


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
        smoothing_rule: the rule that evaluated the smoothed weight,
            ``closed_form`` or ``gauss_hermite``
            (:func:`gibbslab.weights.smoothing_rule`).
        cross_check_defect: worst relative disagreement of the sampled
            entries against direct definitional quadrature (recorded at
            construction).
        cross_check_entries: number of entries re-derived by that quadrature.
        cross_check_evaluations: integrand nodes it evaluated for them, over
            all passes of the batched rule (48 per panel).
        dropped_entries: entries of ``values`` left at zero by the exponent
            cap or the underflow floor.
        live_pairs: pairs ``nu <= nu'`` within the exponent cap, the upper
            band the table was computed on.
    """

    spectrum: BohrSpectrum
    values: np.ndarray
    coherent: np.ndarray
    smoothing_rule: str
    cross_check_defect: float = 0.0
    cross_check_entries: int = 0
    cross_check_evaluations: int = 0
    dropped_entries: int = 0
    live_pairs: int = 0

    @cached_property
    def blocks(self) -> np.ndarray:
        """Bounds ``0 = b_0 < b_1 < ... < b_k = m`` of the diagonal blocks of
        ``values``: each run ``[b_i, b_{i+1})`` is as short as it can be
        with no nonzero entry coupling it to a row or column outside it."""
        nonzero = self.values != 0.0
        coupled = nonzero | nonzero.T
        m = coupled.shape[0]
        coupled.ravel()[:: m + 1] = True
        # The furthest index each index couples to, through its row or its
        # column; a block ends where no earlier index reaches past it.
        reach = np.maximum.accumulate(m - 1 - np.argmax(coupled[:, ::-1], axis=1))
        return np.concatenate([[0], np.flatnonzero(reach == np.arange(m)) + 1])

    def min_eigenvalue(self) -> float:
        """Smallest eigenvalue of the symmetrised table (PSD diagnostic), the
        least over its diagonal blocks (:attr:`blocks`); a block of size 1
        reads its diagonal entry.  The spectrum is the whole table's, so the
        value differs from one ``eigvalsh`` of the table only at roundoff.
        """
        bounds = self.blocks.tolist()
        lowest = math.inf
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            block = self.values[lo:hi, lo:hi]
            if hi - lo == 1:
                lowest = min(lowest, float(block[0, 0]))
            else:
                lowest = min(lowest, float(np.linalg.eigvalsh(0.5 * (block + block.T))[0]))
        return lowest


def _drop_underflow(table: np.ndarray) -> None:
    """Zero, in place, every entry of ``table`` below
    ``_UNDERFLOW_FLOOR * max(1, max|table|)``.

    A product of two kept entries is then a normal number, so BLAS and
    LAPACK never underflow on them.  On a table of scale 1 or more, each
    dropped entry is more than 138 orders of magnitude below roundoff.
    """
    if np.iscomplexobj(table):
        magnitude = np.abs(table)
        floor = _UNDERFLOW_FLOOR * max(1.0, float(magnitude.max(initial=0.0)))
        table[magnitude < floor] = 0.0
        return
    # A real table is compared where it lies: |x| < f is -f < x < f.
    top = max(float(table.max(initial=0.0)), -float(table.min(initial=0.0)))
    floor = _UNDERFLOW_FLOOR * max(1.0, top)
    small = table < floor
    small &= table > -floor
    table[small] = 0.0


def _definitional_entries(
    pairs: list[tuple[float, float]],
    weight: WeightFunction,
    sigma: float,
) -> tuple[np.ndarray, int]:
    """Couplings ``G(nu, nu')`` of ``pairs`` by direct adaptive quadrature of
    the definition, all entries integrated together.

    The rule is a batched, vectorised adaptive Gauss-Legendre quadrature, a
    different algorithm and code path from the table's closed-form,
    Gauss-Hermite or panel evaluation of ``H``, which it never reads.  The
    integrand is the weight times the two frequency profiles, each written
    from its formula ``(sqrt(pi)/sigma)^{1/2} e^{-x^2/(2 sigma^2)}``, on a
    window wide enough to hold both the filter pair's hull and the weight's
    own body -- tilted weights can pull the product's mass well outside the
    filter hull.  Each entry is integrated over ``u = w - mid`` with
    ``mid = (nu + nu')/2``, so the profile arguments ``u - (nu - mid)``
    carry no rounding from ``|w|`` (at ``sigma = 0.001`` and ``|nu| = 60``
    that rounding alone costs about 3e-12 relative).

    Anchor rule: each window is split at the two frequencies, the origin,
    the weight's breakpoints, ``mid`` and at ``mid +- k sigma`` for ``k`` in
    1, 2, 4 and ``WINDOW_RADIUS``, with anchors closer than ``1e-6 sigma``
    merged.  The filter product is a Gaussian of width ``sigma/sqrt(2)``
    about ``mid``, so the first panels already have widths ``sigma`` to
    ``4 sigma`` over the peak at every bandwidth: a peak far narrower than
    the window cannot fall between the nodes of one wide panel.

    Every entry's panels are stacked, and each pass calls the vectorised
    weight once, on the ``PANEL_ORDER``-point rule over every new panel and
    over each of its halves.  A panel's value is the sum over its halves and
    its error ``|whole - halves|``.  An entry is done when its summed error
    is at most ``_QUADRATURE_RTOL`` of its integral (or below
    ``_QUADRATURE_ATOL``, for integrals lost to underflow); within an
    unfinished entry, the panels whose error exceeds their equal share of
    that budget are bisected.  More than ``_QUADRATURE_PANEL_CAP`` panels
    evaluated in all, or a non-finite integrand, raises
    :class:`NumericalGuardError`.

    Returns the values and the number of integrand evaluations spent.
    """
    x_ref, w_ref = _gauss_legendre()
    # Nodes in units of a panel's half-width about its centre, and the two
    # rules on them as columns: over the whole panel, and over its halves.
    nodes = np.concatenate([x_ref, 0.5 * (x_ref - 1.0), 0.5 * (x_ref + 1.0)])
    zeros = np.zeros_like(w_ref)
    rules = np.column_stack(
        [np.concatenate([w_ref, zeros, zeros]), np.concatenate([zeros, 0.5 * w_ref, 0.5 * w_ref])]
    )

    amplitude = math.sqrt(math.pi) / sigma  # product of the two profile prefactors
    inv_two_var = 0.5 / (sigma * sigma)
    pad = WINDOW_RADIUS * sigma + 60.0
    steps = [k * sigma for k in (1.0, 2.0, 4.0, WINDOW_RADIUS)]
    mids, shift, shift_prime, owner, lower, upper = [], [], [], [], [], []
    for entry, (nu, nu_prime) in enumerate(pairs):
        mid = 0.5 * (nu + nu_prime)
        offset, offset_prime = nu - mid, nu_prime - mid
        lo = min(nu, nu_prime, 0.0) - pad - mid
        hi = max(nu, nu_prime, 0.0) + pad - mid
        anchors = {offset, offset_prime, 0.0, -mid, *steps, *(-k for k in steps)}
        anchors.update(float(b) - mid for b in weight.breakpoints)
        # Anchors that coincide up to rounding (nu and mid - 8 sigma when
        # nu' = -nu = 4 sigma, say) would leave a sliver panel; keep one of
        # each such cluster.
        edges = [lo]
        for a in sorted(a for a in anchors if lo < a < hi):
            if a - edges[-1] > 1e-6 * sigma:
                edges.append(a)
        edges.append(hi)
        mids.append(mid)
        shift.append(offset)
        shift_prime.append(offset_prime)
        owner += [entry] * (len(edges) - 1)
        lower += edges[:-1]
        upper += edges[1:]
    mids, shift, shift_prime = np.array(mids), np.array(shift), np.array(shift_prime)
    n = len(pairs)

    def evaluate(owner, lower, upper):
        """Each panel's value (over its halves) and error ``|whole - halves|``."""
        half = 0.5 * (upper - lower)
        u = 0.5 * (lower + upper)[:, None] + half[:, None] * nodes
        a = u - shift[owner, None]
        b = u - shift_prime[owner, None]
        f = weight(mids[owner, None] + u) * np.exp(-(a * a + b * b) * inv_two_var)
        whole, halves = ((amplitude * half)[:, None] * (f @ rules)).T
        return halves, np.abs(whole - halves)

    def failure(entry, reason):
        nu, nu_prime = pairs[entry]
        return NumericalGuardError(
            f"definitional quadrature failed for pair ({nu:g}, {nu_prime:g}): {reason}"
        )

    owner, lower, upper = np.array(owner, dtype=np.intp), np.array(lower), np.array(upper)
    value, error = evaluate(owner, lower, upper)
    panels = owner.size
    while True:
        total = np.bincount(owner, value, minlength=n)
        spread = np.bincount(owner, error, minlength=n)
        broken = ~np.isfinite(total + spread)
        if broken.any():
            raise failure(int(np.argmax(broken)), "the integrand is not finite")
        budget = np.maximum(_QUADRATURE_RTOL * np.abs(total), _QUADRATURE_ATOL)
        unfinished = spread > budget
        if not unfinished.any():
            return total, panels * nodes.size
        share = budget / np.bincount(owner, minlength=n)
        split = unfinished[owner] & (error > share[owner])
        panels += 2 * int(np.count_nonzero(split))
        if panels > _QUADRATURE_PANEL_CAP:
            raise failure(
                int(np.argmax(unfinished)), f"more than {_QUADRATURE_PANEL_CAP} panels needed"
            )
        centre = 0.5 * (lower[split] + upper[split])
        child_owner = np.repeat(owner[split], 2)
        child_lower = np.column_stack([lower[split], centre]).ravel()
        child_upper = np.column_stack([centre, upper[split]]).ravel()
        child_value, child_error = evaluate(child_owner, child_lower, child_upper)
        keep = ~split
        owner = np.concatenate([owner[keep], child_owner])
        lower = np.concatenate([lower[keep], child_lower])
        upper = np.concatenate([upper[keep], child_upper])
        value = np.concatenate([value[keep], child_value])
        error = np.concatenate([error[keep], child_error])


def _live_band(freqs: np.ndarray, sigma: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The live upper band of the pair table: the pairs ``i <= j`` whose
    exponent ``gap^2 / (4 sigma^2)`` is at most ``_PAIR_EXPONENT_CAP``, as
    row and column indices in row-major order, with those exponents.

    The frequencies ascend, so each row's live pairs are one run that starts
    on the diagonal.  Its candidates run to the cap's reach
    ``2 sigma sqrt(cap)`` widened by ``1e-6`` of itself, which covers the
    rounding of the exponent and of ``freqs + reach`` (500 times over at
    ``|nu| = 600`` and ``sigma = 1e-6``); the pairs whose exponent is within
    the cap are kept, and they lead each row's run.
    """
    m = freqs.size
    index = np.arange(m)
    reach = 2.0 * sigma * math.sqrt(_PAIR_EXPONENT_CAP) * (1.0 + 1e-6)
    length = np.searchsorted(freqs, freqs + reach, side="right") - index
    rows = np.repeat(index, length)
    cols = np.arange(rows.size) + np.repeat(index - (np.cumsum(length) - length), length)
    exponents = np.square(freqs[rows] - freqs[cols]) / (4.0 * sigma * sigma)
    live = exponents <= _PAIR_EXPONENT_CAP
    return rows[live], cols[live], exponents[live]


def _sample_pairs(
    magnitude: np.ndarray, upper_flat: np.ndarray, lower_flat: np.ndarray, vmax: float, m: int
) -> list[tuple[int, int]]:
    """The cross-check's evenly ranked pairs: of the table's entries at least
    ``1e-30`` of its largest magnitude ``vmax``, ranked by magnitude with
    equal magnitudes in row-major order of the full table, the ones at up to
    ``_CROSS_CHECK_SAMPLES`` evenly spaced ranks.

    ``magnitude`` holds the live upper band, whose entries sit at the flat
    indices ``upper_flat`` of the table and, off the diagonal, again at
    ``lower_flat``.  Complex numbers order by real part, then imaginary
    part, so keys ``magnitude + i * flat index`` rank the entries exactly
    as a stable sort by magnitude would, and one partition at the sampled
    ranks finds them without sorting every entry.
    """
    eligible = magnitude >= max(vmax, 1e-300) * 1e-30
    mirrored = eligible & (upper_flat != lower_flat)
    keys = np.concatenate([magnitude[eligible], magnitude[mirrored]]) + 1j * np.concatenate(
        [upper_flat[eligible], lower_flat[mirrored]]
    )
    count = min(_CROSS_CHECK_SAMPLES, keys.size)
    ranks = np.unique(np.linspace(0, keys.size - 1, count).astype(int))
    flat = np.partition(keys, ranks)[ranks].imag.astype(np.intp)
    return [divmod(int(f), m) for f in flat]


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
    ``2 pi c(gap) e^{-midpoint} H(-midpoint)``.  Pairs whose Gaussian factor
    is below ``e^{-200}`` are left at zero, so both tables are computed on
    the live upper band only (:func:`_live_band`, one contiguous run a row,
    counted as ``live_pairs``) and mirrored: ``G`` is symmetric and ``b``
    Hermitian.  ``H`` is evaluated once on the band's distinct midpoints,
    which also serve ``H(-midpoint)``, since they are closed under
    negation.  Every entry below ``sqrt(tiny)`` (about ``1.5e-154``) times
    ``max(1, max|x|)`` of its table is left at zero too, so that no product
    of two entries underflows in the kernels that read them; the number of
    overlap entries left at zero is recorded as ``dropped_entries``.  A
    deterministic sample of overlap entries (evenly ranked by magnitude,
    plus three diagonal ones; :func:`_sample_pairs`) is re-derived together
    by direct definitional quadrature (:func:`_definitional_entries`);
    disagreement beyond ``1e-8`` relative, or a failure of that quadrature,
    raises :class:`NumericalGuardError`, signalling a regression in either
    path.  The table records which rule smoothed the weight as
    ``smoothing_rule``.  A bandwidth outside ``[MIN_BANDWIDTH,
    MAX_BANDWIDTH]`` (:func:`~gibbslab.weights._require_table_bandwidth`),
    or a weight built for another bandwidth than ``sigma`` (which the
    cross-check cannot catch: it integrates that same weight), raises
    :class:`ValidationError`; every caller meets these rules here.
    """
    _require_table_bandwidth(sigma)
    if weight.sigma != sigma:
        raise ValidationError(
            f"weight was built for bandwidth {weight.sigma!r} but the filter uses "
            f"{sigma!r}; rebuild the weight for the filter bandwidth"
        )
    freqs = spectrum.frequencies
    m = freqs.size
    # The representability constraint is on exponentials of single
    # frequencies, e^{+-nu/2}.
    _require_spectral_width(freqs)

    rows, cols, exponents = _live_band(freqs, sigma)
    nu, nu_prime = freqs[rows], freqs[cols]
    gaps = nu - nu_prime
    mids = 0.5 * (nu + nu_prime)
    uniq_centers, inverse = np.unique(mids, return_inverse=True)
    h = smoothed_weight_table(weight, sigma, uniq_centers)
    overlap = math.sqrt(math.pi) / sigma * np.exp(-exponents) * h[inverse]

    # H(-midpoint) is H at the midpoint of the negated pair: the Bohr
    # frequencies are exactly closed under negation, so the centre set is
    # too, and the negated centre of uniq_centers[k] is uniq_centers[-1 - k].
    with np.errstate(over="ignore", under="ignore"):
        sum_factor = np.exp(-mids) * h[uniq_centers.size - 1 - inverse]
    pair = 2.0 * math.pi * coherent_difference_factor(gaps, sigma) * sum_factor
    if not np.all(np.isfinite(pair)):
        raise ValidationError(
            "coherent pair table has non-finite entries; the spectral width "
            "likely exceeds the supported range"
        )
    # The pairs past the cap are zero already; floor the live ones.
    _drop_underflow(overlap)
    _drop_underflow(pair)
    upper_flat = rows * m + cols
    lower_flat = cols * m + rows
    # Each kept pair off the diagonal is two entries of the table.
    kept = 2 * np.count_nonzero(overlap) - np.count_nonzero(overlap[rows == cols])
    live_pairs = int(rows.size)
    # Free the band's temporaries before the tables are allocated: on line32
    # they would otherwise set the build's peak.
    del rows, cols, exponents, nu, nu_prime, gaps, mids, uniq_centers, inverse, h, sum_factor
    values = np.zeros((m, m))
    values.ravel()[lower_flat] = overlap
    values.ravel()[upper_flat] = overlap
    # The difference factor is odd and imaginary and the sum factor real, so
    # the lower triangle is the conjugate of the upper one: with a tanh that
    # is odd bit for bit, the formula on the gap nu' - nu gives exactly
    # these bits (adding +0.0 turns the conjugated zeros' -0.0 back into the
    # formula's +0.0).  The diagonal, gap +0.0, is written last from the upper.
    coherent = np.zeros((m, m), dtype=np.complex128)
    coherent.ravel()[lower_flat] = pair.conj() + 0.0
    coherent.ravel()[upper_flat] = pair
    del pair

    defect = 0.0
    evaluations = 0
    pairs = []
    if cross_check and m:
        magnitude = np.abs(overlap)
        vmax = float(np.max(magnitude))
        pairs = sorted(
            set(_sample_pairs(magnitude, upper_flat, lower_flat, vmax, m))
            | {(i, i) for i in (0, m // 2, m - 1)}
        )
        directs, evaluations = _definitional_entries(
            [(float(freqs[i]), float(freqs[j])) for i, j in pairs], weight, sigma
        )
        for (i, j), direct in zip(pairs, directs):
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
        smoothing_rule=smoothing_rule(weight),
        cross_check_defect=defect,
        cross_check_entries=len(pairs),
        cross_check_evaluations=evaluations,
        dropped_entries=int(m * m - kept),
        live_pairs=live_pairs,
    )
