"""Weight functions, smoothing quadrature, and the coherent-term kernels.

Frozen constants in this file were computed with the QUADPACK oracles in
``oracles.py`` and pinned; the tests assert both that the package matches
the live oracle and that neither side has drifted from the pinned value.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import gibbslab.generators
from gibbslab.bohr import bohr_spectrum
from gibbslab.errors import ValidationError
from gibbslab.generators import _omega_quadrature_nodes
from gibbslab.models import schrodinger_line_model
from gibbslab.oft import overlap_table
from gibbslab.weights import (
    COHERENT_L1_LIMIT,
    FILTER_SQUARED_MASS,
    MAX_BANDWIDTH,
    MIN_BANDWIDTH,
    PHI_LIBRARY,
    GaussianFilter,
    TIME_KERNEL_ENVELOPE_SCALE,
    WeightFunction,
    balanced_gamma,
    coherent_time_envelope,
    coherent_time_kernel,
    coherent_time_kernel_l1,
    delocalised_limit_gamma,
    kms_defect,
    kms_gamma,
    smoothed_weight_table,
    smoothing_rule,
    unshifted_gamma,
)

import oracles

# ---------------------------------------------------------------------------
# Frozen oracle values (QUADPACK; see oracles.py for the integral forms)
# ---------------------------------------------------------------------------

SMOOTHED_AT_0P9 = {
    ("gaussian", -3.0): 0.038719586882804809,
    ("gaussian", 0.0): 1.2472810280607953,
    ("gaussian", 1.3): 0.25595960169591669,
    ("gaussian", 7.5): 9.346289561847868e-16,
    ("sech", -3.0): 3.2923135204550755,
    ("sech", 0.0): 1.6021036229621937,
    ("sech", 1.3): 0.70517636339410061,
    ("sech", 7.5): 0.0019509732135325273,
    ("exp_abs", -3.0): 0.45846303093182689,
    ("exp_abs", 0.0): 1.0777272527259762,
    ("exp_abs", 1.3): 0.28352498467413673,
    ("exp_abs", 7.5): 2.6726083141301835e-05,
}

PAIR_COEFFICIENT_AT_0P9 = {
    (1.0, -1.0): -0.16514020287520412j,
    (2.3, 1.1): -0.01986206667688525j,
    (-4.0, -3.2): 0.00093510123668170541j,
}

# Every frozen pair above is a pair of Bohr frequencies of this spectrum.
PAIR_SPECTRUM_ENERGIES = (0.0, 1.0, 1.1, 2.3, 3.2, 4.0)

# Bohr frequencies 0, +-0.5, +-1.5, +-2 (closed under negation): the pairs
# on which the scalar stationarity identity is checked.
IDENTITY_SPECTRUM_ENERGIES = (0.0, 0.5, 2.0)

TIME_KERNEL_AT = (0.4, 0.9, 0.026149028951795081)

ENVELOPE_AT = (0.3, 0.9, 2.1751769049652379 - 0.60551204398646519j)

L1_TABLE = {
    4.0: 0.040937880408518063,
    2.0: 0.049162588531839281,
    1.0: 0.053361667821107676,
    0.5: 0.054832589342810073,
    0.25: 0.055246271532054803,
    0.125: 0.055353206359833346,
    0.0625: 0.055380172951430773,
}


# ---------------------------------------------------------------------------
# Weight families
# ---------------------------------------------------------------------------


@given(st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=30))
def test_kms_weights_satisfy_detailed_balance(omegas):
    grid = np.asarray(omegas)
    for kind in ("glauber", "metropolis"):
        assert kms_defect(kms_gamma(kind), grid) < 1e-12


@given(st.lists(st.floats(-40.0, 40.0), min_size=1, max_size=30))
def test_delocalised_limit_weight_satisfies_detailed_balance(omegas):
    grid = np.asarray(omegas)
    for phi in PHI_LIBRARY:
        assert kms_defect(delocalised_limit_gamma(phi), grid) < 1e-12


def test_delocalised_limit_value():
    for phi in PHI_LIBRARY:
        w = delocalised_limit_gamma(phi)
        profile = PHI_LIBRARY[phi]
        for omega in (-2.0, 0.0, 0.7, 3.5):
            want = math.pi * math.exp(-0.5 * omega) * float(profile.fn(np.array([omega]))[0])
            assert float(w(omega)) == pytest.approx(want, rel=1e-14)


@given(st.floats(-30.0, 30.0), st.sampled_from(["gaussian", "sech", "exp_abs"]))
def test_balanced_weight_is_shifted_tilted_profile(omega, phi):
    sigma = 0.8
    w = balanced_gamma(phi, sigma)
    profile = PHI_LIBRARY[phi]
    want = math.exp(-0.5 * omega) * float(
        profile.fn(np.array([omega + sigma * sigma / 4.0]))[0]
    )
    assert float(w(omega)) == pytest.approx(want, rel=1e-12, abs=1e-300)


def test_weights_are_nonnegative_and_vectorized():
    grid = np.linspace(-20, 20, 101)
    for maker in (
        lambda: kms_gamma("glauber"),
        lambda: balanced_gamma("sech", 1.2),
        lambda: unshifted_gamma("gaussian", 0.7),
        lambda: delocalised_limit_gamma("exp_abs"),
    ):
        values = maker()(grid)
        assert values.shape == grid.shape
        assert np.all(values >= 0.0)
        assert np.all(np.isfinite(values))


@pytest.mark.parametrize("phi", sorted(PHI_LIBRARY))
def test_weight_tails_stay_finite_and_vanish_where_the_profile_underflows(phi):
    """Out to |omega| = 2000, where ``e^{-omega/2}`` overflows and every
    library profile underflows, each profile weight is finite, exactly zero
    where ``phi`` is zero, and the delocalised limit is ``pi`` times the
    unshifted weight bit for bit."""
    grid = np.concatenate([np.linspace(-2000.0, 2000.0, 8001), np.linspace(-60.0, 60.0, 24001)])
    profile = PHI_LIBRARY[phi]
    limit = delocalised_limit_gamma(phi)(grid)
    for sigma in (0.1, 1.0, 3.0):
        unshifted = unshifted_gamma(phi, sigma)(grid)
        assert limit.tobytes() == (FILTER_SQUARED_MASS * unshifted).tobytes(), sigma
        for values, shift in ((balanced_gamma(phi, sigma)(grid), 0.25 * sigma * sigma),
                              (unshifted, 0.0), (limit, 0.0)):
            assert np.all(np.isfinite(values)) and np.all(values >= 0.0), (sigma, shift)
            underflow = profile.fn(grid + shift) == 0.0
            assert np.count_nonzero(underflow) > 100
            assert np.all(values[underflow] == 0.0), (sigma, shift)


def test_phi_profiles_are_even():
    grid = np.linspace(0.0, 15.0, 61)
    for profile in PHI_LIBRARY.values():
        assert np.allclose(profile.fn(grid), profile.fn(-grid), rtol=1e-13)


@pytest.mark.parametrize("name", sorted(PHI_LIBRARY))
def test_library_profiles_pass_the_profile_checks(name):
    """Each library profile is even, non-negative and has a decaying
    tilted tail (``oracles.profile_fault``)."""
    assert oracles.profile_fault(PHI_LIBRARY[name].fn) is None


def test_unknown_names_rejected():
    with pytest.raises(ValidationError):
        kms_gamma("arrhenius")
    for phi in ("lorentzian", "Gaussian", 5, None, ["gaussian"], PHI_LIBRARY["gaussian"].fn):
        with pytest.raises(ValidationError, match="unknown profile name"):
            balanced_gamma(phi, 1.0)


def test_bad_bandwidth_rejected():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            balanced_gamma("gaussian", bad)


def _infinite_beyond_20(x):
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(over="ignore"):
        return np.where(np.abs(x) > 20.0, np.inf, np.exp(-np.square(x)))


@pytest.mark.parametrize(
    "phi, message",
    [
        (lambda x: np.full(np.shape(x), np.nan), "is not finite on the test grid"),
        (lambda x: np.exp(-np.square(x)) * (1.0 + 0.1 * x), "is not even"),
        (lambda x: np.exp(-np.square(x)) - 0.5, "is negative"),
        (_infinite_beyond_20, "has a non-finite tilted tail"),
        (lambda x: 1.0 / (1.0 + np.square(x)), "decays too slowly"),
    ],
    ids=["nan", "odd_part", "negative", "infinite_tail", "polynomial_tail"],
)
def test_inadmissible_user_profiles_rejected(phi, message):
    """Each of the profile checks that the library profiles are held to
    refuses a profile that breaks it, naming the fault, so those checks can
    fail."""
    assert oracles.profile_fault(phi) == message


# ---------------------------------------------------------------------------
# Smoothing quadrature
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("phi", ["gaussian", "sech", "exp_abs"])
def test_smoothed_weight_matches_quadpack(phi):
    w = balanced_gamma(phi, 0.9)
    centers = (-3.0, 0.0, 1.3, 7.5)
    table = smoothed_weight_table(w, 0.9, centers)
    for center, got in zip(centers, table):
        frozen = SMOOTHED_AT_0P9[(phi, center)]
        live = oracles.smoothed_weight_quad(center, 0.9, w)
        assert live == pytest.approx(frozen, rel=1e-10)
        assert got == pytest.approx(frozen, rel=1e-10)


def _balance_defects(weight, sigma: float, centers) -> np.ndarray:
    """Relative defects of ``H(c) = e^{-c} H(-c)`` at each center."""
    c = np.asarray(centers)
    h = smoothed_weight_table(weight, sigma, np.concatenate([c, -c]))
    h_plus, expected = h[: c.size], np.exp(-c) * h[c.size :]
    return np.abs(h_plus - expected) / np.maximum(np.abs(h_plus), np.abs(expected))


def test_smoothed_weight_balance_identity():
    """The tilted profile turns Gaussian smoothing into an exact symmetry;
    without the ``sigma^2/4`` shift the symmetry fails visibly."""
    taus = (0.3, 1.0, 2.7, 6.0)
    assert np.all(_balance_defects(balanced_gamma("gaussian", 1.1), 1.1, taus) < 1e-11)
    # Half the frequency sums of the tilted-moment identity
    # A(-zeta) = e^{-zeta/2} A(zeta), which is this symmetry at c = zeta/2.
    centers = (0.25, 0.75, 1.5)
    assert np.all(_balance_defects(balanced_gamma("gaussian", 1.0), 1.0, centers) < 1e-11)
    assert np.all(_balance_defects(unshifted_gamma("gaussian", 1.0), 1.0, centers) > 1e-3)


# The bandwidths the closed-form gaussian smoothing is checked at.
CLOSED_FORM_SIGMAS = (3.0, 1.0, 0.1, 0.01, 0.001)
SHIFT_FORMS = pytest.mark.parametrize(
    "make", [balanced_gamma, unshifted_gamma], ids=["balanced", "unshifted"]
)


@SHIFT_FORMS
@pytest.mark.parametrize("sigma", CLOSED_FORM_SIGMAS)
def test_gaussian_closed_form_matches_quadpack(make, sigma):
    weight = make("gaussian", sigma)
    centers = np.array([-40.0, -5.0, -1.3, -0.25, 0.0, 0.7, 2.0, 6.0, 30.0])
    assert smoothing_rule(weight) == "closed_form"
    got = smoothed_weight_table(weight, sigma, centers)
    want = np.array([oracles.smoothed_weight_quad(c, sigma, weight) for c in centers])
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


@SHIFT_FORMS
def test_gaussian_closed_form_matches_gauss_hermite_on_line32(make):
    """The gaussian weight with its closed form removed is smoothed by the
    Gauss-Hermite rule; on every distinct midpoint the overlap table of
    line32 reads, the two agree to roundoff."""
    freqs = bohr_spectrum(schrodinger_line_model(32).eigensystem()).frequencies
    gaps = freqs[:, None] - freqs[None, :]
    mids = 0.5 * (freqs[:, None] + freqs[None, :])
    for sigma in CLOSED_FORM_SIGMAS:
        centers = np.unique(mids[np.square(gaps) <= 800.0 * sigma * sigma])
        closed = make("gaussian", sigma)
        quadrature = dataclasses.replace(closed, smoothed=None)
        assert smoothing_rule(quadrature) == "gauss_hermite"
        want = smoothed_weight_table(quadrature, sigma, centers)
        got = smoothed_weight_table(closed, sigma, centers)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(want), sigma


@pytest.mark.parametrize("sigma", CLOSED_FORM_SIGMAS)
def test_gaussian_closed_form_balance(sigma):
    """``H(c) = e^{-c} H(-c)`` holds to roundoff on |c| <= 70 wherever ``H``
    is above 1e-12 of its maximum; the unshifted control breaks it."""
    c = np.linspace(-70.0, 70.0, 2801)
    for make, balanced in ((balanced_gamma, True), (unshifted_gamma, False)):
        weight = make("gaussian", sigma)
        h = smoothed_weight_table(weight, sigma, c)
        with np.errstate(invalid="ignore"):
            defects = _balance_defects(weight, sigma, c)[h > 1e-12 * np.max(h)]
        if balanced:
            assert np.max(defects) < 1e-13
        else:
            assert np.max(defects) > 1e-6


def test_smoothing_rule_follows_the_profile():
    """The rule reads only the weight: the gaussian and exp_abs profiles
    carry a closed form, sech and a weight stripped of its closed form are
    smoothed by Gauss-Hermite."""
    for make in (balanced_gamma, unshifted_gamma):
        assert smoothing_rule(make("gaussian", 0.9)) == "closed_form"
        assert smoothing_rule(make("exp_abs", 0.9)) == "closed_form"
        assert smoothing_rule(make("sech", 0.9)) == "gauss_hermite"
    quadrature = dataclasses.replace(balanced_gamma("gaussian", 0.9), smoothed=None)
    assert smoothing_rule(quadrature) == "gauss_hermite"


def _flat_top_weight(sigma: float) -> WeightFunction:
    """The balanced weight of the flat-top profile ``e^{-max(|x|, a)}``,
    ``a = 0.61803``, built by hand: kinked at both ends of the top."""
    a, shift = 0.61803, 0.25 * sigma * sigma
    return WeightFunction(
        kind="balanced_from_phi",
        evaluate=lambda w: np.exp(-0.5 * w - np.maximum(np.abs(w + shift), a)),
        sigma=sigma,
        breakpoints=(-a - shift, a - shift),
    )


def test_kinked_weight_without_a_closed_form_is_refused():
    """No rule here integrates across a kink, so a hand-built weight with
    breakpoints but no closed form is refused by the smoothing and by the
    node sum's lattice, not integrated straight across its kinks; so is
    exp_abs stripped of its closed form."""
    sigma = 0.5
    stripped = dataclasses.replace(balanced_gamma("exp_abs", sigma), smoothed=None)
    freqs = np.array([-1.0, 0.0, 1.0])
    for weight in (_flat_top_weight(sigma), stripped):
        with pytest.raises(ValidationError, match="no closed-form smoothing"):
            smoothed_weight_table(weight, sigma, freqs)
        with pytest.raises(ValidationError, match="no closed-form smoothing"):
            _omega_quadrature_nodes(weight, sigma, freqs)


# The exp_abs closed form is checked over the whole accepted bandwidth range.
EXP_ABS_SIGMAS = (MIN_BANDWIDTH, 1e-3, 0.1, 0.7, 2.0, MAX_BANDWIDTH)


@SHIFT_FORMS
@pytest.mark.parametrize("sigma", EXP_ABS_SIGMAS)
def test_exp_abs_closed_form_over_the_accepted_range(make, sigma):
    """exp_abs's ``H`` in closed form on centres from -600 to 600 and densely
    across the kink ``w + shift = 0``: every value is finite, none is
    negative, and no floating-point warning escapes.  ``H(c)`` is at least
    ``sigma e^{-3|c|/2 - 3}``, a normal double for ``|c| <= 400``, so every
    value there is positive; past ``c`` of about 470 it falls below the
    double range.  Each value is within 1e-12 relative of the plain ``erfc`` form
    (``oracles.exp_abs_smoothed``) wherever that is a normal double, and of
    QUADPACK at centres about the kink and far from it."""
    weight = make("exp_abs", sigma)
    shift = 0.25 * sigma * sigma if make is balanced_gamma else 0.0
    assert smoothing_rule(weight) == "closed_form"
    kink = -shift
    centers = np.concatenate(
        [np.linspace(-600.0, 600.0, 1201), kink + sigma * np.linspace(-10.0, 10.0, 201)]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = smoothed_weight_table(weight, sigma, centers)
    assert np.all(np.isfinite(got))
    assert np.all(got >= 0.0)
    assert np.all(got[centers <= 400.0] > 0.0)
    with np.errstate(all="ignore"):
        want = oracles.exp_abs_smoothed(centers, sigma, shift)
    normal = np.isfinite(want) & (want >= np.finfo(float).tiny)
    assert np.count_nonzero(normal) > 1000
    assert np.all(np.abs(got - want)[normal] <= 1e-12 * want[normal])
    far = np.array([-600.0, -300.0, -3.0, 4.0, 300.0, 400.0])
    for c in np.concatenate([kink + sigma * np.array([-3.0, -0.5, 0.0, 0.5, 3.0]), far]):
        quadpack = oracles.smoothed_weight_quad(c, sigma, weight)
        assert abs(smoothed_weight_table(weight, sigma, [c])[0] - quadpack) <= 1e-12 * quadpack


# ---------------------------------------------------------------------------
# Coherent pair coefficients, read from the overlap table's coherent table
# ---------------------------------------------------------------------------


def _coherent_table(phi: str, sigma: float):
    spectrum = bohr_spectrum(np.diag(PAIR_SPECTRUM_ENERGIES))
    weight = balanced_gamma(phi, sigma)
    return spectrum, overlap_table(spectrum, weight, sigma, cross_check=False).coherent


def test_pair_coefficient_matches_quadpack():
    w = balanced_gamma("gaussian", 0.9)
    spectrum, coherent = _coherent_table("gaussian", 0.9)
    for (nu, nup), frozen in PAIR_COEFFICIENT_AT_0P9.items():
        live = oracles.pair_coefficient_quad(nu, nup, 0.9, w)
        assert abs(live - frozen) < 1e-10 * abs(frozen)
        i, j = oracles.frequency_index(spectrum, nu), oracles.frequency_index(spectrum, nup)
        got = coherent[i, j]
        assert abs(got - frozen) < 1e-10 * abs(frozen)


def test_pair_coefficient_hermitian_symmetry():
    _, coherent = _coherent_table("sech", 0.7)
    assert np.all(np.abs(coherent - coherent.conj().T) <= 1e-13 * np.abs(coherent))


def test_pair_coefficient_vanishes_on_diagonal():
    _, coherent = _coherent_table("gaussian", 1.0)
    assert np.all(np.diag(coherent) == 0.0)


def _identity_residuals(weight, sigma: float) -> np.ndarray:
    """``|lhs - rhs| / (1 + |lhs|)`` of the scalar stationarity identity at
    every pair of Bohr frequencies of the identity spectrum: ``lhs`` is the
    QUADPACK Gibbs-action coefficient, ``rhs = i (1 - e^{tau - tau'}) b``
    with ``b`` the production coherent pair table."""
    spectrum = bohr_spectrum(np.diag(IDENTITY_SPECTRUM_ENERGIES))
    taus = spectrum.frequencies
    lhs = oracles.gibbs_coefficient_table_quad(taus, sigma, weight)
    coherent = overlap_table(spectrum, weight, sigma, cross_check=False).coherent
    rhs = 1j * (1.0 - np.exp(taus[:, None] - taus[None, :])) * coherent
    assert np.all(np.abs(rhs.imag) <= 1e-13 * (1.0 + np.abs(rhs.real)))
    return np.abs(lhs - rhs.real) / (1.0 + np.abs(lhs))


def _assert_identity_balanced_vs_broken(phi: str, sigma: float) -> None:
    assert np.max(_identity_residuals(balanced_gamma(phi, sigma), sigma)) < 1e-9
    broken = _identity_residuals(unshifted_gamma(phi, sigma), sigma)
    assert np.max(broken[~np.eye(broken.shape[0], dtype=bool)]) > 1e-4


def test_stationarity_identity_residual_balanced_vs_broken():
    _assert_identity_balanced_vs_broken("gaussian", 1.0)


@pytest.mark.parametrize("sigma", [1.0, 0.5])
@pytest.mark.parametrize("phi", ["sech", "exp_abs"])
def test_stationarity_identity_for_other_profiles(phi, sigma):
    """Smooth heavy-tailed (sech) and kinked (exp_abs, which takes the
    panel branch of the smoothed-weight table) profiles balance too."""
    _assert_identity_balanced_vs_broken(phi, sigma)


# ---------------------------------------------------------------------------
# Time-domain kernels
# ---------------------------------------------------------------------------


def test_time_kernel_matches_fourier_oracle():
    t, sigma, frozen = TIME_KERNEL_AT
    assert oracles.time_kernel_quad(t, sigma) == pytest.approx(frozen, rel=1e-12)
    assert float(coherent_time_kernel(t, sigma)) == pytest.approx(frozen, rel=1e-12)


def test_time_kernel_is_odd_and_positive_for_positive_times():
    grid = np.array([0.1, 0.4, 1.0, 2.5])
    plus = np.asarray(coherent_time_kernel(grid, 0.8))
    minus = np.asarray(coherent_time_kernel(-grid, 0.8))
    assert np.all(plus > 0.0)
    assert np.allclose(plus, -minus, rtol=1e-13)


def test_envelope_matches_tilted_fourier_oracle():
    s, sigma, frozen = ENVELOPE_AT
    w = balanced_gamma("gaussian", sigma)
    live = oracles.tilted_envelope_quad(s, sigma, w)
    assert abs(live - frozen) < 1e-10 * abs(frozen)
    got = complex(np.asarray(coherent_time_envelope(s, sigma, w)).ravel()[0])
    assert abs(got - frozen) < 1e-10 * abs(frozen)


def test_time_kernel_is_exactly_odd():
    """``K(-t) = -K(t)`` bit for bit on a grid that is not its own mirror."""
    t = np.array([-2.5, 0.4, 19.0, -0.013, 0.0, 7.25, -1.0])
    vals = coherent_time_kernel(t, 0.9)
    assert np.array_equal(coherent_time_kernel(-t, 0.9), -vals)
    assert vals[4] == 0.0


@pytest.mark.parametrize("sigma", [0.3, 0.5, 0.9, 2.0])
def test_time_kernel_window_matches_all_node_sum(sigma):
    """Each ``|t|`` summed over its live window against the sum over every
    node, per point, on the oracle's kernel grid and at t = 19 and 40,
    where the kernel lies far below 1e-40 at the larger bandwidths."""
    ts, _ = gibbslab.generators._oracle_trapezoid(12.0 + 2.0 / sigma)
    for t in (ts, np.array([19.0, 40.0])):
        got = coherent_time_kernel(t, sigma)
        ref = oracles.time_kernel_all_nodes(t, sigma)
        assert np.array_equal(got == 0.0, ref == 0.0)
        live = ref != 0.0
        assert np.max(np.abs(got[live] - ref[live]) / np.abs(ref[live])) < 1e-14


@pytest.mark.parametrize("phi", ["gaussian", "exp_abs"])
def test_envelope_phase_split_matches_direct_sum(phi):
    """The panel-centre phase split against the direct sum over every node,
    on a non-uniform ``s`` with both signs and 0, and on a scalar."""
    w = balanced_gamma(phi, 0.9)
    s = np.array([-11.7, -4.0, -0.3, 0.0, 0.05, 0.3, 1.9, 6.6, 12.1])
    ref = oracles.time_envelope_direct(s, 0.9, w)
    got = coherent_time_envelope(s, 0.9, w)
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))
    scalar = coherent_time_envelope(0.3, 0.9, w)
    assert isinstance(scalar, complex)
    ref_scalar = oracles.time_envelope_direct(0.3, 0.9, w)[0]
    assert abs(scalar - ref_scalar) < 1e-14 * abs(ref_scalar)


def test_envelope_rejects_untiltable_weight():
    # e^{omega} gamma(omega) tends to a constant for the sech profile, so the
    # tilted transform does not exist and must be refused loudly
    w = balanced_gamma("sech", 0.9)
    with pytest.raises(ValidationError):
        coherent_time_envelope(0.3, 0.9, w)


def test_l1_table_and_limit():
    for sigma, frozen in L1_TABLE.items():
        live = oracles.time_kernel_l1_quad(sigma, TIME_KERNEL_ENVELOPE_SCALE)
        assert live == pytest.approx(frozen, rel=1e-10)
        assert coherent_time_kernel_l1(sigma) == pytest.approx(frozen, rel=1e-10)
    values = [L1_TABLE[s] for s in sorted(L1_TABLE, reverse=True)]
    assert all(b > a for a, b in zip(values[:-1], values[1:]))
    assert all(v < COHERENT_L1_LIMIT for v in values)
    assert COHERENT_L1_LIMIT == pytest.approx(math.sqrt(math.pi) / 32.0, rel=1e-15)


# ---------------------------------------------------------------------------
# Gaussian filter
# ---------------------------------------------------------------------------


def test_filter_squared_mass_is_pi():
    filt = GaussianFilter(0.7)
    grid = np.linspace(-60, 60, 400001)
    mass = np.trapezoid(filt.frequency_profile(grid) ** 2, grid)
    assert mass == pytest.approx(FILTER_SQUARED_MASS, rel=1e-12)
    assert FILTER_SQUARED_MASS == pytest.approx(math.pi, rel=1e-15)


def test_filter_rejects_bad_bandwidth():
    for bad in (0.0, -2.0, float("nan")):
        with pytest.raises(ValidationError):
            GaussianFilter(bad)


def test_custom_weight_function_is_usable():
    w = WeightFunction(
        kind="unshifted_control",
        evaluate=lambda om: np.exp(-np.abs(np.asarray(om))),
        sigma=1.0,
    )
    assert float(w(0.0)) == 1.0
    assert float(w(2.0)) == pytest.approx(math.exp(-2.0), rel=1e-14)
