"""Operator Fourier transform and the frequency-overlap table.

The overlap table's entries are checked against a direct QUADPACK
integration of the product of two Gaussian frequency profiles under the
weight; the transform itself is cross-checked against an independent
time-domain quadrature route.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import gibbslab.oft
import gibbslab.weights
from gibbslab.bohr import bohr_spectrum, decompose
from gibbslab.errors import NumericalGuardError, ValidationError
from gibbslab.models import (
    oscillator_model,
    qubit_model,
    random_model,
    schrodinger_line_model,
    torus_model,
)
from gibbslab.oft import oft_eval, overlap_table
from gibbslab.weights import (
    MAX_BANDWIDTH,
    MIN_BANDWIDTH,
    WeightFunction,
    balanced_gamma,
    delocalised_limit_gamma,
    smoothed_weight_table,
    smoothing_rule,
    unshifted_gamma,
)

import oracles


@pytest.fixture(scope="module")
def dense_model():
    return random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6))


@pytest.fixture(scope="module")
def dense_table(dense_model):
    spectrum = bohr_spectrum(dense_model.eigensystem())
    weight = balanced_gamma("gaussian", 0.9)
    return spectrum, weight, overlap_table(spectrum, weight, 0.9)


# ---------------------------------------------------------------------------
# Overlap table
# ---------------------------------------------------------------------------


def test_overlap_entries_match_quadpack(dense_table):
    spectrum, weight, table = dense_table
    nus = spectrum.frequencies
    probes = [(nus[0], nus[1]), (nus[3], nus[3]), (nus[2], nus[-1]), (nus[6], nus[8])]
    for nu, nu_prime in probes:
        want = oracles.overlap_entry_quad(nu, nu_prime, 0.9, weight)
        got = oracles.table_entry(table, nu, nu_prime)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-14)


@pytest.mark.parametrize("sigma", [0.01, 0.003, 0.001])
@pytest.mark.parametrize(
    "model",
    [qubit_model(), random_model(dim=3, seed=1, spectrum=(0.0, 0.8, 2.0))],
    ids=["qubit", "random3"],
)
def test_cross_check_and_oracle_hold_at_small_bandwidth(model, sigma):
    """The filter product is far narrower than the quadrature window here;
    both the batched cross-check and the QUADPACK oracle must still find
    its peak."""
    spectrum = bohr_spectrum(model.eigensystem())
    weight = balanced_gamma("gaussian", sigma)
    table = overlap_table(spectrum, weight, sigma)
    assert table.cross_check_defect <= 1e-10
    assert table.cross_check_entries > 0
    assert 0 < table.cross_check_evaluations <= 48 * gibbslab.oft._QUADRATURE_PANEL_CAP
    nus = spectrum.frequencies
    for i, j in zip(*np.nonzero(table.values)):
        want = oracles.overlap_entry_quad(nus[i], nus[j], sigma, weight)
        assert abs(table.values[i, j] - want) <= 1e-10 * abs(want)


# The live-band grid: every table is built twice, on the live upper band by
# the package and on the full pair grid by ``oracles.overlap_table_dense``.
_BAND_MODELS = {
    "qubit": qubit_model,
    "oscillator6": lambda: oscillator_model(6),
    "random4": lambda: random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6)),
    "random6": lambda: random_model(dim=6, seed=3, spectrum=(0.0, 0.5, 1.5, 3.5, 6.0, 10.0)),
    "torus12": lambda: torus_model(12),
    "line16": lambda: schrodinger_line_model(16),
    "line24": lambda: schrodinger_line_model(24),
    "line32": lambda: schrodinger_line_model(32),
}
_BAND_SIGMAS = (3.0, 1.0, 0.25, 1e-2, 1e-4)


@pytest.fixture(scope="module", params=sorted(_BAND_MODELS))
def band_grid(request):
    """``(label, band table, its picks, dense table, its picks)`` for the
    three library profiles, five bandwidths and the balanced and unshifted
    weights of one model: 30 tables.  The picks are the pairs each builder
    hands to the definitional cross-check.

    The package smooths the weight on the band's midpoints and the dense
    builder on the distinct midpoints of the full grid: the fixture keys
    each call on its distinct centres and scatters the cached values back,
    so the second call for a table reads the first one's result, and
    asserts that the distinct centres matched byte for byte, which halves
    the line models' smoothing time.  The scattered values are the ones a
    call on the repeated centres returns
    (``test_smoothed_weight_table_on_repeated_centres_is_the_distinct_call_scattered``)."""
    spectrum = _BAND_MODELS[request.param]().frame.spectrum
    picks, smoothed = [], {}
    direct = gibbslab.oft._definitional_entries
    smooth = gibbslab.weights.smoothed_weight_table

    def recording(pairs, weight, sigma):
        picks.append(list(pairs))
        return direct(pairs, weight, sigma)

    def shared(weight, sigma, centers):
        distinct, inverse = np.unique(centers, return_inverse=True)
        key = (sigma, distinct.tobytes())
        if key not in smoothed:
            smoothed[key] = smooth(weight, sigma, distinct)
        return smoothed[key][inverse]

    rows = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gibbslab.oft, "_definitional_entries", recording)
        patch.setattr(gibbslab.oft, "smoothed_weight_table", shared)
        patch.setattr(gibbslab.weights, "smoothed_weight_table", shared)
        for phi in ("gaussian", "sech", "exp_abs"):
            for sigma in _BAND_SIGMAS:
                for build in (balanced_gamma, unshifted_gamma):
                    weight = build(phi, sigma)
                    smoothed.clear()
                    band = overlap_table(spectrum, weight, sigma)
                    dense = oracles.overlap_table_dense(spectrum, weight, sigma)
                    label = f"{request.param} {phi} {sigma:g} {build.__name__}"
                    assert len(smoothed) == 1, label
                    rows.append((label, band, picks[-2], dense, picks[-1]))
    return rows


def test_band_tables_are_the_dense_tables_bit_for_bit(band_grid):
    """On 240 tables (8 models, 3 profiles, 5 bandwidths, balanced and
    unshifted), the live-band build reproduces the full-grid build: both
    tables, the pairs it cross-checks, the defect and every count."""
    for label, band, band_picks, dense, dense_picks in band_grid:
        assert band.values.tobytes() == dense.values.tobytes(), label
        assert band.coherent.tobytes() == dense.coherent.tobytes(), label
        assert band_picks == dense_picks, label
        assert band.cross_check_defect == dense.cross_check_defect, label
        assert band.cross_check_evaluations == dense.cross_check_evaluations, label
        assert band.dropped_entries == dense.dropped_entries, label
        assert band.live_pairs == dense.live_pairs, label
        assert band.smoothing_rule == dense.smoothing_rule, label


# Energies whose Bohr frequencies test the band's reach.  Two of width 599,
# where ``freqs + reach`` rounds most, one with a gap just past the reach at
# sigma = 1e-6 (2 * 1e-6 * sqrt(200) = 2.828e-5).  In the third, the two
# upper levels sit one ulp past ``fl(nu + reach)`` apart at sigma = 0.01,
# yet their exponent rounds to within the cap: the unwidened reach left that
# live pair out of the band.
_REACH_SPECTRA = (
    (0.0, 300.0, 599.0),
    (0.0, 2.83e-5, 300.0, 599.0),
    (0.0, 0.2143947760557612, 0.49723748853038024),
)


@pytest.mark.parametrize("energies", _REACH_SPECTRA, ids=["wide", "reach-gap", "rounded-in"])
@pytest.mark.parametrize("sigma", [1e-6, 2e-6, 1e-5, 0.01, 3.0])
def test_band_reach_leaves_out_no_live_pair(energies, sigma):
    """Where the rounding of the reach or of the exponent is largest, the
    live band is the full-grid table bit for bit, for every library
    profile, balanced and unshifted."""
    spectrum = bohr_spectrum(np.diag(energies))
    for phi in ("gaussian", "sech", "exp_abs"):
        for build in (balanced_gamma, unshifted_gamma):
            weight = build(phi, sigma)
            band = overlap_table(spectrum, weight, sigma, cross_check=False)
            dense = oracles.overlap_table_dense(spectrum, weight, sigma, cross_check=False)
            label = (phi, build.__name__)
            assert band.values.tobytes() == dense.values.tobytes(), label
            assert band.coherent.tobytes() == dense.coherent.tobytes(), label
            assert band.live_pairs == dense.live_pairs, label


# Levels whose gap is past the exponent cap at sigma = 1 but within the
# band's widened reach: each row's run then holds a dead candidate, so the
# live runs start elsewhere than the candidate runs.
_DEAD_CANDIDATE = 2.0 * math.sqrt(200.0) * (1.0 + 5e-7)
_MIRROR_SPECTRA = {
    **dict(zip(["wide", "reach-gap", "rounded-in"], _REACH_SPECTRA)),
    "dead-candidate": (0.0, _DEAD_CANDIDATE, 2.0 * _DEAD_CANDIDATE),
}


@pytest.mark.parametrize("name", [*sorted(_BAND_MODELS), *_MIRROR_SPECTRA])
def test_mirror_pair_is_live_with_the_same_exponent_and_the_negated_midpoint(name):
    """On every band-grid spectrum and reach spectrum, and one whose band
    holds dead candidates, at every band-grid bandwidth, the band's mirror
    index sends each live pair ``(i, j)`` to the live pair
    ``(m - 1 - j, m - 1 - i)``, whose exponent is the same bit for bit and
    whose midpoint is exactly the negated one; the index is an
    involution."""
    if name in _BAND_MODELS:
        freqs = _BAND_MODELS[name]().frame.spectrum.frequencies
    else:
        freqs = bohr_spectrum(np.diag(_MIRROR_SPECTRA[name])).frequencies
    m = freqs.size
    for sigma in _BAND_SIGMAS:
        rows, cols, exponents, mirror = gibbslab.oft._live_band(freqs, sigma)
        assert np.array_equal(rows[mirror], m - 1 - cols), sigma
        assert np.array_equal(cols[mirror], m - 1 - rows), sigma
        assert np.array_equal(mirror[mirror], np.arange(rows.size)), sigma
        assert exponents[mirror].tobytes() == exponents.tobytes(), sigma
        mids = 0.5 * (freqs[rows] + freqs[cols])
        assert np.array_equal(mids[mirror], -mids), sigma


def test_tanh_is_odd_bit_for_bit():
    """The band build writes the coherent table's lower triangle as the
    conjugate of its upper one; that is the formula on the negated gap bit
    for bit because ``np.tanh(-x)`` is ``-np.tanh(x)`` bit for bit, here
    on two million magnitudes from 1e-320 to 1e3 and a million random
    gaps."""
    x = np.concatenate(
        [np.logspace(-320.0, 3.0, 2_000_000), np.random.default_rng(7).normal(0.0, 30.0, 1_000_000)]
    )
    assert np.array_equal(np.tanh(-x).view(np.int64), (-np.tanh(x)).view(np.int64))


def test_overlap_table_is_symmetric_and_psd(dense_table):
    _, _, table = dense_table
    assert oracles.symmetry_defect(table.values) < 1e-13
    assert oracles.least_eigenvalue_sym(table.values) > -1e-9
    assert table.cross_check_defect is not None
    assert table.cross_check_defect < 1e-10


def test_overlap_table_factorises_into_envelope_and_midpoint(dense_table):
    """Each entry is the Gaussian separation envelope times the smoothed
    weight at the frequency midpoint, matching the standalone smoother."""
    spectrum, weight, table = dense_table
    nus = spectrum.frequencies
    sigma = 0.9
    for nu, nu_prime in [(nus[0], nus[-1]), (nus[2], nus[9]), (nus[5], nus[5])]:
        envelope = math.exp(-((nu - nu_prime) ** 2) / (4.0 * sigma**2))
        midpoint = smoothed_weight_table(weight, sigma, [(nu + nu_prime) / 2.0])[0]
        want = (math.sqrt(math.pi) / sigma) * envelope * midpoint
        assert oracles.table_entry(table, nu, nu_prime) == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_underflow_floor_drops_only_negligible_entries():
    """On line24 the floor zeroes entries of ``G`` and ``b`` that the
    exponent cap keeps; each table moves by at most 1e-150 of its max, no
    kept entry lies below the floor, and ``dropped_entries`` counts every
    zero of ``G``."""
    spectrum = bohr_spectrum(schrodinger_line_model(24).eigensystem())
    weight = balanced_gamma("gaussian", 1.0)
    table = overlap_table(spectrum, weight, 1.0, cross_check=False)
    unfloored = oracles.overlap_table_dense(spectrum, weight, 1.0, cross_check=False, floor=False)
    values, coherent = unfloored.values, unfloored.coherent
    for got, want in ((table.values, values), (table.coherent, coherent)):
        floor = oracles.UNDERFLOW_FLOOR * max(1.0, float(np.max(np.abs(want))))
        assert np.count_nonzero((want != 0.0) & (np.abs(want) < floor)) > 0
        assert np.max(np.abs(got - want)) <= 1e-150 * np.max(np.abs(want))
        kept = np.abs(got[got != 0.0])
        assert np.min(kept) >= floor
    assert table.dropped_entries == values.size - np.count_nonzero(table.values)
    assert table.dropped_entries > values.size - np.count_nonzero(values)


def test_cross_check_can_be_skipped(dense_model):
    spectrum = bohr_spectrum(dense_model.eigensystem())
    weight = balanced_gamma("gaussian", 0.9)
    table = overlap_table(spectrum, weight, 0.9, cross_check=False)
    assert table.cross_check_defect == 0.0
    assert table.cross_check_entries == table.cross_check_evaluations == 0


@pytest.mark.parametrize("phi", ["gaussian", "sech", "exp_abs"])
def test_cross_check_is_batched_and_never_reads_the_table_rule(dense_model, phi, monkeypatch):
    """The cross-check integrates every sampled entry together: a checked
    build makes at most one extra vectorised weight call per pass of the
    batched rule (eight at most here), and never calls
    ``smoothed_weight_table``, the rule the table itself is built by."""
    spectrum = bohr_spectrum(dense_model.eigensystem())
    weight = balanced_gamma(phi, 0.9)
    calls, smoothings = [], []

    def counting(w):
        calls.append(1)
        return weight.evaluate(w)

    smooth = gibbslab.oft.smoothed_weight_table

    def counting_smooth(*args, **kwargs):
        smoothings.append(1)
        return smooth(*args, **kwargs)

    monkeypatch.setattr(gibbslab.oft, "smoothed_weight_table", counting_smooth)
    monkeypatch.setattr(gibbslab.weights, "smoothed_weight_table", counting_smooth)
    counted = dataclasses.replace(weight, evaluate=counting)
    overlap_table(spectrum, counted, 0.9, cross_check=False)
    unchecked = len(calls)
    assert smoothings == [1]
    calls.clear()
    smoothings.clear()
    table = overlap_table(spectrum, counted, 0.9)
    assert table.cross_check_entries > 0
    assert 1 <= len(calls) - unchecked <= 8
    assert smoothings == [1]
    rules = {"gaussian": "closed_form", "sech": "gauss_hermite", "exp_abs": "closed_form"}
    assert table.smoothing_rule == rules[phi]


@pytest.mark.parametrize("make", [balanced_gamma, unshifted_gamma], ids=["balanced", "unshifted"])
def test_exp_abs_table_reads_no_quadrature_node(dense_model, make, monkeypatch):
    """exp_abs's ``H`` is in closed form, so its table lays neither the node
    sum's window lattice nor Gauss-Hermite nodes: ``G`` and the node sum
    ``K`` it is compared with share no quadrature, and the dual-path check
    reads ``K``'s own error."""
    spectrum = bohr_spectrum(dense_model.eigensystem())
    called = []

    def spy(name):
        real = getattr(gibbslab.weights, name)

        def recorded(*args):
            called.append(name)
            return real(*args)

        monkeypatch.setattr(gibbslab.weights, name, recorded)

    spy("_window_quadrature")
    spy("_gauss_hermite")
    table = overlap_table(spectrum, make("exp_abs", 0.9), 0.9)
    assert called == []
    assert table.smoothing_rule == "closed_form"
    assert table.cross_check_defect <= 1e-12


def test_custom_profile_is_still_cross_checked(dense_model):
    """The gaussian weight with its closed form removed is smoothed by
    quadrature; its table is cross-checked all the same."""
    spectrum = bohr_spectrum(dense_model.eigensystem())
    weight = dataclasses.replace(balanced_gamma("gaussian", 0.9), smoothed=None)
    table = overlap_table(spectrum, weight, 0.9)
    assert table.cross_check_entries > 0
    assert table.cross_check_evaluations > 0
    assert table.cross_check_defect <= 1e-10


def test_cross_check_catches_a_perturbed_table(dense_model, monkeypatch):
    """A table off by one part in a million fails the cross-check against
    the scalar twin, as a numerical guard."""
    spectrum = bohr_spectrum(dense_model.eigensystem())
    weight = balanced_gamma("gaussian", 0.9)
    smooth = gibbslab.oft.smoothed_weight_table
    monkeypatch.setattr(
        gibbslab.oft,
        "smoothed_weight_table",
        lambda *args, **kwargs: smooth(*args, **kwargs) * (1.0 + 1e-6),
    )
    with pytest.raises(NumericalGuardError, match="definitional quadrature"):
        overlap_table(spectrum, weight, 0.9)
    assert overlap_table(spectrum, weight, 0.9, cross_check=False).cross_check_entries == 0


@pytest.mark.parametrize(
    "flaw, reason",
    [
        # One part in a million of fast ripple: no panel of the window ever
        # resolves it, so the rule bisects until its panel cap.
        (lambda w: 1.0 + 1e-6 * np.sin(1e6 * w), "panels needed"),
        (lambda w: np.where(w > 30.0, np.nan, 1.0), "not finite"),
    ],
    ids=["panel_cap", "non_finite"],
)
def test_quadrature_failure_is_a_numerical_guard(dense_model, flaw, reason):
    """The closed-form gaussian table never reads ``evaluate``, so only the
    cross-check meets the flawed weight."""
    spectrum = bohr_spectrum(dense_model.eigensystem())
    weight = balanced_gamma("gaussian", 0.9)
    flawed = dataclasses.replace(weight, evaluate=lambda w: weight.evaluate(w) * flaw(w))
    with pytest.raises(NumericalGuardError, match="definitional quadrature failed") as info:
        overlap_table(spectrum, flawed, 0.9)
    assert reason in str(info.value)


def _cosh_weight(sigma: float) -> WeightFunction:
    """The balanced weight of the profile ``1/cosh(x)``, built by hand."""
    shift = 0.25 * sigma * sigma

    def evaluate(w):
        a = np.abs(np.asarray(w, dtype=np.float64) + shift)
        return 2.0 * np.exp(-0.5 * w - a) / (1.0 + np.exp(-2.0 * a))

    return WeightFunction(kind="balanced_from_phi", evaluate=evaluate, sigma=sigma)


ORACLE_MODELS = {
    "qubit": qubit_model(),
    "random4": random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6)),
    "line16": schrodinger_line_model(16),
    "torus12": torus_model(12),
}


@pytest.mark.parametrize("sigma", [2.0, 0.3, 0.01, 0.001])
@pytest.mark.parametrize("model", sorted(ORACLE_MODELS))
def test_definitional_entries_match_the_quadpack_oracle(model, sigma):
    """The batched rule agrees with QUADPACK to 1e-13 relative, for every
    library profile and a hand-built weight, on the lowest frequency's
    diagonal entry (the largest ``|w|``) and the closest pair of
    frequencies."""
    nus = bohr_spectrum(ORACLE_MODELS[model].eigensystem()).frequencies
    k = int(np.argmin(np.diff(nus)))
    pairs = [(float(nus[0]), float(nus[0])), (float(nus[k]), float(nus[k + 1]))]
    weights = {phi: balanced_gamma(phi, sigma) for phi in ("gaussian", "sech", "exp_abs")}
    weights["cosh"] = _cosh_weight(sigma)
    for phi, weight in weights.items():
        got, evaluations = gibbslab.oft._definitional_entries(pairs, weight, sigma)
        assert 0 < evaluations <= 48 * gibbslab.oft._QUADRATURE_PANEL_CAP
        for (nu, nu_prime), value in zip(pairs, got):
            want = oracles.overlap_entry_quad(nu, nu_prime, sigma, weight)
            assert abs(value - want) <= 1e-13 * abs(want), (phi, nu, nu_prime)


# ---------------------------------------------------------------------------
# Spectral-width guard
# ---------------------------------------------------------------------------


def test_width_guard_accepts_wide_lattice_model():
    model = torus_model(12)
    spectrum = bohr_spectrum(model.eigensystem())
    assert np.max(np.abs(spectrum.frequencies)) < 600.0
    weight = balanced_gamma("gaussian", 1.0)
    table = overlap_table(spectrum, weight, 1.0, cross_check=False)
    assert oracles.least_eigenvalue_sym(table.values) > -1e-9


def test_width_guard_rejects_oversized_spectrum():
    spectrum = bohr_spectrum(np.diag([0.0, 700.0]))
    weight = balanced_gamma("gaussian", 1.0)
    with pytest.raises(ValidationError):
        overlap_table(spectrum, weight, 1.0, cross_check=False)


def test_bandwidth_guard_rejects_unresolved_filters():
    """At the bound the Gauss-Hermite rule, run on the gaussian weight with
    its closed form removed, matches the closed form to roundoff; above it
    the table is refused (the rule is off by 1.3e-9 relative at sigma = 4
    and 1.2e-4 at 6), and so it is below ``MIN_BANDWIDTH``."""
    spectrum = bohr_spectrum(qubit_model().eigensystem())
    s = MAX_BANDWIDTH
    centers = np.array([-1.0, 0.0, 1.0])
    closed = np.sqrt(np.pi * s * s / (1 + s * s)) * np.exp(
        (1 + 2 * s * s) / 16 - (centers + 0.25 + s * s / 4) ** 2 / (1 + s * s)
    )
    quadrature = dataclasses.replace(balanced_gamma("gaussian", s), smoothed=None)
    assert smoothing_rule(quadrature) == "gauss_hermite"
    got = smoothed_weight_table(quadrature, s, centers)
    assert np.max(np.abs(got / closed - 1.0)) < 1e-13
    overlap_table(spectrum, balanced_gamma("gaussian", s), s)
    for sigma in (np.nextafter(s, np.inf), 4.0, 20.0, np.nextafter(MIN_BANDWIDTH, 0.0), 1e-300):
        with pytest.raises(ValidationError, match=r"bandwidth must be in \[1e-06, 3\]"):
            overlap_table(spectrum, balanced_gamma("gaussian", sigma), sigma)


def test_table_refuses_a_weight_built_for_another_bandwidth():
    """A weight balanced for sigma = 1 under a sigma = 0.5 filter is not
    balanced for the filter, and the cross-check cannot tell, since it
    integrates that same weight (it read 2.0e-16); a weight built for no
    bandwidth is refused alike."""
    spectrum = bohr_spectrum(qubit_model().eigensystem())
    for weight in (balanced_gamma("gaussian", 1.0), delocalised_limit_gamma("gaussian")):
        with pytest.raises(ValidationError, match="rebuild the weight for the filter bandwidth"):
            overlap_table(spectrum, weight, 0.5)
    overlap_table(spectrum, balanced_gamma("gaussian", 0.5), 0.5)


# ---------------------------------------------------------------------------
# Operator Fourier transform
# ---------------------------------------------------------------------------


def test_oft_matches_time_quadrature(dense_model):
    system = dense_model.eigensystem()
    for jump in dense_model.jumps:
        decomposition = decompose(jump, system)
        for omega in (-1.4, 0.0, 0.7, 2.3):
            for sigma in (0.5, 1.0):
                direct = oft_eval(decomposition, omega, sigma)
                alt = oracles.oft_eval_time_quadrature(
                    dense_model.hamiltonian, jump, omega, sigma
                )
                assert np.linalg.norm(direct - alt) < 1e-8


def test_oft_qubit_explicit_amplitude():
    """On the qubit, the transform at omega = +gap isolates the raising part
    with amplitude (sqrt(pi)/sigma)^(1/2)."""
    model = qubit_model()
    decomposition = decompose(model.jumps[0], model.eigensystem())
    sigma = 0.3
    filtered = oft_eval(decomposition, 1.0, sigma)
    amplitude = (math.sqrt(math.pi) / sigma) ** 0.5
    expected = np.zeros((2, 2), dtype=complex)
    expected[1, 0] = amplitude
    expected[0, 1] = amplitude * math.exp(-4.0 / (2.0 * sigma**2))
    assert np.allclose(filtered, expected, atol=1e-12)


def test_oft_far_from_spectrum_vanishes(dense_model):
    system = dense_model.eigensystem()
    decomposition = decompose(dense_model.jumps[0], system)
    assert np.linalg.norm(oft_eval(decomposition, 40.0, 0.9)) < 1e-12


def test_oft_is_linear_in_the_operator(dense_model):
    system = dense_model.eigensystem()
    rng = np.random.default_rng(11)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    combo = 0.7 * a - 1.3j * b
    eval_combo = oft_eval(decompose(combo, system), 0.5, 0.8)
    eval_split = (
        0.7 * oft_eval(decompose(a, system), 0.5, 0.8)
        - 1.3j * oft_eval(decompose(b, system), 0.5, 0.8)
    )
    assert np.linalg.norm(eval_combo - eval_split) < 1e-11


# ---------------------------------------------------------------------------
# Delocalisation limit
# ---------------------------------------------------------------------------


def test_delocalisation_diagonal_limit_value(dense_model):
    """The diagonal of the overlap table approaches pi times the limiting
    weight as the bandwidth shrinks."""
    spectrum = bohr_spectrum(dense_model.eigensystem())
    sigma = 0.03125
    weight = balanced_gamma("gaussian", sigma)
    table = overlap_table(spectrum, weight, sigma, cross_check=False)
    limit = delocalised_limit_gamma("gaussian")
    for nu in spectrum.frequencies:
        target = float(limit(np.array([nu]))[0])
        assert oracles.table_entry(table, nu, nu) == pytest.approx(target, rel=0.02, abs=1e-12)
