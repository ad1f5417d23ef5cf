"""Generator assembly, stationarity, and structural identities.

The load-bearing oracle here is a from-scratch loop assembly: Bohr
components come from the projector route, frequency couplings from the
overlap table (itself checked against QUADPACK in the transform tests),
and the action is summed term by term with explicit matrix products.
The package's vectorised assembly must reproduce that superoperator to
machine precision on dense models.
"""

from __future__ import annotations

import dataclasses
import time
import tracemalloc

import numpy as np
import pytest

import gibbslab.generators
from gibbslab.bohr import bohr_spectrum, decompose
from gibbslab.errors import ValidationError
from gibbslab.generators import (
    _bohr_sum_dissipator,
    _bundle,
    _envelope_sum,
    _omega_quadrature_coupling,
    _omega_quadrature_nodes,
    _pair_sum,
    _rotate_superop,
    coherent_calibration_report,
    coherent_matrix_bohr,
    davies_generator,
    davies_limit_report,
    dual_path_residual,
    effective_drift_abscissa,
    hermiticity_preservation_defect,
    localised_generator,
    stationarity_report,
    trace_functional_defect,
)
from gibbslab.models import (
    Model,
    oscillator_model,
    qubit_model,
    random_model,
    schrodinger_line_model,
    torus_model,
)
from gibbslab.oft import overlap_table
from gibbslab.operator_core import EigenSystem, vectorize
from gibbslab.weights import (
    MAX_BANDWIDTH,
    MIN_BANDWIDTH,
    PANEL_ORDER,
    GaussianFilter,
    WeightFunction,
    balanced_gamma,
    coherent_time_envelope,
    kms_gamma,
    unshifted_gamma,
)

import oracles
from oracles import WELL_SEPARATED_SPECTRUM_6


@pytest.fixture(scope="module")
def dense_model():
    return random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6))


@pytest.fixture(scope="module")
def dense_bundle(dense_model):
    weight = balanced_gamma("gaussian", 0.9)
    return localised_generator(dense_model, weight, 0.9)


# ---------------------------------------------------------------------------
# From-scratch assembly oracle
# ---------------------------------------------------------------------------


def test_davies_superoperator_matches_loop_assembly(dense_model):
    weight = kms_gamma("glauber")
    bundle = davies_generator(dense_model, weight)
    system = dense_model.eigensystem()
    spectrum = bohr_spectrum(system)
    terms = []
    for jump in dense_model.jumps:
        components = oracles.dense_components(decompose(jump, system))
        for i, nu in enumerate(spectrum.frequencies):
            terms.append((float(weight(nu)), components[i], components[i]))

    def action(operator):
        return oracles.lindblad_action_loops(dense_model.hamiltonian, terms, operator)

    reference = oracles.superoperator_by_columns(action, dense_model.dim)
    scale = np.linalg.norm(bundle.superoperator)
    assert np.linalg.norm(reference - bundle.superoperator) < 1e-12 * scale

    kernel = sum(c * a.conj().T @ b for c, a, b in terms)
    drift = 1j * dense_model.hamiltonian - 0.5 * kernel
    assert np.linalg.norm(drift - bundle.effective_drift) < 1e-12 * np.linalg.norm(drift)


def test_localised_superoperator_matches_loop_assembly(dense_model, dense_bundle):
    sigma = 0.9
    weight = dense_bundle.weight
    system = dense_model.eigensystem()
    spectrum = bohr_spectrum(system)
    table = overlap_table(spectrum, weight, sigma)
    nus = spectrum.frequencies

    terms = []
    coherent = np.zeros((dense_model.dim, dense_model.dim), dtype=complex)
    for jump in dense_model.jumps:
        components = oracles.dense_components(decompose(jump, system))
        for i in range(len(nus)):
            for j in range(len(nus)):
                terms.append((table.values[i, j], components[i], components[j]))
                coherent += table.coherent[i, j] * components[i].conj().T @ components[j]

    assert np.linalg.norm(coherent - dense_bundle.coherent_matrix) < 1e-13

    h_eff = dense_model.hamiltonian + coherent

    def action(operator):
        return oracles.lindblad_action_loops(h_eff, terms, operator)

    reference = oracles.superoperator_by_columns(action, dense_model.dim)
    scale = np.linalg.norm(dense_bundle.superoperator)
    assert np.linalg.norm(reference - dense_bundle.superoperator) < 1e-12 * scale

    kernel = sum(c * a.conj().T @ b for c, a, b in terms)
    drift = 1j * h_eff - 0.5 * kernel
    assert np.linalg.norm(drift - dense_bundle.effective_drift) < 1e-12 * np.linalg.norm(drift)


def test_assembly_paths_agree(dense_model):
    weight = balanced_gamma("gaussian", 0.9)
    direct = localised_generator(dense_model, weight, 0.9, path="bohr_sum")
    resolved = localised_generator(dense_model, weight, 0.9, path="omega_quadrature")
    assert resolved.assembly_path == "omega_quadrature"
    scale = np.linalg.norm(direct.superoperator)
    assert np.linalg.norm(resolved.superoperator - direct.superoperator) < 1e-10 * scale
    assert dual_path_residual(direct) < 1e-8


def test_dual_path_residual_from_either_path(dense_model):
    weight = balanced_gamma("gaussian", 0.9)
    direct = localised_generator(dense_model, weight, 0.9)
    resolved = localised_generator(
        dense_model, weight, 0.9, path="omega_quadrature"
    )
    # Each side builds only the other path's table, so both see the same pair.
    assert dual_path_residual(resolved) == dual_path_residual(direct)
    assert dual_path_residual(resolved) < 1e-8
    with pytest.raises(ValidationError):
        dual_path_residual(davies_generator(dense_model, kms_gamma("glauber")))


def test_dual_path_residual_sees_a_small_table_fault(filtered_battery):
    """A fault in the contracted table is measured against the table, not
    diluted by the Hamiltonian part (``||S|| / ||D||`` is about 1e3 on
    torus12, which would hide a 1e-6 fault under the 1e-8 tolerance).  The
    gaussian table is smoothed in closed form and the sech one by
    Gauss-Hermite; the node-sum table checks either."""
    for phi in ("sech", "gaussian"):
        bundle = filtered_battery[("torus12", phi, 0.5)]
        assert dual_path_residual(bundle) <= 1e-12
        faulty = dataclasses.replace(bundle, coupling=bundle.coupling * (1 + 1e-6))
        assert dual_path_residual(faulty) >= 1e-7


def test_dual_path_residual_assembles_no_dissipator(monkeypatch, dense_model):
    bundle = localised_generator(dense_model, balanced_gamma("gaussian", 0.9), 0.9)
    calls = []
    for name in ("_bohr_sum_dissipator", "_rotate_superop"):
        monkeypatch.setattr(gibbslab.generators, name, lambda *a, **k: calls.append(a))
    assert dual_path_residual(bundle) < 1e-8
    assert calls == []


_NODE_SUM_MODELS = {
    "qubit": qubit_model,
    "oscillator6": lambda: oscillator_model(6),
    "random4": lambda: random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6)),
    "line16": lambda: schrodinger_line_model(16),
}


@pytest.mark.parametrize("phi, sigma", [("gaussian", 1.0), ("exp_abs", 0.5), ("sech", 0.25)])
@pytest.mark.parametrize("model_name", sorted(_NODE_SUM_MODELS))
def test_omega_quadrature_matches_node_sum_oracle(model_name, phi, sigma):
    model = _NODE_SUM_MODELS[model_name]()
    weight = balanced_gamma(phi, sigma)
    system = model.eigensystem()
    spectrum = bohr_spectrum(system)
    jumps = [system.to_eigenbasis(a) for a in model.jumps]
    coupling, n_nodes = _omega_quadrature_coupling(weight, sigma, spectrum.frequencies)
    s_got = _bohr_sum_dissipator(jumps, coupling, spectrum.pair_index)[0]
    m_got = _pair_sum(jumps, coupling, spectrum.pair_index)
    nodes, wts = _omega_quadrature_nodes(weight, sigma, spectrum.frequencies)
    gw = weight(nodes) * wts
    s_ref, m_ref = oracles.omega_node_sum_dissipator(
        jumps, spectrum.frequencies, spectrum.pair_index, nodes, gw, sigma
    )
    assert n_nodes == int(np.count_nonzero(gw > 0.0))
    assert np.max(np.abs(s_got - s_ref)) <= 1e-13 * np.max(np.abs(s_ref))
    assert np.max(np.abs(m_got - m_ref)) <= 1e-13 * np.max(np.abs(m_ref))


_PAIR_SUM_MODELS = {
    "qubit": qubit_model,
    "oscillator6": lambda: oscillator_model(6),
    "random4": lambda: random_model(dim=4),
    "random5": lambda: random_model(dim=5, n_jump_pairs=3, seed=1),
    "random6": lambda: random_model(dim=6, seed=3, spectrum=WELL_SEPARATED_SPECTRUM_6),
    "line16": lambda: schrodinger_line_model(16),
    "line24": lambda: schrodinger_line_model(24),
    "line32": lambda: schrodinger_line_model(32),
    "torus12": lambda: torus_model(12),
}


@pytest.mark.parametrize("phi, sigma", [("gaussian", 1.0), ("sech", 0.3), ("exp_abs", 0.5)])
@pytest.mark.parametrize("model_name", sorted(_PAIR_SUM_MODELS))
def test_pair_sum_is_the_optimised_einsum_bit_for_bit(model_name, phi, sigma):
    """The written-out pair contraction equals ``einsum(optimize=True)``
    byte for byte on the overlap table ``G``, the coherent table ``b`` and
    a Davies coupling ``diag(gamma)``."""
    model = _PAIR_SUM_MODELS[model_name]()
    frame = model.frame
    weight = balanced_gamma(phi, sigma)
    table = overlap_table(frame.spectrum, weight, sigma, cross_check=False)
    idx = frame.spectrum.pair_index
    for coupling in (table.values, table.coherent, np.diag(weight(frame.spectrum.frequencies))):
        got = _pair_sum(frame.jumps_eig, coupling, idx)
        assert got.tobytes() == oracles.pair_sum_optimized(frame.jumps_eig, coupling, idx).tobytes()


def test_node_sum_holds_one_block_beside_the_table():
    """line32 at sigma = 1 is one block of ``W`` (472 nodes by 601
    frequencies) beside the 601 x 601 table: the profile and the floor are
    evaluated in place and the first product lands in the table, so no
    second array of either size is alive at the peak."""
    freqs = schrodinger_line_model(32).frame.spectrum.frequencies
    weight = balanced_gamma("gaussian", 1.0)
    one_block = 8 * _omega_quadrature_nodes(weight, 1.0, freqs)[0].size * freqs.size
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        table, _ = _omega_quadrature_coupling(weight, 1.0, freqs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes + 1.5 * one_block


def test_node_sum_table_is_summed_in_bounded_blocks(monkeypatch):
    """line16 at sigma = 0.01 puts 11k quadrature nodes on 133 frequencies
    (48k when the nodes tiled the whole span, whose single nodes x
    frequencies profile peaked at 148 MiB).  Summed in blocks the table
    stays small, and many small blocks give the whole-profile table."""
    freqs = bohr_spectrum(schrodinger_line_model(16).eigensystem()).frequencies
    tracemalloc.start()
    try:
        _omega_quadrature_coupling(balanced_gamma("gaussian", 0.01), 0.01, freqs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20

    weight = balanced_gamma("gaussian", 1.0)
    nodes, wts = _omega_quadrature_nodes(weight, 1.0, freqs)
    want = oracles.node_sum_table(freqs, nodes, weight(nodes) * wts, 1.0)
    monkeypatch.setattr(gibbslab.generators, "_NODE_CHUNK", 7)
    got, n_nodes = _omega_quadrature_coupling(weight, 1.0, freqs)
    assert n_nodes == int(np.count_nonzero(weight(nodes) * wts > 0.0))
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("sigma", [1.0, 1e-2, 1e-4, 1e-6])
@pytest.mark.parametrize("model_name", ["qubit", "random4", "line16"])
def test_windowed_node_sum_is_the_dense_node_sum(model_name, sigma):
    """Each block of nodes multiplied only against the frequencies in its
    reach gives the node sum over every node and every frequency to 1e-13
    of its largest entry."""
    freqs = _NODE_SUM_MODELS[model_name]().frame.spectrum.frequencies
    weight = balanced_gamma("gaussian", sigma)
    got, _ = _omega_quadrature_coupling(weight, sigma, freqs)
    nodes, wts = _omega_quadrature_nodes(weight, sigma, freqs)
    want = oracles.node_sum_table(freqs, nodes, weight(nodes) * wts, sigma)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_dual_path_on_line32_at_a_narrow_filter_stays_fast():
    """line32 at sigma = 1e-3 lays about 300 k nodes on 601 frequencies.
    Multiplied against every frequency, the node sum took 1.6 s of the
    dual-path check; windowed it takes about 0.04 s (2 cores, one BLAS
    thread), so 0.4 s leaves ten times headroom."""
    model = schrodinger_line_model(32)
    bundle = localised_generator(model, balanced_gamma("gaussian", 1e-3), 1e-3)
    start = time.monotonic()
    residual = dual_path_residual(bundle)
    elapsed = time.monotonic() - start
    assert residual <= 1e-12
    assert elapsed < 0.4


@pytest.mark.parametrize("phi", ["gaussian", "exp_abs"])
@pytest.mark.parametrize("sigma", [1.0, 1e-2, 1e-4])
def test_node_sum_lays_only_the_frequency_windows(phi, sigma):
    """The node sum sits on the window lattice of the Bohr frequencies: at
    most 33 panels a frequency, aligned with exp_abs's kink, however far
    apart the frequencies are against ``sigma`` (line16 at 1e-4 used to
    tile its whole span: 4.75 M nodes for 133 frequencies)."""
    freqs = bohr_spectrum(schrodinger_line_model(16).eigensystem()).frequencies
    weight = balanced_gamma(phi, sigma)
    nodes, wts = _omega_quadrature_nodes(weight, sigma, freqs)
    bound = PANEL_ORDER * 33 * freqs.size
    assert nodes.size == wts.size <= bound
    assert np.all(np.diff(nodes) > 0.0)


@pytest.mark.parametrize(
    "sigma, bound",
    # Nodes sit at absolute frequencies, where a node near |omega| = 1
    # rounds by about 1e-16: 1e-10 of sigma at the floor of 1e-6.
    [(1e-3, 1e-12), (MIN_BANDWIDTH, 1e-10)],
)
@pytest.mark.parametrize("model_name", ["qubit", "random4"])
def test_dual_path_holds_at_small_bandwidths(model_name, sigma, bound):
    model = _NODE_SUM_MODELS[model_name]()
    for phi in ("gaussian", "sech", "exp_abs"):
        bundle = localised_generator(model, balanced_gamma(phi, sigma), sigma)
        assert dual_path_residual(bundle) <= bound, phi


@pytest.mark.parametrize("sigma", [MIN_BANDWIDTH, MAX_BANDWIDTH])
@pytest.mark.parametrize(
    "model",
    [
        qubit_model,
        lambda: torus_model(12),
        # Width 599, just inside the supported spectral width.
        lambda: random_model(dim=3, seed=1, spectrum=(0.0, 300.0, 599.0)),
    ],
    ids=["qubit", "torus12", "width599"],
)
def test_bandwidth_corners_build_and_hold_the_dual_path(model, sigma):
    """At both ends of the accepted bandwidth range every library profile,
    balanced or unshifted, builds with its cross-check on, and the two
    coupling tables agree to 1e-8.  The tightest is sech on the width-599
    model at ``MIN_BANDWIDTH``, 5.3e-9 (torus12 3.1e-9), where sech weighs
    frequencies near 599 and the node sum's lattice sits there."""
    model = model()
    for phi in ("gaussian", "sech", "exp_abs"):
        for make in (balanced_gamma, unshifted_gamma):
            bundle = localised_generator(model, make(phi, sigma), sigma)
            assert bundle.diagnostics["overlap_cross_check_entries"] > 0
            assert dual_path_residual(bundle) <= 1e-8, (phi, make.__name__)


@pytest.mark.parametrize("d", [2, 5, 16])
def test_rotation_matches_kron_oracle(d):
    rng = np.random.default_rng(d)
    u = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))[0]
    s_eig = rng.normal(size=(d * d, d * d)) + 1j * rng.normal(size=(d * d, d * d))
    system = EigenSystem(eigenvalues=np.arange(float(d)), eigenvectors=u)
    got = _rotate_superop(system, s_eig)
    want = oracles.rotate_superop_kron(u, s_eig)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize(
    "model, coupling_of",
    [
        (random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6)), "overlap"),
        (schrodinger_line_model(16), "overlap"),
        (oscillator_model(6), "diagonal"),
        (qubit_model(), "sign_flipped"),
    ],
    ids=["random4", "line16", "oscillator6-davies", "qubit-flipped"],
)
def test_sandwich_layout_matches_transposed_oracle(model, coupling_of):
    """The column-stacked sandwich is bit for bit the row-major product
    moved by a transposed copy (for a real frame, its real part)."""
    system = model.eigensystem()
    spectrum = bohr_spectrum(system)
    jumps = [system.to_eigenbasis(a) for a in model.jumps]
    if coupling_of == "diagonal":
        coupling = np.diag(kms_gamma("glauber")(spectrum.frequencies))
    else:
        coupling = overlap_table(spectrum, balanced_gamma("sech", 0.7), 0.7).values
        if coupling_of == "sign_flipped":
            coupling = 2.0 * np.diag(np.diag(coupling)) - coupling
    got = _bohr_sum_dissipator(jumps, coupling, spectrum.pair_index)[0]
    want = oracles.sandwich_transposed(jumps, coupling, spectrum.pair_index)
    assert _same_sandwich(got, want, jumps)


@pytest.fixture(scope="module")
def line24():
    model = schrodinger_line_model(24)
    system = model.eigensystem()
    return model, system, bohr_spectrum(system), balanced_gamma("gaussian", 1.0)


def test_node_sum_floor_drops_only_negligible_entries(line24, monkeypatch):
    """The floor zeroes entries of the node-sum factor ``W`` before
    ``W^T W``: no kept entry lies below it, the one block of nodes is
    multiplied only against the frequencies in its reach, which hold every
    column of the whole ``W`` that the floor would keep, and ``K`` moves by
    at most 1e-150 of its max."""
    _, _, spectrum, weight = line24
    freqs = spectrum.frequencies
    roots = []
    drop = gibbslab.generators._drop_underflow

    def recording(table):
        drop(table)
        roots.append(table.copy())

    monkeypatch.setattr(gibbslab.generators, "_drop_underflow", recording)
    got, n_nodes = _omega_quadrature_coupling(weight, 1.0, freqs)
    assert len(roots) == 1
    root = roots[0]
    floor = oracles.UNDERFLOW_FLOOR * max(1.0, float(np.max(root)))
    assert np.min(np.abs(root[root != 0.0])) >= floor

    nodes, wts = _omega_quadrature_nodes(weight, 1.0, freqs)
    whole = np.sqrt(weight(nodes) * wts)[:, None] * GaussianFilter(1.0).frequency_profile(
        nodes[:, None] - freqs[None, :]
    )
    kept = np.flatnonzero(np.any(whole >= floor, axis=0))
    assert root.shape[0] == n_nodes
    assert kept[-1] - kept[0] < root.shape[1] < freqs.size
    want = oracles.node_sum_gram_unfloored(
        freqs, nodes, weight(nodes) * wts, GaussianFilter(1.0).frequency_profile
    )
    assert np.max(np.abs(got - want)) <= 1e-150 * np.max(np.abs(want))


def test_underflow_floor_leaves_the_superoperator_bit_identical(line24):
    """The line24 generator assembled from the unfloored ``G`` and ``b`` is
    the floored one bit for bit."""
    model, _, spectrum, weight = line24
    bundle = localised_generator(model, weight, 1.0)
    unfloored = oracles.overlap_table_dense(spectrum, weight, 1.0, cross_check=False, floor=False)
    values, coherent = unfloored.values, unfloored.coherent
    table = dataclasses.replace(
        overlap_table(spectrum, weight, 1.0, cross_check=False), values=values, coherent=coherent
    )
    b_mat, _ = coherent_matrix_bohr(model, table)
    unfloored = _bundle("localised", "bohr_sum", model, weight, values, b_mat, {})
    assert bundle.diagnostics["overlap_dropped_entries"] > 0
    assert unfloored.superoperator.tobytes() == bundle.superoperator.tobytes()
    assert unfloored.effective_drift.tobytes() == bundle.effective_drift.tobytes()


_TAIL_MODELS = {
    "qubit": qubit_model,
    "oscillator6": lambda: oscillator_model(6),
    "random4": lambda: random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6)),
    "torus12": lambda: torus_model(12),
    "line16": lambda: schrodinger_line_model(16),
    "line24": lambda: schrodinger_line_model(24),
}


@pytest.mark.parametrize("phi", ["gaussian", "sech"])
@pytest.mark.parametrize("model_name", sorted(_TAIL_MODELS))
def test_lazy_superoperator_is_the_eager_tail_bit_for_bit(model_name, phi):
    """The superoperator rotated on first read, and the original-basis
    drift, are the eagerly assembled ones byte for byte."""
    bundle = localised_generator(_TAIL_MODELS[model_name](), balanced_gamma(phi, 1.0), 1.0)
    superop, drift = oracles.parent_tail(bundle)
    assert bundle.superoperator.tobytes() == superop.tobytes()
    assert bundle.effective_drift.tobytes() == drift.tobytes()


# ---------------------------------------------------------------------------
# Stationarity
# ---------------------------------------------------------------------------


def test_filtered_battery_fixes_the_gibbs_state(filtered_battery):
    for (model_id, phi, sigma), bundle in filtered_battery.items():
        residual = stationarity_report(bundle)
        assert residual < 1e-9, (model_id, phi, sigma, residual)


def test_davies_battery_fixes_the_gibbs_state(davies_battery):
    for (model_id, kind), bundle in davies_battery.items():
        residual = stationarity_report(bundle)
        assert residual < 1e-12, (model_id, kind, residual)


def test_unshifted_weight_is_a_working_negative_control():
    model = qubit_model()
    weight = unshifted_gamma("gaussian", 1.0)
    bundle = localised_generator(model, weight, 1.0)
    assert stationarity_report(bundle) > 1e-4


@pytest.mark.parametrize(
    "model",
    [random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6)), schrodinger_line_model(16)],
    ids=["random4", "line16"],
)
def test_eigenbasis_stationarity_keeps_its_bite(model):
    """On the unshifted control and on the sign-flipped coupling table the
    eigenbasis residual fails the filtered tolerance (1e-9), clears the
    negative-control floor (1e-4) and is the original-basis residual."""
    rho = model.eigensystem().gibbs_state()
    clean = localised_generator(model, balanced_gamma("gaussian", 1.0), 1.0)
    faults = {
        "unshifted": localised_generator(model, unshifted_gamma("gaussian", 1.0), 1.0),
        "sign_flipped": oracles.sign_flipped_bundle(clean),
    }
    assert stationarity_report(clean) < 1e-9
    for name, bundle in faults.items():
        residual = stationarity_report(bundle)
        original = np.linalg.norm(bundle.superoperator @ vectorize(rho)) / np.linalg.norm(rho)
        assert residual > 1e-4, name
        assert residual == pytest.approx(original, rel=1e-10), name


def test_gibbs_action_matches_componentwise_identity(dense_bundle):
    assert oracles.gibbs_action_identity_defect(dense_bundle) < 1e-12


def test_stationarity_via_explicit_gibbs_application(dense_model, dense_bundle):
    stationary = dense_model.eigensystem().gibbs_state()
    image = dense_bundle.superoperator @ vectorize(stationary)
    assert np.linalg.norm(image) < 1e-12


# ---------------------------------------------------------------------------
# Structural identities
# ---------------------------------------------------------------------------


def test_trace_functional_is_annihilated(dense_bundle, davies_battery):
    assert trace_functional_defect(dense_bundle) < 1e-12
    for bundle in davies_battery.values():
        assert trace_functional_defect(bundle) < 1e-10


def test_hermiticity_preservation(dense_bundle):
    assert hermiticity_preservation_defect(dense_bundle) < 1e-12
    # On a sandwich that breaks Hermiticity, the one stacked product in the
    # eigenbasis reads the same seeded operators as one product per operator
    # with the original-basis superoperator.
    rng = np.random.default_rng(9)
    noise = rng.normal(size=dense_bundle.sandwich.shape) * (1.0 + 1j)
    broken = dataclasses.replace(dense_bundle, sandwich=dense_bundle.sandwich + noise)
    for seed in (0, 7):
        want = oracles.hermiticity_defect_loop(broken.superoperator, seed)
        assert want > 1e-2
        assert hermiticity_preservation_defect(broken, seed=seed) == pytest.approx(want, rel=1e-12)


def test_effective_drift_is_dissipative(dense_bundle, filtered_battery):
    assert oracles.drift_dissipativity_defect(dense_bundle.effective_drift) <= 1e-12
    assert effective_drift_abscissa(dense_bundle) < 0.0
    for bundle in list(filtered_battery.values())[::7]:
        assert effective_drift_abscissa(bundle) <= 1e-10


def test_zero_weight_reduces_to_pure_hamiltonian_drift(dense_model):
    weight = WeightFunction(
        kind="unshifted_control",
        evaluate=lambda om: np.zeros_like(np.asarray(om, dtype=float)),
        sigma=0.9,
    )
    bundle = localised_generator(dense_model, weight, 0.9)
    drift_gap = bundle.effective_drift - 1j * dense_model.hamiltonian
    assert np.linalg.norm(drift_gap) == 0.0
    assert np.linalg.norm(bundle.coherent_matrix) == 0.0
    assert np.linalg.norm(oracles.dissipator_superop(bundle)) < 1e-14


def test_bundles_on_one_model_share_its_frame():
    model = random_model(dim=4)
    davies = davies_generator(model, kms_gamma("metropolis"))
    filtered = localised_generator(model, balanced_gamma("gaussian", 1.0), 1.0)
    assert davies.system is filtered.system is model.eigensystem()
    assert davies.spectrum is filtered.spectrum is model.frame.spectrum
    with pytest.raises(ValueError):
        filtered.system.eigenvectors[0, 0] = 1.0


def test_identity_jump_produces_no_motion(dense_model):
    model = Model(
        model_id="identity_probe",
        hamiltonian=dense_model.hamiltonian,
        jumps=(np.eye(dense_model.dim, dtype=complex),),
    )
    weight = balanced_gamma("gaussian", 0.9)
    bundle = localised_generator(model, weight, 0.9)
    assert np.linalg.norm(oracles.dissipator_superop(bundle)) < 1e-13
    assert np.linalg.norm(bundle.coherent_matrix) < 1e-13
    davies = davies_generator(model, kms_gamma("metropolis"))
    assert np.linalg.norm(oracles.dissipator_superop(davies)) < 1e-13


# ---------------------------------------------------------------------------
# Coherent-term calibration and fault injection
# ---------------------------------------------------------------------------


def test_coherent_orientation_calibration(dense_model, dense_bundle):
    report = coherent_calibration_report(dense_bundle)
    assert report["relative_distance_outward"] < 1e-10
    assert report["relative_distance_literal"] == pytest.approx(2.0, abs=0.2)
    assert report["coherent_hermiticity_defect"] < 1e-13
    assert report["coherent_norm"] == float(np.linalg.norm(dense_bundle.coherent_matrix))
    with pytest.raises(ValidationError):
        coherent_calibration_report(davies_generator(dense_model, kms_gamma("glauber")))


def test_calibration_rejects_bandwidths_below_its_grid(dense_model):
    """The oracle's fixed grids resolve sigma >= 0.3 only; below, it is
    refused before any quadrature instead of reporting a wrong distance."""
    low = localised_generator(dense_model, balanced_gamma("gaussian", 0.25), 0.25)
    with pytest.raises(ValidationError, match="sigma >= 0.3"):
        coherent_calibration_report(low)
    edge = localised_generator(dense_model, balanced_gamma("gaussian", 0.3), 0.3)
    assert coherent_calibration_report(edge)["relative_distance_outward"] < 1e-10


@pytest.mark.parametrize("width", [10.0, 100.0, 599.0])
def test_calibration_holds_on_wide_spectra(width):
    """The oracle on random4 spread over ``[0, width]``: its frequency sums
    reach ``|x s|`` of about 4e4 rad at the widest, where every phase
    table must still be exact."""
    model = random_model(dim=4, seed=5, spectrum=(0.0, 0.3 * width, 0.7 * width, width))
    for phi in ("gaussian", "exp_abs"):
        for sigma in (0.3, 0.9, 3.0):
            bundle = localised_generator(model, balanced_gamma(phi, sigma), sigma)
            report = coherent_calibration_report(bundle)
            assert report["distance_outward"] <= 1e-13 * max(1.0, report["coherent_norm"])


def test_envelope_sum_matches_node_loop(dense_model):
    """The d^3 frequency sum of the oracle's inner integral against the
    loop over its trapezoid nodes."""
    system = dense_model.eigensystem()
    jumps_eig = [system.to_eigenbasis(j) for j in dense_model.jumps]
    ss, ws = gibbslab.generators._oracle_trapezoid(10.0 / 0.9 + 1.0)
    wb2 = ws * coherent_time_envelope(ss, 0.9, balanced_gamma("gaussian", 0.9))
    got = _envelope_sum(system.eigenvalues, jumps_eig, ss, wb2)
    ref = oracles.envelope_sum_loop(system.eigenvalues, jumps_eig, ss, wb2)
    assert np.max(np.abs(got - ref)) < 1e-14 * np.max(np.abs(ref))


def test_sign_fault_is_caught_downstream(dense_model):
    weight = balanced_gamma("gaussian", 0.9)
    clean = localised_generator(dense_model, weight, 0.9)
    corrupt = oracles.sign_flipped_bundle(clean)
    scale = np.linalg.norm(clean.superoperator)
    assert np.linalg.norm(corrupt.superoperator - clean.superoperator) > 1e-3 * scale
    assert stationarity_report(corrupt) > 1e-3
    assert stationarity_report(clean) < 1e-9
    # The standing check sees the fault only while the other path never reads G.
    assert dual_path_residual(corrupt) > 1e-3


# ---------------------------------------------------------------------------
# Delocalisation limit
# ---------------------------------------------------------------------------


def test_davies_limit_report_converges(dense_model):
    report = davies_limit_report(dense_model, "gaussian", (1.0, 0.5, 0.25), seed=11)
    rows = report["rows"]
    assert [row["sigma"] for row in rows] == [1.0, 0.5, 0.25]
    distances = [row["davies_distance_p1"] for row in rows]
    assert all(b < a for a, b in zip(distances[:-1], distances[1:]))
    coherent_norms = [row["coherent_norm_B"] for row in rows]
    assert all(b < a for a, b in zip(coherent_norms[:-1], coherent_norms[1:]))
    for row in rows:
        assert row["stationarity_residual"] < 1e-9


@pytest.mark.parametrize(
    "model",
    [random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6)), schrodinger_line_model(16)],
    ids=["random4", "line16"],
)
def test_davies_limit_report_matches_the_original_basis(model):
    sigmas = (1.0, 0.5, 0.25)
    rows = davies_limit_report(model, "gaussian", sigmas, seed=11)["rows"]
    want = oracles.davies_limit_rows_original_basis(model, "gaussian", sigmas, seed=11)
    for row, ref in zip(rows, want, strict=True):
        assert row["davies_distance_p1"] == pytest.approx(ref["davies_distance_p1"], rel=1e-12)
        assert abs(row["stationarity_residual"] - ref["stationarity_residual"]) <= 1e-12


@pytest.mark.parametrize(
    "model",
    [qubit_model(), random_model(dim=4), oscillator_model(6), schrodinger_line_model(24)],
    ids=["qubit", "random4", "oscillator6", "line24"],
)
def test_davies_limit_distance_is_the_schatten_norm_loop(model):
    """The report's stacked singular values give each row's distance
    exactly as one ``schatten_norm(a - b, 1)`` per test operator does."""
    sigmas = (1.0, 0.5)
    rows = davies_limit_report(model, "gaussian", sigmas, seed=7)["rows"]
    for row, sigma in zip(rows, sigmas, strict=True):
        assert row["davies_distance_p1"] == max(
            oracles.davies_distances_loop(model, "gaussian", sigma, seed=7)
        )


def test_coherent_norm_halving_envelope():
    model = random_model(dim=6, seed=3, spectrum=WELL_SEPARATED_SPECTRUM_6)
    norms = []
    for sigma in (2.0, 1.0, 0.5, 0.25):
        bundle = localised_generator(
            model, balanced_gamma("gaussian", sigma), sigma
        )
        norms.append(np.linalg.norm(bundle.coherent_matrix))
    assert all(b < a for a, b in zip(norms[:-1], norms[1:]))
    for previous, current in zip(norms[:2], norms[1:3]):
        assert 0.3 < current / previous < 0.7


# ---------------------------------------------------------------------------
# Validation and accessors
# ---------------------------------------------------------------------------


def test_davies_rejects_weight_violating_detailed_balance(dense_model):
    flat = WeightFunction(
        kind="flat_control",
        evaluate=lambda om: np.ones_like(np.asarray(om, dtype=float)),
    )
    with pytest.raises(ValidationError):
        davies_generator(dense_model, flat)
    # A defect that is not a number is a violation too, not a pass.
    undefined = WeightFunction(
        kind="nan_control",
        evaluate=lambda om: np.full(np.shape(om), np.nan),
    )
    with pytest.raises(ValidationError, match="violates detailed balance"):
        davies_generator(dense_model, undefined)


@pytest.mark.parametrize("spectrum", [(0.0, 800.0), (0.0, 1.0, 800.0)])
def test_both_families_cap_the_spectral_width(spectrum):
    """Past the width cap both families refuse the model with one message,
    where the unfiltered one formed ``e^{800} * 0`` in its detailed-balance
    check and passed on the NaN; just inside it both build."""
    wide = random_model(dim=len(spectrum), seed=5, spectrum=spectrum)
    for build in (
        lambda m: davies_generator(m, kms_gamma("glauber")),
        lambda m: davies_generator(m, kms_gamma("metropolis")),
        lambda m: localised_generator(m, balanced_gamma("gaussian", 1.0), 1.0),
    ):
        with pytest.raises(ValidationError, match="largest Bohr frequency 800 exceeds"):
            build(wide)
        assert build(random_model(dim=2, seed=5, spectrum=(0.0, 599.0))).superoperator.size


def test_bandwidth_mismatch_is_rejected(dense_model):
    with pytest.raises(ValidationError):
        localised_generator(dense_model, balanced_gamma("gaussian", 0.5), 0.9)
    with pytest.raises(ValidationError):
        localised_generator(dense_model, balanced_gamma("gaussian", 0.9), -1.0)


def test_unknown_assembly_path_rejected(dense_model):
    with pytest.raises(ValidationError):
        localised_generator(
            dense_model, balanced_gamma("gaussian", 0.9), 0.9, path="resolvent"
        )


def test_bundle_accessors(dense_bundle):
    assert dense_bundle.dim == 4
    assert dense_bundle.kind == "localised"
    for key in (
        "overlap_min_eigenvalue",
        "overlap_dropped_entries",
        "coherent_norm",
        "adjoint_closure_defect",
        "jump_norm_squared_sum",
    ):
        assert key in dense_bundle.diagnostics
    assert dense_bundle.diagnostics["overlap_min_eigenvalue"] > -1e-9


def test_generator_eigenvalues_sit_in_the_left_half_plane(dense_bundle):
    eigenvalues = np.linalg.eigvals(dense_bundle.superoperator)
    assert np.max(eigenvalues.real) < 1e-10
    assert np.min(np.abs(eigenvalues)) < 1e-10


# ---------------------------------------------------------------------------
# The sandwich on its coupling's live band
# ---------------------------------------------------------------------------


_BAND_MODELS = {
    "qubit": qubit_model,
    "oscillator6": lambda: oscillator_model(6),
    "random4": lambda: random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6)),
    "torus12": lambda: torus_model(12),
    "line16": lambda: schrodinger_line_model(16),
    "line24": lambda: schrodinger_line_model(24),
    # One Bohr frequency: every pair sits in the cluster at zero.
    "degenerate3": lambda: random_model(dim=3, seed=2, spectrum=(1.0, 1.0, 1.0)),
}


def _same_sandwich(got, want, jumps) -> bool:
    """Whether the package's sandwich ``got`` is the complex oracle ``want``
    bit for bit.  Over a real frame (no eigenbasis jump with a nonzero
    imaginary part) ``got`` is real, and must equal ``want``'s real part
    while ``want``'s imaginary part is ``+0`` in every entry: the same
    statement as byte equality of ``got`` cast to complex.  Otherwise
    ``got`` is complex and byte-equal to ``want``."""
    if any(np.any(a.imag) for a in jumps):
        return got.dtype == np.complex128 and got.tobytes() == want.tobytes()
    return (
        got.dtype == np.float64
        and got.tobytes() == np.ascontiguousarray(want.real).tobytes()
        and not np.any(want.imag)
        and not np.any(np.signbit(want.imag))
    )


def _live_window_count(coupling, pair_index):
    """Sandwich entries inside the live windows: for each row pair, the
    column pairs whose frequency lies from the first to the last nonzero of
    the coupling's row at the row pair's frequency."""
    pairs_of = np.bincount(pair_index.reshape(-1), minlength=coupling.shape[0])
    count = 0
    for f, row in enumerate(coupling):
        live = np.flatnonzero(row)
        if live.size:
            count += int(pairs_of[f]) * int(pairs_of[live[0] : live[-1] + 1].sum())
    return count


def _band_couplings(spectrum):
    """``(label, coupling)``: the Davies, overlap and node-sum tables a build
    contracts over ``spectrum``."""
    freqs = spectrum.frequencies
    for kind in ("metropolis", "glauber"):
        yield f"davies {kind}", np.diag(kms_gamma(kind)(freqs))
    for phi in ("gaussian", "sech", "exp_abs"):
        for sigma in (3.0, 1.0, 0.25, 1e-2):
            for make in (balanced_gamma, unshifted_gamma):
                table = overlap_table(spectrum, make(phi, sigma), sigma, cross_check=False)
                yield f"{make.__name__} {phi} {sigma}", table.values
    for sigma in (1.0, 0.25):
        weight = balanced_gamma("gaussian", sigma)
        yield f"node sum {sigma}", _omega_quadrature_coupling(weight, sigma, freqs)[0]


@pytest.mark.parametrize("name", sorted(_BAND_MODELS))
def test_band_sandwich_is_the_dense_sum_bit_for_bit(name):
    """Only the live band is computed, and the sandwich is the dense sum of
    all d^4 entries byte for byte (over a real frame, its real part, the
    imaginary part being +0), on every coupling a build contracts.  A
    count, not a clock: a band build computes at least its live windows and
    at most twice them (a rectangle tile is at least half live); any other
    build computes all d^4 entries."""
    model = _BAND_MODELS[name]()
    spectrum = model.frame.spectrum
    jumps = list(model.frame.jumps_eig)
    mismatched, miscounted = [], []
    for label, coupling in _band_couplings(spectrum):
        got, entries = _bohr_sum_dissipator(jumps, coupling, spectrum.pair_index)
        want = oracles.bohr_sum_dissipator_dense(jumps, coupling, spectrum.pair_index)
        if not _same_sandwich(got, want, jumps):
            mismatched.append(label)
        live = _live_window_count(coupling, spectrum.pair_index)
        if not (live <= entries <= 2 * live or entries == model.dim**4):
            miscounted.append((label, live, entries))
    assert mismatched == []
    assert miscounted == []


def test_band_sandwich_matches_on_synthetic_couplings():
    """Scattered symmetric nonzeros, rows without a nonzero, an all-zero
    table and negative or negative-zero entries."""
    model = schrodinger_line_model(16)
    spectrum = model.frame.spectrum
    jumps = list(model.frame.jumps_eig)
    m = spectrum.size
    rng = np.random.default_rng(11)
    scattered = np.where(rng.random((m, m)) < 0.02, rng.normal(size=(m, m)), 0.0)
    scattered = scattered + scattered.T
    empty_rows = scattered.copy()
    dead = rng.choice(m, size=m // 3, replace=False)
    empty_rows[dead] = 0.0
    empty_rows[:, dead] = 0.0
    signed = rng.normal(size=(m, m))
    signed[rng.random((m, m)) < 0.5] = -0.0
    signed[: m // 2] = 0.0
    corners = np.zeros((m, m))
    corners[0, -1] = corners[-1, 0] = 1.0
    # Banded tables whose live windows hold just under and just over two
    # thirds of the d^4 entries, where the sandwich is computed whole.
    gap = np.abs(np.subtract.outer(np.arange(m), np.arange(m)))
    banded = rng.normal(size=(m, m))
    banded = banded + banded.T
    couplings = {
        "scattered": scattered,
        "empty rows": empty_rows,
        "zeros": np.zeros((m, m)),
        "negative zeros": np.full((m, m), -0.0),
        "signed": signed,
        "corners": corners,
        "two thirds under": np.where(gap <= 59, banded, 0.0),
        "two thirds over": np.where(gap <= 60, banded, 0.0),
    }
    entries = {}
    for label, coupling in couplings.items():
        got, entries[label] = _bohr_sum_dissipator(jumps, coupling, spectrum.pair_index)
        want = oracles.bohr_sum_dissipator_dense(jumps, coupling, spectrum.pair_index)
        assert _same_sandwich(got, want, jumps), label
    d4 = 16**4
    assert 3 * _live_window_count(couplings["two thirds under"], spectrum.pair_index) < 2 * d4
    assert 3 * _live_window_count(couplings["two thirds over"], spectrum.pair_index) >= 2 * d4
    assert entries["two thirds over"] == d4
    assert entries["zeros"] == entries["negative zeros"] == 0


def test_davies_sandwich_computes_under_one_percent_of_its_entries():
    """A count, not a clock: the line32 Davies coupling is diagonal, so the
    band is its Bohr clusters; the dense sum computes all 32^4 entries."""
    bundle = davies_generator(schrodinger_line_model(32), kms_gamma("metropolis"))
    assert bundle.diagnostics["sandwich_live_entries"] < 0.01 * 32**4
    dense = localised_generator(oscillator_model(6), balanced_gamma("gaussian", 3.0), 3.0)
    assert dense.diagnostics["sandwich_live_entries"] == 6**4


# ---------------------------------------------------------------------------
# The sandwich's type follows its frame
# ---------------------------------------------------------------------------


_FIXED_MODELS = {
    "qubit": (qubit_model, np.float64),
    "oscillator6": (lambda: oscillator_model(6), np.float64),
    "random4": (lambda: random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6)), np.complex128),
    "torus12": (lambda: torus_model(12), np.float64),
    "line16": (lambda: schrodinger_line_model(16), np.float64),
}


def _fixed_bundles(model_name):
    """``(label, bundle)``: the filtered sech sigma = 0.7 and the Davies
    metropolis generator of a fixed config's model."""
    model = _FIXED_MODELS[model_name][0]()
    yield "sech 0.7", localised_generator(model, balanced_gamma("sech", 0.7), 0.7)
    yield "metropolis", davies_generator(model, kms_gamma("metropolis"))


@pytest.mark.parametrize("model_name", sorted(_FIXED_MODELS))
def test_sandwich_type_follows_the_frame(model_name):
    """The structured models' eigenbasis jumps are exactly real and every
    coupling table is real, so their sandwich is float64; random4's jumps
    are complex, and so is its sandwich."""
    for label, bundle in _fixed_bundles(model_name):
        assert bundle.sandwich.dtype == _FIXED_MODELS[model_name][1], label


@pytest.mark.parametrize("model_name", sorted(_FIXED_MODELS))
def test_superoperator_is_the_complex_sandwich_rotated(model_name):
    """The original-basis superoperator is, byte for byte, the rotation of
    the sandwich cast to complex plus the drift."""
    for label, bundle in _fixed_bundles(model_name):
        want = oracles.complex_sandwich_tail(bundle)
        assert bundle.superoperator.tobytes() == want.tobytes(), label


@pytest.mark.parametrize("model_name", ["oscillator6", "torus12", "line16"])
def test_real_sandwich_acts_as_its_complex_cast(model_name):
    """``eigen_action`` applies a real sandwich by one real product on the
    float view of the operator stack; it agrees with the same bundle whose
    sandwich is cast to complex within 1e-15 relative, for one operator and
    for a stack."""
    rng = np.random.default_rng(4)
    for label, bundle in _fixed_bundles(model_name):
        cast = dataclasses.replace(bundle, sandwich=bundle.sandwich.astype(np.complex128))
        d = bundle.dim
        for n in (1, 7):
            ops = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
            got, want = bundle.eigen_action(ops), cast.eigen_action(ops)
            assert np.linalg.norm(got - want) <= 1e-15 * np.linalg.norm(want), (label, n)


def test_line24_sandwich_holds_one_double_an_entry(line24):
    """A real frame's sandwich holds 8 bytes an entry, half the complex one."""
    model, _, _, weight = line24
    bundle = localised_generator(model, weight, 1.0)
    assert bundle.sandwich.nbytes == 8 * 24**4
