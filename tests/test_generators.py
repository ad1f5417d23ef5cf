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
    generator_action,
    hermiticity_preservation_defect,
    localised_generator,
    stationarity_report,
    trace_functional_defect,
)
from gibbslab.models import (
    Model,
    WELL_SEPARATED_SPECTRUM_6,
    gibbs_state,
    oscillator_model,
    qubit_model,
    random_model,
    schrodinger_line_model,
)
from gibbslab.oft import overlap_table
from gibbslab.operator_core import EigenSystem
from gibbslab.weights import (
    GaussianFilter,
    WeightFunction,
    balanced_gamma,
    coherent_time_envelope,
    kms_gamma,
    unshifted_gamma,
)

import oracles


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
        components = decompose(jump, system).dense_components()
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
        components = decompose(jump, system).dense_components()
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
    direct = localised_generator(dense_model, weight, 0.9, cross_check=False)
    resolved = localised_generator(
        dense_model, weight, 0.9, path="omega_quadrature", cross_check=False
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
    s_got = _bohr_sum_dissipator(jumps, coupling, spectrum.pair_index)
    m_got = _pair_sum(jumps, coupling, spectrum.pair_index)
    nodes, wts = _omega_quadrature_nodes(weight, sigma, spectrum.frequencies)
    gw = weight(nodes) * wts
    s_ref, m_ref = oracles.omega_node_sum_dissipator(
        jumps, spectrum.frequencies, spectrum.pair_index, nodes, gw, sigma
    )
    assert n_nodes == int(np.count_nonzero(gw > 0.0))
    assert np.max(np.abs(s_got - s_ref)) <= 1e-13 * np.max(np.abs(s_ref))
    assert np.max(np.abs(m_got - m_ref)) <= 1e-13 * np.max(np.abs(m_ref))


def test_node_sum_table_is_summed_in_bounded_blocks(monkeypatch):
    """line16 at sigma = 0.01 puts 48k quadrature nodes on 133 frequencies;
    as one nodes x frequencies profile its table peaked at 148 MiB.  Summed
    in blocks it stays small, and many small blocks give the whole-profile
    table."""
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
    moved by a transposed copy."""
    system = model.eigensystem()
    spectrum = bohr_spectrum(system)
    jumps = [system.to_eigenbasis(a) for a in model.jumps]
    if coupling_of == "diagonal":
        coupling = np.diag(kms_gamma("glauber")(spectrum.frequencies))
    else:
        coupling = overlap_table(spectrum, balanced_gamma("sech", 0.7), 0.7).values
        if coupling_of == "sign_flipped":
            coupling = 2.0 * np.diag(np.diag(coupling)) - coupling
    got = _bohr_sum_dissipator(jumps, coupling, spectrum.pair_index)
    want = oracles.sandwich_transposed(jumps, coupling, spectrum.pair_index)
    assert got.tobytes() == want.tobytes()


@pytest.fixture(scope="module")
def line24():
    model = schrodinger_line_model(24)
    system = model.eigensystem()
    return model, system, bohr_spectrum(system), balanced_gamma("gaussian", 1.0)


def test_node_sum_floor_drops_only_negligible_entries(line24, monkeypatch):
    """The floor zeroes entries of the node-sum factor ``W`` before
    ``W^T W``: no kept entry lies below it, and ``K`` moves by at most
    1e-150 of its max."""
    _, _, spectrum, weight = line24
    freqs = spectrum.frequencies
    roots = []
    drop = gibbslab.generators._drop_underflow

    def recording(table):
        drop(table)
        roots.append(table.copy())

    monkeypatch.setattr(gibbslab.generators, "_drop_underflow", recording)
    got, n_nodes = _omega_quadrature_coupling(weight, 1.0, freqs)
    assert [root.shape for root in roots] == [(n_nodes, freqs.size)]
    root = roots[0]
    floor = oracles.UNDERFLOW_FLOOR * max(1.0, float(np.max(root)))
    assert np.min(np.abs(root[root != 0.0])) >= floor

    nodes, wts = _omega_quadrature_nodes(weight, 1.0, freqs)
    want = oracles.node_sum_gram_unfloored(
        freqs, nodes, weight(nodes) * wts, GaussianFilter(1.0).frequency_profile
    )
    assert np.max(np.abs(got - want)) <= 1e-150 * np.max(np.abs(want))


def test_underflow_floor_leaves_the_superoperator_bit_identical(line24):
    """The line24 generator assembled from the unfloored ``G`` and ``b`` is
    the floored one bit for bit."""
    model, system, spectrum, weight = line24
    bundle = localised_generator(model, weight, 1.0)
    values, coherent = oracles.overlap_tables_unfloored(spectrum, weight, 1.0)
    table = dataclasses.replace(
        overlap_table(spectrum, weight, 1.0, cross_check=False), values=values, coherent=coherent
    )
    jumps = [system.to_eigenbasis(a) for a in model.jumps]
    b_mat, _ = coherent_matrix_bohr(jumps, table, system=system)
    unfloored = _bundle(
        "localised", "bohr_sum", model, weight, 1.0, system, spectrum, jumps, values, b_mat, {}
    )
    assert bundle.diagnostics["overlap_dropped_entries"] > 0
    assert unfloored.superoperator.tobytes() == bundle.superoperator.tobytes()
    assert unfloored.effective_drift.tobytes() == bundle.effective_drift.tobytes()


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


def test_gibbs_action_matches_componentwise_identity(dense_bundle):
    assert oracles.gibbs_action_identity_defect(dense_bundle) < 1e-12


def test_stationarity_via_explicit_gibbs_application(dense_model, dense_bundle):
    stationary = gibbs_state(dense_model)
    image = dense_bundle.apply(stationary)
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
    bundle = localised_generator(dense_model, weight, 0.9, cross_check=False)
    drift_gap = bundle.effective_drift - 1j * dense_model.hamiltonian
    assert np.linalg.norm(drift_gap) == 0.0
    assert np.linalg.norm(bundle.coherent_matrix) == 0.0
    assert np.linalg.norm(oracles.dissipator_superop(bundle)) < 1e-14


def test_identity_jump_produces_no_motion(dense_model):
    model = Model(
        model_id="identity_probe",
        hamiltonian=dense_model.hamiltonian,
        jumps=(np.eye(dense_model.dim, dtype=complex),),
        meta={},
    )
    weight = balanced_gamma("gaussian", 0.9)
    bundle = localised_generator(model, weight, 0.9, cross_check=False)
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
    clean = localised_generator(dense_model, weight, 0.9, cross_check=False)
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


def test_coherent_norm_halving_envelope():
    model = random_model(dim=6, seed=3, spectrum=WELL_SEPARATED_SPECTRUM_6)
    norms = []
    for sigma in (2.0, 1.0, 0.5, 0.25):
        bundle = localised_generator(
            model, balanced_gamma("gaussian", sigma), sigma, cross_check=False
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
    probe = (np.arange(16, dtype=complex) + 0.5j).reshape(4, 4)
    direct = generator_action(dense_bundle.superoperator, probe)
    assert np.linalg.norm(dense_bundle.apply(probe) - direct) == 0.0
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
