"""Semigroup evolution, trajectory diagnostics, and complete positivity.

The propagator route (matrix exponential of the assembled superoperator)
is checked against an independent adaptive ODE integration of the same
action, and the Choi construction against a from-scratch matrix-unit
build.
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest
from scipy.linalg import expm

import gibbslab.evolution
import gibbslab.models
import gibbslab.operator_core
from gibbslab.errors import ValidationError
from gibbslab.evolution import (
    Propagator,
    Trajectory,
    choi_matrix,
    choi_min_eigenvalue,
    choi_report,
    choi_trace_preservation_defect,
    contraction_report,
    evolve,
    random_density_matrix,
    semigroup_defect,
    snapshot_diagnostics,
)
from gibbslab.generators import davies_generator, localised_generator
from gibbslab.models import qubit_model, random_model
from gibbslab.operator_core import dagger, devectorize, vectorize
from gibbslab.weights import balanced_gamma, kms_gamma

import oracles

TIME_GRID_TO_20 = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


@pytest.fixture(scope="module")
def dense_model():
    return random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6))


@pytest.fixture(scope="module")
def dense_bundle(dense_model):
    return localised_generator(dense_model, balanced_gamma("gaussian", 0.9), 0.9)


@pytest.fixture(scope="module")
def corrupt_bundle(dense_bundle):
    return oracles.sign_flipped_bundle(dense_bundle)


# ---------------------------------------------------------------------------
# Propagation against an independent integrator
# ---------------------------------------------------------------------------


def test_evolution_matches_adaptive_ode(dense_bundle):
    initial = random_density_matrix(4, seed=1)
    times = (0.0, 0.3, 1.0, 4.0)
    trajectory = evolve(dense_bundle, initial, times)
    assert np.array_equal(trajectory.states[0], initial)
    for index, t in enumerate(times[1:], start=1):
        reference = oracles.evolve_ivp(dense_bundle.superoperator, initial, t)
        assert np.linalg.norm(trajectory.states[index] - reference) < 1e-10


def test_gibbs_state_does_not_move(dense_model, dense_bundle):
    stationary = dense_model.eigensystem().gibbs_state()
    trajectory = evolve(dense_bundle, stationary, (0.0, 1.0, 10.0))
    for state in trajectory.states:
        assert oracles.trace_distance(state, stationary) < 1e-11
    assert all(row["gibbs_distance"] < 1e-11 for row in trajectory.diagnostics)


def test_semigroup_property(dense_bundle):
    assert semigroup_defect(dense_bundle, 0.7, 0.4) < 1e-12
    assert semigroup_defect(dense_bundle, 2.0, 2.0) < 1e-12


def test_trace_distance_contracts(dense_bundle):
    pairs = [
        (random_density_matrix(4, seed=10 + k), random_density_matrix(4, seed=20 + k))
        for k in range(4)
    ]
    report = contraction_report(dense_bundle, pairs, (0.0, 0.5, 1.5, 5.0))
    assert report["worst_increase"] <= 1e-9
    assert report["worst_pair"] is None
    assert report["worst_time"] is None


def test_contraction_report_computes_no_snapshot_diagnostics(monkeypatch, dense_bundle):
    calls = []
    diagnostics = gibbslab.evolution.snapshot_diagnostics

    def counting(*args, **kwargs):
        calls.append(1)
        return diagnostics(*args, **kwargs)

    monkeypatch.setattr(gibbslab.evolution, "snapshot_diagnostics", counting)
    pairs = [(random_density_matrix(4, seed=50), random_density_matrix(4, seed=51))]
    times = (0.0, 0.5, 1.5, 5.0)
    report = contraction_report(dense_bundle, pairs, times)
    assert calls == []
    traj_a = evolve(dense_bundle, pairs[0][0], times)
    traj_b = evolve(dense_bundle, pairs[0][1], times)
    # One stacked call per trajectory, through the module attribute.
    assert len(calls) == 2
    # Same states as two full evolves, so the distances are bit-identical.
    expected = [
        oracles.hermitian_trace_distance(a, b) for a, b in zip(traj_a.states, traj_b.states)
    ]
    assert report["rows"][0]["distances"] == expected


def test_contraction_report_equals_the_per_pair_reference(dense_bundle):
    """Three pairs, all distances from one stacked ``eigvalsh``: each equals
    the one-pair-at-a-time formula bit for bit."""
    pairs = [
        (random_density_matrix(4, seed=60 + k), random_density_matrix(4, seed=70 + k))
        for k in range(3)
    ]
    report = contraction_report(dense_bundle, pairs, TIME_GRID_TO_20)
    assert [row["pair"] for row in report["rows"]] == [0, 1, 2]
    for (rho_a, rho_b), row in zip(pairs, report["rows"]):
        states_a = evolve(dense_bundle, rho_a, TIME_GRID_TO_20).states
        states_b = evolve(dense_bundle, rho_b, TIME_GRID_TO_20).states
        expected = [oracles.hermitian_trace_distance(a, b) for a, b in zip(states_a, states_b)]
        assert row["distances"] == expected
    assert contraction_report(dense_bundle, [], TIME_GRID_TO_20)["rows"] == []


def test_contraction_report_makes_one_step_product_per_time_step(monkeypatch, dense_bundle):
    """Every state of every pair moves together: three pairs over four
    positive steps take four step exponentials, not one per state."""
    calls = []
    step = Propagator.step

    def counting(self, dt):
        calls.append(dt)
        return step(self, dt)

    monkeypatch.setattr(Propagator, "step", counting)
    pairs = [
        (random_density_matrix(4, seed=60 + k), random_density_matrix(4, seed=70 + k))
        for k in range(3)
    ]
    contraction_report(dense_bundle, pairs, (0.0, 0.5, 1.5, 5.0, 10.0))
    assert calls == [0.5, 1.0, 3.5, 5.0]


class _GrowingMap:
    """All ``contraction_report`` reads of a bundle: a propagator, here of
    ``e^{0.3 t}``, under which every trace distance grows."""

    def __init__(self, d: int) -> None:
        self.propagator = Propagator(0.3 * np.eye(d * d))


def test_contraction_report_finds_the_worst_increase():
    pairs = [
        (random_density_matrix(3, seed=80 + k), random_density_matrix(3, seed=90 + k))
        for k in range(3)
    ]
    pairs += pairs  # repeated rows: the first of equal maxima is reported
    times = (0.0, 0.5, 1.5, 2.0, 5.0)
    report = contraction_report(_GrowingMap(3), pairs, times)
    for (rho_a, rho_b), row in zip(pairs, report["rows"]):
        start = oracles.hermitian_trace_distance(rho_a, rho_b)
        assert row["distances"] == pytest.approx(
            [start * np.exp(0.3 * t) for t in times], rel=1e-12
        )
    worst = (report["worst_increase"], report["worst_pair"], report["worst_time"])
    assert worst == oracles.worst_increase_loop(report["rows"], times)
    assert report["worst_increase"] > 0.0
    assert report["worst_pair"] < 3
    assert report["worst_time"] == 5.0


@pytest.mark.parametrize("which", ["dense", "line16"])
def test_stacked_diagnostics_equal_the_one_snapshot_formulas(which, dense_bundle, filtered_battery):
    bundle = dense_bundle if which == "dense" else filtered_battery[("line16", "gaussian", 1.0)]
    initial = random_density_matrix(bundle.dim, seed=8)
    trajectory = evolve(bundle, initial, TIME_GRID_TO_20)
    assert len(trajectory.diagnostics) == len(TIME_GRID_TO_20)
    for state, row in zip(trajectory.states, trajectory.diagnostics):
        want = oracles.snapshot_diagnostics_row(state, bundle.model.eigensystem().gibbs_state())
        assert list(row) == list(want)
        for key in ("trace_deviation", "min_eigenvalue", "gibbs_distance"):
            assert row[key] == want[key], key
        assert abs(row["hermiticity_defect"] - want["hermiticity_defect"]) <= 1e-30


def test_bundle_caches_its_gibbs_state(monkeypatch, dense_model, dense_bundle):
    """The Gibbs reference is read once per bundle, from its eigensystem:
    two evolves and a contraction report diagonalise nothing more."""
    bundle = dataclasses.replace(dense_bundle)  # a bundle with empty caches
    calls = []
    decompose = gibbslab.operator_core.eig_hermitian

    def counting(matrix):
        calls.append(1)
        return decompose(matrix)

    monkeypatch.setattr(gibbslab.operator_core, "eig_hermitian", counting)
    monkeypatch.setattr(gibbslab.models, "eig_hermitian", counting)
    pair = (random_density_matrix(4, seed=13), random_density_matrix(4, seed=14))
    evolve(bundle, pair[0], TIME_GRID_TO_20)
    evolve(bundle, pair[1], TIME_GRID_TO_20)
    contraction_report(bundle, [pair], TIME_GRID_TO_20)
    assert len(calls) <= 1
    assert bundle.gibbs_state is bundle.gibbs_state
    assert np.array_equal(bundle.gibbs_state, dense_model.eigensystem().gibbs_state())
    with pytest.raises(ValueError):
        bundle.gibbs_state[0, 0] = 1.0


def test_trajectory_diagnostics_and_accessors(dense_bundle):
    initial = random_density_matrix(4, seed=2)
    times = (0.0, 0.5, 2.0)
    trajectory = evolve(dense_bundle, initial, times)
    assert trajectory.states.shape == (3, 4, 4)
    for key in ("trace_deviation", "min_eigenvalue", "hermiticity_defect", "gibbs_distance"):
        column = oracles.diagnostic_column(trajectory, key)
        assert column.shape == (3,)
    assert np.all(oracles.diagnostic_column(trajectory, "trace_deviation") < 1e-10)
    assert np.all(oracles.diagnostic_column(trajectory, "hermiticity_defect") <= 1e-10)
    assert np.all(oracles.diagnostic_column(trajectory, "min_eigenvalue") > -1e-9)
    distances = oracles.diagnostic_column(trajectory, "gibbs_distance")
    assert distances[-1] < distances[0]


def test_snapshot_diagnostics_flags_a_bad_state():
    """A row records the numbers only; the pass/fail verdict is the
    command's, against its configured tolerances."""
    good = np.diag([0.6, 0.4]).astype(complex)
    bad = np.diag([1.2, -0.2]).astype(complex)
    row_good, row_bad = snapshot_diagnostics(np.array([good, bad]), good)
    assert set(row_good) == {
        "trace_deviation", "hermiticity_defect", "min_eigenvalue", "gibbs_distance"
    }
    assert row_good["gibbs_distance"] == 0.0
    assert row_bad["gibbs_distance"] == pytest.approx(0.6, abs=1e-12)
    assert row_good["min_eigenvalue"] == pytest.approx(0.4, abs=1e-12)
    assert row_bad["min_eigenvalue"] == pytest.approx(-0.2, abs=1e-12)
    assert row_bad["trace_deviation"] < 1e-12


def test_snapshot_distances_match_the_svd_route(dense_model, dense_bundle):
    pairs = [
        (random_density_matrix(4, seed=30 + k), random_density_matrix(4, seed=40 + k))
        for k in range(3)
    ]
    report = contraction_report(dense_bundle, pairs, TIME_GRID_TO_20)
    reference = dense_model.eigensystem().gibbs_state()
    hermitised = lambda s: 0.5 * (s + dagger(s))
    for (rho_a, rho_b), row in zip(pairs, report["rows"]):
        traj_a = evolve(dense_bundle, rho_a, TIME_GRID_TO_20)
        traj_b = evolve(dense_bundle, rho_b, TIME_GRID_TO_20)
        for sa, sb, got in zip(traj_a.states, traj_b.states, row["distances"]):
            assert abs(got - oracles.trace_distance(hermitised(sa), hermitised(sb))) <= 1e-12
        for sa, diag in zip(traj_a.states, traj_a.diagnostics):
            svd = oracles.trace_distance(hermitised(sa), reference)
            assert abs(diag["gibbs_distance"] - svd) <= 1e-12


# ---------------------------------------------------------------------------
# The cached propagator
# ---------------------------------------------------------------------------


def _count_expm(monkeypatch) -> list:
    calls = []

    def counting(matrix):
        calls.append(matrix.shape)
        return expm(matrix)

    monkeypatch.setattr(gibbslab.evolution, "expm", counting)
    return calls


def test_one_bundle_shares_its_step_exponentials(monkeypatch, dense_bundle):
    bundle = dataclasses.replace(dense_bundle)  # a bundle with an empty cache
    calls = _count_expm(monkeypatch)
    pair = (random_density_matrix(4, seed=11), random_density_matrix(4, seed=12))
    contraction_report(bundle, [pair], TIME_GRID_TO_20)
    evolve(bundle, pair[0], TIME_GRID_TO_20)
    evolve(bundle, pair[1], TIME_GRID_TO_20)
    for t in (0.1, 1.0, 10.0):
        choi_min_eigenvalue(bundle, t)
    # Seven distinct steps on the grid; the Choi times are among them.
    assert len(calls) == 7
    assert bundle.propagator.computed == 7
    assert dataclasses.replace(bundle).propagator.computed == 0


def test_evolve_equals_a_direct_exponential_loop(dense_bundle):
    initial = random_density_matrix(4, seed=6)
    trajectory = evolve(dense_bundle, initial, TIME_GRID_TO_20)
    vec = vectorize(initial)
    previous = 0.0
    for t, state in zip(TIME_GRID_TO_20, trajectory.states):
        if t > previous:
            vec = expm(dense_bundle.superoperator * float(t - previous)) @ vec
        previous = t
        assert np.array_equal(state, devectorize(vec, 4))


def test_step_cache_stays_within_its_byte_budget(monkeypatch, dense_bundle):
    initial = random_density_matrix(4, seed=7)
    unbounded = evolve(dataclasses.replace(dense_bundle), initial, TIME_GRID_TO_20)
    step_bytes = dense_bundle.superoperator.nbytes
    monkeypatch.setattr(gibbslab.evolution, "_STEP_CACHE_BYTES", 3 * step_bytes)
    bundle = dataclasses.replace(dense_bundle)  # a bundle with an empty cache
    bounded = evolve(bundle, initial, TIME_GRID_TO_20)
    assert bundle.propagator.computed == 7
    assert bundle.propagator.nbytes == 3 * step_bytes
    assert np.array_equal(bounded.states, unbounded.states)
    # Evicted steps are recomputed, not lost.
    again = evolve(bundle, initial, TIME_GRID_TO_20)
    assert np.array_equal(again.states, unbounded.states)
    assert bundle.propagator.nbytes <= 3 * step_bytes
    # A budget below one step still keeps the entry in use.
    monkeypatch.setattr(gibbslab.evolution, "_STEP_CACHE_BYTES", 1)
    tiny = dataclasses.replace(dense_bundle)
    assert np.array_equal(evolve(tiny, initial, TIME_GRID_TO_20).states, unbounded.states)
    assert tiny.propagator.nbytes == step_bytes


def test_bundle_parts_are_read_only(dense_bundle):
    with pytest.raises(ValueError):
        dense_bundle.superoperator[0, 0] = 1.0
    with pytest.raises(ValueError):
        dense_bundle.superoperator *= 2.0
    with pytest.raises(ValueError):
        dense_bundle.propagator.step(0.3)[0, 0] = 1.0


# ---------------------------------------------------------------------------
# Initial-state validation
# ---------------------------------------------------------------------------


def _non_finite_states(state):
    """``state`` with a NaN off and on the diagonal, and an infinity on and
    off the diagonal: each stops the stacked ``eigvalsh`` of the checks."""
    bad = []
    for entry, value in (((0, 1), np.nan), ((2, 2), np.nan), ((1, 1), np.inf), ((3, 0), np.inf)):
        broken = state.copy()
        broken[entry] = value
        bad.append(broken)
    return bad


def test_evolve_rejects_malformed_inputs(dense_bundle):
    state = random_density_matrix(4, seed=1)
    with pytest.raises(ValidationError):
        evolve(dense_bundle, state, (0.0, 2.0, 1.0))
    with pytest.raises(ValidationError):
        evolve(dense_bundle, state, (-1.0, 0.0))
    with pytest.raises(ValidationError):
        evolve(dense_bundle, 2.0 * state, (0.0, 1.0))
    with pytest.raises(ValidationError):
        evolve(dense_bundle, state + 0.2j * np.eye(4), (0.0, 1.0))
    with pytest.raises(ValidationError):
        evolve(dense_bundle, np.diag([1.2, -0.2, 0.0, 0.0]).astype(complex), (0.0, 1.0))
    with pytest.raises(ValidationError):
        evolve(dense_bundle, np.eye(3) / 3.0, (0.0, 1.0))
    for bad in _non_finite_states(state):
        with pytest.raises(ValidationError, match="initial state 0 has a non-finite entry"):
            evolve(dense_bundle, bad, (0.0, 1.0))
    # Not a square matrix: refused by its shape, before its size is read.
    for bad in (2.0, np.ones((3, 4)) / 3.0, np.array([state, state])):
        with pytest.raises(ValidationError, match=re.escape(f"got shape {np.shape(bad)}")):
            evolve(dense_bundle, bad, (0.0, 1.0))


def test_contraction_report_rejects_non_finite_states(dense_bundle):
    state = random_density_matrix(4, seed=1)
    for bad in _non_finite_states(state):
        with pytest.raises(ValidationError, match="initial state 3 has a non-finite entry"):
            contraction_report(dense_bundle, [(state, state), (state, bad)], (0.0, 1.0))


@pytest.mark.parametrize("times", [(1.0, 0.5), (-1.0, 0.0), ()])
def test_contraction_report_checks_its_times_without_pairs(dense_bundle, times):
    state = random_density_matrix(4, seed=1)
    with pytest.raises(ValidationError) as from_evolve:
        evolve(dense_bundle, state, times)
    for pairs in ([], [(state, state)]):
        with pytest.raises(ValidationError, match=re.escape(str(from_evolve.value))):
            contraction_report(dense_bundle, pairs, times)


def test_random_density_matrix_properties():
    full = random_density_matrix(4, seed=3)
    assert np.trace(full).real == pytest.approx(1.0, abs=1e-14)
    assert np.linalg.norm(full - full.conj().T) < 1e-14
    assert np.linalg.eigvalsh(full).min() > 0.0
    assert np.linalg.matrix_rank(full, tol=1e-12) == 4
    assert np.array_equal(full, random_density_matrix(4, seed=3))


# ---------------------------------------------------------------------------
# Complete positivity via the Choi matrix
# ---------------------------------------------------------------------------


def test_choi_matrix_matches_matrix_unit_oracle(dense_bundle):
    channel = expm(1.0 * dense_bundle.superoperator)
    assert np.array_equal(choi_matrix(channel), oracles.choi_by_units(channel))


def test_identity_channel_choi_spectrum():
    eigenvalues = np.linalg.eigvalsh(choi_matrix(np.eye(16)))
    assert eigenvalues[-1] == pytest.approx(4.0, abs=1e-12)
    assert np.max(np.abs(eigenvalues[:-1])) < 1e-12


def test_transpose_map_is_not_completely_positive():
    transpose_channel = oracles.superoperator_by_columns(lambda T: T.T, 2)
    eigenvalues = np.linalg.eigvalsh(choi_matrix(transpose_channel))
    assert eigenvalues[0] == pytest.approx(-1.0, abs=1e-12)


def test_generated_channels_are_completely_positive(dense_bundle, davies_battery):
    for t in (0.1, 1.0, 10.0):
        assert choi_min_eigenvalue(dense_bundle, t) > -1e-8
        assert choi_trace_preservation_defect(dense_bundle, t) < 1e-10
    qubit_davies = davies_battery[("qubit", "glauber")]
    report = choi_report(qubit_davies, 1.0)
    assert set(report) == {"time", "min_eigenvalue", "trace_preservation_defect"}
    assert report["min_eigenvalue"] > -1e-8
    assert report["trace_preservation_defect"] < 1e-10
    # One Hermitised Choi matrix serves both numbers, bit for bit.
    assert report["min_eigenvalue"] == choi_min_eigenvalue(qubit_davies, 1.0)
    assert report["trace_preservation_defect"] == choi_trace_preservation_defect(qubit_davies, 1.0)


def test_sign_fault_breaks_complete_positivity(corrupt_bundle):
    assert choi_min_eigenvalue(corrupt_bundle, 0.1) < -1e-3
    assert choi_report(corrupt_bundle, 1.0)["min_eigenvalue"] < -1e-6


def test_choi_analysis_rejects_large_dimensions():
    model = random_model(dim=9, seed=0)
    bundle = davies_generator(model, kms_gamma("glauber"))
    with pytest.raises(ValidationError):
        choi_report(bundle, 0.5)


# ---------------------------------------------------------------------------
# Qubit end-to-end relaxation
# ---------------------------------------------------------------------------


def test_excited_qubit_relaxes_to_gibbs():
    model = qubit_model()
    bundle = localised_generator(model, balanced_gamma("gaussian", 1.0), 1.0)
    system = model.eigensystem()
    excited = np.outer(system.eigenvectors[:, -1], system.eigenvectors[:, -1].conj())
    trajectory = evolve(bundle, excited, (0.0, 5.0, 20.0))
    distances = oracles.diagnostic_column(trajectory, "gibbs_distance")
    assert distances[0] > 0.2
    assert distances[-1] < 1e-6
