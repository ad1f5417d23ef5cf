"""Acceptance battery: ten headline guarantees, one test each.

Each test prints a single summary line with the measured worst case and
asserts both the tolerance and its own wall-clock budget.  Criterion 6
has a companion strict-xfail documenting a quantitative clause that the
constructed operators demonstrably do not satisfy (see the test's reason
string for the measured values and the mechanism).
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from gibbslab.evolution import (
    choi_min_eigenvalue,
    contraction_report,
    evolve,
    random_density_matrix,
)
from gibbslab.generators import (
    davies_limit_report,
    dual_path_residual,
    effective_drift_abscissa,
    localised_generator,
    stationarity_report,
)
from gibbslab.bohr import bohr_spectrum, decompose
from gibbslab.models import qubit_model, random_model
from gibbslab.oft import oft_eval, overlap_table
from gibbslab.weights import (
    COHERENT_L1_LIMIT,
    balanced_gamma,
    coherent_time_kernel_l1,
    unshifted_gamma,
)

import oracles
from oracles import WELL_SEPARATED_SPECTRUM_6, benchmark_models

TIME_GRID_TO_20 = (0.0, 0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0)


def test_criterion_01_filtered_generators_fix_the_gibbs_state(filtered_battery):
    start = time.monotonic()
    worst = 0.0
    worst_key = None
    for key, bundle in filtered_battery.items():
        residual = stationarity_report(bundle)
        if residual > worst:
            worst, worst_key = residual, key
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, (worst_key, worst)
    assert elapsed <= 60.0
    print(
        f"criterion 1: PASS - worst relative stationarity residual {worst:.3e} "
        f"(at {worst_key}) over {len(filtered_battery)} configurations, {elapsed:.1f}s"
    )


def test_criterion_02_shift_removal_is_detected():
    start = time.monotonic()
    bundle = localised_generator(qubit_model(), unshifted_gamma("gaussian", 1.0), 1.0)
    residual = stationarity_report(bundle)
    elapsed = time.monotonic() - start
    assert residual >= 1e-4, residual
    assert elapsed <= 1.0
    print(
        f"criterion 2: PASS - negative-control residual {residual:.3e} >= 1e-4, {elapsed:.2f}s"
    )


def test_criterion_03_unfiltered_generators_fix_the_gibbs_state(davies_battery):
    start = time.monotonic()
    worst = 0.0
    worst_key = None
    for key, bundle in davies_battery.items():
        residual = stationarity_report(bundle)
        if residual > worst:
            worst, worst_key = residual, key
    elapsed = time.monotonic() - start
    assert worst <= 1e-12, (worst_key, worst)
    assert elapsed <= 10.0
    print(
        f"criterion 3: PASS - worst unfiltered residual {worst:.3e} "
        f"(at {worst_key}) over {len(davies_battery)} configurations, {elapsed:.1f}s"
    )


def test_criterion_04_scalar_balance_identity_on_the_grid():
    """The dissipator's Gibbs-action coefficient (QUADPACK overlaps) equals
    ``i (1 - e^{tau - tau'}) b(tau, tau')`` with ``b`` the production
    coherent pair table."""
    start = time.monotonic()
    # Energies 0, 0.5, ..., 2: the Bohr frequencies are the 9-point grid on [-2, 2].
    spectrum = bohr_spectrum(np.diag(np.linspace(0.0, 2.0, 5)))
    taus = spectrum.frequencies
    assert np.array_equal(taus, np.linspace(-2.0, 2.0, 9))
    factor = 1.0 - np.exp(taus[:, None] - taus[None, :])
    worst = 0.0
    worst_at = None
    for sigma in (0.5, 1.0, 2.0):
        weight = balanced_gamma("gaussian", sigma)
        lhs = oracles.gibbs_coefficient_table_quad(taus, sigma, weight)
        rhs = 1j * factor * overlap_table(spectrum, weight, sigma, cross_check=False).coherent
        assert np.all(np.abs(rhs.imag) <= 1e-13 * (1.0 + np.abs(rhs.real))), sigma
        residual = np.abs(lhs - rhs.real) / (1.0 + np.abs(lhs))
        i, j = np.unravel_index(np.argmax(residual), residual.shape)
        if residual[i, j] > worst:
            worst, worst_at = float(residual[i, j]), (sigma, float(taus[i]), float(taus[j]))
    elapsed = time.monotonic() - start
    assert worst <= 1e-9, (worst_at, worst)
    assert elapsed <= 5.0
    print(
        f"criterion 4: PASS - worst identity residual {worst:.3e} "
        f"(at sigma,tau,tau'={worst_at}) over 243 grid points, {elapsed:.1f}s"
    )


def test_criterion_05_coherent_kernel_l1_anchor():
    start = time.monotonic()
    limit = math.sqrt(math.pi) / 32.0
    assert COHERENT_L1_LIMIT == pytest.approx(limit, rel=1e-15)
    values = {}
    for sigma in (4.0, 2.0, 1.0, 0.5, 0.25, 0.125, 0.0625):
        values[sigma] = coherent_time_kernel_l1(sigma)
        assert values[sigma] <= limit, (sigma, values[sigma])
    gap = abs(values[0.0625] - limit)
    elapsed = time.monotonic() - start
    assert gap <= 1e-3, gap
    assert elapsed <= 5.0
    print(
        f"criterion 5: PASS - all kernel norms below {limit:.8f}, "
        f"gap at the finest bandwidth {gap:.3e}, {elapsed:.1f}s"
    )


@pytest.fixture(scope="module")
def delocalisation_rows():
    model = random_model(dim=6, seed=3, spectrum=WELL_SEPARATED_SPECTRUM_6)
    report = davies_limit_report(model, "gaussian", (0.8, 0.4, 0.2, 0.1, 0.05), seed=2024)
    return report["rows"]


def test_criterion_06_delocalisation_limit(delocalisation_rows):
    start = time.monotonic()
    rows = delocalisation_rows
    distances = [row["davies_distance_p1"] for row in rows]
    assert all(b < a for a, b in zip(distances[:-1], distances[1:])), distances
    coherent_norms = [row["coherent_norm_B"] for row in rows]
    assert all(b < a for a, b in zip(coherent_norms[:-1], coherent_norms[1:]))
    elapsed = time.monotonic() - start
    assert elapsed <= 60.0
    print(
        "criterion 6: PASS - distance to the unfiltered generator strictly "
        f"decreasing {['%.3e' % d for d in distances]} over sigma=0.8..0.05, {elapsed:.1f}s"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "On a spectrum with all frequency gaps >= 0.5 the coherent matrix is "
        "carried entirely by off-diagonal frequency pairs (its diagonal "
        "pair coefficients vanish identically), and each pair carries the "
        "factor exp(-(nu-nu')^2/4sigma^2) <= exp(-1/16sigma^2).  Measured "
        "halving ratios ||B(sigma/2)||/||B(sigma)||: 0.377 (0.8->0.4), "
        "0.229 (0.4->0.2), 9.3e-3 (0.2->0.1), 7.2e-9 (0.1->0.05); the "
        "[0.3, 0.7] window holds only while sigma is comparable to the "
        "smallest gap and is unattainable at the two smallest bandwidths, "
        "where suppression is super-exponential rather than linear."
    ),
)
def test_criterion_06b_coherent_norm_halving_ratio_at_smallest_bandwidths(
    delocalisation_rows,
):
    norms = [row["coherent_norm_B"] for row in delocalisation_rows]
    ratios = [norms[-2] / norms[-3], norms[-1] / norms[-2]]
    print(
        "criterion 6b: measured coherent-norm halving ratios at the two "
        f"smallest bandwidths: {ratios[0]:.3e}, {ratios[1]:.3e} (window [0.3, 0.7])"
    )
    assert 0.3 <= ratios[0] <= 0.7 and 0.3 <= ratios[1] <= 0.7


def test_criterion_07_semigroup_preserves_and_contracts():
    start = time.monotonic()
    models = list(benchmark_models()) + [
        random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6))
    ]
    worst_trace = 0.0
    worst_eig = 0.0
    worst_increase = 0.0
    worst_choi = np.inf
    for model in models:
        bundle = localised_generator(
            model, balanced_gamma("gaussian", 1.0), 1.0
        )
        pairs = [
            (
                random_density_matrix(model.dim, seed=100 + k),
                random_density_matrix(model.dim, seed=200 + k),
            )
            for k in range(20)
        ]
        report = contraction_report(bundle, pairs, TIME_GRID_TO_20)
        assert report["worst_increase"] <= 1e-9, (
            model.model_id,
            report["worst_pair"],
            report["worst_time"],
        )
        worst_increase = max(worst_increase, report["worst_increase"])
        for rho_a, rho_b in pairs:
            for state in (rho_a, rho_b):
                trajectory = evolve(bundle, state, TIME_GRID_TO_20)
                worst_trace = max(worst_trace, *trajectory.diagnostics["trace_deviation"])
                worst_eig = min(worst_eig, *trajectory.diagnostics["min_eigenvalue"])
        if model.dim <= 4:
            for t in (0.1, 1.0, 10.0):
                worst_choi = min(worst_choi, choi_min_eigenvalue(bundle, t))
    elapsed = time.monotonic() - start
    assert worst_trace <= 1e-10, worst_trace
    assert worst_eig >= -1e-9, worst_eig
    assert worst_choi >= -1e-8, worst_choi
    assert elapsed <= 120.0
    print(
        f"criterion 7: PASS - trace deviation <= {worst_trace:.1e}, state eigenvalue "
        f">= {worst_eig:.1e}, contraction increase <= {worst_increase:.1e}, Choi "
        f"eigenvalue >= {worst_choi:.1e} across {len(models)} models x 20 pairs, {elapsed:.1f}s"
    )


def test_criterion_08_effective_drift_is_dissipative(filtered_battery, davies_battery):
    start = time.monotonic()
    worst = -np.inf
    worst_key = None
    for key, bundle in list(filtered_battery.items()) + list(davies_battery.items()):
        abscissa = effective_drift_abscissa(bundle)
        if abscissa > worst:
            worst, worst_key = abscissa, key
    elapsed = time.monotonic() - start
    assert worst <= 1e-10, (worst_key, worst)
    assert elapsed <= 10.0
    n = len(filtered_battery) + len(davies_battery)
    print(
        f"criterion 8: PASS - largest drift abscissa {worst:.3e} (at {worst_key}) "
        f"over {n} configurations, {elapsed:.1f}s"
    )


def test_criterion_09_independent_assembly_routes_agree():
    start = time.monotonic()
    worst_super = 0.0
    for model in benchmark_models():
        bundle = localised_generator(
            model, balanced_gamma("gaussian", 1.0), 1.0
        )
        residual = dual_path_residual(bundle)
        worst_super = max(worst_super, residual)
    assert worst_super <= 1e-8, worst_super

    dense = random_model(dim=4, seed=5, spectrum=(1.0, 1.7, 3.1, 4.6))
    system = dense.eigensystem()
    worst_oft = 0.0
    for jump in dense.jumps:
        decomposition = decompose(jump, system)
        for omega in (-1.4, 0.0, 0.7, 2.3):
            direct = oft_eval(decomposition, omega, 1.0)
            quadrature = oracles.oft_eval_time_quadrature(dense.hamiltonian, jump, omega, 1.0)
            worst_oft = max(worst_oft, float(np.linalg.norm(direct - quadrature)))
    elapsed = time.monotonic() - start
    assert worst_oft <= 1e-8, worst_oft
    assert elapsed <= 60.0
    print(
        f"criterion 9: PASS - assembly routes agree to {worst_super:.3e}, "
        f"transform routes to {worst_oft:.3e}, {elapsed:.1f}s"
    )


def test_criterion_10_qubit_relaxation_diagnostic():
    start = time.monotonic()
    model = qubit_model()
    bundle = localised_generator(model, balanced_gamma("gaussian", 1.0), 1.0)
    system = model.eigensystem()
    excited = np.outer(system.eigenvectors[:, -1], system.eigenvectors[:, -1].conj())
    trajectory = evolve(bundle, excited, (0.0, 20.0))
    final_distance = trajectory.diagnostics["gibbs_distance"][-1]
    elapsed = time.monotonic() - start
    assert final_distance <= 1e-6, final_distance
    print(
        f"criterion 10: PASS - recorded qubit relaxation diagnostic: "
        f"gibbs_distance(t=20) = {final_distance:.4e}, {elapsed:.1f}s"
    )
