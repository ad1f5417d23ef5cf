"""Frequency-resolved operator splitting against spectral projectors."""

from __future__ import annotations

import numpy as np
import pytest

from gibbslab.bohr import BohrSpectrum, bohr_spectrum, decompose
from gibbslab.errors import ValidationError
from gibbslab.models import (
    oscillator_model,
    qubit_model,
    random_model,
    schrodinger_line_model,
    torus_model,
)
from gibbslab.operator_core import dagger

import oracles
from oracles import benchmark_models


def test_qubit_split_is_raising_and_lowering():
    model = qubit_model()
    dec = decompose(model.jumps[0], model.eigensystem())
    assert list(dec.frequencies) == [-1.0, 1.0]
    # the flip operator splits into the two off-diagonal units
    lowering, raising = dec.components
    assert np.linalg.norm(lowering + raising - model.jumps[0]) < 1e-14
    assert np.linalg.norm(lowering @ lowering) < 1e-14
    assert np.linalg.norm(raising @ raising) < 1e-14


def test_spectrum_contains_zero_and_negation_closed():
    for model in benchmark_models():
        spec = bohr_spectrum(model.eigensystem())
        freqs = spec.frequencies
        assert 0.0 in freqs
        assert np.allclose(freqs, -freqs[::-1], atol=1e-12)
        perm = oracles.negation_index(spec)
        assert np.allclose(freqs[perm], -freqs, atol=1e-12)


@pytest.mark.parametrize("model", benchmark_models(), ids=lambda m: m.model_id)
def test_completeness_and_eigenoperator_identity(model):
    system = model.eigensystem()
    p = model.hamiltonian
    for jump in model.jumps:
        dec = decompose(jump, system)
        scale = np.linalg.norm(jump)
        # cluster representatives are means, so the commutator identity holds
        # up to the cluster diameter on wide spectra
        slack = 10.0 * oracles.default_cluster_tol(system) + 1e-11
        assert np.linalg.norm(dec.components.sum(axis=0) - jump) < 1e-11 * scale
        for nu, comp in zip(dec.frequencies, dec.components):
            defect = np.linalg.norm(p @ comp - comp @ p - nu * comp)
            assert defect < slack * scale


@pytest.mark.parametrize("model", benchmark_models(), ids=lambda m: m.model_id)
def test_components_match_projector_oracle(model):
    system = model.eigensystem()
    jump = model.jumps[0]
    dec = decompose(jump, system)
    cluster_tol = oracles.default_cluster_tol(system)
    slack = 10.0 * cluster_tol + 1e-10
    # merge the oracle's raw differences with the same diameter the package
    # used, so near-degenerate pairs land in the same bucket on both sides
    reference = oracles.bohr_components_projectors(
        jump, model.hamiltonian, tol=max(cluster_tol, 1e-9)
    )
    for nu, comp in zip(dec.frequencies, dec.components):
        closest = min(reference, key=lambda k: abs(k - nu))
        assert abs(closest - nu) < slack
        assert np.linalg.norm(comp - reference[closest]) < 1e-10


def test_degenerate_blocks_are_resolved_covariantly():
    """Components over a degenerate spectrum equal whole-block projections."""
    model = torus_model(6)  # paired momenta give genuinely degenerate levels
    energies = np.linalg.eigvalsh(model.hamiltonian)
    gaps = np.diff(energies)
    assert np.min(gaps) < 1e-12, "test premise: the spectrum must be degenerate"
    reference = oracles.bohr_components_projectors(model.jumps[0], model.hamiltonian)
    dec = decompose(model.jumps[0], model.eigensystem())
    for nu, comp in zip(dec.frequencies, dec.components):
        closest = min(reference, key=lambda k: abs(k - nu))
        assert np.linalg.norm(comp - reference[closest]) < 1e-10


def test_adjoint_components_live_at_negated_frequencies():
    for model in benchmark_models():
        system = model.eigensystem()
        spectrum = bohr_spectrum(system)
        for jump in model.jumps:
            residual = oracles.adjoint_pairing_residual(
                decompose(jump, system, spectrum), decompose(dagger(jump), system, spectrum)
            )
            assert residual < 1e-12 * max(1.0, np.linalg.norm(jump))


def test_adjoint_pairing_componentwise():
    model = random_model(5, seed=21)
    system = model.eigensystem()
    jump = model.jumps[0]
    dec = decompose(jump, system)
    dec_dag = oracles.dense_components(decompose(dagger(jump), system))
    for nu, comp in zip(dec.frequencies, dec.components):
        negated = dec_dag[oracles.frequency_index(dec.spectrum, -nu)]
        assert np.linalg.norm(dagger(comp) - negated) < 1e-11


def test_cluster_tolerance_merges_near_degenerate_frequencies():
    h = np.diag([0.0, 1.0, 2.0 + 3e-7])
    wide = bohr_spectrum(h, cluster_tol=1e-6)
    fine = bohr_spectrum(h, cluster_tol=1e-9)
    assert wide.size < fine.size
    assert wide.max_cluster_diameter <= 1e-6
    assert wide.max_cluster_diameter >= 2e-7


def test_component_lookup_and_dropping():
    model = oscillator_model(4)
    system = model.eigensystem()
    dec = decompose(model.jumps[0], system)  # pure lowering-type jump
    spec = dec.spectrum
    assert dec.components.shape[0] < spec.size  # most frequencies carry nothing
    assert np.linalg.norm(dec.components.sum(axis=0) - model.jumps[0]) < 1e-11


def test_spectrum_pair_index_consistency():
    model = random_model(4, seed=13)
    spec = bohr_spectrum(model.eigensystem())
    energies = model.eigensystem().eigenvalues
    for i in range(4):
        for j in range(4):
            nu = spec.frequencies[spec.pair_index[i, j]]
            assert abs((energies[i] - energies[j]) - nu) <= max(
                oracles.default_cluster_tol(model.eigensystem()), 1e-12
            )


def test_negative_cluster_tol_rejected():
    with pytest.raises(ValidationError):
        bohr_spectrum(np.diag([0.0, 1.0]), cluster_tol=-1.0)


def _same_spectrum(got: BohrSpectrum, want: BohrSpectrum) -> bool:
    return (
        got.frequencies.tobytes() == want.frequencies.tobytes()
        and got.pair_index.tobytes() == want.pair_index.tobytes()
        and got.pair_index.dtype == want.pair_index.dtype
        and got.max_cluster_diameter == want.max_cluster_diameter
    )


@pytest.mark.parametrize(
    "model",
    [
        *benchmark_models(),
        random_model(6, seed=3),
        random_model(dim=3, seed=2, spectrum=(1.0, 1.0, 1.0)),
        schrodinger_line_model(24),
        schrodinger_line_model(32),
    ],
    ids=lambda m: m.model_id,
)
@pytest.mark.parametrize("cluster_tol", [None, 1e-6, 0.05, 0.5, 3.0])
def test_vectorised_clustering_is_the_greedy_scan_bit_for_bit(model, cluster_tol):
    """Frequencies, pair map and cluster diameter equal one greedy scan with
    one np.mean a cluster, also where a wide tolerance forces the scan
    inside a run and merges clusters of many members."""
    system = model.eigensystem()
    got = bohr_spectrum(system, cluster_tol)
    assert _same_spectrum(got, oracles.bohr_spectrum_loop(system, cluster_tol))


def test_clustering_covers_the_scan_and_the_mean_orders():
    """Seeded spectra where the greedy scan splits runs with no gap above
    the tolerance, and clusters of two to a dozen members."""
    rng = np.random.default_rng(7)
    sizes = set()
    for _ in range(100):
        energies = np.sort(rng.uniform(0.0, 3.0, size=rng.integers(2, 9)))
        for tol in (0.0, 0.05, 0.3, 1.0):
            h = np.diag(np.round(energies, int(rng.integers(0, 3))))
            got = bohr_spectrum(h, tol)
            assert _same_spectrum(got, oracles.bohr_spectrum_loop(h, tol))
            sizes.update(np.bincount(np.abs(got.pair_index - got.size // 2).ravel()).tolist())
    assert {2, 3, 7, 8, 12} <= sizes
