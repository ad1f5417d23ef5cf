"""Model builders: spectra, jump closure, Gibbs states, and config parsing.

The lattice builders get independent spectral oracles: the periodic
divergence-form operator with unit coefficient and zero potential has the
exactly known eigenvalues n^2 (2 - 2 cos(2 pi k / n)), and the boxed
continuum operator with a quadratic well must converge to evenly spaced
levels at the stencil's quadratic rate.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from gibbslab.errors import ValidationError
from gibbslab.models import (
    model_from_config,
    named_potential,
    oscillator_model,
    qubit_model,
    random_model,
    schrodinger_line_model,
    torus_model,
)

import oracles
from oracles import WELL_SEPARATED_SPECTRUM_6, benchmark_models


# ---------------------------------------------------------------------------
# Ground-level convention and simple spectra
# ---------------------------------------------------------------------------


def test_every_builder_starts_its_spectrum_at_one(benchmarks):
    for model in benchmarks:
        eigenvalues = np.linalg.eigvalsh(model.hamiltonian)
        assert eigenvalues[0] == pytest.approx(1.0, abs=1e-10)


def test_qubit_and_oscillator_spectra_are_integers():
    assert np.allclose(np.linalg.eigvalsh(qubit_model().hamiltonian), [1.0, 2.0])
    assert np.allclose(
        np.linalg.eigvalsh(oscillator_model(6).hamiltonian), np.arange(1.0, 7.0)
    )


def test_oscillator_gibbs_ratios_are_inverse_e():
    state = oscillator_model(4).eigensystem().gibbs_state()
    populations = np.diag(state).real
    assert np.trace(state).real == pytest.approx(1.0, abs=1e-14)
    for a, b in zip(populations[:-1], populations[1:]):
        assert b / a == pytest.approx(math.exp(-1.0), rel=1e-12)


def test_gibbs_state_matches_exponential_oracle(benchmarks):
    for model in benchmarks:
        want = oracles.gibbs_expm(model.hamiltonian)
        got = model.eigensystem().gibbs_state()
        assert np.linalg.norm(got - want) < 1e-12


# ---------------------------------------------------------------------------
# Jump-operator requirements
# ---------------------------------------------------------------------------


def test_adjoint_closure_on_all_builders(benchmarks):
    extra = [
        random_model(dim=5, seed=9),
        random_model(dim=6, seed=3, spectrum=WELL_SEPARATED_SPECTRUM_6),
        schrodinger_line_model(32),
        torus_model(8),
    ]
    for model in list(benchmarks) + extra:
        assert model.adjoint_closure_defect() < 1e-12


def test_jump_operators_are_unit_scale(benchmarks):
    for model in benchmarks:
        for jump in model.jumps:
            norm = np.linalg.norm(jump, 2)
            assert 0.05 < norm < 20.0


# ---------------------------------------------------------------------------
# Periodic lattice model: exact free spectrum
# ---------------------------------------------------------------------------


def test_torus_free_spectrum_is_exact():
    n = 8
    model = torus_model(
        n,
        p_coefficient=lambda x: np.ones_like(x),
        potential=lambda x: np.zeros_like(x),
    )
    eigenvalues = np.linalg.eigvalsh(model.hamiltonian)
    shifted = np.sort(eigenvalues - eigenvalues.min())
    k = np.arange(n)
    exact = np.sort(n * n * (2.0 - 2.0 * np.cos(2.0 * np.pi * k / n)))
    assert np.allclose(shifted, exact, atol=1e-8)


def test_torus_rejects_tiny_grid_and_negative_coefficient():
    with pytest.raises(ValidationError):
        torus_model(3)
    with pytest.raises(ValidationError):
        torus_model(8, p_coefficient=lambda x: np.cos(2 * np.pi * x))


# ---------------------------------------------------------------------------
# Boxed continuum model: quadratic convergence of the first gap
# ---------------------------------------------------------------------------


def test_line_first_gap_converges_quadratically():
    gaps = {}
    for n in (32, 64):
        model = schrodinger_line_model(n)
        eigenvalues = np.linalg.eigvalsh(model.hamiltonian)
        gaps[n] = eigenvalues[1] - eigenvalues[0]
    continuum = 2.0
    ratio = (continuum - gaps[32]) / (continuum - gaps[64])
    assert 3.5 < ratio < 4.5
    assert gaps[64] == pytest.approx(1.984734995432211, rel=1e-10)


def test_line_rejects_unconfining_potential():
    with pytest.raises(ValidationError):
        schrodinger_line_model(16, potential=lambda x: -np.asarray(x) ** 2)
    with pytest.raises(ValidationError):
        schrodinger_line_model(8)


def test_named_potentials():
    x = np.linspace(-2, 2, 9)
    assert np.allclose(named_potential("quadratic")(x), x**2)
    assert np.allclose(named_potential("quartic", 0.5)(x), 0.5 * x**4)
    assert np.allclose(
        named_potential("cosine", 2.0)(x), 2.0 * (1.0 - np.cos(2.0 * np.pi * x))
    )
    with pytest.raises(ValidationError):
        named_potential("cubic")


# ---------------------------------------------------------------------------
# Seeded dense models
# ---------------------------------------------------------------------------


def test_random_model_is_deterministic_and_matches_prescribed_spectrum():
    a = random_model(dim=6, seed=3, spectrum=WELL_SEPARATED_SPECTRUM_6)
    b = random_model(dim=6, seed=3, spectrum=WELL_SEPARATED_SPECTRUM_6)
    assert np.array_equal(a.hamiltonian, b.hamiltonian)
    assert all(np.array_equal(x, y) for x, y in zip(a.jumps, b.jumps))
    eigenvalues = np.linalg.eigvalsh(a.hamiltonian)
    want = 1.0 + np.asarray(WELL_SEPARATED_SPECTRUM_6)
    assert np.allclose(eigenvalues, want, atol=1e-10)
    different = random_model(dim=6, seed=4, spectrum=WELL_SEPARATED_SPECTRUM_6)
    assert not np.allclose(a.jumps[0], different.jumps[0])


def test_well_separated_spectrum_has_wide_gaps():
    gaps = np.diff(np.asarray(WELL_SEPARATED_SPECTRUM_6))
    assert np.all(gaps >= 0.5)


def test_random_model_rejects_mismatched_spectrum_length():
    with pytest.raises(ValidationError):
        random_model(dim=4, seed=0, spectrum=(0.0, 1.0))


# ---------------------------------------------------------------------------
# Config parsing
# ---------------------------------------------------------------------------


def test_model_from_config_round_trip():
    cases = [
        ({"name": "qubit"}, "qubit"),
        ({"name": "oscillator", "dim": 4}, "oscillator4"),
        ({"name": "line", "n_grid": 16}, "line16"),
        ({"name": "torus", "n_grid": 12}, "torus12"),
        ({"name": "random", "dim": 3, "seed": 7}, "random3_seed7"),
    ]
    for config, model_id in cases:
        model = model_from_config(config)
        assert model.model_id == model_id
        assert model.adjoint_closure_defect() < 1e-12


def test_model_from_config_rejections():
    with pytest.raises(ValidationError):
        model_from_config({"name": "fancy"})
    with pytest.raises(ValidationError):
        model_from_config({"name": "oscillator", "dim": 4, "extra": 1})
    with pytest.raises(ValidationError):
        model_from_config({"dim": 4})


def test_benchmark_models_cover_the_four_families():
    ids = [model.model_id for model in benchmark_models()]
    assert ids == ["qubit", "oscillator6", "line16", "torus12"]


# ---------------------------------------------------------------------------
# One cached, read-only spectral frame per model
# ---------------------------------------------------------------------------


def test_eigensystem_is_computed_once():
    model = random_model(dim=4)
    assert model.eigensystem() is model.eigensystem()
    assert model.frame is model.frame


def test_model_and_frame_arrays_are_read_only():
    model = oscillator_model(6)
    frame = model.frame
    for array in (
        model.hamiltonian,
        model.jumps[0],
        model.eigensystem().eigenvectors,
        frame.jumps_eig[0],
        frame.spectrum.pair_index,
    ):
        with pytest.raises(ValueError):
            array[0, 0] = 7.0


def test_replace_gets_a_fresh_frame():
    model = random_model(dim=4, n_jump_pairs=2)
    frame = model.frame
    doubled = dataclasses.replace(model, jumps=tuple(2.0 * a for a in model.jumps))
    assert doubled.frame is not frame
    assert doubled.eigensystem() is not model.eigensystem()
    for got, jump in zip(doubled.frame.jumps_eig, frame.jumps_eig, strict=True):
        assert np.array_equal(got, 2.0 * jump)
    assert doubled.frame.jump_norm_squared_sum == pytest.approx(4.0 * frame.jump_norm_squared_sum)
    assert model.frame is frame
