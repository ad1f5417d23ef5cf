"""Dense primitives: stacking conventions, spectral calculus, norms."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gibbslab.errors import ValidationError
from gibbslab.generators import _add_drift
from gibbslab.operator_core import (
    dagger,
    devectorize,
    eig_hermitian,
    vectorize,
)

import oracles


def _random_complex(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _random_hermitian(rng, d):
    z = _random_complex(rng, d)
    return 0.5 * (z + z.conj().T)


dims = st.integers(min_value=1, max_value=6)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


@given(dims, seeds)
def test_vectorize_round_trip(d, seed):
    rng = np.random.default_rng(seed)
    a = _random_complex(rng, d)
    assert np.array_equal(devectorize(vectorize(a), d), a)


@given(dims, seeds)
def test_vectorize_is_column_stacking(d, seed):
    rng = np.random.default_rng(seed)
    a = _random_complex(rng, d)
    assert np.array_equal(vectorize(a), oracles.vec_column(a))


@given(dims, seeds)
def test_superop_factors_act_like_matmul(d, seed):
    """The in-place drift add is the superoperator of ``T -> Y^dag T + T Y``."""
    rng = np.random.default_rng(seed)
    y, t = (_random_complex(rng, d) for _ in range(2))
    superop = np.zeros((d * d, d * d), dtype=np.complex128)
    _add_drift(superop, y)
    by_columns = oracles.superoperator_by_columns(lambda x: dagger(y) @ x + x @ y, d)
    assert np.linalg.norm(superop - by_columns) < 1e-14 * np.linalg.norm(by_columns)
    moved = devectorize(superop @ vectorize(t), d)
    expected = dagger(y) @ t + t @ y
    assert np.linalg.norm(moved - expected) < 1e-12 * max(1.0, np.linalg.norm(expected))


def test_superop_matrices_match_column_assembly():
    """Added onto a full superoperator, the drift lands only where
    ``T -> Y^dag T + T Y`` has entries."""
    rng = np.random.default_rng(7)
    y = _random_complex(rng, 4)
    base = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
    superop = base.copy()
    _add_drift(superop, y)
    by_columns = oracles.superoperator_by_columns(lambda t: dagger(y) @ t + t @ y, 4)
    assert np.linalg.norm(superop - (base + by_columns)) < 1e-12
    assert np.array_equal(superop[by_columns == 0], base[by_columns == 0])


def test_eig_hermitian_reconstructs_and_orders():
    rng = np.random.default_rng(3)
    h = _random_hermitian(rng, 5)
    system = eig_hermitian(h)
    assert np.all(np.diff(system.eigenvalues) >= 0.0)
    assert np.linalg.norm(system.reconstruct() - h) < 1e-12
    unitary_defect = np.linalg.norm(
        system.eigenvectors @ dagger(system.eigenvectors) - np.eye(5)
    )
    assert unitary_defect < 1e-13


def test_eig_hermitian_rejects_non_hermitian():
    with pytest.raises(ValidationError):
        eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_basis_rotation_round_trip():
    rng = np.random.default_rng(4)
    h = _random_hermitian(rng, 4)
    system = eig_hermitian(h)
    a = _random_complex(rng, 4)
    back = system.from_eigenbasis(system.to_eigenbasis(a))
    assert np.linalg.norm(back - a) < 1e-12
    rotated_h = system.to_eigenbasis(h)
    assert np.linalg.norm(rotated_h - np.diag(system.eigenvalues)) < 1e-12


def test_matrix_function_matches_expm():
    """The Gibbs density through the spectrum is the normalised dense
    matrix exponential."""
    rng = np.random.default_rng(5)
    h = _random_hermitian(rng, 5)
    via_spectrum = eig_hermitian(h).gibbs_state()
    assert np.linalg.norm(via_spectrum - oracles.gibbs_expm(h)) < 1e-11


def test_schatten_norms_against_numpy():
    rng = np.random.default_rng(6)
    a = _random_complex(rng, 5)
    singulars = np.linalg.svd(a, compute_uv=False)
    assert oracles.schatten_norm(a, 1) == pytest.approx(np.sum(singulars), rel=1e-12)
    assert oracles.schatten_norm(a, 2) == pytest.approx(np.linalg.norm(a), rel=1e-12)
    assert oracles.schatten_norm(a, np.inf) == pytest.approx(singulars[0], rel=1e-12)


def test_schatten_monotone_in_p():
    rng = np.random.default_rng(8)
    a = _random_complex(rng, 4)
    p1, p2, pinf = (oracles.schatten_norm(a, p) for p in (1, 2, np.inf))
    assert p1 >= p2 >= pinf


def test_trace_distance_properties():
    rng = np.random.default_rng(9)
    a, b = _random_hermitian(rng, 4), _random_hermitian(rng, 4)
    assert oracles.trace_distance(a, a) == 0.0
    assert oracles.trace_distance(a, b) == pytest.approx(oracles.trace_distance(b, a), rel=1e-12)
    half_trace_norm = 0.5 * oracles.schatten_norm(a - b, 1)
    assert oracles.trace_distance(a, b) == pytest.approx(half_trace_norm, rel=1e-12)


def test_dagger_is_conjugate_transpose():
    a = np.array([[1.0 + 2j, 3.0], [4j, 5.0]])
    assert np.array_equal(dagger(a), a.conj().T)
    stack = np.array([a, 2j * a, a.T])
    assert np.array_equal(dagger(stack), np.array([m.conj().T for m in stack]))


def test_shape_validation():
    with pytest.raises(ValidationError):
        vectorize(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        devectorize(np.zeros(5), 2)
