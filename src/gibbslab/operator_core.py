"""Dense linear-algebra primitives for finite-dimensional operator calculations.

Conventions used throughout the package:

* Operators are dense complex ``numpy`` arrays of shape ``(d, d)``.
* Vectorization is column-stacking, ``vec(X)[i + d*j] = X[i, j]``
  (``X.reshape(-1, order="F")``).  Under this convention

      vec(A X B) = (B^T kron A) vec(X),

  so a left multiplication is ``kron(I, A)`` and a right multiplication is
  ``kron(B^T, I)``.
* Hermitian eigendecompositions return eigenvalues in ascending order with
  orthonormal eigenvector columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

__all__ = [
    "EigenSystem",
    "dagger",
    "devectorize",
    "eig_hermitian",
    "vectorize",
]

HERMITICITY_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-10


def _as_square_array(matrix: np.ndarray) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"matrix must be a square 2-D array, got shape {arr.shape}")
    out = arr.astype(np.complex128, copy=False)
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise ValidationError("matrix contains non-finite entries")
    return out


def dagger(matrix: np.ndarray) -> np.ndarray:
    """Conjugate transpose, of each matrix of a stack ``(..., d, d)``."""
    return np.swapaxes(np.asarray(matrix).conj(), -1, -2)


@dataclass(frozen=True)
class EigenSystem:
    """Eigendecomposition of a Hermitian matrix.

    Attributes:
        eigenvalues: real eigenvalues in ascending order, shape ``(d,)``.
        eigenvectors: unitary matrix whose columns are the eigenvectors,
            shape ``(d, d)``; column ``k`` belongs to ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Return ``U diag(E) U^dag``."""
        u = self.eigenvectors
        return (u * self.eigenvalues) @ dagger(u)

    def gibbs_state(self) -> np.ndarray:
        """Normalised Gibbs density ``e^{-A} / tr e^{-A}`` of the matrix.

        Computed through the spectrum with the smallest eigenvalue
        subtracted before exponentiating, so no underflow occurs for wide
        spectra.
        """
        u = self.eigenvectors
        ground = float(self.eigenvalues[0])
        rho = (u * np.exp(-(self.eigenvalues - ground))) @ dagger(u)
        rho = 0.5 * (rho + dagger(rho))
        return rho / np.trace(rho).real

    def to_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Rotate an operator into the eigenbasis: ``U^dag A U``."""
        u = self.eigenvectors
        return dagger(u) @ np.asarray(matrix, dtype=np.complex128) @ u

    def from_eigenbasis(self, matrix: np.ndarray) -> np.ndarray:
        """Rotate an eigenbasis operator back: ``U A U^dag``."""
        u = self.eigenvectors
        return u @ np.asarray(matrix, dtype=np.complex128) @ dagger(u)


def eig_hermitian(matrix: np.ndarray) -> EigenSystem:
    """Eigendecomposition of a Hermitian matrix with validation.

    Args:
        matrix: square Hermitian array.

    Returns:
        EigenSystem with ascending eigenvalues and orthonormal eigenvectors.

    Raises:
        ValidationError: if the input is not square or not Hermitian within
            ``HERMITICITY_TOL`` relative, or if the reconstruction error is
            unexpectedly large.
    """
    arr = _as_square_array(matrix)
    scale = max(1.0, float(np.linalg.norm(arr)))
    defect = float(np.linalg.norm(arr - dagger(arr)))
    if defect > HERMITICITY_TOL * scale:
        raise ValidationError(
            f"matrix is not Hermitian: ||A - A^dag||_F = {defect:.3e} "
            f"exceeds {HERMITICITY_TOL:.1e} * max(1, ||A||_F) = {HERMITICITY_TOL * scale:.3e}"
        )
    sym = 0.5 * (arr + dagger(arr))
    eigenvalues, eigenvectors = np.linalg.eigh(sym)
    system = EigenSystem(eigenvalues=eigenvalues, eigenvectors=eigenvectors)
    recon = float(np.linalg.norm(system.reconstruct() - sym))
    if recon > RECONSTRUCTION_TOL * scale:
        raise ValidationError(
            f"eigendecomposition reconstruction error {recon:.3e} exceeds "
            f"{RECONSTRUCTION_TOL:.1e} * max(1, ||A||_F)"
        )
    return system


def vectorize(matrix: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization: ``vec(X)[i + d*j] = X[i, j]``."""
    arr = _as_square_array(matrix)
    return arr.reshape(-1, order="F")


def devectorize(vector: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`vectorize` for ``dim x dim`` matrices."""
    vec = np.asarray(vector).reshape(-1)
    if dim * dim != vec.size:
        raise ValidationError(f"vector of length {vec.size} is not a flattened square matrix")
    return vec.reshape((dim, dim), order="F")
