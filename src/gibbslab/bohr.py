"""Bohr frequencies and frequency decompositions of operators.

For a Hermitian ``P`` with eigenvalues ``E_1 <= ... <= E_d``, the Bohr
frequencies are the distinct differences ``E_i - E_j``.  Every operator ``A``
splits into frequency components

    A = sum_nu A_nu,      A_nu = sum_{E_i - E_j = nu} 1_{E_i} A 1_{E_j},

where ``1_E`` projects onto the eigenspace of ``E``.  The components satisfy

    [P, A_nu] = nu * A_nu,
    exp(sP) A_nu exp(-sP) = exp(s nu) A_nu,
    (A^dag)_(-nu) = (A_nu)^dag.

Floating-point spectra never repeat differences exactly, so nearby differences
are merged by greedy single-linkage clustering of the absolute differences
sorted ascending: a new cluster starts whenever the gap to the current
cluster's smallest member exceeds ``cluster_tol`` (a diameter cap).  Clustering
magnitudes rather than signed values makes the representative set exactly
closed under negation; the cluster containing the diagonal differences is
pinned to frequency zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .operator_core import EigenSystem, dagger, eig_hermitian

__all__ = [
    "BohrDecomposition",
    "BohrSpectrum",
    "COMPONENT_DROP_SCALE",
    "DEFAULT_CLUSTER_SCALE",
    "bohr_spectrum",
    "decompose",
]

# Default cluster_tol = DEFAULT_CLUSTER_SCALE * (E_max - E_min).
DEFAULT_CLUSTER_SCALE = 1e-9


@dataclass(frozen=True)
class BohrSpectrum:
    """Clustered Bohr frequencies of a Hermitian matrix.

    Attributes:
        frequencies: representative frequencies, ascending, exactly closed
            under negation, always containing 0.
        pair_index: integer array of shape ``(d, d)``; ``pair_index[i, j]`` is
            the index into ``frequencies`` of the cluster that the difference
            ``E_i - E_j`` belongs to.
        max_cluster_diameter: largest spread of raw differences mapped to a
            single representative (a clustering-quality diagnostic).
    """

    frequencies: np.ndarray
    pair_index: np.ndarray
    max_cluster_diameter: float

    @property
    def dim(self) -> int:
        return self.pair_index.shape[0]

    @property
    def size(self) -> int:
        return self.frequencies.shape[0]


def _cluster_starts(values: np.ndarray, tol: float) -> np.ndarray:
    """First index of each greedy single-linkage cluster of an ascending
    array with diameter cap ``tol``.

    The greedy scan starts a cluster at ``k`` when ``values[k]`` exceeds the
    current cluster's first member by more than ``tol``.  Every gap larger
    than ``tol`` is such a start, since subtraction is monotone; between
    those gaps a run whose whole diameter is within ``tol`` is one cluster,
    so the scan runs only on the wider runs.
    """
    cuts = np.nonzero(values[1:] - values[:-1] > tol)[0] + 1
    runs = np.concatenate(([0], cuts))
    run_lasts = np.concatenate((cuts - 1, [values.size - 1]))
    wide = values[run_lasts] - values[runs] > tol
    if not wide.any():
        return runs
    extra = []
    for first, last in zip(runs[wide].tolist(), run_lasts[wide].tolist()):
        start = first
        for k in range(first + 1, last + 1):
            if values[k] - values[start] > tol:
                extra.append(k)
                start = k
    return np.sort(np.concatenate((runs, extra))) if extra else runs


# np.mean sums fewer members than this one after another, and more pairwise.
_SEQUENTIAL_MEAN = 8


def bohr_spectrum(
    source: np.ndarray | EigenSystem, cluster_tol: float | None = None
) -> BohrSpectrum:
    """Cluster the pairwise eigenvalue differences of a Hermitian matrix.

    Args:
        source: Hermitian matrix or a precomputed :class:`EigenSystem`.
        cluster_tol: diameter cap for merging nearby differences.  Defaults to
            ``1e-9`` times the spectral width ``E_max - E_min``.

    Returns:
        BohrSpectrum with negation-closed representatives and the pair map.
    """
    system = source if isinstance(source, EigenSystem) else eig_hermitian(source)
    energies = system.eigenvalues
    d = energies.shape[0]
    width = float(energies[-1] - energies[0])
    if cluster_tol is None:
        cluster_tol = DEFAULT_CLUSTER_SCALE * width
    if cluster_tol < 0:
        raise ValidationError(f"cluster_tol must be nonnegative, got {cluster_tol!r}")

    diff = energies[:, None] - energies[None, :]
    magnitudes = np.abs(diff).reshape(-1)
    order = np.argsort(magnitudes, kind="stable")
    sorted_mags = magnitudes[order]

    starts = _cluster_starts(sorted_mags, cluster_tol)
    lasts = np.concatenate((starts[1:] - 1, [d * d - 1]))
    sizes = lasts - starts + 1
    cluster_of_flat = np.empty(d * d, dtype=np.intp)
    cluster_of_flat[order] = np.repeat(np.arange(starts.size), sizes)

    # Representatives are the clusters' np.mean, bit for bit: below
    # _SEQUENTIAL_MEAN members summed here one member after another, as it
    # does, for all clusters at once (padded with +0.0, which adds exactly);
    # np.mean itself for the few larger ones.
    offsets = np.arange(min(int(sizes.max()), _SEQUENTIAL_MEAN))
    members = np.where(
        offsets < sizes[:, None],
        sorted_mags[np.minimum(starts[:, None] + offsets, lasts[:, None])],
        0.0,
    )
    sums = members[:, 0]
    for t in offsets[1:].tolist():
        sums = sums + members[:, t]
    reps = sums / sizes
    for cid in np.nonzero(sizes >= _SEQUENTIAL_MEAN)[0].tolist():
        reps[cid] = sorted_mags[starts[cid] : lasts[cid] + 1].mean()
    max_diameter = max(0.0, float(np.max(sorted_mags[lasts] - sorted_mags[starts])))
    # The diagonal differences are exactly zero and always land in cluster 0;
    # near-degenerate transitions merged with them are treated as degenerate.
    reps[0] = 0.0

    # Build the signed representative list: frequencies ascending, closed
    # under negation by construction.
    positive = reps[1:]
    frequencies = np.concatenate([-positive[::-1], [0.0], positive])

    zero_index = positive.size
    magnitude_cluster = cluster_of_flat.reshape(d, d)
    sign = np.sign(diff).astype(np.intp)
    # magnitude cluster c > 0 maps to zero_index + c for positive differences
    # and zero_index - c for negative ones; cluster 0 maps to zero_index.
    pair_index = zero_index + sign * magnitude_cluster

    return BohrSpectrum(
        frequencies=frequencies,
        pair_index=pair_index,
        max_cluster_diameter=max_diameter,
    )


# Components whose Frobenius norm falls below this fraction of ||A||_F are
# dropped from a decomposition: they are numerical dust from the basis
# rotation, not genuine transition amplitudes.
COMPONENT_DROP_SCALE = 1e-14


@dataclass(frozen=True)
class BohrDecomposition:
    """Frequency components of one operator.

    Only components above the drop threshold are retained.

    Attributes:
        spectrum: the Bohr spectrum used for the split.
        frequency_indices: indices into ``spectrum.frequencies`` of the
            retained components, ascending.
        components: array of shape ``(k, d, d)``; ``components[i]`` is the
            component at ``spectrum.frequencies[frequency_indices[i]]``,
            expressed in the same basis as the original operator.
    """

    spectrum: BohrSpectrum
    frequency_indices: np.ndarray
    components: np.ndarray

    @property
    def frequencies(self) -> np.ndarray:
        """Frequencies of the retained components, ascending."""
        return self.spectrum.frequencies[self.frequency_indices]


def decompose(
    operator: np.ndarray,
    system: EigenSystem,
    spectrum: BohrSpectrum | None = None,
) -> BohrDecomposition:
    """Split an operator into Bohr-frequency components.

    Args:
        operator: square matrix in the same basis as the matrix behind
            ``system``.
        system: eigendecomposition of the Hermitian reference matrix.
        spectrum: optional precomputed spectrum (built from ``system`` if
            omitted).

    Returns:
        BohrDecomposition whose retained components sum to ``operator`` up to
        the drop threshold (the masks partition the matrix entries; pieces
        below ``1e-14 * ||A||_F`` are discarded).
    """
    if spectrum is None:
        spectrum = bohr_spectrum(system)
    arr = np.asarray(operator, dtype=np.complex128)
    d = spectrum.dim
    if arr.shape != (d, d):
        raise ValidationError(f"operator shape {arr.shape} does not match dimension {d}")
    in_basis = system.to_eigenbasis(arr)
    components = np.zeros((spectrum.size, d, d), dtype=np.complex128)
    flat_index = spectrum.pair_index.reshape(-1)
    rows, cols = np.divmod(np.arange(d * d), d)
    components[flat_index, rows, cols] = in_basis[rows, cols]
    u = system.eigenvectors
    components = np.einsum("ab,kbc,cd->kad", u, components, dagger(u), optimize=True)
    norms = np.linalg.norm(components, axis=(1, 2))
    keep = np.nonzero(norms >= COMPONENT_DROP_SCALE * float(np.linalg.norm(arr)))[0]
    return BohrDecomposition(
        spectrum=spectrum,
        frequency_indices=keep,
        components=components[keep],
    )
