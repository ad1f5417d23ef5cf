"""Generator assembly: unfiltered detailed-balance generators and the
Gaussian-filtered balanced construction.

Both generator kinds act on density matrices as

    L(T) = -i [P + B, T]
           + sum_A sum_{nu, nu'} C(nu, nu') ( A_nu T A_nu'^dag
                                              - (1/2) { A_nu^dag A_nu', T } ),

differing only in the coupling ``C`` and the coherent matrix ``B``:

* the unfiltered (``davies``) generator couples only equal frequencies,
  ``C = diag(gamma)`` with ``gamma`` satisfying detailed balance, and has
  ``B = 0``;

* the filtered (``localised``) generator uses the full overlap table
  ``C = G`` of a balanced weight together with the coherent matrix

      B = sum_A sum_{nu, nu'} b(nu, nu') A_nu^dag A_nu',

  where ``b`` is the coherent pair table that ``oft.overlap_table`` builds
  alongside ``G`` from one evaluation of the smoothed weight.  The
  orientation of its odd factor (argument ``nu - nu'``) is the one that
  makes ``L(e^{-P}) = 0``; it is verified against an independent
  time-domain assembly by the calibration report.

Every non-sandwich term of ``L`` is ``Y^dag T + T Y`` with the effective
drift ``Y = i(P + B) - (1/2) sum_A sum C(nu, nu') A_nu^dag A_nu'``, so both
families share one assembly: the sandwich of a coupling table contracted
over the Bohr pair map, in the Hamiltonian's eigenbasis, plus
``Y^dag T + T Y``.  One pair contraction gives ``B`` and the drift's kernel.
The sandwich is computed whole, or, when its coupling's live band holds
less than two thirds of its entries, on that band only: with the
eigenbasis pairs sorted by frequency, each pair's live partners lie in one
window of the coupling's row, and every entry outside the windows is the
``+0`` the full sum gives there (a Davies coupling is diagonal, a filtered
one zero past the exponent cap).  Over a real frame (real eigenbasis jumps,
a real coupling) the sandwich is float64, the complex sum's real part.
A bundle keeps the eigenbasis sandwich and the eigenbasis drift
``Y_eig = i(diag(E) + U^dag B U) - M_eig/2``, built from its pieces, and its
checks act there: every identity they test holds in any unitary basis.  The
original-basis superoperator, the sandwich rotated (a conjugation of its four
tensor modes, O(d^5)) plus ``Y^dag T + T Y`` added in place into the 2 d^3
entries it fills, is computed only when it is first read.
The bundle keeps the table it contracted as ``coupling``.  The filtered
dissipator has a second path, ``omega_quadrature``, which never reads the
overlap table: it puts its own quadrature nodes ``w_n`` with weights
``gw_n = gamma(w_n) q_n`` (``q_n`` the panel rule's weights) on the filtered
transform and contracts the node-sum table
``K(nu, nu') = sum_n gw_n fhat(w_n - nu) fhat(w_n - nu')`` in place of
``G``.  Its nodes sit on a kink-aligned window lattice laid about the Bohr
frequencies only, so their count does not grow as ``sigma`` falls, and
``G``, in closed form or on Gauss-Hermite nodes, shares none of them.
``K`` is a Gram table, so the sum is completely positive by construction.  Since the two paths share the contraction, the rotation and
the coherent matrix, they can differ only in their tables, and the
standing consistency check compares ``G`` with ``K`` directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .bohr import BohrSpectrum
from .errors import ValidationError
from .evolution import Propagator
from .models import _ADJOINT_CLOSURE_TOL, Model
from .oft import _UNDERFLOW_FLOOR, OverlapTable, _drop_underflow, overlap_table
from .operator_core import (
    EigenSystem,
    dagger,
    devectorize,
    vectorize,
)
from .weights import (
    GaussianFilter,
    WeightFunction,
    _require_spectral_width,
    _window_quadrature,
    balanced_gamma,
    coherent_time_envelope,
    coherent_time_kernel,
    coherent_time_kernel_l1,
    delocalised_limit_gamma,
    kms_defect,
)

__all__ = [
    "GeneratorBundle",
    "coherent_calibration_report",
    "coherent_matrix_bohr",
    "davies_generator",
    "davies_limit_report",
    "dual_path_residual",
    "effective_drift_abscissa",
    "hermiticity_preservation_defect",
    "localised_generator",
    "stationarity_report",
    "trace_functional_defect",
]

# The coupling tables a filtered generator can contract (its ``path``).
_ASSEMBLY_PATHS = ("bohr_sum", "omega_quadrature")

_KMS_GRID_TOL = 1e-12
_B_HERMITICITY_TOL = 1e-10
# Nodes per block of the node-sum table, which bounds its nodes x frequencies
# temporaries.  The window lattice lays at most 528 nodes a Bohr frequency;
# the line models at sigma = 1 need 472 in all: one block.  A block reads
# only the frequencies in its reach, so at small sigma each of its Gram
# products is a few frequencies square.
_NODE_CHUNK = 2048


@dataclass(frozen=True)
class GeneratorBundle:
    """An assembled generator with its parts and assembly provenance.

    The generator is kept in the eigenbasis of the model's Hamiltonian
    (:attr:`system`): ``sandwich`` is the column-stacked superoperator of
    ``T -> sum C(nu, nu') A_nu T A_nu'^dag`` there and ``eigen_drift`` the
    drift ``Y_eig``, so that ``L_eig(T) = sandwich(T) + Y_eig^dag T + T Y_eig``
    (:meth:`eigen_action`).  The sandwich is float64 when the frame's
    eigenbasis jumps and the coupling are real (every structured model),
    complex otherwise (:func:`_bohr_sum_dissipator`).  :attr:`superoperator`
    is the generator in the model's original basis,
    ``vec(L(T)) = superoperator @ vec(T)``: the rotated sandwich, read as
    complex, plus ``T -> Y^dag T + T Y``, ``Y = effective_drift``.  It
    is rotated when first read and cached read-only, so the cached step
    exponentials of :attr:`propagator` cannot go stale.  ``coupling`` is the
    table ``C(nu, nu')`` contracted over the Bohr pair map:
    ``diag(gamma)``, the overlap table ``G`` or the node-sum table ``K``.
    The eigensystem and the Bohr spectrum are read from the model's frame,
    not stored again.
    """

    kind: str  # "davies" | "localised"
    assembly_path: str  # "bohr_sum" | "omega_quadrature"
    model: Model
    weight: WeightFunction
    sandwich: np.ndarray
    eigen_drift: np.ndarray
    coupling: np.ndarray
    coherent_matrix: np.ndarray
    effective_drift: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.model.dim

    @property
    def system(self) -> EigenSystem:
        return self.model.eigensystem()

    @property
    def spectrum(self) -> BohrSpectrum:
        return self.model.frame.spectrum

    @cached_property
    def superoperator(self) -> np.ndarray:
        """The generator in the original basis (rotated on first read)."""
        superop = _rotate_superop(self.system, self.sandwich)
        _add_drift(superop, self.effective_drift)
        superop.flags.writeable = False
        return superop

    @cached_property
    def gibbs_state(self) -> np.ndarray:
        """The model's Gibbs density ``e^{-P} / tr e^{-P}`` from ``system``,
        computed on first read and cached read-only: the reference of every
        trajectory's Gibbs distance."""
        rho = self.system.gibbs_state()
        rho.flags.writeable = False
        return rho

    @cached_property
    def propagator(self) -> Propagator:
        """Step exponentials of this generator, shared by every evolution
        function called on the bundle (``dataclasses.replace`` starts a new
        cache)."""
        return Propagator(self.superoperator)

    def eigen_action(self, operators: np.ndarray) -> np.ndarray:
        """``L_eig`` on a stack ``(n, d, d)`` of eigenbasis operators: one
        ``(d^2, n)`` product with the sandwich plus ``Y_eig^dag T + T Y_eig``.
        A real sandwich multiplies the ``(d^2, 2n)`` float64 view of the
        complex columns, so it is never copied to complex."""
        ts = np.asarray(operators, dtype=np.complex128)
        n, d = ts.shape[0], self.dim
        # Column k of the stack is vec(T_k), T_k^T read in row order; each
        # image is read back the same way.
        columns = np.ascontiguousarray(ts.transpose(2, 1, 0).reshape(d * d, n))
        if np.iscomplexobj(self.sandwich):
            images = self.sandwich @ columns
        else:
            # Read as float64 the stack is (d^2, 2n), real and imaginary
            # parts side by side: one real product applies the sandwich to both.
            images = (self.sandwich @ columns.view(np.float64)).view(np.complex128)
        images = images.reshape(d, d, n).transpose(2, 1, 0)
        y = self.eigen_drift
        return images + dagger(y) @ ts + ts @ y


def _require_assembly_path(path) -> None:
    """Refuse a ``path`` that is not one of ``_ASSEMBLY_PATHS``."""
    if path not in _ASSEMBLY_PATHS:
        raise ValidationError(f"unknown assembly path {path!r}; known: {list(_ASSEMBLY_PATHS)}")


def _validate_jump_family(model: Model) -> dict:
    frame = model.frame
    defect = frame.adjoint_closure_defect
    if defect > _ADJOINT_CLOSURE_TOL:
        raise ValidationError(
            f"jump family of {model.model_id!r} is not closed under the adjoint "
            f"(worst distance {defect:.3e})"
        )
    return {
        "adjoint_closure_defect": defect,
        "jump_norm_squared_sum": frame.jump_norm_squared_sum,
    }


def _pair_sum(
    jumps_eig: list[np.ndarray], table: np.ndarray, pair_index: np.ndarray
) -> np.ndarray:
    """``sum_A sum_{nu, nu'} T(nu, nu') A_nu^dag A_nu'`` in the eigenbasis.

    ``T`` is gathered at the frequencies of the pairs ``(p, i)`` and
    ``(p, k)``; ``A_nu^dag A_nu'`` has entries ``conj(A_pi) A_pk``.  The
    contraction is written out in the order ``einsum(optimize=True)`` picks
    (``conj(A_pi) T_pik``, then the sum over ``p`` against ``A_pk``), which
    gives the same bits without its path search.
    """
    table3 = table[pair_index[:, :, None], pair_index[:, None, :]]
    d = pair_index.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    for a in jumps_eig:
        out += np.einsum("pik,pk->ik", a.conj()[:, :, None] * table3, a)
    return out


class _LiveBand(NamedTuple):
    """Where the sandwich of a coupling table can be nonzero, in tiles.

    ``order`` sorts the eigenbasis pairs (flat ``i d + k``) by frequency
    index, stably.  Sorted so, the live column pairs ``(j, l)`` of a row
    pair ``(i, k)`` lie in one window, ``width`` pairs from ``lo``: from the
    first to the last nonzero of the coupling's row at the row pair's
    frequency (none if it has no nonzero).  The rows are cut into tiles of
    about ``_BAND_TILE`` candidate entries.  A tile whose windows fill at
    least half of their union is computed as one ``(start, stop, lo, hi)``
    rectangle, and the rows of every other tile, the ``(start, stop)`` runs
    of ``ragged``, each on its own window.  ``entries`` counts the sandwich
    entries so computed.
    """

    order: np.ndarray
    lo: np.ndarray
    width: np.ndarray
    rectangles: list[tuple[int, int, int, int]]
    ragged: list[tuple[int, int]]
    entries: int


# Candidate entries a tile of the live band, and about how many entries of
# the ragged windows are summed at once: both bound the temporaries.
_BAND_TILE = 1 << 13


def _live_band(coupling: np.ndarray, pair_index: np.ndarray) -> _LiveBand | None:
    """The tiles of the live band of ``coupling`` over the pair map, or
    ``None`` when the sandwich is cheaper computed whole.

    An entry of the band costs about one and a half of the dense sum's (its
    writes are scattered), so the sandwich is computed whole when its live
    windows, or the tiles that would cover them, hold two thirds of its
    ``d^4`` entries.  The live windows are counted before the pairs are
    sorted, so a sandwich that is computed whole skips the sort and the
    tiling.
    """
    d = pair_index.shape[0]
    n = d * d
    m = coupling.shape[0]
    freq = pair_index.reshape(-1)
    live = coupling != 0
    has_live = live.any(axis=1)
    first = live.argmax(axis=1)
    last = m - 1 - live[:, ::-1].argmax(axis=1)
    # Sorted by frequency, the pairs of frequency f start at below[f].
    pairs_of = np.bincount(freq, minlength=m)
    below = np.concatenate(([0], np.cumsum(pairs_of)))
    lo_of = below[first]
    width_of = (below[last + 1] - lo_of) * has_live
    if 3 * int(pairs_of @ width_of) >= 2 * n * n:
        return None
    order = np.argsort(freq, kind="stable")
    row_freq = freq[order]
    lo, width = lo_of[row_freq], width_of[row_freq]

    rectangles, ragged, entries = [], [], 0
    tile_rows = max(1, _BAND_TILE // n)
    starts = np.arange(0, n, tile_rows)
    tiles = zip(
        starts.tolist(),
        np.minimum.reduceat(lo, starts).tolist(),
        np.maximum.reduceat(lo + width, starts).tolist(),
        np.add.reduceat(width, starts).tolist(),
    )
    for start, tile_lo, tile_hi, tile_live in tiles:
        stop = min(start + tile_rows, n)
        area = (stop - start) * (tile_hi - tile_lo)
        if tile_live and 2 * tile_live >= area:
            rectangles.append((start, stop, tile_lo, tile_hi))
            entries += area
        elif tile_live:
            ragged.append((start, stop))
            entries += tile_live
    if 3 * entries >= 2 * n * n:
        return None
    return _LiveBand(order, lo, width, rectangles, ragged, entries)


def _ragged_chunks(band: _LiveBand):
    """``(rows, cols)``: the windows of the band's ragged rows as flat pairs
    of indices into ``band.order``, in chunks of about ``_BAND_TILE``
    entries."""
    if not band.ragged:
        return
    rows = np.concatenate([np.arange(start, stop) for start, stop in band.ragged])
    widths = band.width[rows]
    ends = np.cumsum(widths)
    start = 0
    while start < rows.size:
        first = int(ends[start] - widths[start])
        stop = max(start + 1, int(np.searchsorted(ends, first + _BAND_TILE, "right")))
        w = widths[start:stop]
        # Entry e of a row sits at column lo + (e - the row's first entry).
        shift = band.lo[rows[start:stop]] - (ends[start:stop] - w)
        yield np.repeat(rows[start:stop], w), np.arange(first, ends[stop - 1]) + np.repeat(shift, w)
        start = stop


def _bohr_sum_dissipator(
    jumps_eig: list[np.ndarray], coupling: np.ndarray, pair_index: np.ndarray
) -> tuple[np.ndarray, int]:
    """Eigenbasis superoperator of the sandwich
    ``T -> sum_A sum_{nu, nu'} C(nu, nu') A_nu T A_nu'^dag`` of a coupling
    table contracted over the Bohr pair map, and how many of its entries
    were computed.

    Entry ``(j d + i, l d + k)`` of the column-stacked matrix is
    ``sum_A (A_ik conj(A_jl)) C(nu_ik, nu_jl)``, summed over the jumps in
    order from zero.  The sandwich is computed either whole, or only on the
    tiles of its coupling's live band (:func:`_live_band`), with that same
    sequence of operations.  Every other entry is ``+0``, which is also what
    the sum gives where ``C`` is zero, so the matrix is the dense sum's bit
    for bit (``tests/oracles.py``'s ``bohr_sum_dissipator_dense``).  A
    Davies coupling is diagonal and a filtered one zero past the exponent
    cap: a line32 Davies sandwich computes 0.4 % of its entries.

    The output's type follows the inputs: when no eigenbasis jump has a
    nonzero imaginary part and the coupling is real, the sum is taken in
    float64.  Each product then equals the real part of the complex one, and
    every sum starts from ``+0``, so the matrix is the complex sum's real
    part bit for bit, at half the bytes; that sum's imaginary part is ``+0``
    in every entry.
    """
    band = _live_band(coupling, pair_index)
    d = pair_index.shape[0]
    n = d * d
    jumps = np.reshape(jumps_eig, (-1, d, d))
    if not np.iscomplexobj(coupling) and not jumps.imag.any():
        jumps = np.ascontiguousarray(jumps.real)
    dtype = np.result_type(jumps, coupling)
    conj = jumps.conj()
    out = np.zeros(n * n, dtype=dtype)

    if band is None:
        # Slab j of the sandwich holds the rows (i, j); its entry [i, l, k],
        # in column (k, l), pairs (i, k) with (j, l).
        blocks = out.reshape(d, d, d, d)
        term = np.empty((d, d, d), dtype=dtype)
        for j in range(d):
            c = coupling.take(pair_index[j], axis=1).take(pair_index, axis=0)
            c = np.ascontiguousarray(c.transpose(0, 2, 1))
            for a, a_conj in zip(jumps, conj):
                np.multiply(a[:, None, :], a_conj[j][None, :, None], out=term)
                term *= c
                blocks[j] += term
        return out.reshape(n, n), n * n

    # Flat entry (j d + i) d^2 + (l d + k) is the part i d^2 + k of the row
    # pair (i, k) plus d times that part of the column pair (j, l).
    order = band.order
    row_part = order + (order // d) * (n - d)
    col_part = d * row_part
    sorted_freq = pair_index.reshape(-1)[order]
    pairs = list(zip(jumps.reshape(-1, n)[:, order], conj.reshape(-1, n)[:, order]))

    def add_tile(at_rows, at_cols, values):
        acc = np.zeros(values.shape, dtype=dtype)
        product = np.empty_like(acc)
        for a, a_conj in pairs:
            np.multiply(a[at_rows], a_conj[at_cols], out=product)
            product *= values
            acc += product
        # Flat index and values: numpy scatters a 1-D index fastest.
        out[(row_part[at_rows] + col_part[at_cols]).reshape(-1)] = acc.reshape(-1)

    for start, stop, lo, hi in band.rectangles:
        values = coupling.take(sorted_freq[start:stop], axis=0).take(sorted_freq[lo:hi], axis=1)
        add_tile(np.s_[start:stop, None], np.s_[None, lo:hi], values)
    flat = coupling.reshape(-1)
    for at_rows, at_cols in _ragged_chunks(band):
        values = flat.take(sorted_freq[at_rows] * coupling.shape[0] + sorted_freq[at_cols])
        add_tile(at_rows, at_cols, values)
    return out.reshape(n, n), band.entries


def _rotate_superop(system: EigenSystem, s_eig: np.ndarray) -> np.ndarray:
    """Rotate a superoperator from the eigenbasis to the original basis.

    ``W S W^dag`` with ``W = kron(conj(U), U)``, computed as a conjugation of
    the four modes of ``S.reshape(d, d, d, d)`` by ``conj(U)``, ``U``, ``U``
    and ``conj(U)``: four O(d^5) products instead of two O(d^6) ones.
    """
    u = system.eigenvectors
    d = u.shape[0]
    t = (u.conj() @ s_eig.reshape(d, d**3)).reshape(d, d, d * d)
    t = np.matmul(u, t).reshape(d * d, d, d)
    t = np.matmul(u, t).reshape(d**3, d)
    return (t @ dagger(u)).reshape(d * d, d * d)


def _add_drift(superop: np.ndarray, drift: np.ndarray) -> None:
    """Add ``T -> Y^dag T + T Y`` to a column-stacked superoperator in place.

    In ``superop.reshape(d, d, d, d)`` the left factor ``kron(I, Y^dag)``
    fills the blocks ``[r, :, r, :]`` and the right factor ``kron(Y^T, I)``
    the entries ``[:, r, :, r]``: 2 d^3 adds instead of two dense d^4
    Kronecker products.
    """
    d = drift.shape[0]
    blocks = superop.reshape(d, d, d, d)
    r = np.arange(d)
    blocks[r, :, r, :] += dagger(drift)
    blocks[:, r, :, r] += drift.T


def _bundle(
    kind: str,
    path: str,
    model: Model,
    weight: WeightFunction,
    coupling: np.ndarray,
    b_mat: np.ndarray,
    diag: dict,
) -> GeneratorBundle:
    """The assembly tail shared by both families: the eigenbasis sandwich of
    ``coupling`` and the effective drift ``Y = i(P + B) - M/2`` in both bases,
    over the model's frame.

    ``Y_eig = i(diag(E) + U^dag B U) - M_eig/2`` is built from its pieces, not
    rotated from ``Y``: ``U^dag P U`` would carry the Hamiltonian's roundoff
    (1.5e-13 in the torus12 trace functional, against 5.6e-17).
    """
    system, jumps_eig = model.eigensystem(), model.frame.jumps_eig
    idx = model.frame.spectrum.pair_index
    m_eig = _pair_sum(jumps_eig, coupling, idx)
    drift = 1j * (model.hamiltonian + b_mat) - 0.5 * system.from_eigenbasis(m_eig)
    eigen_drift = 1j * (np.diag(system.eigenvalues) + system.to_eigenbasis(b_mat)) - 0.5 * m_eig
    sandwich, diag["sandwich_live_entries"] = _bohr_sum_dissipator(jumps_eig, coupling, idx)
    sandwich.flags.writeable = False
    return GeneratorBundle(
        kind=kind,
        assembly_path=path,
        model=model,
        weight=weight,
        sandwich=sandwich,
        eigen_drift=eigen_drift,
        coupling=coupling,
        coherent_matrix=b_mat,
        effective_drift=drift,
        diagnostics=diag,
    )


def davies_generator(model: Model, weight: WeightFunction) -> GeneratorBundle:
    """Unfiltered detailed-balance generator with diagonal frequency coupling.

    The spectral width is capped as for the filtered family
    (``MAX_SPECTRAL_WIDTH``), and the weight must satisfy detailed balance
    on the model's Bohr grid to within ``1e-12``, a non-finite defect
    included (checked; violations are rejected).  The Hamiltonian part
    ``-i[P, .]`` is included.
    """
    diag = _validate_jump_family(model)
    spectrum = model.frame.spectrum
    _require_spectral_width(spectrum.frequencies)
    grid_defect = kms_defect(weight, spectrum.frequencies)
    if not grid_defect <= _KMS_GRID_TOL:
        raise ValidationError(
            f"weight {weight.kind!r} violates detailed balance on the Bohr grid: "
            f"defect {grid_defect:.3e} exceeds {_KMS_GRID_TOL:g}"
        )
    diag.update({"kms_grid_defect": grid_defect, "n_frequencies": spectrum.size})
    b_zero = np.zeros((model.dim, model.dim), dtype=np.complex128)
    coupling = np.diag(weight(spectrum.frequencies))
    return _bundle("davies", "bohr_sum", model, weight, coupling, b_zero, diag)


def coherent_matrix_bohr(model: Model, table: OverlapTable) -> tuple[np.ndarray, dict]:
    """Coherent matrix ``B = sum_A sum_{nu, nu'} b(nu, nu') A_nu^dag A_nu'``
    from the coherent pair table of an overlap table, over the jumps of
    ``model`` in the eigenbasis of its frame.

    Returns ``(B, diagnostics)`` with ``B`` in the original basis.  ``B`` is
    Hermitian by the pairing symmetry of the table; the realised hermiticity
    defect is recorded and must stay below ``1e-10`` relative.
    """
    b_mat = model.eigensystem().from_eigenbasis(
        _pair_sum(model.frame.jumps_eig, table.coherent, table.spectrum.pair_index)
    )
    defect = float(np.linalg.norm(b_mat - dagger(b_mat))) / max(
        1.0, float(np.linalg.norm(b_mat))
    )
    if defect > _B_HERMITICITY_TOL:
        raise ValidationError(
            f"coherent matrix is not Hermitian: relative defect {defect:.3e}"
        )
    b_mat = 0.5 * (b_mat + dagger(b_mat))
    return b_mat, {"coherent_hermiticity_defect": defect, "coherent_norm": float(np.linalg.norm(b_mat))}


def _omega_quadrature_nodes(
    weight: WeightFunction,
    sigma: float,
    freqs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature nodes/weights of the node sum: the window lattice of the
    sorted Bohr frequencies (``weights._window_quadrature``), kept where
    ``gamma`` is at least ``1e-24`` of its peak on the lattice."""
    nodes, wts = _window_quadrature(weight, sigma, freqs)
    gamma = weight(nodes)
    live = gamma >= 1e-24 * np.max(gamma)
    return nodes[live], wts[live]


def _omega_quadrature_coupling(
    weight: WeightFunction, sigma: float, freqs: np.ndarray
) -> tuple[np.ndarray, int]:
    """Node-sum coupling table of the ``omega_quadrature`` path and its node
    count.

    ``K(nu, nu') = sum_n gw_n fhat(w_n - nu) fhat(w_n - nu')`` is the Gram
    table ``W^T W`` of ``W = sqrt(gw) * profile`` (nodes x frequencies), so
    it is positive semidefinite by construction.  Summing it over blocks of
    ``_NODE_CHUNK`` sorted nodes bounds its temporaries: each block of ``W``
    is one array, its profile and floor evaluated in place, and the first
    block's product is written straight into the table.  Entries of each
    block of ``W`` below ``sqrt(tiny)`` (about ``1.5e-154``) times
    ``max(1, max|W|)`` are zeroed first, as in the overlap table, so that no
    product in ``W^T W`` underflows.  A block is multiplied only against
    the frequencies within its profile's reach, where
    ``max sqrt(gw) fhat(x)`` over the block can still meet that floor;
    every other column of the block would be zeroed, so a narrow filter
    pays for a few frequencies a block, not for all of them.  It never
    reads the overlap table.
    """
    nodes, wts = _omega_quadrature_nodes(weight, sigma, freqs)
    root_gw = np.sqrt(weight(nodes) * wts)
    filt = GaussianFilter(sigma)
    peak = float(filt.frequency_profile(0.0))
    table = np.zeros((freqs.size, freqs.size))
    first = True
    for start in range(0, nodes.size, _NODE_CHUNK):
        block = slice(start, start + _NODE_CHUNK)
        top = peak * float(np.max(root_gw[block]))
        if top < _UNDERFLOW_FLOOR:
            continue
        # fhat(x) sqrt(gw) < sqrt(tiny) past this distance, with a margin
        # for the rounding of the exponential.
        reach = sigma * math.sqrt(2.0 * math.log(top / _UNDERFLOW_FLOOR)) * (1.0 + 1e-6)
        lo = int(np.searchsorted(freqs, nodes[start] - reach, side="left"))
        hi = int(np.searchsorted(freqs, nodes[block][-1] + reach, side="right"))
        root = filt.frequency_profile_in_place(nodes[block, None] - freqs[None, lo:hi])
        root *= root_gw[block, None]
        _drop_underflow(root)
        if first:
            # Every entry of root is >= +0, so the first product written
            # straight into the zero table is the sum 0 + product.
            np.matmul(root.T, root, out=table[lo:hi, lo:hi])
            first = False
        else:
            table[lo:hi, lo:hi] += root.T @ root
    return table, int(nodes.size)


def localised_generator(
    model: Model,
    weight: WeightFunction,
    sigma: float,
    *,
    path: str = "bohr_sum",
) -> GeneratorBundle:
    """Gaussian-filtered generator for a balanced weight.

    Args:
        model: Hamiltonian and adjoint-closed jump family.
        weight: a balanced weight built for the same bandwidth ``sigma``
            (an intentionally unbalanced control weight carrying the right
            bandwidth is also accepted, for negative tests).
        sigma: filter bandwidth; must equal ``weight.sigma`` and lie in
            ``[MIN_BANDWIDTH, MAX_BANDWIDTH]``, rules that
            :func:`~gibbslab.oft.overlap_table` states for every table.
        path: the coupling table the dissipator contracts over the Bohr
            pair map: the overlap table ``G`` (``"bohr_sum"``) or the node
            sum ``K`` of the omega quadrature (``"omega_quadrature"``),
            which never reads ``G``.

    The coherent matrix, the contraction and the rotation are the same on
    both paths (``B`` has no frequency-integral form), so the paths can
    disagree only through their coupling tables, which
    :func:`dual_path_residual` compares.
    """
    if weight.kind not in ("balanced_from_phi", "unshifted_control"):
        raise ValidationError(
            f"filtered generator needs a balanced-family weight, got kind {weight.kind!r}"
        )
    _require_assembly_path(path)

    diag = _validate_jump_family(model)
    spectrum = model.frame.spectrum

    table = overlap_table(spectrum, weight, sigma)
    coupling = table.values
    if path == "omega_quadrature":
        coupling, diag["omega_nodes"] = _omega_quadrature_coupling(
            weight, sigma, spectrum.frequencies
        )

    b_mat, b_diag = coherent_matrix_bohr(model, table)
    diag.update(b_diag)
    diag.update(
        {
            "overlap_cross_check_defect": table.cross_check_defect,
            "overlap_cross_check_entries": table.cross_check_entries,
            "overlap_cross_check_evaluations": table.cross_check_evaluations,
            "overlap_smoothing_rule": table.smoothing_rule,
            "overlap_min_eigenvalue": table.min_eigenvalue(),
            "overlap_dropped_entries": table.dropped_entries,
            "overlap_live_pairs": table.live_pairs,
            "overlap_largest_block": int(np.diff(table.blocks).max()),
            "n_frequencies": spectrum.size,
            "max_cluster_diameter": spectrum.max_cluster_diameter,
        }
    )
    return _bundle("localised", path, model, weight, coupling, b_mat, diag)


# ---------------------------------------------------------------------------
# Reports and consistency checks
# ---------------------------------------------------------------------------


def stationarity_report(bundle: GeneratorBundle) -> float:
    """``||L(rho)||_F / ||rho||_F`` on the normalised Gibbs density ``rho``
    of the bundle's model.

    Measured in the eigenbasis, where ``rho = diag(p)``,
    ``p = e^{-(E - E_0)} / Z``: the sandwich reads only the ``d`` columns of
    the nonzero entries of ``vec(rho)``.
    """
    energies = bundle.system.eigenvalues
    p = np.exp(-(energies - energies[0]))
    p /= p.sum()
    d = bundle.dim
    image = devectorize(bundle.sandwich[:, :: d + 1] @ p, d)
    y = bundle.eigen_drift
    image = image + (dagger(y) * p + p[:, None] * y)
    return float(np.linalg.norm(image)) / float(np.linalg.norm(p))


def trace_functional_defect(bundle: GeneratorBundle) -> float:
    """Norm of ``vec(I)^dag S`` -- zero for trace-preserving generators.

    ``vec(I)`` is invariant under the rotation, so this is read in the
    eigenbasis: the sum of the sandwich's rows at the ``d`` diagonal entries
    plus the drift's ``tr((Y^dag + Y) T)``, which is ``vec((Y + Y^dag)^T)``.
    """
    d = bundle.dim
    y = bundle.eigen_drift
    left = bundle.sandwich[:: d + 1].sum(axis=0) + vectorize((y + dagger(y)).T)
    return float(np.linalg.norm(left))


def hermiticity_preservation_defect(bundle: GeneratorBundle, seed: int = 0) -> float:
    """Worst ``||L(T^dag) - L(T)^dag||_F / ||T||_F`` over ten seeded random
    operators.

    The operators are drawn in the original basis and rotated into the
    eigenbasis, where the twenty operators ``T^dag`` and ``T`` go through
    one stacked :meth:`GeneratorBundle.eigen_action`; the Frobenius norms
    are unchanged by the rotation.
    """
    rng = np.random.default_rng(seed)
    d = bundle.dim
    ts = np.stack([rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)) for _ in range(10)])
    u = bundle.system.eigenvectors
    ts_eig = dagger(u) @ ts @ u
    images = bundle.eigen_action(np.concatenate([ts_eig.conj().transpose(0, 2, 1), ts_eig]))
    lhs = images[:10]
    rhs = images[10:].conj().transpose(0, 2, 1)
    return float(np.max(np.linalg.norm(lhs - rhs, axis=(1, 2)) / np.linalg.norm(ts, axis=(1, 2))))


def effective_drift_abscissa(bundle: GeneratorBundle) -> float:
    """Spectral abscissa (largest real part of an eigenvalue) of the drift
    matrix ``Y = i(P + B) - (1/2) sum_A sum C(nu,nu') A_nu^dag A_nu'``."""
    return float(np.max(np.linalg.eigvals(bundle.effective_drift).real))


def dual_path_residual(bundle: GeneratorBundle) -> float:
    """Relative Frobenius distance between the coupling tables of the two
    assembly paths, ``||C_built - C_other|| / max(||C_built||, ||C_other||)``.

    Both paths send their table through the same contraction and rotation
    and share the coherent matrix, so the tables are where they can differ.
    ``C_other`` is built over the filtered ``bundle``'s weight, bandwidth and
    Bohr spectrum: the node-sum table ``K`` for a ``bohr_sum`` bundle, the
    overlap table ``G`` (without the cross-check) for an
    ``omega_quadrature`` one.  No dissipator is assembled.
    """
    if bundle.kind != "localised":
        raise ValidationError("the dual-path check applies to filtered generators only")
    freqs, weight = bundle.spectrum.frequencies, bundle.weight
    if bundle.assembly_path == "bohr_sum":
        other = _omega_quadrature_coupling(weight, weight.sigma, freqs)[0]
    else:
        other = overlap_table(bundle.spectrum, weight, weight.sigma, cross_check=False).values
    built = bundle.coupling
    scale = max(float(np.linalg.norm(built)), float(np.linalg.norm(other)), 1e-300)
    # ``other`` is this call's own table: subtract in place, no third m x m.
    other -= built
    return float(np.linalg.norm(other)) / scale


def davies_limit_report(model: Model, phi, sigmas, *, seed: int = 2024) -> dict:
    """Distance of the filtered generator from its delocalised limit.

    For each bandwidth, builds the filtered generator with the balanced
    weight and compares its action against the unfiltered generator built
    with the delocalised-limit weight ``pi e^{-omega/2} phi(omega)`` (the
    factor ``pi`` is the squared filter mass; without it the limit would not
    close).  Each row holds the rung's ``sweep-sigma`` columns:
    ``davies_distance_p1``, the largest trace norm of the action difference
    over five seeded unit-Frobenius Hermitian test operators (rotated into
    the eigenbasis once; both generators act there, on the model's one
    eigenbasis, and the trace norm is unitarily invariant); the norm
    ``coherent_norm_B`` of the coherent matrix; the time-kernel mass
    ``b1_l1``; and ``stationarity_residual``.  It also carries the rung's
    overlap cross-check defect, integrand node count and smoothing rule.
    """
    rng = np.random.default_rng(seed)
    d = model.dim
    test_ops = []
    for _ in range(5):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t = 0.5 * (z + dagger(z))
        test_ops.append(t / np.linalg.norm(t))

    limit_bundle = davies_generator(model, delocalised_limit_gamma(phi))
    u = limit_bundle.system.eigenvectors
    ops_eig = dagger(u) @ np.stack(test_ops) @ u
    limit_images = limit_bundle.eigen_action(ops_eig)
    rows = []
    for s in sigmas:
        w = balanced_gamma(phi, float(s))
        bundle = localised_generator(model, w, float(s))
        images = bundle.eigen_action(ops_eig)
        trace_norms = np.linalg.svd(images - limit_images, compute_uv=False).sum(axis=-1)
        rows.append(
            {
                "sigma": float(s),
                "davies_distance_p1": max(trace_norms.tolist()),
                "coherent_norm_B": float(np.linalg.norm(bundle.coherent_matrix)),
                "b1_l1": coherent_time_kernel_l1(float(s)),
                "stationarity_residual": stationarity_report(bundle),
                "overlap_cross_check_defect": bundle.diagnostics["overlap_cross_check_defect"],
                "overlap_cross_check_evaluations": bundle.diagnostics[
                    "overlap_cross_check_evaluations"
                ],
                "overlap_smoothing_rule": bundle.diagnostics["overlap_smoothing_rule"],
            }
        )
    return {"rows": rows}


# ---------------------------------------------------------------------------
# Time-domain coherent-term oracle
# ---------------------------------------------------------------------------


# Trapezoid nodes of the time-domain oracle's kernel and envelope grids.
_TIME_ORACLE_NODES = 2048

# Smallest bandwidth the oracle's fixed grids resolve: its windows grow as
# 1/sigma, and on random4 its relative distance is 7.3e-14 at sigma = 0.3
# but 5.4e-11 at 0.25, 1.5e-8 at 0.2 and 0.86 at 0.1.
_TIME_ORACLE_MIN_SIGMA = 0.3


def _oracle_trapezoid(span: float) -> tuple[np.ndarray, np.ndarray]:
    """``_TIME_ORACLE_NODES`` trapezoid nodes and weights on ``[-span, span]``,
    mirrored exactly about 0 (``np.linspace`` alone is not)."""
    half = np.linspace(-span, span, _TIME_ORACLE_NODES)[_TIME_ORACLE_NODES // 2 :]
    nodes = np.concatenate([-half[::-1], half])
    wts = np.full(nodes.size, 2.0 * span / (_TIME_ORACLE_NODES - 1))
    wts[0] *= 0.5
    wts[-1] *= 0.5
    return nodes, wts


def _phase_sums(x: np.ndarray, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``F(x) = sum_k w_k e^{i x s_k}`` at every entry of ``x``.

    Each distinct ``x`` and each distinct ``|s|`` is exponentiated once:
    ``e^{-ixs}`` is the conjugate of ``e^{ixs}``, so with the weights summed
    per ``|s|`` on each side of 0 into ``w_+`` and ``w_-``,
    ``F = P w_+ + conj(P conj(w_-))`` for the phase table ``P = e^{ix|s|}``.
    """
    distinct, where = np.unique(x, return_inverse=True)
    mags, at = np.unique(np.abs(s), return_inverse=True)
    neg = s < 0.0
    w_pos = np.zeros(mags.size, dtype=np.complex128)
    w_neg = np.zeros(mags.size, dtype=np.complex128)
    np.add.at(w_pos, at[~neg], w[~neg])
    np.add.at(w_neg, at[neg], w[neg])
    phase = np.exp(1j * np.multiply.outer(distinct, mags))
    f = phase @ w_pos + np.conj(phase @ np.conj(w_neg))
    return f[where].reshape(x.shape)


def _envelope_sum(energies: np.ndarray, jumps_eig, ss: np.ndarray, wb2: np.ndarray):
    """``sum_A sum_s wb2_s e^{iEs} A^dag e^{-2iEs} A e^{iEs}`` in the eigenbasis.

    Entry ``(i, j)`` is ``sum_k [sum_A conj(A_ki) A_kj] F(E_i + E_j - 2 E_k)``
    with ``F(x) = sum_s wb2_s e^{ixs}``: one phase table of the distinct
    sums (``i <-> j`` swaps and ``i = j = k`` repeat one) by the distinct
    ``|s|``.
    """
    freq = energies[:, None, None] + energies[None, :, None] - 2.0 * energies[None, None, :]
    f = _phase_sums(freq, ss, wb2)
    pairs = sum(np.einsum("ki,kj->ijk", a.conj(), a) for a in jumps_eig)
    return np.sum(pairs * f, axis=2)


def _time_quadrature_inner(model: Model, weight: WeightFunction, sigma: float):
    """Shared pieces of the time-domain assembly.

    Returns ``(system, outer, inner)`` in the eigenbasis: ``inner`` is the
    orientation-independent envelope integral
    ``sum_A integral ds b2(s) e^{iPs} A^dag e^{-2iPs} A e^{iPs}`` and
    ``outer[i, j] = integral dt k1(t) e^{it(E_i - E_j)}`` the kernel's
    outward conjugation.
    """
    if model.dim > 6:
        raise ValidationError(
            f"time-domain oracle is for small models (dim <= 6), got dim {model.dim}"
        )
    system = model.eigensystem()
    energies = system.eigenvalues

    ts, wt = _oracle_trapezoid(12.0 + 2.0 / sigma)
    diff = energies[:, None] - energies[None, :]
    outer = _phase_sums(diff, ts, wt * coherent_time_kernel(ts, sigma))

    ss, ws = _oracle_trapezoid(10.0 / sigma + 1.0)
    wb2 = ws * coherent_time_envelope(ss, sigma, weight)
    inner = _envelope_sum(energies, model.frame.jumps_eig, ss, wb2)
    return system, outer, inner


def coherent_calibration_report(bundle: GeneratorBundle) -> dict:
    """Compare a filtered bundle's coherent matrix against the time oracle.

    Reports the distance for both conjugation orientations of the time
    assembly over the bundle's model, weight and bandwidth.  The production
    orientation is the one matching the frequency-domain matrix; the
    literal one lands on the negated matrix (distance close to twice the
    norm) -- surfaced here as numbers, never silently absorbed.  Relative
    distances are taken against the coherent norm when it is meaningfully
    nonzero, else against 1.  Bandwidths below ``_TIME_ORACLE_MIN_SIGMA``
    are rejected: the oracle's fixed grids no longer resolve ``B`` there.
    """
    if bundle.kind != "localised":
        raise ValidationError("the coherent calibration applies to filtered generators only")
    sigma = bundle.weight.sigma
    if not sigma >= _TIME_ORACLE_MIN_SIGMA:
        raise ValidationError(
            f"the time-domain oracle resolves bandwidths sigma >= {_TIME_ORACLE_MIN_SIGMA} "
            f"only, got {sigma!r}"
        )
    system, outer, inner = _time_quadrature_inner(bundle.model, bundle.weight, sigma)
    b_freq = bundle.coherent_matrix
    report = {
        key: bundle.diagnostics[key] for key in ("coherent_norm", "coherent_hermiticity_defect")
    }
    # The literal orientation conjugates by e^{-iPt}: its kernel at (i, j)
    # is the outward one at E_j - E_i, the transpose.
    for orientation, kernel in (("outward", outer), ("literal", outer.T)):
        b_time = system.from_eigenbasis(kernel * inner)
        report[f"distance_{orientation}"] = float(np.linalg.norm(b_time - b_freq))
    scale = report["coherent_norm"] if report["coherent_norm"] > 1e-12 else 1.0
    report["relative_distance_outward"] = report["distance_outward"] / scale
    report["relative_distance_literal"] = report["distance_literal"] / scale
    return report
