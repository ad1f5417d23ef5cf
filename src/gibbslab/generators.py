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
over the Bohr pair map, rotated to the original basis (a conjugation of the
four tensor modes of the eigenbasis superoperator, O(d^5)), plus
``Y^dag T + T Y``, added in place into the 2 d^3 entries it fills.  One
pair contraction gives ``B`` and the drift's kernel.
The bundle keeps the table it contracted as ``coupling``.  The filtered
dissipator has a second path, ``omega_quadrature``, which never reads the
overlap table: it puts its own quadrature nodes ``w_n`` with weights
``gw_n = gamma(w_n) q_n`` (``q_n`` the panel rule's weights) on the filtered
transform and contracts the node-sum table
``K(nu, nu') = sum_n gw_n fhat(w_n - nu) fhat(w_n - nu')`` in place of
``G``.  ``K`` is a Gram table, so the sum is completely positive by
construction.  Since the two paths share the contraction, the rotation and
the coherent matrix, they can differ only in their tables, and the
standing consistency check compares ``G`` with ``K`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bohr import BohrSpectrum, bohr_spectrum
from .errors import ValidationError
from .evolution import Propagator
from .models import Model, gibbs_state
from .oft import OverlapTable, _drop_underflow, overlap_table
from .operator_core import (
    EigenSystem,
    dagger,
    devectorize,
    schatten_norm,
    vectorize,
)
from .weights import (
    PANEL_WIDTH_FRACTION,
    WINDOW_RADIUS,
    GaussianFilter,
    WeightFunction,
    _kink_panel_edges,
    _panel_quadrature,
    _require_bandwidth,
    coherent_time_envelope,
    coherent_time_kernel,
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
    "generator_action",
    "hermiticity_preservation_defect",
    "localised_generator",
    "stationarity_report",
    "trace_functional_defect",
]

_KMS_GRID_TOL = 1e-12
_B_HERMITICITY_TOL = 1e-10
_ADJOINT_FAMILY_TOL = 1e-12
# Nodes per block of the node-sum table.  The shipped models need at most
# 1600 nodes at bandwidths of 0.5 or more: one block.
_NODE_CHUNK = 2048


@dataclass(frozen=True)
class GeneratorBundle:
    """An assembled generator with its parts and assembly provenance.

    The superoperator acts on column-stacked operators,
    ``vec(L(T)) = superoperator @ vec(T)``, in the model's original basis:
    the rotated sandwich plus ``T -> Y^dag T + T Y``, ``Y = effective_drift``.
    It is read-only, so the cached step exponentials of :attr:`propagator`
    cannot go stale.  ``coupling`` is the table ``C(nu, nu')`` contracted over
    the Bohr pair map: ``diag(gamma)``, the overlap table ``G`` or the
    node-sum table ``K``.
    """

    kind: str  # "davies" | "localised"
    assembly_path: str  # "bohr_sum" | "omega_quadrature"
    model: Model
    weight: WeightFunction
    sigma: float | None
    superoperator: np.ndarray
    coupling: np.ndarray
    coherent_matrix: np.ndarray
    effective_drift: np.ndarray
    spectrum: BohrSpectrum
    diagnostics: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.model.dim

    @cached_property
    def propagator(self) -> Propagator:
        """Step exponentials of this generator, shared by every evolution
        function called on the bundle (``dataclasses.replace`` starts a new
        cache)."""
        return Propagator(self.superoperator)

    def apply(self, operator: np.ndarray) -> np.ndarray:
        """Act on an operator: ``L(T)``."""
        return generator_action(self.superoperator, operator)


def generator_action(superoperator: np.ndarray, operator: np.ndarray) -> np.ndarray:
    """Apply a column-stacked superoperator to an operator."""
    op = np.asarray(operator, dtype=np.complex128)
    return devectorize(np.asarray(superoperator) @ vectorize(op), op.shape[0])


def _validate_jump_family(model: Model) -> dict:
    defect = model.adjoint_closure_defect()
    if defect > _ADJOINT_FAMILY_TOL:
        raise ValidationError(
            f"jump family of {model.model_id!r} is not closed under the adjoint "
            f"(worst distance {defect:.3e})"
        )
    return {
        "adjoint_closure_defect": defect,
        "jump_norm_squared_sum": model.jump_norm_squared_sum(),
    }


def _pair_sum(
    jumps_eig: list[np.ndarray], table: np.ndarray, pair_index: np.ndarray
) -> np.ndarray:
    """``sum_A sum_{nu, nu'} T(nu, nu') A_nu^dag A_nu'`` in the eigenbasis.

    ``T`` is gathered at the frequencies of the pairs ``(p, i)`` and
    ``(p, k)``; ``A_nu^dag A_nu'`` has entries ``conj(A_pi) A_pk``.
    """
    table3 = table[pair_index[:, :, None], pair_index[:, None, :]]
    d = pair_index.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    for a in jumps_eig:
        out += np.einsum("pi,pk,pik->ik", a.conj(), a, table3, optimize=True)
    return out


def _bohr_sum_dissipator(
    jumps_eig: list[np.ndarray], coupling: np.ndarray, pair_index: np.ndarray
) -> np.ndarray:
    """Eigenbasis superoperator of the sandwich
    ``T -> sum_A sum_{nu, nu'} C(nu, nu') A_nu T A_nu'^dag`` of a coupling
    table contracted over the Bohr pair map."""
    d = pair_index.shape[0]
    conj = [a.conj() for a in jumps_eig]
    s_sandwich = np.zeros((d, d, d, d), dtype=np.complex128)
    term = np.empty((d, d, d), dtype=np.complex128)
    # Block j of S.reshape(d, d, d, d) holds the column-stacked rows (i, j);
    # its entry [i, l, k], in column (k, l), is
    # sum_A A_ik conj(A_jl) C(nu_ik, nu_jl).  Built one block at a time, the
    # temporaries stay in cache.
    for j in range(d):
        coupling_j = coupling[pair_index[:, None, :], pair_index[j][None, :, None]]
        for a, a_conj in zip(jumps_eig, conj):
            np.multiply(a[:, None, :], a_conj[j][None, :, None], out=term)
            term *= coupling_j
            s_sandwich[j] += term
    return s_sandwich.reshape(d * d, d * d)


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
    sigma: float | None,
    system: EigenSystem,
    spectrum: BohrSpectrum,
    jumps_eig: list[np.ndarray],
    coupling: np.ndarray,
    b_mat: np.ndarray,
    diag: dict,
) -> GeneratorBundle:
    """The assembly tail shared by both families: the sandwich of
    ``coupling`` rotated to the original basis plus ``T -> Y^dag T + T Y``
    with the effective drift ``Y = i(P + B) - M/2``."""
    idx = spectrum.pair_index
    m_kernel = system.from_eigenbasis(_pair_sum(jumps_eig, coupling, idx))
    drift = 1j * (model.hamiltonian + b_mat) - 0.5 * m_kernel
    superop = _rotate_superop(system, _bohr_sum_dissipator(jumps_eig, coupling, idx))
    _add_drift(superop, drift)
    superop.flags.writeable = False
    return GeneratorBundle(
        kind=kind,
        assembly_path=path,
        model=model,
        weight=weight,
        sigma=sigma,
        superoperator=superop,
        coupling=coupling,
        coherent_matrix=b_mat,
        effective_drift=drift,
        spectrum=spectrum,
        diagnostics=diag,
    )


def davies_generator(model: Model, weight: WeightFunction) -> GeneratorBundle:
    """Unfiltered detailed-balance generator with diagonal frequency coupling.

    The weight must satisfy detailed balance on the model's Bohr grid to
    within ``1e-12`` (checked; violations are rejected).  The Hamiltonian
    part ``-i[P, .]`` is included.
    """
    diag = _validate_jump_family(model)
    system = model.eigensystem()
    spectrum = bohr_spectrum(system)
    grid_defect = kms_defect(weight, spectrum.frequencies)
    if grid_defect > _KMS_GRID_TOL:
        raise ValidationError(
            f"weight {weight.kind!r} violates detailed balance on the Bohr grid: "
            f"defect {grid_defect:.3e} exceeds {_KMS_GRID_TOL:g}"
        )
    jumps_eig = [system.to_eigenbasis(a) for a in model.jumps]
    diag.update({"kms_grid_defect": grid_defect, "n_frequencies": spectrum.size})
    b_zero = np.zeros((model.dim, model.dim), dtype=np.complex128)
    return _bundle(
        "davies", "bohr_sum", model, weight, None, system, spectrum,
        jumps_eig, np.diag(weight(spectrum.frequencies)), b_zero, diag,
    )


def coherent_matrix_bohr(
    jumps_eig: list[np.ndarray], table: OverlapTable, *, system: EigenSystem
) -> tuple[np.ndarray, dict]:
    """Coherent matrix ``B = sum_A sum_{nu, nu'} b(nu, nu') A_nu^dag A_nu'``
    from the coherent pair table of an overlap table, over the jumps
    ``jumps_eig`` in the eigenbasis of ``system``.

    Returns ``(B, diagnostics)`` with ``B`` in the original basis.  ``B`` is
    Hermitian by the pairing symmetry of the table; the realised hermiticity
    defect is recorded and must stay below ``1e-10`` relative.
    """
    b_mat = system.from_eigenbasis(
        _pair_sum(jumps_eig, table.coherent, table.spectrum.pair_index)
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
    """Quadrature nodes/weights covering the live support of the weight.

    The window is where ``gamma`` is at least ``1e-24`` of its peak, dilated
    by the filter's window radius, intersected with the reach of the Bohr
    frequencies; panels are aligned to the weight's breakpoints.
    """
    lo_f = float(freqs[0]) - WINDOW_RADIUS * sigma
    hi_f = float(freqs[-1]) + WINDOW_RADIUS * sigma
    probe = np.linspace(lo_f, hi_f, 4001)
    gvals = weight(probe)
    peak = float(np.max(gvals))
    if peak <= 0.0:
        raise ValidationError("weight vanishes identically on the probe window")
    live = probe[gvals >= peak * 1e-24]
    lo = max(lo_f, float(live[0]) - (WINDOW_RADIUS + 2.0) * sigma)
    hi = min(hi_f, float(live[-1]) + (WINDOW_RADIUS + 2.0) * sigma)
    bps = [float(b) for b in weight.breakpoints if lo < float(b) < hi]
    edges = _kink_panel_edges(lo, hi, bps[0] if bps else lo, sigma * PANEL_WIDTH_FRACTION)
    if bps:
        edges = np.unique(np.concatenate([edges, np.asarray(bps)]))
    return _panel_quadrature(edges)


def _omega_quadrature_coupling(
    weight: WeightFunction, sigma: float, freqs: np.ndarray
) -> tuple[np.ndarray, int]:
    """Node-sum coupling table of the ``omega_quadrature`` path and its node
    count.

    ``K(nu, nu') = sum_n gw_n fhat(w_n - nu) fhat(w_n - nu')`` is the Gram
    table ``W^T W`` of ``W = sqrt(gw) * profile`` (nodes x frequencies) over
    the nodes with ``gw_n > 0``, so it is positive semidefinite by
    construction.  Summing it over blocks of ``_NODE_CHUNK`` nodes bounds its
    temporaries.  Entries of each block of ``W`` below ``sqrt(tiny)`` (about
    ``1.5e-154``) times ``max(1, max|W|)`` are zeroed first, as in the
    overlap table, so that no product in ``W^T W`` underflows.  It never
    reads the overlap table.
    """
    nodes, wts = _omega_quadrature_nodes(weight, sigma, freqs)
    gw = weight(nodes) * wts
    keep = gw > 0.0
    nodes, root_gw = nodes[keep], np.sqrt(gw[keep])
    profile = GaussianFilter(sigma).frequency_profile
    table = np.zeros((freqs.size, freqs.size))
    for start in range(0, nodes.size, _NODE_CHUNK):
        block = slice(start, start + _NODE_CHUNK)
        root = root_gw[block, None] * profile(nodes[block, None] - freqs[None, :])
        _drop_underflow(root)
        table += root.T @ root
    return table, int(nodes.size)


def localised_generator(
    model: Model,
    weight: WeightFunction,
    sigma: float,
    *,
    path: str = "bohr_sum",
    cross_check: bool = True,
) -> GeneratorBundle:
    """Gaussian-filtered generator for a balanced weight.

    Args:
        model: Hamiltonian and adjoint-closed jump family.
        weight: a balanced weight built for the same bandwidth ``sigma``
            (an intentionally unbalanced control weight carrying the right
            bandwidth is also accepted, for negative tests).
        sigma: filter bandwidth; must equal ``weight.sigma``.
        path: the coupling table the dissipator contracts over the Bohr
            pair map: the overlap table ``G`` (``"bohr_sum"``) or the node
            sum ``K`` of the omega quadrature (``"omega_quadrature"``),
            which never reads ``G``.
        cross_check: sample-check the overlap table against definitional
            quadrature (a standing regression check; on by default).

    The coherent matrix, the contraction and the rotation are the same on
    both paths (``B`` has no frequency-integral form), so the paths can
    disagree only through their coupling tables, which
    :func:`dual_path_residual` compares.
    """
    _require_bandwidth(sigma)
    if weight.sigma is None or abs(weight.sigma - float(sigma)) > 0.0:
        raise ValidationError(
            f"weight was built for bandwidth {weight.sigma!r} but the filter uses "
            f"{sigma!r}; rebuild the weight for the filter bandwidth"
        )
    if weight.kind not in ("balanced_from_phi", "unshifted_control"):
        raise ValidationError(
            f"filtered generator needs a balanced-family weight, got kind {weight.kind!r}"
        )
    if path not in ("bohr_sum", "omega_quadrature"):
        raise ValidationError(f"unknown assembly path {path!r}")

    diag = _validate_jump_family(model)
    system = model.eigensystem()
    spectrum = bohr_spectrum(system)
    jumps_eig = [system.to_eigenbasis(a) for a in model.jumps]

    table = overlap_table(spectrum, weight, sigma, cross_check=cross_check)
    coupling = table.values
    if path == "omega_quadrature":
        coupling, diag["omega_nodes"] = _omega_quadrature_coupling(
            weight, sigma, spectrum.frequencies
        )

    b_mat, b_diag = coherent_matrix_bohr(jumps_eig, table, system=system)
    diag.update(b_diag)
    diag.update(
        {
            "overlap_cross_check_defect": table.cross_check_defect,
            "overlap_cross_check_entries": table.cross_check_entries,
            "overlap_cross_check_evaluations": table.cross_check_evaluations,
            "overlap_smoothing_rule": table.smoothing_rule,
            "overlap_min_eigenvalue": table.min_eigenvalue(),
            "overlap_dropped_entries": table.dropped_entries,
            "n_frequencies": spectrum.size,
            "max_cluster_diameter": spectrum.max_cluster_diameter,
        }
    )
    return _bundle(
        "localised", path, model, weight, float(sigma), system, spectrum,
        jumps_eig, coupling, b_mat, diag,
    )


# ---------------------------------------------------------------------------
# Reports and consistency checks
# ---------------------------------------------------------------------------


def stationarity_report(bundle: GeneratorBundle) -> float:
    """``||L(rho)||_F / ||rho||_F`` on the normalised Gibbs density ``rho``
    of the bundle's model."""
    rho = gibbs_state(bundle.model)
    return float(np.linalg.norm(bundle.apply(rho))) / float(np.linalg.norm(rho))


def trace_functional_defect(bundle: GeneratorBundle) -> float:
    """Norm of ``vec(I)^dag S`` -- zero for trace-preserving generators."""
    d = bundle.dim
    left = vectorize(np.eye(d)).conj() @ bundle.superoperator
    return float(np.linalg.norm(left))


def hermiticity_preservation_defect(bundle: GeneratorBundle, seed: int = 0) -> float:
    """Worst ``||L(T^dag) - L(T)^dag||_F / ||T||_F`` over ten seeded random
    operators."""
    rng = np.random.default_rng(seed)
    d = bundle.dim
    worst = 0.0
    for _ in range(10):
        t = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lhs = bundle.apply(dagger(t))
        rhs = dagger(bundle.apply(t))
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / float(np.linalg.norm(t)))
    return worst


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
    freqs = bundle.spectrum.frequencies
    if bundle.assembly_path == "bohr_sum":
        other = _omega_quadrature_coupling(bundle.weight, bundle.sigma, freqs)[0]
    else:
        other = overlap_table(bundle.spectrum, bundle.weight, bundle.sigma, cross_check=False).values
    built = bundle.coupling
    scale = max(float(np.linalg.norm(built)), float(np.linalg.norm(other)), 1e-300)
    return float(np.linalg.norm(built - other)) / scale


def davies_limit_report(model: Model, phi, sigmas, *, seed: int = 2024) -> dict:
    """Distance of the filtered generator from its delocalised limit.

    For each bandwidth, builds the filtered generator with the balanced
    weight and compares its action against the unfiltered generator built
    with the delocalised-limit weight ``pi e^{-omega/2} phi(omega)`` (the
    factor ``pi`` is the squared filter mass; without it the limit would not
    close).  Each row holds the rung's ``sweep-sigma`` columns:
    ``davies_distance_p1``, the largest trace norm of the action difference
    over five seeded unit-Frobenius Hermitian test operators; the norm
    ``coherent_norm_B`` of the coherent matrix; the time-kernel mass
    ``b1_l1``; and ``stationarity_residual``.  It also carries the rung's
    overlap cross-check defect, QUADPACK evaluation count and smoothing rule.
    """
    # Looked up at call time, so a wrapper installed on the weights module
    # (the benchmark's layer tracer) sees these calls.
    from .weights import balanced_gamma, coherent_time_kernel_l1, delocalised_limit_gamma

    rng = np.random.default_rng(seed)
    d = model.dim
    test_ops = []
    for _ in range(5):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t = 0.5 * (z + dagger(z))
        test_ops.append(t / np.linalg.norm(t))

    limit_bundle = davies_generator(model, delocalised_limit_gamma(phi))
    rows = []
    for s in sigmas:
        w = balanced_gamma(phi, float(s))
        bundle = localised_generator(model, w, float(s))
        distances = [
            schatten_norm(bundle.apply(t) - limit_bundle.apply(t), 1.0) for t in test_ops
        ]
        rows.append(
            {
                "sigma": float(s),
                "davies_distance_p1": max(distances),
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


def _envelope_sum(energies: np.ndarray, jumps_eig, ss: np.ndarray, wb2: np.ndarray):
    """``sum_A sum_s wb2_s e^{iEs} A^dag e^{-2iEs} A e^{iEs}`` in the eigenbasis.

    Entry ``(i, j)`` is ``sum_k [sum_A conj(A_ki) A_kj] F(E_i + E_j - 2 E_k)``
    with ``F(x) = sum_s wb2_s e^{ixs}``: one d^3-by-nodes phase table.
    """
    freq = energies[:, None, None] + energies[None, :, None] - 2.0 * energies[None, None, :]
    f = (np.exp(1j * np.multiply.outer(freq, ss)) @ wb2).reshape(freq.shape)
    pairs = sum(np.einsum("ki,kj->ijk", a.conj(), a) for a in jumps_eig)
    return np.sum(pairs * f, axis=2)


def _time_quadrature_inner(model: Model, weight: WeightFunction, sigma: float):
    """Shared pieces of the time-domain assembly.

    Returns ``(system, ts, wt_k1, inner)`` where ``inner`` is the
    orientation-independent envelope integral
    ``sum_A integral ds b2(s) e^{iPs} A^dag e^{-2iPs} A e^{iPs}``
    in the eigenbasis and ``wt_k1`` the weighted kernel samples.
    """
    if model.dim > 6:
        raise ValidationError(
            f"time-domain oracle is for small models (dim <= 6), got dim {model.dim}"
        )
    system = model.eigensystem()

    ts, wt = _oracle_trapezoid(12.0 + 2.0 / sigma)
    wt_k1 = wt * coherent_time_kernel(ts, sigma)

    ss, ws = _oracle_trapezoid(10.0 / sigma + 1.0)
    wb2 = ws * coherent_time_envelope(ss, sigma, weight)
    jumps_eig = [system.to_eigenbasis(j) for j in model.jumps]
    inner = _envelope_sum(system.eigenvalues, jumps_eig, ss, wb2)
    return system, ts, wt_k1, inner


def _time_quadrature_close(system: EigenSystem, ts, wt_k1, inner, orientation: str):
    sign = 1.0 if orientation == "outward" else -1.0
    energies = system.eigenvalues
    diff = energies[:, None] - energies[None, :]
    outer_kernel = np.tensordot(
        wt_k1, np.exp(1j * sign * np.multiply.outer(ts, diff)), axes=(0, 0)
    )
    return system.from_eigenbasis(outer_kernel * inner)


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
    if not bundle.sigma >= _TIME_ORACLE_MIN_SIGMA:
        raise ValidationError(
            f"the time-domain oracle resolves bandwidths sigma >= {_TIME_ORACLE_MIN_SIGMA} "
            f"only, got {bundle.sigma!r}"
        )
    system, ts, wt_k1, inner = _time_quadrature_inner(bundle.model, bundle.weight, bundle.sigma)
    b_freq = bundle.coherent_matrix
    report = {
        key: bundle.diagnostics[key] for key in ("coherent_norm", "coherent_hermiticity_defect")
    }
    for orientation in ("outward", "literal"):
        b_time = _time_quadrature_close(system, ts, wt_k1, inner, orientation)
        report[f"distance_{orientation}"] = float(np.linalg.norm(b_time - b_freq))
    scale = report["coherent_norm"] if report["coherent_norm"] > 1e-12 else 1.0
    report["relative_distance_outward"] = report["distance_outward"] / scale
    report["relative_distance_literal"] = report["distance_literal"] / scale
    return report
