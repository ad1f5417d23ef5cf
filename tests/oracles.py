"""Independent reference implementations used to cross-check the package.

Everything here deliberately avoids the package's computational paths:
superoperators are assembled column-by-column from matrix units instead of
einsum contractions, Lindblad actions are written as explicit matmul loops,
frequency splits go through grouped spectral projectors, integrals go
through QUADPACK (`scipy.integrate.quad`) instead of the package's panel
rules, propagation goes through an adaptive ODE solver instead of matrix
exponentials, and Choi matrices are assembled by pushing the d^2 matrix
units through the channel instead of reshuffling.  Agreement between these
and the package is therefore evidence, not tautology.

The filtered operator has a time-domain route, ``oft_eval_time_quadrature``
(a trapezoid over the Heisenberg-picture definition), and states are
compared by ``trace_distance`` through singular values.  Three structural
checks read only what a bundle or decomposition exposes:
``gibbs_action_identity_defect`` and ``drift_dissipativity_defect`` for
generators, ``adjoint_pairing_residual`` for Bohr decompositions.  A
bundle's dissipator is its superoperator less the commutator part,
``dissipator_superop``.

The scalar QUADPACK references are ``smoothed_weight_quad`` (the smoothed
weight ``H``), ``pair_coefficient_quad`` (one coherent pair coefficient),
``overlap_entry_quad`` (one overlap coupling ``G``),
``gibbs_coefficient_table_quad`` (the dissipator's Gibbs-action coefficient
of the scalar stationarity identity, built from ``G`` over every frequency
pair), ``time_kernel_quad``, ``time_kernel_l1_quad`` and
``tilted_envelope_quad``.  The time-domain oracle's sums have direct
forms: ``time_kernel_all_nodes`` sums the kernel of every ``|t|`` over
every panel node where the package sums each over its live window,
``time_envelope_direct`` sums ``e^{-2isw}`` over every panel node
without the package's panel-centre split, and ``envelope_sum_loop`` sums
its inner envelope integral one trapezoid node at a time.

Three references keep the package's arithmetic and drop one of its
shortcuts: ``sandwich_transposed`` builds the eigenbasis sandwich in
row-major order and transposes it into column-stacked layout,
``overlap_table_dense`` builds the overlap tables on the full pair grid
where the package builds them on the live band, and picks the
cross-check's entries by a stable sort of every entry (with
``floor=False`` it also keeps the entries below the underflow floor that
the package zeroes), and ``node_sum_gram_unfloored`` keeps the node-sum
factor's entries below that floor.

``parent_tail`` also keeps the package's arithmetic: it is the assembly
tail done eagerly (the sandwich rotated to the original basis, then
``Y^dag T + T Y`` added), which the bundle's lazily rotated superoperator
must reproduce byte for byte.  ``davies_limit_rows_original_basis``
recomputes the delocalisation report's distances with the original-basis
superoperators and trace norms through singular values.
``pair_sum_optimized`` is the pair contraction as
``einsum(..., optimize=True)``, which searches for its contraction path on
every call, and ``davies_distances_loop`` takes the report's trace norms
one operator at a time with ``schatten_norm``; the package's written-out
contraction and stacked singular values must reproduce both bit for bit.

``schatten_norm`` is the Schatten p-norm of one operator through its
singular values, and ``profile_fault`` holds an even profile ``phi`` to
the admissibility rules of the balanced construction (finite, even,
non-negative, with a tilted tail that decays).

``snapshot_diagnostics_row`` and ``hermitian_trace_distance`` keep the
package's arithmetic one matrix per call: they are the one-snapshot
formulas that the stacked diagnostics and contraction distances must
reproduce bit for bit; ``worst_increase_loop`` is the contraction
report's worst-increase scan written as an explicit loop over pairs and
times.  ``exp_abs_smoothed`` is the smoothed weight ``H``
of the exp_abs profile in closed form (complementary error functions).

Six lookups read what a table, spectrum or decomposition holds:
``negation_index`` pairs each Bohr frequency with its negation by a search
over every pair (the package reads the ascending frequencies reversed),
``frequency_index`` finds the representative nearest a frequency,
``default_cluster_tol`` is the tolerance ``bohr_spectrum`` clusters with
when given none, ``table_entry`` reads ``G(nu, nu')`` by frequency,
``symmetry_defect`` is ``max |M - M^T|``, and ``dense_components`` scatters
a decomposition's retained components over the whole spectrum.

``benchmark_models`` and ``WELL_SEPARATED_SPECTRUM_6`` are the shared test
models: the four standard families, and a six-level spectrum for the
random model whose Bohr gaps are all distinct.

One helper is a fault, not a reference: ``sign_flipped_bundle`` reassembles
a filtered bundle with the off-diagonal signs of its coupling table flipped,
for the tests that show the standing checks catch it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp


# ---------------------------------------------------------------------------
# Superoperators and Lindblad actions, the slow and explicit way
# ---------------------------------------------------------------------------


def vec_column(a: np.ndarray) -> np.ndarray:
    """Column stacking: vec(A)[i + d*j] = A[i, j]."""
    return np.asarray(a, dtype=np.complex128).reshape(-1, order="F")


def unvec_column(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v, dtype=np.complex128).reshape((d, d), order="F")


def superoperator_by_columns(apply_fn, d: int) -> np.ndarray:
    """Assemble the (d^2, d^2) matrix of a linear map one matrix unit at a time."""
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for j in range(d):
        for i in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[i, j] = 1.0
            s[:, i + d * j] = vec_column(apply_fn(unit))
    return s


def hermiticity_defect_loop(superoperator: np.ndarray, seed: int) -> float:
    """Worst ``||L(T^dag) - L(T)^dag||_F / ||T||_F`` over ten seeded random
    ``T``, one matrix-vector product per operator."""
    rng = np.random.default_rng(seed)
    d = int(round(np.sqrt(superoperator.shape[0])))
    worst = 0.0
    for _ in range(10):
        t = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        lhs = unvec_column(superoperator @ vec_column(t.conj().T), d)
        rhs = unvec_column(superoperator @ vec_column(t), d).conj().T
        worst = max(worst, float(np.linalg.norm(lhs - rhs)) / float(np.linalg.norm(t)))
    return worst


def lindblad_action_loops(hamiltonian: np.ndarray, terms, operator: np.ndarray) -> np.ndarray:
    """Explicit-loop Lindblad action.

    ``terms`` is an iterable of ``(coefficient, A_left, A_right)`` triples;
    each contributes ``c (A_left T A_right^dag - (1/2){A_right^dag A_left, T})``.
    The Hamiltonian part is ``-i [H, T]``.
    """
    h = np.asarray(hamiltonian, dtype=np.complex128)
    t = np.asarray(operator, dtype=np.complex128)
    out = -1j * (h @ t - t @ h)
    for coeff, a_left, a_right in terms:
        al = np.asarray(a_left, dtype=np.complex128)
        ar_dag = np.asarray(a_right, dtype=np.complex128).conj().T
        sandwich = al @ t @ ar_dag
        gram = ar_dag @ al
        out = out + coeff * (sandwich - 0.5 * (gram @ t + t @ gram))
    return out


def rotate_superop_kron(u: np.ndarray, superoperator: np.ndarray) -> np.ndarray:
    """``W S W^dag`` with ``W = kron(conj(U), U)``: a column-stacked
    superoperator moved from the basis of ``U``'s columns to the original
    one, with the dense Kronecker product."""
    w = np.kron(np.conj(u), u)
    return w @ np.asarray(superoperator, dtype=np.complex128) @ w.conj().T


def _filter_profile(nodes, frequencies, sigma: float) -> np.ndarray:
    """``fhat(w_n - nu)`` (nodes x frequencies) with the closed form
    ``fhat(x) = (sqrt(pi)/sigma)^{1/2} e^{-x^2/(2 sigma^2)}``."""
    root = math.sqrt(math.sqrt(math.pi) / sigma)
    x = np.asarray(nodes)[:, None] - np.asarray(frequencies)[None, :]
    return root * np.exp(-(x * x) / (2.0 * sigma * sigma))


def node_sum_table(frequencies, nodes, node_weights, sigma: float) -> np.ndarray:
    """``K(nu, nu') = sum_n gw_n fhat(w_n - nu) fhat(w_n - nu')`` from one
    whole nodes x frequencies profile."""
    gw = np.asarray(node_weights, dtype=np.float64)
    profile = _filter_profile(nodes, frequencies, sigma)
    return np.einsum("n,ni,nk->ik", gw, profile, profile, optimize=True)


def omega_node_sum_dissipator(
    jumps_eig, frequencies, pair_index, nodes, node_weights, sigma: float
) -> tuple[np.ndarray, np.ndarray]:
    """Node-by-node sum over explicit filtered jumps on quadrature nodes.

    Node ``w_n`` with weight ``gw_n`` gives, for each jump ``A`` (eigenbasis
    entries ``A[i, k]`` at Bohr frequency ``nu = frequencies[pair_index[i,
    k]]``), the jump ``F_n[i, k] = fhat(w_n - nu) A[i, k]`` with the closed
    form ``fhat(x) = (sqrt(pi)/sigma)^{1/2} e^{-x^2/(2 sigma^2)}``.  Returns
    ``(S, M)``: ``S = sum gw_n kron(conj(F_n), F_n)``, the superoperator of
    ``T -> sum gw_n F_n T F_n^dag``, and ``M = sum gw_n F_n^dag F_n``.
    """
    profile = _filter_profile(nodes, frequencies, sigma)
    gw = np.asarray(node_weights, dtype=np.float64)
    d = pair_index.shape[0]
    s = np.zeros((d, d, d, d), dtype=np.complex128)
    m = np.zeros((d, d), dtype=np.complex128)
    for a in jumps_eig:
        f = profile[:, pair_index] * a[None, :, :]
        # kron(conj(F), F)[(j, i), (l, k)] = conj(F[j, l]) F[i, k]
        s += np.einsum("n,njl,nik->jilk", gw, f.conj(), f, optimize=True)
        m += np.einsum("n,nip,nik->pk", gw, f.conj(), f, optimize=True)
    return s.reshape(d * d, d * d), m


def sandwich_transposed(jumps_eig, coupling, pair_index) -> np.ndarray:
    """The sandwich ``T -> sum_A sum C(nu, nu') A_nu T A_nu'^dag`` in the
    eigenbasis, one ``(d, d, d, d)`` product ``A_ik conj(A_jl) C`` per jump
    in row-major order, moved to column-stacked layout by a transposed
    copy.  The package writes the column-stacked layout directly and must
    match this bit for bit."""
    d = pair_index.shape[0]
    coupling_big = coupling[pair_index[:, :, None, None], pair_index[None, None, :, :]]
    s = np.zeros((d * d, d * d), dtype=np.complex128)
    for a in jumps_eig:
        t = a[:, :, None, None] * a.conj()[None, None, :, :] * coupling_big
        s += t.transpose(2, 0, 3, 1).reshape(d * d, d * d)
    return s


# The package zeroes table entries below this fraction of max(1, max|x|):
# the square root of the smallest normal double, so that no product of two
# kept entries underflows.
UNDERFLOW_FLOOR = math.sqrt(np.finfo(float).tiny)


def node_sum_gram_unfloored(frequencies, nodes, node_weights, profile) -> np.ndarray:
    """``W^T W`` with ``W = sqrt(gw_n) profile(w_n - nu)`` over the nodes
    with ``gw_n > 0``, as one block and with every underflowing entry of
    ``W`` kept: the node-sum table with the package's own arithmetic but
    without its underflow floor."""
    gw = np.asarray(node_weights, dtype=np.float64)
    keep = gw > 0.0
    root = np.sqrt(gw[keep])[:, None] * profile(
        np.asarray(nodes)[keep, None] - np.asarray(frequencies)[None, :]
    )
    return root.T @ root


def negation_index(spectrum) -> np.ndarray:
    """Permutation ``perm`` with ``frequencies[perm[k]]`` the representative
    nearest ``-frequencies[k]``, by a search over every pair."""
    freqs = spectrum.frequencies
    return np.argmin(np.abs(freqs[:, None] + freqs[None, :]), axis=1)


def frequency_index(spectrum, nu: float) -> int:
    """Index of the Bohr frequency representative nearest ``nu``."""
    return int(np.argmin(np.abs(spectrum.frequencies - nu)))


def table_entry(table, nu: float, nu_prime: float) -> float:
    """The overlap coupling ``G(nu, nu')`` of a table, looked up by frequency."""
    spectrum = table.spectrum
    return float(table.values[frequency_index(spectrum, nu), frequency_index(spectrum, nu_prime)])


def symmetry_defect(matrix: np.ndarray) -> float:
    """Largest entry of ``|M - M^T|``."""
    return float(np.max(np.abs(matrix - matrix.T)))


def dense_components(decomposition) -> np.ndarray:
    """A decomposition's components scattered into a full ``(m, d, d)``
    array over its whole spectrum, zeros where nothing was retained."""
    spectrum = decomposition.spectrum
    d = spectrum.dim
    out = np.zeros((spectrum.size, d, d), dtype=np.complex128)
    out[decomposition.frequency_indices] = decomposition.components
    return out


#: Six-level spectrum whose 15 pairwise gaps are all distinct and at least
#: 0.5 apart, for the coherent-term and delocalisation studies that need a
#: well-separated Bohr spectrum.
WELL_SEPARATED_SPECTRUM_6 = (0.0, 0.5, 1.5, 3.5, 6.0, 10.0)


def benchmark_models():
    """The four standard models: qubit, 6-level ladder, 16-point line,
    12-point torus."""
    from gibbslab.models import oscillator_model, qubit_model, schrodinger_line_model, torus_model

    return (qubit_model(), oscillator_model(6), schrodinger_line_model(16), torus_model(12))


def overlap_table_dense(spectrum, weight, sigma: float, *, cross_check=True, floor=True):
    """The overlap table built on the full ``m x m`` pair grid: the exponent
    cap and the midpoints of every pair, ``H`` from
    ``weights.smoothed_weight_table`` on the distinct midpoints,
    ``H(-midpoint)`` read through the negation permutation, both tables
    floored (unless ``floor`` is false) and scattered through the full live
    mask, and the cross-check's entries ranked by a stable sort of every
    entry.  The package builds on the live upper band only and must
    reproduce this table, its picks and its defect bit for bit; with
    ``floor=False`` it keeps every entry below the underflow floor."""
    from gibbslab.oft import (
        _CROSS_CHECK_SAMPLES,
        _PAIR_EXPONENT_CAP,
        OverlapTable,
        _definitional_entries,
        _drop_underflow,
    )
    from gibbslab.weights import coherent_difference_factor, smoothed_weight_table, smoothing_rule

    freqs = spectrum.frequencies
    m = freqs.size
    gaps = freqs[:, None] - freqs[None, :]
    exponents = np.square(gaps) / (4.0 * sigma * sigma)
    live = exponents <= _PAIR_EXPONENT_CAP
    mids = 0.5 * (freqs[:, None] + freqs[None, :])
    upper = np.triu(live)
    centers, inverse = np.unique(mids[upper], return_inverse=True)
    h_mid = np.zeros((m, m))
    h_mid[upper] = smoothed_weight_table(weight, sigma, centers)[inverse]
    h_mid = np.where(upper, h_mid, h_mid.T)
    overlap = math.sqrt(math.pi) / sigma * np.exp(-exponents[live]) * h_mid[live]
    neg = negation_index(spectrum)
    with np.errstate(over="ignore", under="ignore"):
        sum_factor = np.exp(-mids[live]) * h_mid[np.ix_(neg, neg)][live]
    pair = 2.0 * math.pi * coherent_difference_factor(gaps[live], sigma) * sum_factor
    if floor:
        _drop_underflow(overlap)
        _drop_underflow(pair)
    values = np.zeros((m, m))
    values[live] = overlap
    coherent = np.zeros((m, m), dtype=np.complex128)
    coherent[live] = pair

    defect, evaluations, pairs = 0.0, 0, []
    if cross_check:
        vmax = float(np.max(np.abs(values)))
        flat_vals = np.abs(values.ravel())
        eligible = np.nonzero(flat_vals >= max(vmax, 1e-300) * 1e-30)[0]
        order = eligible[np.argsort(flat_vals[eligible], kind="stable")]
        take = np.unique(
            np.linspace(0, order.size - 1, min(_CROSS_CHECK_SAMPLES, order.size)).astype(int)
        )
        picked = {divmod(int(order[t]), m) for t in take}
        pairs = sorted(picked | {(i, i) for i in (0, m // 2, m - 1)})
        directs, evaluations = _definitional_entries(
            [(float(freqs[i]), float(freqs[j])) for i, j in pairs], weight, sigma
        )
        for (i, j), direct in zip(pairs, directs):
            scale = max(abs(values[i, j]), abs(direct), 1e-300)
            rel = abs(values[i, j] - direct) / scale
            if max(abs(direct), abs(values[i, j])) < max(vmax, 1e-300) * 1e-30:
                rel = 0.0
            defect = max(defect, rel)
    return OverlapTable(
        spectrum=spectrum,
        values=values,
        coherent=coherent,
        smoothing_rule=smoothing_rule(weight),
        cross_check_defect=defect,
        cross_check_entries=len(pairs),
        cross_check_evaluations=evaluations,
        dropped_entries=int(values.size - np.count_nonzero(values)),
        live_pairs=int(np.count_nonzero(upper)),
    )


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``0.5 * ||a - b||_1`` through the singular values of the difference."""
    diff = np.asarray(a, dtype=np.complex128) - np.asarray(b, dtype=np.complex128)
    return 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))


def schatten_norm(matrix: np.ndarray, p: float) -> float:
    """Schatten p-norm through singular values: ``p = 1`` the trace norm,
    ``p = 2`` the Frobenius norm (computed directly, without an SVD) and
    ``p = inf`` the operator norm."""
    arr = np.asarray(matrix, dtype=np.complex128)
    if p == 2:
        return float(np.linalg.norm(arr))
    singular = np.linalg.svd(arr, compute_uv=False)
    if np.isinf(p):
        return float(singular[0])
    return float(np.sum(singular**p) ** (1.0 / p))


def dissipator_superop(bundle) -> np.ndarray:
    """A bundle's superoperator less its commutator part ``-i[P + B, .]``.

    The commutator part is assembled column by column from the model's
    Hamiltonian and the bundle's coherent matrix; what remains is the
    dissipator ``sum C (A_nu T A_nu'^dag - (1/2){A_nu^dag A_nu', T})``.
    """
    h = bundle.model.hamiltonian + bundle.coherent_matrix
    commutator = superoperator_by_columns(lambda t: -1j * (h @ t - t @ h), bundle.dim)
    return np.asarray(bundle.superoperator) - commutator


def parent_tail(bundle) -> tuple[np.ndarray, np.ndarray]:
    """``(superoperator, effective_drift)`` of ``bundle`` assembled eagerly in
    the original basis: the drift ``Y = i(P + B) - M/2`` with ``M`` rotated
    out of the eigenbasis, the eigenbasis sandwich of the bundle's coupling
    table rotated, then ``Y^dag T + T Y`` added in place.  The eigenbasis
    jumps are recomputed from the model's eigensystem."""
    from gibbslab.generators import _add_drift, _bohr_sum_dissipator, _pair_sum, _rotate_superop

    system = bundle.model.eigensystem()
    jumps_eig = [system.to_eigenbasis(a) for a in bundle.model.jumps]
    idx = bundle.spectrum.pair_index
    m_kernel = system.from_eigenbasis(_pair_sum(jumps_eig, bundle.coupling, idx))
    drift = 1j * (bundle.model.hamiltonian + bundle.coherent_matrix) - 0.5 * m_kernel
    superop = _rotate_superop(system, _bohr_sum_dissipator(jumps_eig, bundle.coupling, idx)[0])
    _add_drift(superop, drift)
    return superop, drift


def davies_limit_rows_original_basis(model, phi, sigmas, seed: int) -> list[dict]:
    """``davies_distance_p1`` and ``stationarity_residual`` per bandwidth,
    from the original-basis superoperators of the filtered generators and of
    the delocalised limit: the same five seeded unit-Frobenius Hermitian test
    operators, applied by column-stacked products, the largest trace norm of
    the difference through singular values, and the residual on the Gibbs
    density of ``gibbs_expm``."""
    from gibbslab.generators import davies_generator, localised_generator
    from gibbslab.weights import balanced_gamma, delocalised_limit_gamma

    rng = np.random.default_rng(seed)
    d = model.dim
    test_ops = []
    for _ in range(5):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t = 0.5 * (z + z.conj().T)
        test_ops.append(t / np.linalg.norm(t))
    limit = davies_generator(model, delocalised_limit_gamma(phi)).superoperator
    rho = gibbs_expm(model.hamiltonian)
    rows = []
    for s in sigmas:
        superop = localised_generator(model, balanced_gamma(phi, float(s)), float(s)).superoperator
        distances = [
            2.0 * trace_distance(
                unvec_column(superop @ vec_column(t), d), unvec_column(limit @ vec_column(t), d)
            )
            for t in test_ops
        ]
        residual = np.linalg.norm(superop @ vec_column(rho)) / np.linalg.norm(rho)
        rows.append({"davies_distance_p1": max(distances), "stationarity_residual": float(residual)})
    return rows


def pair_sum_optimized(jumps_eig, table: np.ndarray, pair_index: np.ndarray) -> np.ndarray:
    """``sum_A sum_{nu, nu'} T(nu, nu') A_nu^dag A_nu'`` in the eigenbasis,
    one ``einsum(optimize=True)`` per jump over the gathered table."""
    table3 = table[pair_index[:, :, None], pair_index[:, None, :]]
    d = pair_index.shape[0]
    out = np.zeros((d, d), dtype=np.complex128)
    for a in jumps_eig:
        out += np.einsum("pi,pk,pik->ik", a.conj(), a, table3, optimize=True)
    return out


def davies_distances_loop(model, phi, sigma: float, seed: int) -> list[float]:
    """The trace norms behind one ``davies_limit_report`` row: the report's
    five seeded test operators and eigenbasis actions, each difference's
    norm from its own ``schatten_norm(., 1)``."""
    from gibbslab.generators import davies_generator, localised_generator
    from gibbslab.weights import balanced_gamma, delocalised_limit_gamma

    rng = np.random.default_rng(seed)
    d = model.dim
    test_ops = []
    for _ in range(5):
        z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        t = 0.5 * (z + z.conj().T)
        test_ops.append(t / np.linalg.norm(t))
    u = model.eigensystem().eigenvectors
    ops_eig = u.conj().T @ np.stack(test_ops) @ u
    limit = davies_generator(model, delocalised_limit_gamma(phi)).eigen_action(ops_eig)
    images = localised_generator(model, balanced_gamma(phi, sigma), sigma).eigen_action(ops_eig)
    return [schatten_norm(a - b, 1.0) for a, b in zip(images, limit)]


def sign_flipped_bundle(bundle):
    """A deliberately wrong generator: the filtered ``bundle`` reassembled
    with every off-diagonal sign of its coupling table flipped,
    ``2 diag(diag(C)) - C``, through the package's own assembly tail
    (``generators._bundle``).  Its coherent matrix and frame are the
    bundle's, so only the coupling is at fault; the checks that must catch
    it (stationarity, the dual-path residual, complete positivity) are what
    the tests exercise."""
    from gibbslab.generators import _bundle

    coupling = bundle.coupling
    flipped = 2.0 * np.diag(np.diag(coupling)) - coupling
    return _bundle(
        bundle.kind, bundle.assembly_path, bundle.model, bundle.weight, flipped,
        bundle.coherent_matrix, dict(bundle.diagnostics),
    )


def gibbs_action_identity_defect(bundle) -> float:
    """Defect of ``D(rho_G) = i [B, rho_G]`` for a filtered bundle.

    The dissipator's action on the Gibbs density must be exactly the
    commutator action that the coherent matrix was built to cancel.  The
    Gibbs density comes from the dense exponential and the action from
    :func:`dissipator_superop`; returns the Frobenius defect relative to the
    Gibbs norm.
    """
    rho = gibbs_expm(bundle.model.hamiltonian)
    d = rho.shape[0]
    lhs = unvec_column(dissipator_superop(bundle) @ vec_column(rho), d)
    b = bundle.coherent_matrix
    rhs = 1j * (b @ rho - rho @ b)
    return float(np.linalg.norm(lhs - rhs)) / float(np.linalg.norm(rho))


def drift_dissipativity_defect(drift: np.ndarray) -> float:
    """Largest ``Re <Y u, u>`` over unit vectors ``u``: the top eigenvalue of
    the Hermitian part of ``Y``.  A dissipative drift has its numerical range
    in the closed left half-plane, so this is at most a small roundoff."""
    y = np.asarray(drift, dtype=np.complex128)
    return float(np.linalg.eigvalsh(0.5 * (y + y.conj().T))[-1])


# ---------------------------------------------------------------------------
# Frequency splitting through grouped spectral projectors
# ---------------------------------------------------------------------------


def spectral_projectors(hamiltonian: np.ndarray, tol: float = 1e-9):
    """Eigenvalues grouped within ``tol`` and their orthogonal projectors."""
    vals, vecs = np.linalg.eigh(np.asarray(hamiltonian, dtype=np.complex128))
    groups: list[list[int]] = []
    for k, v in enumerate(vals):
        if groups and v - vals[groups[-1][0]] <= tol:
            groups[-1].append(k)
        else:
            groups.append([k])
    energies = [float(np.mean(vals[g])) for g in groups]
    projectors = [
        sum(np.outer(vecs[:, k], vecs[:, k].conj()) for k in g) for g in groups
    ]
    return energies, projectors


def bohr_components_projectors(
    operator: np.ndarray, hamiltonian: np.ndarray, tol: float = 1e-9
) -> dict[float, np.ndarray]:
    """Frequency components ``A_nu = sum_{E_a - E_b = nu} P_a A P_b``.

    The returned components satisfy ``[H, A_nu] = +nu A_nu`` and sum to the
    operator.  Frequencies are merged when they agree within ``tol``.
    """
    energies, projectors = spectral_projectors(hamiltonian, tol)
    raw: list[tuple[float, np.ndarray]] = []
    for ea, pa in zip(energies, projectors):
        for eb, pb in zip(energies, projectors):
            comp = pa @ np.asarray(operator, dtype=np.complex128) @ pb
            if np.linalg.norm(comp) > 0.0:
                raw.append((ea - eb, comp))
    merged: dict[float, np.ndarray] = {}
    for nu, comp in sorted(raw, key=lambda item: item[0]):
        for known in merged:
            if abs(known - nu) <= tol:
                merged[known] = merged[known] + comp
                break
        else:
            merged[nu] = comp.copy()
    return merged


def adjoint_pairing_residual(direct, adjoint) -> float:
    """Largest Frobenius deviation from ``(A^dag)_(-nu) = (A_nu)^dag``.

    ``direct`` and ``adjoint`` are Bohr decompositions of ``A`` and of
    ``A^dag`` over one spectrum; the negated frequency is looked up by
    value, not through the spectrum's own negation map.
    """
    freqs = direct.spectrum.frequencies
    flip = [int(np.argmin(np.abs(freqs + f))) for f in freqs]
    mine = dense_components(direct)
    theirs = dense_components(adjoint)
    return max(
        float(np.linalg.norm(theirs[flip[k]] - mine[k].conj().T)) for k in range(freqs.size)
    )


# ---------------------------------------------------------------------------
# Filtered operators through their time-domain definition
# ---------------------------------------------------------------------------


def oft_eval_time_quadrature(
    hamiltonian: np.ndarray, operator: np.ndarray, omega: float, sigma: float
) -> np.ndarray:
    """Filtered operator via the time-domain definition.

    Evaluates ``(2 pi)^{-1/2} integral f_sigma(t) e^{iPt} A e^{-iPt}
    e^{-i omega t} dt``, with ``f_sigma(t) = sigma^{1/2} pi^{1/4}
    e^{-t^2 sigma^2 / 2}``, by a 4096-node trapezoid on ``|t| <= 12 / sigma``.
    The Heisenberg phases are applied in the eigenbasis of ``P``, where they
    are elementwise ``e^{i (E_a - E_b) t}`` factors.
    """
    energies, u = np.linalg.eigh(np.asarray(hamiltonian, dtype=np.complex128))
    a_eig = u.conj().T @ np.asarray(operator, dtype=np.complex128) @ u
    diff = energies[:, None] - energies[None, :]
    span = 12.0 / sigma
    ts = np.linspace(-span, span, 4096)
    profile = math.sqrt(sigma) * math.pi**0.25 * np.exp(-0.5 * (ts * sigma) ** 2)
    envelope = profile * np.exp(-1j * float(omega) * ts)
    trapezoid_w = np.full(ts.size, ts[1] - ts[0])
    trapezoid_w[0] *= 0.5
    trapezoid_w[-1] *= 0.5
    kernel = np.tensordot(trapezoid_w * envelope, np.exp(1j * np.multiply.outer(ts, diff)), axes=(0, 0))
    return u @ (kernel * a_eig / math.sqrt(2.0 * math.pi)) @ u.conj().T


# ---------------------------------------------------------------------------
# QUADPACK evaluations of the scalar building blocks
# ---------------------------------------------------------------------------


# Where the profile checks sample: evenness and sign on a grid out to
# |x| = 8, the tilted tail on a ladder out to |x| = 40.
_PHI_EVEN_SAMPLES = np.linspace(0.25, 8.0, 32)
_PHI_TAIL_SAMPLES = (8.0, 12.0, 17.0, 23.0, 30.0, 40.0)


def profile_fault(fn) -> str | None:
    """The first admissibility fault of an even-profile candidate ``phi``,
    or ``None``: it must be finite and even on a sample grid, non-negative,
    and ``phi(x) e^{|x|/4}`` must be finite and non-increasing on a ladder
    out to ``|x| = 40`` (both signs).  The tail rule makes every
    Gaussian-tilted integral of the derived weights converge and keeps the
    smoothed sum factor bounded on any admissible spectrum; profiles with
    polynomial or constant tails fail it."""
    xs = _PHI_EVEN_SAMPLES
    plus = np.asarray(fn(xs), dtype=np.float64)
    minus = np.asarray(fn(-xs), dtype=np.float64)
    if not (np.all(np.isfinite(plus)) and np.all(np.isfinite(minus))):
        return "is not finite on the test grid"
    if np.any(np.abs(plus - minus) > 1e-12 * (1.0 + np.abs(plus))):
        return "is not even"
    if np.any(np.asarray(fn(np.concatenate([[0.0], xs, -xs])), dtype=np.float64) < 0.0):
        return "is negative"
    for sign in (1.0, -1.0):
        ts = sign * np.asarray(_PHI_TAIL_SAMPLES)
        tail = np.asarray(fn(ts), dtype=np.float64) * np.exp(np.abs(ts) / 4.0)
        if not np.all(np.isfinite(tail)):
            return "has a non-finite tilted tail"
        if np.any(np.diff(tail) > 1e-9 * (1.0 + tail[:-1])):
            return "decays too slowly"
    return None


def _split_points(weight, lo: float, hi: float, extra=(), min_gap: float = 0.0) -> list[float]:
    """Sorted break points inside ``(lo, hi)``; points within ``min_gap`` of
    the previous one are dropped, since QUADPACK rejects sub-roundoff
    intervals."""
    pts: list[float] = []
    for p in sorted(
        {float(p) for p in (*getattr(weight, "breakpoints", ()), *extra) if lo < float(p) < hi}
    ):
        if not pts or p - pts[-1] > min_gap:
            pts.append(p)
    return pts


def smoothed_weight_quad(center: float, sigma: float, weight, pad: float = 60.0) -> float:
    """``integral gamma(w) e^{-(w - c)^2 / sigma^2} dw`` by QUADPACK.

    The window covers the filter hull around both the center and the
    origin plus a wide tilt allowance, because exponentially tilted weights
    push the product's mass far from the Gaussian's center.  Break points at
    ``c +- k sigma`` (``k`` = 1, 2, 4, 8), as in :func:`overlap_entry_quad`,
    put the peak under QUADPACK's first subdivision: without them it misses
    a peak of width ``sigma <= 0.01`` in the ``+-60`` window and returns
    about zero.  As there, the variable is ``u = w - c``, and the weight's
    break points move with it: the Gaussian's argument ``u`` then carries
    no rounding from ``|w|``, which in ``w`` itself cost 1.6e-8 relative at
    ``c = 300`` and ``sigma = 1e-6``.
    """
    c = float(center)
    lo = min(c, 0.0) - 8.0 * sigma - pad - c
    hi = max(c, 0.0) + 8.0 * sigma + pad - c

    def integrand(u):
        return float(weight(c + u)) * math.exp(-(u * u) / (sigma * sigma))

    peak = [sign * k * sigma for k in (1.0, 2.0, 4.0, 8.0) for sign in (-1.0, 1.0)]
    breaks = (float(b) - c for b in getattr(weight, "breakpoints", ()))
    points = _split_points(None, lo, hi, extra=(0.0, -c, *peak, *breaks), min_gap=1e-6 * sigma)
    value, _ = quad(
        integrand, lo, hi, points=points or None, limit=400, epsabs=1e-300, epsrel=1e-12
    )
    return value


def pair_coefficient_quad(nu: float, nu_prime: float, sigma: float, weight) -> complex:
    """Coherent pair coefficient from its definition, all integrals QUADPACK.

    ``2 pi * [-(i / (4 sigma sqrt(pi))) e^{-xi^2/(4 sigma^2)} tanh(xi / 4)]
    * [e^{-zeta/2} H(-zeta/2)]`` with ``xi = nu - nu'``, ``zeta = nu + nu'``.
    """
    xi = float(nu) - float(nu_prime)
    zeta = float(nu) + float(nu_prime)
    diff = (
        -1j
        / (4.0 * sigma * math.sqrt(math.pi))
        * math.exp(-(xi * xi) / (4.0 * sigma * sigma))
        * math.tanh(0.25 * xi)
    )
    total = math.exp(-0.5 * zeta) * smoothed_weight_quad(-0.5 * zeta, sigma, weight)
    return 2.0 * math.pi * diff * total


def overlap_entry_quad(nu: float, nu_prime: float, sigma: float, weight) -> float:
    """``integral gamma(w) fhat(w - nu) fhat(w - nu') dw`` by QUADPACK.

    ``fhat`` is the filter's frequency profile ``(sqrt(pi)/sigma)^{1/2}
    e^{-(.)^2/(2 sigma^2)}``; the product completes to a Gaussian of width
    ``sigma/sqrt(2)`` centred between the two frequencies, but this oracle
    does not use that closed form.  It only places break points at
    ``mid +- k sigma`` (``k`` = 1, 2, 4, 8) about that centre ``mid``, so
    that QUADPACK's first subdivision lands on the peak however narrow it
    is next to the ``+-60`` window.  The variable is ``u = w - mid``: the
    profile arguments ``u - (nu - mid)`` then carry no rounding from
    ``|w|``, which in ``w`` itself costs about ``eps |nu| / sigma``
    relative (5e-12 at ``|nu| = 144``, ``sigma = 0.001``).
    """
    n1, n2 = float(nu), float(nu_prime)
    root = math.sqrt(math.sqrt(math.pi) / sigma)
    mid = 0.5 * (n1 + n2)
    d1, d2 = n1 - mid, n2 - mid

    def fhat(x):
        return root * math.exp(-(x * x) / (2.0 * sigma * sigma))

    lo = min(n1, n2, 0.0) - 8.0 * sigma - 60.0 - mid
    hi = max(n1, n2, 0.0) + 8.0 * sigma + 60.0 - mid

    def integrand(u):
        return float(weight(mid + u)) * fhat(u - d1) * fhat(u - d2)

    peak = [sign * k * sigma for k in (1.0, 2.0, 4.0, 8.0) for sign in (-1.0, 1.0)]
    anchors = (d1, d2, 0.0, -mid, *peak, *(float(b) - mid for b in weight.breakpoints))
    points = _split_points(None, lo, hi, extra=anchors, min_gap=1e-6 * sigma)
    value, _ = quad(
        integrand, lo, hi, points=points or None, limit=400, epsabs=1e-300, epsrel=1e-12
    )
    return value


def gibbs_coefficient_table_quad(freqs, sigma: float, weight) -> np.ndarray:
    """Coefficient of ``A_tau^dag A_tau' e^{-P}`` in the dissipator's Gibbs
    action at every pair of ``freqs``, from QUADPACK overlaps.

    ``e^{-tau'} G(-tau, -tau') - (1/2)(1 + e^{tau - tau'}) G(tau, tau')`` with
    ``G`` from :func:`overlap_entry_quad`, integrated once per unordered pair
    of ``freqs`` and their negations.  The scalar identity behind Gibbs
    stationarity equates it with ``i (1 - e^{tau - tau'}) b(tau, tau')``.
    """
    taus = [float(t) for t in freqs]
    grid = sorted({*taus, *(-t for t in taus)})
    g = {}
    for i, a in enumerate(grid):
        for b in grid[i:]:
            g[a, b] = g[b, a] = overlap_entry_quad(a, b, sigma, weight)
    out = np.empty((len(taus), len(taus)))
    for i, t in enumerate(taus):
        for j, tp in enumerate(taus):
            out[i, j] = math.exp(-tp) * g[-t, -tp] - 0.5 * (1.0 + math.exp(t - tp)) * g[t, tp]
    return out


def time_kernel_quad(t: float, sigma: float) -> float:
    """Inverse Fourier transform of the odd difference factor, by QUADPACK.

    ``k(t) = (1 / sqrt(2 pi)) (1 / (4 sigma sqrt(pi)))
    integral e^{-xi^2/(4 sigma^2)} tanh(xi/4) sin(xi t) dxi``
    (the cosine part vanishes by oddness).
    """
    tt = float(t)

    def envelope(xi):
        return math.exp(-(xi * xi) / (4.0 * sigma * sigma)) * math.tanh(0.25 * xi)

    hi = 10.0 * sigma + 10.0
    # QAWO (oscillatory weight sin(xi t)) stays accurate when the sine packs
    # many cycles under the Gaussian envelope at large bandwidths.
    # Absolute floor 1e-13: near t = 0 the integral vanishes linearly and a
    # purely relative target would spin QUADPACK into roundoff warnings.
    value, _ = quad(
        envelope, 0.0, hi, weight="sin", wvar=tt, limit=400, epsabs=1e-13, epsrel=1e-11
    )
    # integrand is even in xi (odd times odd), so the full line is twice this
    return 2.0 * value / (math.sqrt(2.0 * math.pi) * 4.0 * sigma * math.sqrt(math.pi))


def time_kernel_all_nodes(t, sigma: float) -> np.ndarray:
    """The coherent time kernel of ``weights.coherent_time_kernel`` on its
    own Gauss-Legendre panels (16 nodes, width ``min(0.5/sigma, 0.25)``),
    as one sum of every distinct ``|t|`` over every node out to
    ``max|t| + 12/sigma + 2``: no window, ``n_t x n_nodes`` exponentials."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=np.float64))
    mags, where = np.unique(np.abs(t_arr), return_inverse=True)
    panel = min(0.5 / sigma, 0.25)
    n_panels = math.ceil((float(mags[-1]) + 12.0 / sigma + 2.0) / panel)
    edges = np.linspace(0.0, n_panels * panel, n_panels + 1)
    x_ref, w_ref = np.polynomial.legendre.leggauss(16)
    mids = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mids[:, None] + half[:, None] * x_ref[None, :]).ravel()
    wts = (half[:, None] * w_ref[None, :]).ravel()
    with np.errstate(over="ignore"):
        csch = wts / np.sinh(2.0 * math.pi * nodes)
    diff = np.exp(-(sigma * (mags[:, None] - nodes[None, :])) ** 2) - np.exp(
        -(sigma * (mags[:, None] + nodes[None, :])) ** 2
    )
    return np.sign(t_arr) * (diff @ csch / math.sqrt(2.0 * math.pi))[where]


def time_kernel_l1_quad(sigma: float, scale: float) -> float:
    """``scale/spectral * integral |k(t)| dt`` with ``k`` from ``time_kernel_quad``.

    The kernel is odd and positive for positive times, so the integral is
    twice the half-line integral of the kernel itself.
    """
    spectral = 1.0 / math.sqrt(2.0 * math.pi)
    half, _ = quad(
        lambda t: time_kernel_quad(t, sigma),
        0.0,
        12.0 + 6.0 / sigma,
        limit=400,
        epsabs=1e-14,
        epsrel=1e-10,
    )
    return (scale / spectral) * 2.0 * half


def tilted_envelope_quad(s: float, sigma: float, weight) -> complex:
    """Complex envelope ``2 sqrt(pi) sigma e^{-sigma^2 (2s+i)^2/4} ghat(2s+i)``.

    ``ghat(2s+i) = (2 pi)^{-1/2} integral gamma(w) e^{w} e^{-2 i w s} dw``,
    evaluated as two real QUADPACK integrals.
    """
    ss = float(s)

    def tilted(w):
        return float(weight(w)) * math.exp(w)

    lo, hi = -80.0, 80.0
    points = _split_points(weight, lo, hi, extra=(0.0,))
    re, _ = quad(
        lambda w: tilted(w) * math.cos(2.0 * w * ss),
        lo, hi, points=points or None, limit=400, epsabs=1e-300, epsrel=1e-12,
    )
    im, _ = quad(
        lambda w: tilted(w) * math.sin(2.0 * w * ss),
        lo, hi, points=points or None, limit=400, epsabs=1e-300, epsrel=1e-12,
    )
    ghat = (re - 1j * im) / math.sqrt(2.0 * math.pi)
    z = 2.0 * ss + 1j
    return 2.0 * math.sqrt(math.pi) * sigma * np.exp(-(sigma * sigma) * z * z / 4.0) * ghat


def time_envelope_direct(s, sigma: float, weight) -> np.ndarray:
    """The complex time envelope of ``weights.coherent_time_envelope`` on
    the same panel nodes, as one direct sum of ``e^{-2isw}`` over every node
    (``n_s x n_nodes`` complex exponentials)."""
    s_arr = np.atleast_1d(np.asarray(s, dtype=np.float64))

    def tilted(w):
        return weight(w) * np.exp(w)

    probe = np.linspace(-80.0, 80.0, 2001)
    tilted_vals = tilted(probe)
    live = probe[tilted_vals >= np.max(tilted_vals) * 1e-26]
    lo, hi = float(live[0]) - 5.0, float(live[-1]) + 5.0
    bps = [float(b) for b in weight.breakpoints if lo < float(b) < hi]
    edges = np.unique(np.concatenate([[lo, hi], bps]))
    max_step = min(0.5 * math.pi / max(float(np.max(np.abs(s_arr))), 1.0), 0.5)
    panel_edges = np.concatenate(
        [
            np.linspace(a, b, max(1, math.ceil((b - a) / max_step)) + 1)[:-1]
            for a, b in zip(edges[:-1], edges[1:])
        ]
        + [[hi]]
    )
    x_ref, w_ref = np.polynomial.legendre.leggauss(16)
    mids = 0.5 * (panel_edges[:-1] + panel_edges[1:])
    half = 0.5 * (panel_edges[1:] - panel_edges[:-1])
    nodes = (mids[:, None] + half[:, None] * x_ref[None, :]).ravel()
    wts = (half[:, None] * w_ref[None, :]).ravel()
    ghat = np.exp(-2j * np.outer(s_arr, nodes)) @ (tilted(nodes) * wts) / math.sqrt(2.0 * math.pi)
    z = 2.0 * s_arr + 1j
    return 2.0 * math.sqrt(math.pi) * sigma * np.exp(-(sigma * sigma) * z * z / 4.0) * ghat


def envelope_sum_loop(energies, jumps_eig, ss, wb2) -> np.ndarray:
    """``sum_A sum_s wb2_s e^{iEs} A^dag e^{-2iEs} A e^{iEs}`` in the
    eigenbasis, one jump and one node at a time."""
    d = len(energies)
    inner = np.zeros((d, d), dtype=np.complex128)
    for a in jumps_eig:
        ad = a.conj().T
        for s_val, w_val in zip(ss, wb2):
            ph = np.exp(1j * energies * s_val)
            core = ad @ (np.exp(-2j * energies * s_val)[:, None] * a)
            inner += w_val * (ph[:, None] * core * ph[None, :])
    return inner


# ---------------------------------------------------------------------------
# Propagation and Choi assembly, the independent way
# ---------------------------------------------------------------------------


def evolve_ivp(superoperator: np.ndarray, initial_state: np.ndarray, t: float) -> np.ndarray:
    """Propagate by adaptive Runge-Kutta on the vectorised ODE."""
    s = np.asarray(superoperator, dtype=np.complex128)
    d = np.asarray(initial_state).shape[0]
    y0 = vec_column(initial_state)
    sol = solve_ivp(
        lambda _, y: s @ y,
        (0.0, float(t)),
        y0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"reference ODE propagation failed: {sol.message}")
    return unvec_column(sol.y[:, -1], d)


def choi_by_units(channel_superoperator: np.ndarray) -> np.ndarray:
    """Choi matrix assembled by pushing each matrix unit through the channel.

    ``J = sum_{ij} |i><j| (x) E(|i><j|)`` with the unit factor on the left
    of the Kronecker product -- the arrangement under which ``J`` of the
    identity channel equals ``d`` times the maximally entangled projector
    and complete positivity is equivalent to ``J >= 0``.  (The opposite
    order is the swap conjugate; it has the same spectrum.)
    """
    e = np.asarray(channel_superoperator, dtype=np.complex128)
    d = int(round(e.shape[0] ** 0.5))
    j = np.zeros((d * d, d * d), dtype=np.complex128)
    for i in range(d):
        for k in range(d):
            unit = np.zeros((d, d), dtype=np.complex128)
            unit[i, k] = 1.0
            image = unvec_column(e @ vec_column(unit), d)
            j += np.kron(unit, image)
    return j


def gibbs_expm(hamiltonian: np.ndarray) -> np.ndarray:
    """Gibbs density through the dense matrix exponential."""
    from scipy.linalg import expm

    rho = expm(-np.asarray(hamiltonian, dtype=np.complex128))
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


# ---------------------------------------------------------------------------
# Single-snapshot diagnostics, one matrix at a time
# ---------------------------------------------------------------------------


def hermitian_trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Trace distance ``0.5 * sum |eig|`` of the Hermitised ``a - b``, one
    pair of matrices per ``eigvalsh`` call."""
    diff = a - b
    diff = 0.5 * (diff + diff.conj().T)
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(diff))))


def snapshot_diagnostics_row(state: np.ndarray, reference: np.ndarray) -> dict:
    """One snapshot's health numbers by the one-state formulas the package's
    stacked pass must reproduce bit for bit."""
    herm = 0.5 * (state + state.conj().T)
    return {
        "trace_deviation": abs(complex(np.trace(state)) - 1.0),
        "hermiticity_defect": float(np.linalg.norm(state - state.conj().T)),
        "min_eigenvalue": float(np.min(np.linalg.eigvalsh(herm))),
        "gibbs_distance": hermitian_trace_distance(herm, reference),
    }


def worst_increase_loop(rows, times) -> tuple[float, int | None, float | None]:
    """``(worst_increase, worst_pair, worst_time)`` of contraction rows: the
    first largest rise between neighbouring times, scanned pair by pair, or
    ``(0.0, None, None)`` when no distance rises."""
    worst_increase, worst_pair, worst_time = 0.0, None, None
    for row in rows:
        d = row["distances"]
        for k, (a, b) in enumerate(zip(d[:-1], d[1:])):
            if b - a > worst_increase:
                worst_increase = b - a
                worst_pair = row["pair"]
                worst_time = float(times[k + 1])
    return worst_increase, worst_pair, worst_time


# ---------------------------------------------------------------------------
# Closed forms
# ---------------------------------------------------------------------------


def exp_abs_smoothed(centers, sigma: float, shift: float) -> np.ndarray:
    """``H(c) = integral e^{-w/2} e^{-|w + shift|} e^{-(w - c)^2 / sigma^2} dw``
    in closed form.

    With ``a = c + shift`` and ``u = w + shift`` the integrand is
    ``e^{shift/2} e^{-u/2 - |u|} e^{-(u - a)^2 / sigma^2}``.  Completing the
    square on each side of the kink ``u = 0`` gives
    ``e^{shift/2} (sigma sqrt(pi) / 2) [e^{9 sigma^2/16 - 3a/2}
    erfc((3 sigma^2/4 - a) / sigma) + e^{sigma^2/16 + a/2}
    erfc((a + sigma^2/4) / sigma)]`` (``u > 0`` first).  Away from the kink
    the half that matters has an ``erfc`` near 2 and the other underflows
    harmlessly to zero.
    """
    from scipy.special import erfc

    var = sigma * sigma
    a = np.asarray(centers, dtype=np.float64) + shift
    right = np.exp(0.5625 * var - 1.5 * a) * erfc((0.75 * var - a) / sigma)
    left = np.exp(0.0625 * var + 0.5 * a) * erfc((a + 0.25 * var) / sigma)
    return math.exp(0.5 * shift) * 0.5 * sigma * math.sqrt(math.pi) * (right + left)


def bohr_sum_dissipator_dense(jumps_eig, coupling, pair_index) -> np.ndarray:
    """The sandwich ``T -> sum_A sum C(nu, nu') A_nu T A_nu'^dag`` in the
    eigenbasis with every one of its d^4 entries computed: one ``(d, d, d)``
    block of column-stacked rows ``(i, j)`` per ``j``, entry ``[i, l, k]``
    ``sum_A (A_ik conj(A_jl)) C(nu_ik, nu_jl)``.  The package computes only
    the coupling's live band and must match this bit for bit."""
    d = pair_index.shape[0]
    conj = [a.conj() for a in jumps_eig]
    s_sandwich = np.zeros((d, d, d, d), dtype=np.complex128)
    term = np.empty((d, d, d), dtype=np.complex128)
    for j in range(d):
        coupling_j = coupling[pair_index[:, None, :], pair_index[j][None, :, None]]
        for a, a_conj in zip(jumps_eig, conj):
            np.multiply(a[:, None, :], a_conj[j][None, :, None], out=term)
            term *= coupling_j
            s_sandwich[j] += term
    return s_sandwich.reshape(d * d, d * d)


def default_cluster_tol(system) -> float:
    """The clustering tolerance ``bohr_spectrum`` takes when given none:
    ``DEFAULT_CLUSTER_SCALE`` times the spectral width."""
    from gibbslab.bohr import DEFAULT_CLUSTER_SCALE

    return DEFAULT_CLUSTER_SCALE * float(system.eigenvalues[-1] - system.eigenvalues[0])


def bohr_spectrum_loop(source, cluster_tol=None):
    """The Bohr spectrum clustered by one greedy scan over every sorted
    |difference| and one ``np.mean`` per cluster: the package splits at the
    gaps wider than the tolerance, scans only the wider runs between them
    and takes the means of one- and two-member clusters vectorised, and
    must match this bit for bit."""
    from gibbslab.bohr import BohrSpectrum
    from gibbslab.operator_core import EigenSystem, eig_hermitian

    system = source if isinstance(source, EigenSystem) else eig_hermitian(source)
    energies = system.eigenvalues
    d = energies.shape[0]
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(system)
    diff = energies[:, None] - energies[None, :]
    magnitudes = np.abs(diff).reshape(-1)
    order = np.argsort(magnitudes, kind="stable")
    sorted_mags = magnitudes[order]

    slices = []
    start = 0
    for k in range(1, sorted_mags.size):
        if sorted_mags[k] - sorted_mags[start] > cluster_tol:
            slices.append(slice(start, k))
            start = k
    slices.append(slice(start, sorted_mags.size))

    cluster_of_flat = np.empty(d * d, dtype=np.intp)
    reps = np.empty(len(slices))
    max_diameter = 0.0
    for cid, sl in enumerate(slices):
        cluster_of_flat[order[sl]] = cid
        members = sorted_mags[sl]
        reps[cid] = float(members.mean())
        max_diameter = max(max_diameter, float(members[-1] - members[0]))
    reps[0] = 0.0
    positive = reps[1:]
    frequencies = np.concatenate([-positive[::-1], [0.0], positive])
    sign = np.sign(diff).astype(np.intp)
    pair_index = positive.size + sign * cluster_of_flat.reshape(d, d)
    return BohrSpectrum(
        frequencies=frequencies,
        pair_index=pair_index,
        max_cluster_diameter=max_diameter,
    )
