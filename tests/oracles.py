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
forms: ``time_envelope_direct`` sums ``e^{-2isw}`` over every panel node
without the package's panel-centre split, and ``envelope_sum_loop`` sums
its inner envelope integral one trapezoid node at a time.

Three references keep the package's arithmetic and drop one of its
shortcuts: ``sandwich_transposed`` builds the eigenbasis sandwich in
row-major order and transposes it into column-stacked layout, and
``overlap_tables_unfloored`` and ``node_sum_gram_unfloored`` keep the
entries below the underflow floor that the package zeroes.

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


def overlap_tables_unfloored(spectrum, weight, sigma: float) -> tuple[np.ndarray, np.ndarray]:
    """The overlap table ``G`` and the coherent pair table ``b`` with the
    package's own arithmetic -- the smoothed weight ``H`` from
    ``weights.smoothed_weight_table`` on the distinct midpoints, pairs past
    the exponent cap ``e^{-200}`` left at zero -- but with every entry below
    the underflow floor kept."""
    from gibbslab.oft import _PAIR_EXPONENT_CAP
    from gibbslab.weights import coherent_difference_factor, smoothed_weight_table

    freqs = spectrum.frequencies
    m = freqs.size
    gaps = freqs[:, None] - freqs[None, :]
    exponents = np.square(gaps) / (4.0 * sigma * sigma)
    live = exponents <= _PAIR_EXPONENT_CAP
    mids = 0.5 * (freqs[:, None] + freqs[None, :])
    centers, inverse = np.unique(mids[live], return_inverse=True)
    h_mid = np.zeros((m, m))
    h_mid[live] = smoothed_weight_table(weight, sigma, centers)[inverse]
    values = np.zeros((m, m))
    values[live] = math.sqrt(math.pi) / sigma * np.exp(-exponents[live]) * h_mid[live]
    neg = spectrum.negation_index()
    coherent = np.zeros((m, m), dtype=np.complex128)
    with np.errstate(over="ignore", under="ignore"):
        sum_factor = np.exp(-mids[live]) * h_mid[np.ix_(neg, neg)][live]
    coherent[live] = 2.0 * math.pi * coherent_difference_factor(gaps[live], sigma) * sum_factor
    return values, coherent


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``0.5 * ||a - b||_1`` through the singular values of the difference."""
    diff = np.asarray(a, dtype=np.complex128) - np.asarray(b, dtype=np.complex128)
    return 0.5 * float(np.sum(np.linalg.svd(diff, compute_uv=False)))


def dissipator_superop(bundle) -> np.ndarray:
    """A bundle's superoperator less its commutator part ``-i[P + B, .]``.

    The commutator part is assembled column by column from the model's
    Hamiltonian and the bundle's coherent matrix; what remains is the
    dissipator ``sum C (A_nu T A_nu'^dag - (1/2){A_nu^dag A_nu', T})``.
    """
    h = bundle.model.hamiltonian + bundle.coherent_matrix
    commutator = superoperator_by_columns(lambda t: -1j * (h @ t - t @ h), bundle.dim)
    return np.asarray(bundle.superoperator) - commutator


def sign_flipped_bundle(bundle):
    """A deliberately wrong generator: the filtered ``bundle`` reassembled
    with every off-diagonal sign of its coupling table flipped,
    ``2 diag(diag(C)) - C``, through the package's own assembly tail
    (``generators._bundle``).  Its coherent matrix and spectrum are the
    bundle's, so only the coupling is at fault; the checks that must catch
    it (stationarity, the dual-path residual, complete positivity) are what
    the tests exercise."""
    from gibbslab.generators import _bundle

    coupling = bundle.coupling
    flipped = 2.0 * np.diag(np.diag(coupling)) - coupling
    system = bundle.model.eigensystem()
    jumps_eig = [system.to_eigenbasis(a) for a in bundle.model.jumps]
    return _bundle(
        bundle.kind, bundle.assembly_path, bundle.model, bundle.weight, bundle.sigma,
        system, bundle.spectrum, jumps_eig, flipped, bundle.coherent_matrix,
        dict(bundle.diagnostics),
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
    mine = direct.dense_components()
    theirs = adjoint.dense_components()
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
    about zero.
    """
    c = float(center)
    lo = min(c, 0.0) - 8.0 * sigma - pad
    hi = max(c, 0.0) + 8.0 * sigma + pad

    def integrand(w):
        return float(weight(w)) * math.exp(-((w - c) ** 2) / (sigma * sigma))

    peak = [c + sign * k * sigma for k in (1.0, 2.0, 4.0, 8.0) for sign in (-1.0, 1.0)]
    points = _split_points(weight, lo, hi, extra=(c, 0.0, *peak), min_gap=1e-6 * sigma)
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
    is next to the ``+-60`` window.
    """
    n1, n2 = float(nu), float(nu_prime)
    root = math.sqrt(math.sqrt(math.pi) / sigma)

    def fhat(x):
        return root * math.exp(-(x * x) / (2.0 * sigma * sigma))

    lo = min(n1, n2, 0.0) - 8.0 * sigma - 60.0
    hi = max(n1, n2, 0.0) + 8.0 * sigma + 60.0

    def integrand(w):
        return float(weight(w)) * fhat(w - n1) * fhat(w - n2)

    mid = 0.5 * (n1 + n2)
    peak = [mid + sign * k * sigma for k in (1.0, 2.0, 4.0, 8.0) for sign in (-1.0, 1.0)]
    points = _split_points(weight, lo, hi, extra=(n1, n2, mid, 0.0, *peak), min_gap=1e-6 * sigma)
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
