"""Independent reference computations for the benchmark's checks.

Nothing here imports gibbslab.  The Gibbs state comes from
``scipy.linalg.expm(-H)``, propagation from ``scipy.integrate.solve_ivp``
(DOP853) on the superoperator the program assembled, and overlap entries
from QUADPACK on a window around the filter hull, with the weight and the
filter written out again from their published formulas.  Superoperators
act on column-stacked operators, ``vec(A)[i + d j] = A[i, j]``.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.linalg import expm


def vec(a: np.ndarray) -> np.ndarray:
    return np.asarray(a, dtype=np.complex128).reshape(-1, order="F")


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return np.asarray(v).reshape((d, d), order="F")


def min_bohr_gap(hamiltonian: np.ndarray) -> float:
    """Smallest gap between distinct Bohr frequencies ``|E_i - E_j|``, ``inf`` if all are equal."""
    energies = np.linalg.eigvalsh(np.asarray(hamiltonian, dtype=np.complex128))
    freqs = np.sort(np.abs(energies[:, None] - energies[None, :]).ravel())
    gaps = np.diff(freqs)
    gaps = gaps[gaps > 1e-9 * max(1.0, freqs[-1])]  # equal frequencies up to rounding
    return float(gaps.min()) if gaps.size else math.inf


def gibbs_state(hamiltonian: np.ndarray) -> np.ndarray:
    """``e^{-H} / tr e^{-H}`` by dense ``expm``."""
    rho = expm(-np.asarray(hamiltonian, dtype=np.complex128))
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


def stationarity_residual(superop: np.ndarray, rho: np.ndarray) -> float:
    """``||S vec(rho)|| / ||rho||`` (Frobenius)."""
    return float(np.linalg.norm(superop @ vec(rho)) / np.linalg.norm(rho))


def trace_functional(superop: np.ndarray) -> float:
    """``||vec(I)^T S||``: zero exactly when ``S`` preserves the trace."""
    d = math.isqrt(superop.shape[0])
    return float(np.linalg.norm(vec(np.eye(d)) @ superop))


def min_eigenvalue(state: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (state + state.conj().T))[0])


def propagate(superop: np.ndarray, rho0: np.ndarray, times) -> np.ndarray:
    """States at ``times`` from ``d vec(rho)/dt = S vec(rho)`` by DOP853."""
    d = rho0.shape[0]
    times = np.asarray(times, dtype=np.float64)
    sol = solve_ivp(
        lambda _, y: superop @ y,
        (0.0, float(times[-1])),
        vec(rho0),
        method="DOP853",
        t_eval=times,
        rtol=1e-10,
        atol=1e-12,
    )
    if not sol.success:
        raise RuntimeError(f"reference propagation failed: {sol.message}")
    return np.stack([unvec(sol.y[:, k], d) for k in range(times.size)])


_PHI = {
    "gaussian": (lambda x: math.exp(-x * x), ()),
    "sech": (lambda x: 2.0 * math.exp(-0.5 * abs(x)) / (1.0 + math.exp(-abs(x))), ()),
    "exp_abs": (lambda x: math.exp(-abs(x)), (0.0,)),
}


def overlap_entry(nu: float, nu_prime: float, sigma: float, phi: str) -> float:
    """``integral gamma(w) fhat(w - nu) fhat(w - nu') dw`` for the balanced weight.

    ``gamma(w) = e^{-w/2} phi(w + sigma^2/4)`` and ``fhat(x) = pi^{1/4}
    sigma^{-1/2} e^{-x^2/(2 sigma^2)}``.  The filter product is a Gaussian
    of width ``sigma/sqrt(2)`` about the midpoint, so the window is the
    hull of the two frequencies widened by ten bandwidths on each side;
    the integrand outside it is below ``e^{-100}`` of its peak.
    """
    fn, kinks = _PHI[phi]
    shift = 0.25 * sigma * sigma
    norm = math.sqrt(math.pi) / sigma

    def integrand(w: float) -> float:
        return (
            math.exp(-0.5 * w)
            * fn(w + shift)
            * norm
            * math.exp(-((w - nu) ** 2 + (w - nu_prime) ** 2) / (2.0 * sigma * sigma))
        )

    lo = min(nu, nu_prime) - 10.0 * sigma
    hi = max(nu, nu_prime) + 10.0 * sigma
    anchors = {nu, nu_prime, 0.5 * (nu + nu_prime)} | {k - shift for k in kinks}
    points = sorted(a for a in anchors if lo < a < hi)
    value, _ = quad(integrand, lo, hi, points=points, limit=400, epsabs=0.0, epsrel=1e-12)
    return float(value)
