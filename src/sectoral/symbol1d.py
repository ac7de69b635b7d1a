"""Symbol calculus on the circle.

Symbols a(theta, xi) live on S^1 x R (xi restricted to the integer lattice
when discretized).  Operators act in the Fourier basis with modes
k = -K..K, blocks of size N per mode for fiber dimension N.  The matrix of
Op(a) is M[(j,.),(k,.)] = a-hat_{j-k}(k), the (j-k)-th Fourier coefficient
in theta of a(., k), computed by FFT on a 4(2K+1)-point grid so that
trigonometric-polynomial coefficients up to degree 2K are exact.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import linalg
from .contour import ContourSpec, quad_nodes, sector_phi
from .errors import AliasingRisk, SymbolSingular

ALIASING_TOL = 1e-10


@dataclass
class SymbolFunction:
    """A tabulatable symbol with declared order and principal part.

    ``evaluate(theta, xi)`` takes a 1-D array of angles and a scalar xi and
    returns an array of shape (len(theta),) for scalar symbols or
    (len(theta), N, N) for systems.  ``principal`` has the same signature
    and must be positively homogeneous of degree ``order`` for |xi| >= 1.
    """

    order: float
    evaluate: Callable[[np.ndarray, float], np.ndarray]
    principal: Callable[[np.ndarray, float], np.ndarray]
    fiber_dim: int = 1
    name: str = ""


@dataclass
class DiscretizedOperator:
    """Fourier-basis matrix of dimension N*(2K+1) with provenance."""

    matrix: np.ndarray
    K: int
    order: float
    symbol: Optional[SymbolFunction] = None
    fiber_dim: int = 1


@dataclass(frozen=True)
class CutoffFunction:
    """Smoothstep cutoff: 0 for |xi| <= rho, 1 for |xi| >= 2 rho,
    3u^2 - 2u^3 in between with u = (|xi| - rho)/rho."""

    rho: float

    def __call__(self, xi):
        u = (np.abs(xi) - self.rho) / self.rho
        u = np.clip(u, 0.0, 1.0)
        return 3.0 * u**2 - 2.0 * u**3


def _fibres(values, N: int) -> np.ndarray:
    """Symbol values as a stack of N x N fibre matrices: a scalar symbol's
    (G,) samples become (G, 1, 1)."""
    return np.asarray(values, dtype=complex).reshape(-1, N, N)


def _fibre_inverse(fibres: np.ndarray, theta, xi) -> np.ndarray:
    """Inverse of each fibre of a (..., N, N) stack sampled at (theta, xi),
    both broadcast over the stack; SymbolSingular names the first singular
    fibre.  1 x 1 fibres are inverted elementwise (~60x faster than inv)."""
    N = fibres.shape[-1]
    if N == 1:
        bad = np.abs(fibres[..., 0, 0]) < 1e-300
        if not np.any(bad):
            return 1.0 / fibres
        i = int(np.argmax(bad))
    else:
        try:
            return np.linalg.inv(fibres)
        except np.linalg.LinAlgError:
            i = 0
    raise SymbolSingular(
        float(np.broadcast_to(theta, fibres.shape[:-2]).flat[i]),
        float(np.broadcast_to(xi, fibres.shape[:-2]).flat[i]))


def _coefficient_columns(samples: np.ndarray) -> np.ndarray:
    """FFT of theta-samples -> Fourier coefficients indexed mod G."""
    return np.fft.fft(samples, axis=0) / samples.shape[0]


def _write_column(M: np.ndarray, col: int, coeffs: np.ndarray) -> None:
    """Block column `col` of Op(a), seen as an (n_modes, N, n_modes, N)
    array, from the (G, N, N) coefficients of a(., k): block (j, k) is
    a-hat_{j-k}(k), read at index (j - k) mod G."""
    M[:, :, col, :] = coeffs[(np.arange(M.shape[0]) - col) % len(coeffs)]


def op_from_symbol(a: SymbolFunction, K: int) -> DiscretizedOperator:
    """Matrix of Op(a) on modes -K..K.

    Warns with AliasingRisk if the coefficient tail beyond degree 2K
    exceeds 1e-10 relative to the largest coefficient.
    """
    if K < 1:
        raise ValueError("mode cutoff K must be >= 1")
    n_modes = 2 * K + 1
    G = 4 * n_modes
    theta = 2.0 * np.pi * np.arange(G) / G
    N = a.fiber_dim
    M = np.zeros((n_modes, N, n_modes, N), dtype=complex)
    max_coeff = 0.0
    max_tail = 0.0
    for col, k in enumerate(range(-K, K + 1)):
        coeffs = _coefficient_columns(_fibres(a.evaluate(theta, float(k)), N))
        mags = np.abs(coeffs).max(axis=(1, 2))
        max_coeff = max(max_coeff, mags.max())
        # indices 2K+1 .. G-2K-1 hold the degrees beyond 2K
        max_tail = max(max_tail, mags[2 * K + 1:G - 2 * K].max())
        _write_column(M, col, coeffs)
    if max_coeff > 0 and max_tail > ALIASING_TOL * max_coeff:
        warnings.warn(AliasingRisk(
            f"coefficient tail beyond degree {2 * K} is "
            f"{max_tail / max_coeff:.2e} of the largest coefficient"))
    return DiscretizedOperator(M.reshape(N * n_modes, N * n_modes), K,
                               a.order, symbol=a, fiber_dim=N)


def _weight_vector(K: int, s: float, N: int = 1) -> np.ndarray:
    k = np.arange(-K, K + 1)
    return np.repeat((1.0 + k.astype(float)**2) ** (s / 2.0), N)


def _sobolev_weighted(M, s: float, t: float, K: int, N: int) -> np.ndarray:
    """W_t M W_s^{-1} for a matrix on modes |k| <= K with fibre dimension
    N."""
    wt = _weight_vector(K, t, N)
    ws = _weight_vector(K, s, N)
    return np.asarray(M, dtype=complex) * wt[:, None] / ws[None, :]


def sobolev_op_norm(T, s: float, t: float, K: int, N: int = 1) -> float:
    """The discrete ||T||_{s,t} = ||W_t T W_s^{-1}||_2."""
    return linalg.operator_norm_2(_sobolev_weighted(T, s, t, K, N))


def sobolev_inverse_norm(T, s: float, t: float, K: int, N: int = 1) -> float:
    """The discrete ||T^{-1}||_{s,t} = 1 / sigma_min(W_s T W_t^{-1}),
    without forming T^{-1}; a numerically singular T is refused by
    linalg.inverse_norm_2."""
    return linalg.inverse_norm_2(_sobolev_weighted(T, t, s, K, N))


def cutoff_resolvent_symbol(a: SymbolFunction, psi: CutoffFunction,
                            lam: complex) -> SymbolFunction:
    """The smoothed resolvent symbol psi(xi) (a_m(theta,xi) - lambda)^{-1},
    a symbol of order -a.order."""
    lam = complex(lam)
    N = a.fiber_dim

    def _resolvent(theta, xi, shift, weight=1.0):
        """weight * (a_m - shift)^{-1}, not inverted where weight is 0."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        vals = np.asarray(a.principal(theta, xi), dtype=complex)
        if weight == 0.0:
            return np.zeros_like(vals)
        inv = _fibre_inverse(_fibres(vals, N) - shift * np.eye(N), theta, xi)
        return weight * inv.reshape(vals.shape)

    def evaluate(theta, xi):
        return _resolvent(theta, xi, lam, float(psi(xi)))

    def principal(theta, xi):
        return _resolvent(theta, xi, 0.0)

    # precondition: invertibility where the cutoff is active
    theta_probe = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for xi in (psi.rho, -psi.rho, 2 * psi.rho, -2 * psi.rho, 4 * psi.rho):
        _resolvent(theta_probe, xi, lam)

    return SymbolFunction(order=-a.order, evaluate=evaluate,
                          principal=principal, fiber_dim=N,
                          name=f"r_psi({a.name or 'a'}, lam={lam:.3g})")


def parametrix_phi0(a: SymbolFunction, psi: CutoffFunction,
                    c: ContourSpec, K: int) -> DiscretizedOperator:
    """First parametrix approximation
    Phi_0 = sum_i w_i lambda_i^{-1} Op(psi (a_m - lambda_i)^{-1}),
    an operator of order -m.  Ray-truncation tails are corrected
    analytically to second order in 1/lambda.

    Op is linear, so Phi_0 = Op(sigma) for the one tabulated symbol
    sigma = psi Phi(a_m), with Phi of contour.sector_phi taken fibrewise;
    only the columns with psi(k) != 0 are tabulated, the others are zero."""
    n_modes = 2 * K + 1
    G = 4 * n_modes
    theta = 2.0 * np.pi * np.arange(G) / G
    N = a.fiber_dim
    modes = np.arange(-K, K + 1)
    psi_vals = np.array([float(psi(float(k))) for k in modes])
    cols = np.flatnonzero(psi_vals)

    # principal-symbol samples (G, columns, N, N)
    P = np.empty((G, cols.size, N, N), dtype=complex)
    for j, col in enumerate(cols):
        P[:, j] = _fibres(a.principal(theta, float(modes[col])), N)
    phi, _ = sector_phi(P, c, lambda X: _fibre_inverse(X, theta[:, None],
                                                       modes[cols]))
    sigma = psi_vals[cols, None, None] * phi
    coeffs = _coefficient_columns(sigma)
    M = np.zeros((n_modes, N, n_modes, N), dtype=complex)
    for j, col in enumerate(cols):
        _write_column(M, col, coeffs[:, j])
    return DiscretizedOperator(M.reshape(N * n_modes, N * n_modes), K,
                               -a.order, symbol=None, fiber_dim=N)


def choose_rho(a: SymbolFunction, c: ContourSpec, K: int) -> int:
    """Smallest integer rho >= 1 such that a_m(theta, xi) - lambda is
    invertible for all |xi| >= rho on a probe grid over the contour."""
    rule = quad_nodes(c)
    # probe a thinned set of nodes plus the arc corners
    probe = rule.nodes[:: max(1, len(rule.nodes) // 40)]
    tol = 1e-8 * np.maximum(1.0, np.abs(probe))
    theta = np.linspace(0.0, 2 * np.pi, 32, endpoint=False)

    def clear(xi):
        fibres = _fibres(a.principal(theta, float(xi)), a.fiber_dim)
        ev = np.linalg.eigvals(fibres).reshape(-1, 1)
        return bool(np.all(np.abs(ev - probe).min(axis=0) >= tol))

    for rho in range(1, K + 1):
        if all(clear(x) for r in range(rho, min(4 * rho, K) + 1)
               for x in (r, -r)):
            return rho
    raise SymbolSingular(0.0, float(K))
