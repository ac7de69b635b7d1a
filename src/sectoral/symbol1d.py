"""Symbol calculus on the circle.

Symbols a(theta, xi) live on S^1 x R (xi restricted to the integer lattice
when discretized).  Operators act in the Fourier basis with modes
k = -K..K, blocks of size N per mode for fiber dimension N.  The matrix of
Op(a) is M[(j,.),(k,.)] = a-hat_{j-k}(k), the (j-k)-th Fourier coefficient
in theta of a(., k), computed by FFT on a 4(2K+1)-point grid so that
trigonometric-polynomial coefficients up to degree 2K are exact.

A symbol is evaluated like a ufunc: theta broadcasts against xi, and the
result has the broadcast shape (plus (N, N) for systems), except that a
value independent of theta may keep theta-extent 1.  Op(a), or any set of
its columns, is assembled in blocks of columns, each tabulated by one call
on a grid of a (columns, 1) column of xi against the 1-D theta samples.  A
symbol whose value on the first block has theta-extent 1 is a Fourier
multiplier: Op(a) is then the block diagonal of a(k), written without an
FFT, with exact zeros off the diagonal, from at most one more call for the
remaining columns.
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
# Symbol samples tabulated per evaluate call of _op_columns: 16 columns
# at K = 256.  Half of it made a K = 256 matrix 7-19% slower to assemble;
# twice of it raised the peak memory of c3-c5 by 0.8 MB.
BLOCK_SAMPLES = 2 ** 15


@dataclass
class SymbolFunction:
    """A tabulatable symbol with declared order and principal part.

    ``evaluate(theta, xi)`` broadcasts theta against xi like a ufunc: a 1-D
    array of angles with a scalar xi gives shape (len(theta),), and with a
    (B, 1) column of xi gives (B, len(theta)); systems append (N, N).  A
    result that does not depend on xi (a theta row) is broadcast over the
    xi column, and one that does not depend on theta may keep theta-extent
    1 (the xi column itself, shape (B, 1)): op_from_symbol assembles such a
    symbol as a Fourier multiplier.  ``principal`` has the same signature
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

    def __post_init__(self):
        if not (np.isfinite(self.rho) and self.rho > 0):
            raise ValueError(f"rho must be finite and > 0, got {self.rho}")

    def __call__(self, xi):
        # a scalar goes through numpy's array ** as a 1-element array: its
        # scalar ** differs from the array one in the last bit
        u = (np.abs(np.atleast_1d(xi)) - self.rho) / self.rho
        u = np.clip(u, 0.0, 1.0)
        return (3.0 * u**2 - 2.0 * u**3).reshape(np.shape(xi))[()]


def _fibres(values, N: int) -> np.ndarray:
    """Symbol values as N x N fibre matrices over the sample grid: a scalar
    symbol's samples gain two unit axes."""
    values = np.asarray(values, dtype=complex)
    return values[..., None, None] if N == 1 else values


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
            pass
        # the stacked inverse does not say which fibre failed
        for i, fibre in enumerate(fibres.reshape(-1, N, N)):
            try:
                np.linalg.inv(fibre)
            except np.linalg.LinAlgError:
                break
    raise SymbolSingular(
        float(np.broadcast_to(theta, fibres.shape[:-2]).flat[i]),
        float(np.broadcast_to(xi, fibres.shape[:-2]).flat[i]))


def _write_columns(M: np.ndarray, cols: np.ndarray, pos: np.ndarray,
                   coeffs: np.ndarray) -> None:
    """Block columns `cols` of Op(a) into positions `pos` of M, seen as an
    (n_modes, N, n_positions, N) array, from the (len(cols), G, N, N)
    theta-coefficients of a(., k) at those columns: block (j, k) is
    a-hat_{j-k}(k), read at index (j - k) mod G."""
    rows = np.arange(M.shape[0])[:, None]
    blocks = coeffs[np.arange(cols.size), (rows - cols) % coeffs.shape[1]]
    M[:, :, pos, :] = blocks.transpose(0, 2, 1, 3)


def _write_diagonal(M: np.ndarray, cols: np.ndarray, pos: np.ndarray,
                    fibres: np.ndarray) -> None:
    """Diagonal blocks `cols` of Op(a) of a Fourier multiplier into
    positions `pos` of M, seen as an (n_modes, N, n_positions, N) array,
    from its theta-extent-1 values a(k) at those columns."""
    N = M.shape[1]
    M[cols, :, pos, :] = np.broadcast_to(fibres,
                                         (cols.size, 1, N, N))[:, 0]


def _op_columns(a: SymbolFunction, K: int, cols: np.ndarray) -> np.ndarray:
    """Block columns `cols` (indices 0..2K into the modes -K..K) of Op(a):
    the N(2K+1) x N len(cols) matrix, assembled in blocks of about
    BLOCK_SAMPLES samples of the selected columns: one evaluate call, one
    FFT along theta and one gather per block.  When the values on the first
    block have theta-extent 1, a is a Fourier multiplier and its columns
    are the block diagonal of a(k), the other columns read from one more
    evaluate call: no FFT, exact zeros off the diagonal and no aliasing
    tail.

    Warns with AliasingRisk if the coefficient tail beyond degree 2K of the
    assembled columns exceeds 1e-10 relative to their largest coefficient.
    """
    if K < 1:
        raise ValueError("mode cutoff K must be >= 1")
    n_modes = 2 * K + 1
    G = 4 * n_modes
    theta = 2.0 * np.pi * np.arange(G) / G
    N = a.fiber_dim
    width = -(-BLOCK_SAMPLES // (G * N * N))
    M = np.zeros((n_modes, N, cols.size, N), dtype=complex)

    def values(pos):
        xi = (cols[pos] - K)[:, None].astype(float)
        return _fibres(a.evaluate(theta, xi), N)

    first = np.arange(min(width, cols.size))
    fibres = values(first)
    # theta-extent 1: the values do not depend on theta
    if np.broadcast_shapes(fibres.shape[:-2], (first.size, 1))[1] == 1:
        _write_diagonal(M, cols[first], first, fibres)
        rest = np.arange(first.size, cols.size)
        if rest.size:
            _write_diagonal(M, cols[rest], rest, values(rest))
    else:
        max_coeff = 0.0
        max_tail = 0.0
        for start in range(0, cols.size, width):
            pos = np.arange(start, min(start + width, cols.size))
            if start > 0:
                fibres = values(pos)
            samples = np.broadcast_to(fibres, (pos.size, G, N, N))
            coeffs = np.fft.fft(samples, axis=1) / G
            mags = np.abs(coeffs)
            max_coeff = max(max_coeff, mags.max())
            # indices 2K+1 .. G-2K-1 hold the degrees beyond 2K
            max_tail = max(max_tail, mags[:, 2 * K + 1:G - 2 * K].max())
            _write_columns(M, cols[pos], pos, coeffs)
        if max_coeff > 0 and max_tail > ALIASING_TOL * max_coeff:
            warnings.warn(AliasingRisk(
                f"coefficient tail beyond degree {2 * K} is "
                f"{max_tail / max_coeff:.2e} of the largest coefficient"))
    return M.reshape(N * n_modes, N * cols.size)


def op_from_symbol(a: SymbolFunction, K: int) -> DiscretizedOperator:
    """Matrix of Op(a) on modes -K..K: _op_columns over all 2K+1 columns,
    in blocks of about BLOCK_SAMPLES samples, a Fourier multiplier as its
    exact block diagonal.

    Warns with AliasingRisk if the coefficient tail beyond degree 2K
    exceeds 1e-10 relative to the largest coefficient.
    """
    M = _op_columns(a, K, np.arange(2 * K + 1))
    return DiscretizedOperator(M, K, a.order, symbol=a, fiber_dim=a.fiber_dim)


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


def _combine(principal: SymbolFunction, shift: complex) -> SymbolFunction:
    """principal + shift, the shift taken as shift * I on a system's
    fibres; the principal part is unchanged."""
    N = principal.fiber_dim

    def evaluate(theta, xi):
        value = principal.evaluate(theta, xi)
        return (_fibres(value, N) + shift * np.eye(N)).reshape(np.shape(value))

    return SymbolFunction(order=principal.order, evaluate=evaluate,
                          principal=principal.principal, fiber_dim=N,
                          name=f"{principal.name}+{shift}")


def _pointwise_product(g: SymbolFunction, f: SymbolFunction) -> SymbolFunction:
    """The symbol g f, the fibre product g @ f in that order."""
    N = g.fiber_dim

    def product(gv, fv):
        shape = np.broadcast_shapes(np.shape(gv), np.shape(fv))
        return (_fibres(gv, N) @ _fibres(fv, N)).reshape(shape)

    return SymbolFunction(
        order=g.order + f.order,
        evaluate=lambda theta, xi: product(g.evaluate(theta, xi),
                                           f.evaluate(theta, xi)),
        principal=lambda theta, xi: product(g.principal(theta, xi),
                                            f.principal(theta, xi)),
        fiber_dim=N, name=f"({g.name})*({f.name})")


def cutoff_resolvent_symbol(a: SymbolFunction, psi: CutoffFunction,
                            lam: complex) -> SymbolFunction:
    """The smoothed resolvent symbol psi(xi) (a_m(theta,xi) - lambda)^{-1},
    a symbol of order -a.order."""
    lam = complex(lam)
    N = a.fiber_dim

    def _resolvent(theta, xi, shift, weight):
        """weight(xi) * (a_m - shift)^{-1}.  A fibre where the weight is
        zero is inverted as I, so it is never refused and comes out exactly
        0.  The shape is that of the principal symbol's values broadcast
        against xi, so the resolvent of a multiplier is a multiplier; its
        singular fibres are named at the first theta sample."""
        xi = np.asarray(xi, dtype=float)
        w = np.asarray(weight(xi))[..., None, None]
        fibres = np.where(w != 0, _fibres(a.principal(theta, xi), N)
                          - shift * np.eye(N), np.eye(N))
        shape = fibres.shape[:-2]
        theta_at = theta if np.prod(shape) > xi.size else np.ravel(theta)[0]
        out = w * _fibre_inverse(fibres, theta_at, xi)
        return out[..., 0, 0] if N == 1 else out

    def evaluate(theta, xi):
        return _resolvent(theta, xi, lam, psi)

    def principal(theta, xi):
        return _resolvent(theta, xi, 0.0, np.ones_like)

    # precondition: invertibility where the cutoff is active
    theta_probe = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    for xi in (psi.rho, -psi.rho, 2 * psi.rho, -2 * psi.rho, 4 * psi.rho):
        _resolvent(theta_probe, xi, lam, np.ones_like)

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
    psi_vals = psi(np.arange(-K, K + 1, dtype=float))
    cols = np.flatnonzero(psi_vals)
    xi = (cols - K)[:, None].astype(float)

    # principal-symbol samples (columns, G, N, N)
    P = np.broadcast_to(_fibres(a.principal(theta, xi), N),
                        (cols.size, G, N, N))
    phi, _ = sector_phi(P, c, lambda X: _fibre_inverse(X, theta, xi))
    sigma = psi_vals[cols, None, None, None] * phi
    M = np.zeros((n_modes, N, n_modes, N), dtype=complex)
    _write_columns(M, cols, cols, np.fft.fft(sigma, axis=1) / G)
    return DiscretizedOperator(M.reshape(N * n_modes, N * n_modes), K,
                               -a.order, symbol=None, fiber_dim=N)


def choose_rho(a: SymbolFunction, c: ContourSpec, K: int) -> int:
    """Smallest integer rho >= 1 such that a_m(theta, xi) - lambda is
    invertible for all |xi| >= rho on a probe grid over the contour."""
    nodes = quad_nodes(c).nodes
    # probe every 22nd of the 896 nodes plus the arc corners
    corners = c.R * np.exp(1j * np.array([c.alpha1, c.alpha2]))
    probe = np.concatenate((nodes[:: len(nodes) // 40], corners))
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
