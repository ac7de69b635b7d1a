"""Symbol calculus on the circle.

Symbols a(theta, xi) live on S^1 x R (xi restricted to the integer lattice
when discretized).  Operators act in the Fourier basis with modes
k = -K..K, blocks of size N per mode for fiber dimension N.  The matrix of
Op(a) is M[(j,.),(k,.)] = a-hat_{j-k}(k), the (j-k)-th Fourier coefficient
in theta of a(., k), computed by FFT on an 8K-point grid, so that the
coefficients of degree up to 2K are exact for a trigonometric polynomial
of degree below 6K.

A symbol is evaluated like a ufunc: theta broadcasts against xi, and the
result is an N x N fibre stack over the broadcast shape, 1 x 1 for a
scalar symbol, except that a value independent of theta may keep
theta-extent 1.  Op(a), or any set of its columns, is assembled in blocks
of columns, each tabulated by one call on a grid of a (columns, 1) column
of xi against the 1-D theta samples.  A symbol whose value on the first
block has theta-extent 1 is a Fourier multiplier: Op(a) is then the block
diagonal of a(k), written without an FFT, with exact zeros off the
diagonal, from at most one more call for the remaining columns.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from . import linalg
from .contour import TWO_PI, ContourSpec, ray_distance, sector_phi
from .errors import AliasingRisk, SymbolSingular

ALIASING_TOL = 1e-10
# Symbol samples tabulated per evaluate call of _op_columns: 16 columns
# at K = 256.  Half of it made a K = 256 matrix 7-19% slower to assemble;
# twice of it raised the peak memory of c3-c5 by 0.8 MB.
BLOCK_SAMPLES = 2 ** 15
# mu points along a ray when it lies within ARG_RTOL |mu| of it
ARG_RTOL = 1e-8


@dataclass
class SymbolFunction:
    """A tabulatable symbol with declared order and principal part.

    ``evaluate(theta, xi)`` broadcasts theta against xi like a ufunc and
    returns N x N fibres, N = ``fiber_dim`` (1 x 1 for a scalar symbol):
    (len(theta), N, N) for 1-D angles and a scalar xi, (B, len(theta), N,
    N) for a (B, 1) column of xi.  A value that does not depend on xi is
    broadcast over the xi column, and one that does not depend on theta
    may keep theta-extent 1, (B, 1, N, N): op_from_symbol assembles such a
    symbol as a Fourier multiplier.  ``principal`` has the same signature
    and must be positively homogeneous of degree ``order`` for |xi| >= 1.
    """

    order: float
    evaluate: Callable[[np.ndarray, float], np.ndarray]
    principal: Callable[[np.ndarray, float], np.ndarray]
    fiber_dim: int = 1


def _fiber_dim(n: int, K: int) -> int:
    """Fibre dimension N of a matrix of order n = N (2K + 1) on the modes
    |k| <= K; ValueError when n is not a positive multiple of 2K + 1."""
    N, rem = divmod(n, 2 * K + 1)
    if rem or N < 1:
        raise ValueError(f"matrix order {n} is not a positive multiple of "
                         f"2K + 1 = {2 * K + 1} (K = {K})")
    return N


@dataclass
class DiscretizedOperator:
    """Fourier-basis matrix of dimension N*(2K+1) with provenance; its
    fibre dimension N is read from the matrix order when it is built."""

    matrix: np.ndarray
    K: int
    order: float
    symbol: Optional[SymbolFunction] = None

    def __post_init__(self):
        shape = np.shape(self.matrix)
        if len(shape) != 2 or shape[0] != shape[1]:
            raise ValueError(f"a matrix of shape {shape} (K = {self.K}) "
                             "is not square")
        self.fiber_dim = _fiber_dim(shape[0], self.K)


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


def _fibre_stack(values, N: int) -> np.ndarray:
    """Symbol values as a complex (..., N, N) stack, or ValueError."""
    values = np.asarray(values, dtype=complex)
    if values.shape[-2:] != (N, N):
        raise ValueError(f"symbol values of shape {values.shape} are not "
                         f"a stack of {N} x {N} fibres")
    return values


def _fibre_inverse(fibres: np.ndarray, theta, xi) -> np.ndarray:
    """Inverse of each fibre of a (..., N, N) stack sampled at (theta, xi),
    both broadcast over the stack, which may have leading axes beyond
    theta's and xi's (sector_phi's nodes); SymbolSingular names the first
    singular fibre.  1 x 1 fibres are inverted elementwise (~60x faster
    than inv)."""
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
    shape = fibres.shape[:-2]
    # theta runs along the last stack axis, after xi's and any leading
    # ones; a stack of theta-extent 1 is named at the first theta sample
    if not shape or shape[-1] != np.size(theta):
        theta = np.ravel(theta)[0]
    raise SymbolSingular(float(np.broadcast_to(theta, shape).flat[i]),
                         float(np.broadcast_to(xi, shape).flat[i]))


def _cosphere(a: SymbolFunction) -> tuple:
    """(theta, mu): the eigenvalues mu of a_m(theta, 1) and a_m(theta, -1)
    on 256 angles theta, shape (2, 256, N).  a_m is homogeneous of degree
    m > 0 for |xi| >= 1, where its eigenvalue |xi|^m mu has modulus r at
    |xi| = (r/|mu|)^{1/m}; an order m <= 0 is refused with ValueError."""
    if a.order <= 0:
        raise ValueError(f"a_m must have positive order, got {a.order}")
    theta = TWO_PI * np.arange(256) / 256
    return theta, np.stack([np.broadcast_to(np.linalg.eigvals(_fibre_stack(
        a.principal(theta, xi), a.fiber_dim)), (256, a.fiber_dim))
        for xi in (1.0, -1.0)])


def _singular_at(theta, xi) -> SymbolSingular:
    """SymbolSingular at the largest of the radii xi over _cosphere's mu."""
    side, j, k = np.unravel_index(np.argmax(xi), xi.shape)
    return SymbolSingular(float(theta[j]),
                          float((1 - 2 * side) * xi[side, j, k]))


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
    FFT along theta into a buffer allocated once per call and one gather
    per block, the gathered coefficients divided by G once at the end.
    The theta grid has G = 8K points, a power of two for a power-of-two K:
    degrees -2K..2K stay distinct, and a degree d >= 6K is the first to
    alias onto them.
    When the values on the first block have theta-extent 1, a is a
    Fourier multiplier and its columns are the block diagonal of a(k), the
    other columns read from one more evaluate call: no FFT, exact zeros off
    the diagonal and no aliasing tail.

    Warns with AliasingRisk if the coefficient tail beyond degree 2K of the
    assembled columns exceeds 1e-10 relative to their largest coefficient.
    """
    if K < 1:
        raise ValueError("mode cutoff K must be >= 1")
    n_modes = 2 * K + 1
    G = 8 * K
    theta = 2.0 * np.pi * np.arange(G) / G
    N = a.fiber_dim
    width = -(-BLOCK_SAMPLES // (G * N * N))
    M = np.zeros((n_modes, N, cols.size, N), dtype=complex)

    def values(pos):
        xi = (cols[pos] - K)[:, None].astype(float)
        return _fibre_stack(a.evaluate(theta, xi), N)

    first = np.arange(min(width, cols.size))
    fibres = values(first)
    # theta-extent 1: the values do not depend on theta
    if np.broadcast_shapes(fibres.shape[:-2], (first.size, 1))[1] == 1:
        _write_diagonal(M, cols[first], first, fibres)
        rest = np.arange(first.size, cols.size)
        if rest.size:
            _write_diagonal(M, cols[rest], rest, values(rest))
    else:
        # one buffer per call: a block's unscaled DFT at 2K..2K+G-1, with
        # its degrees -2K..-1 copied to 0..2K-1, so that degree d of the
        # block's column c sits at [c, 2K + d]
        coeffs = np.empty((first.size, 2 * K + G, N, N), dtype=complex)
        mags = np.empty((first.size, G, N, N))
        # block (j, k) of Op(a) is degree j - k: row j of the window at 2K - k
        windows = sliding_window_view(coeffs[:, :2 * n_modes - 1], n_modes,
                                      axis=1)
        max_coeff = 0.0
        max_tail = 0.0
        for start in range(0, cols.size, width):
            pos = slice(start, start + width)
            m = cols[pos].size
            if start > 0:
                fibres = values(pos)
            dft = coeffs[:m, 2 * K:]
            np.fft.fft(np.broadcast_to(fibres, (m, G, N, N)), axis=1, out=dft)
            np.abs(dft, out=mags[:m])
            max_coeff = max(max_coeff, mags[:m].max())
            # indices 2K+1 .. G-2K-1 hold the degrees beyond 2K
            max_tail = max(max_tail, mags[:m, 2 * K + 1:G - 2 * K].max())
            coeffs[:m, :2 * K] = coeffs[:m, G:]
            blocks = windows[np.arange(m), 2 * K - cols[pos]]
            M[:, :, pos, :] = blocks.transpose(3, 1, 0, 2)
        # each entry divided by G once, as the scaled DFT would have it
        M /= G
        # the ratio of unscaled maxima: the scale 1/G cancels
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
    return DiscretizedOperator(M, K, a.order, symbol=a)


def _sobolev_weighted(M, s: float, t: float, K: int) -> np.ndarray:
    """W_t M W_s^{-1} for a matrix on modes |k| <= K, its fibre dimension
    read from its order.  A 1-D M is the diagonal of a diagonal matrix,
    weighted entry by entry as that matrix's diagonal is."""
    M = np.asarray(M, dtype=complex)
    k = np.repeat(np.arange(-K, K + 1), _fiber_dim(M.shape[0], K))
    w = 1.0 + k.astype(float)**2
    rows = w ** (t / 2.0)
    out = M * (rows if M.ndim == 1 else rows[:, None])
    out /= w ** (s / 2.0)
    return out


def sobolev_op_norm(T, s: float, t: float, K: int) -> float:
    """The discrete ||T||_{s,t} = ||W_t T W_s^{-1}||_2."""
    return linalg.operator_norm_2(_sobolev_weighted(T, s, t, K))


def sobolev_inverse_norm(T, s: float, t: float, K: int) -> float:
    """The discrete ||T^{-1}||_{s,t} = 1 / sigma_min(W_s T W_t^{-1}),
    without forming T^{-1}; a numerically singular T is refused by
    linalg.inverse_norm_2."""
    return linalg.inverse_norm_2(_sobolev_weighted(T, t, s, K))


def _combine(a: SymbolFunction, shift: complex) -> SymbolFunction:
    """a + shift I; the principal part is unchanged."""
    shift = shift * np.eye(a.fiber_dim)
    return SymbolFunction(a.order, lambda theta, xi: a.evaluate(theta, xi)
                          + shift, a.principal, a.fiber_dim)


def _pointwise_product(g: SymbolFunction, f: SymbolFunction) -> SymbolFunction:
    """The symbol g f, the fibre product g @ f in that order."""
    return SymbolFunction(
        g.order + f.order,
        lambda theta, xi: g.evaluate(theta, xi) @ f.evaluate(theta, xi),
        lambda theta, xi: g.principal(theta, xi) @ f.principal(theta, xi),
        g.fiber_dim)


def cutoff_resolvent_symbol(a: SymbolFunction, psi: CutoffFunction,
                            lam: complex) -> SymbolFunction:
    """The smoothed resolvent symbol psi(xi) (a_m(theta,xi) - lambda)^{-1},
    a symbol of order -a.order; refuses (SymbolSingular) a lambda met by an
    eigenvalue |xi|^m mu of a_m (_cosphere) at |xi| > rho, where psi > 0."""
    lam = complex(lam)
    N = a.fiber_dim
    theta, mu = _cosphere(a)
    along = ray_distance(mu, np.angle(lam)) < ARG_RTOL * np.abs(mu)
    xi = np.divide(abs(lam), np.abs(mu), out=np.zeros(mu.shape),
                   where=along) ** (1.0 / a.order)
    if xi.max() > psi.rho:
        raise _singular_at(theta, xi)

    def _resolvent(theta, xi, shift, weight):
        """weight(xi) * (a_m - shift)^{-1}.  A fibre where the weight is
        zero is inverted as I, so it is never refused and comes out exactly
        0.  The shape is that of the principal symbol's values broadcast
        against xi, so the resolvent of a multiplier is a multiplier."""
        xi = np.asarray(xi, dtype=float)
        w = np.asarray(weight(xi))[..., None, None]
        I = np.eye(N)
        # one expression, so that numpy can reuse the principal values'
        # temporary; either way fibres is a new array, written below
        fibres = a.principal(theta, xi) - shift * I
        shape = np.broadcast_shapes(fibres.shape, w.shape)
        if fibres.shape != shape:
            # a principal part independent of xi, spread over the xi column
            fibres = np.broadcast_to(fibres, shape).copy()
        np.copyto(fibres, I, where=w == 0)
        inverse = _fibre_inverse(fibres, theta, xi)
        inverse *= w
        return inverse

    def evaluate(theta, xi):
        return _resolvent(theta, xi, lam, psi)

    def principal(theta, xi):
        return _resolvent(theta, xi, 0.0, np.ones_like)

    return SymbolFunction(order=-a.order, evaluate=evaluate,
                          principal=principal, fiber_dim=N)


def _arc_radii(a: SymbolFunction, c: ContourSpec) -> tuple:
    """(theta, xi): the radii xi = (R/|mu|)^{1/m} at which an eigenvalue
    |xi|^m mu of a_m (_cosphere) in the arc's sector meets the arc of c, 0
    for the others.  One along a ray breaks the rays' minimal growth and is
    refused at its (theta, +-1)."""
    theta, mu = _cosphere(a)
    on_ray = np.minimum(ray_distance(mu, c.alpha1),
                        ray_distance(mu, c.alpha2)) < ARG_RTOL * np.abs(mu)
    if on_ray.any():
        raise _singular_at(theta, 1.0 * on_ray)
    inside = (mu != 0) & ((c.alpha1 - np.angle(mu)) % TWO_PI <= c.theta)
    return theta, np.divide(c.R, np.abs(mu), out=np.zeros(mu.shape),
                            where=inside) ** (1.0 / a.order)


def parametrix_phi0(a: SymbolFunction, psi: CutoffFunction,
                    c: ContourSpec, K: int) -> DiscretizedOperator:
    """First parametrix approximation
    Phi_0 = sum_i w_i lambda_i^{-1} Op(psi (a_m - lambda_i)^{-1}),
    an operator of order -m.  Ray-truncation tails are corrected
    analytically to second order in 1/lambda.  A contour that an
    eigenvalue of a_m meets where psi > 0 is refused (_arc_radii).

    Op is linear, so Phi_0 = Op(sigma) for the one symbol
    sigma = psi Phi(a_m), with Phi of contour.sector_phi taken fibrewise
    on each block of principal values.  _op_columns assembles the columns
    where psi(k) != 0, the others are zero: a multiplier's Phi_0 is its
    block diagonal, and any other warns with AliasingRisk as Op(a) does."""
    theta, xi = _arc_radii(a, c)
    if xi.max() > psi.rho:
        raise _singular_at(theta, xi)
    N = a.fiber_dim
    n = N * (2 * K + 1)
    cols = np.flatnonzero(psi(np.arange(-K, K + 1, dtype=float)))

    def evaluate(theta, xi):
        phi, _ = sector_phi(a.principal(theta, xi), c,
                            lambda X: _fibre_inverse(X, theta, xi))
        return psi(xi)[..., None, None] * phi

    # _op_columns reads only evaluate
    sigma = SymbolFunction(order=-a.order, evaluate=evaluate,
                           principal=evaluate, fiber_dim=N)
    M = np.zeros((n, 2 * K + 1, N), dtype=complex)
    M[:, cols] = _op_columns(sigma, K, cols).reshape(n, cols.size, N)
    return DiscretizedOperator(M.reshape(n, n), K, -a.order)


def choose_rho(a: SymbolFunction, c: ContourSpec, K: int) -> int:
    """Smallest integer rho >= 1 such that a_m(theta, xi) - lambda is
    invertible for all |xi| >= rho and every lambda on the contour c, so
    above every radius of _arc_radii; rho > K is refused."""
    theta, xi = _arc_radii(a, c)
    rho = int(xi.max() * (1.0 + ARG_RTOL)) + 1
    if rho > K:
        raise _singular_at(theta, xi)
    return rho
