"""Dense complex linear algebra kernel.

Everything downstream (contour quadrature, projections, experiments) reduces
to shifted solves, eigendecompositions, and operator norms of dense complex
matrices, all of which live here.  Matrices are plain square ``numpy``
arrays of ``complex128``; helpers validate shape and finiteness at the
boundaries.
"""
from __future__ import annotations

import functools
import math

import numpy as np
import scipy.linalg

from .errors import (NotHermitian, NotPositiveDefinite, SingularMatrix,
                     TooDefective)

PIVOT_REL_THRESHOLD = 1e-13
DEFECTIVE_LIMIT = 1e8

# LAPACK's LU factorization and LU solve, and the triangular inverse, bound
# once and called directly: solve runs once per quadrature node, where
# scipy's wrappers around these routines cost more than the factorization
# of a small matrix.
_getrf, _getrs, _trtri = scipy.linalg.get_lapack_funcs(
    ("getrf", "getrs", "trtri"), dtype=np.complex128)


def _square(m: np.ndarray) -> np.ndarray:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def _check_finite(m: np.ndarray) -> None:
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")


def as_matrix(a) -> np.ndarray:
    """Validate and return `a` as a square complex matrix."""
    m = _square(np.asarray(a, dtype=complex))
    _check_finite(m)
    return m


@functools.lru_cache(maxsize=64)
def _strict_lower_weights(n):
    """The n * n weights 1 on the strict lower triangle of a flattened
    C-ordered n x n matrix and 0 elsewhere, built once per n and shared
    read-only."""
    weights = np.tri(n, k=-1).ravel()
    weights.flags.writeable = False
    return weights


def is_diagonal(A) -> bool:
    """Whether the square A (of order > 1) is exactly zero off its diagonal;
    its corners are read first.  Flattened in memory order (a view of a C-
    or F-ordered A), the diagonal entries are n + 1 apart, so the first n
    columns of the (n - 1, n + 1) view after the first entry are exactly
    the off-diagonal entries."""
    n = A.shape[0]
    return (n > 1 and A[-1, 0] == 0 and A[0, -1] == 0 and not
            A.ravel(order="K")[1:].reshape(n - 1, n + 1)[:, :n].any())


def _singular_values(A) -> np.ndarray:
    """Singular values of a validated square A in descending order.  A
    diagonal A (as Op(a) of a Fourier multiplier), or a 1-D A holding the
    diagonal of one, has the moduli of its diagonal as singular values;
    anything else goes through one values-only SVD."""
    if A.ndim == 2:
        if not is_diagonal(A):
            return np.linalg.svd(A, compute_uv=False)
        A = A.diagonal()
    return np.sort(np.abs(A))[::-1]


def shifted(A, lam) -> np.ndarray:
    """A - lam I as a new complex array, A unchanged: a copy of A with lam
    subtracted from its diagonal, and no identity formed.  A 1-D A is the
    diagonal of a diagonal matrix, and lam is subtracted from every
    entry."""
    S = np.array(A, dtype=complex)
    if S.ndim == 1:
        S -= lam
    else:
        S.flat[::S.shape[0] + 1] -= lam
    return S


def solve(A, B) -> np.ndarray:
    """Solve A X = B, or return A^{-1} when B is None.

    The inverse of an upper-triangular A (every entry below the diagonal
    exactly zero, as for a shifted Schur factor T - lambda I) comes from
    LAPACK ``trtri``, with exact zeros below the diagonal; everything else
    goes through LU with partial pivoting (``getrf``, then ``getrs``,
    against I when B is None).  Either way raises SingularMatrix when a
    pivot falls below ``PIVOT_REL_THRESHOLD * max|A|``; the pivots of a
    triangular A are its diagonal, which is also the U that ``getrf``
    would return for it.

    A is validated as by `as_matrix`, but in one pass over |A|: NaN and inf
    propagate through max|A|, so only a non-finite maximum is checked
    entry by entry (a finite entry whose modulus overflows passes that
    check and is refused by the pivot floor).  The same |A|, flattened in
    C order, gives the triangular test (its strict lower triangle weighted
    by 1, the rest by 0, sums to exactly 0) and a triangular A's pivots
    (its entries n + 1 apart).  B must be 1-D or 2-D with as many rows as
    A.
    """
    A = _square(np.asarray(A, dtype=complex))
    n = A.shape[0]
    if n == 0:
        raise ValueError("cannot solve with an empty matrix")
    mag = np.abs(A, order="C").ravel()
    scale = np.maximum.reduce(mag)
    nonzero = mag
    if not math.isfinite(scale):
        _check_finite(A)
        # an overflowed |a| = inf weighted by 0 is NaN; min(|A|, 1) is
        # finite and zero exactly where |A| is
        nonzero = np.minimum(mag, 1.0)
    if B is not None:
        B = np.asarray(B, dtype=complex)
        if B.ndim not in (1, 2):
            raise ValueError(f"B must be 1-D or 2-D, got shape {B.shape}")
        if B.shape[0] != n:
            raise ValueError("dimension mismatch between A and B")
    threshold = PIVOT_REL_THRESHOLD * max(scale, 1e-300)
    triangular = (B is None and n > 1
                  and _strict_lower_weights(n) @ nonzero == 0)
    if triangular:
        min_pivot = np.minimum.reduce(mag[::n + 1])
    # |A| is not held across LAPACK: 2 MB at n = 513
    del mag, nonzero
    if not triangular:
        # getrf reports an exact zero pivot via info > 0; the pivot floor
        # below refuses it together with the nearly singular cases
        lu, piv, info = _getrf(A)
        if info < 0:
            raise ValueError(f"illegal value in argument {-info} of getrf")
        min_pivot = np.abs(lu.diagonal()).min()
    if min_pivot < threshold:
        raise SingularMatrix(min_pivot)
    if triangular:
        routine = "trtri"
        X, info = _trtri(A)
    else:
        routine = "getrs"
        if B is None:
            B = np.eye(n, dtype=complex)
        X, info = _getrs(lu, piv, B)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    return X


def inverse_norm_2(A) -> float:
    """||A^{-1}||_2 = 1 / sigma_min(A), from the singular values of
    `_singular_values` and without forming A^{-1}; a 1-D A is the
    diagonal of a diagonal matrix.  Raises SingularMatrix (carrying
    sigma_min) when sigma_min <= PIVOT_REL_THRESHOLD * sigma_max."""
    A = np.asarray(A, dtype=complex)
    if A.ndim == 1:
        _check_finite(A)
    else:
        A = as_matrix(A)
    if A.size == 0:
        raise ValueError("cannot invert an empty matrix")
    sigma = _singular_values(A)
    if sigma[-1] <= PIVOT_REL_THRESHOLD * sigma[0]:
        raise SingularMatrix(float(sigma[-1]))
    return float(1.0 / sigma[-1])


def eig(A) -> tuple:
    """(values, V): the eigenvalues of A and matching right eigenvectors as
    the columns of V, in LAPACK's order.  Refused as TooDefective when
    1/sigma_min(V), which bounds the accuracy of V f(D) V^{-1}, exceeds
    DEFECTIVE_LIMIT."""
    A = as_matrix(A)
    if A.shape[0] > 1024:
        raise ValueError("eig is limited to dim <= 1024")
    values, V = np.linalg.eig(A)
    smin = np.linalg.svd(V, compute_uv=False)[-1]
    cond = 1.0 / smin if smin > 0 else np.inf
    if cond > DEFECTIVE_LIMIT:
        raise TooDefective(float(cond))
    return values, V


def operator_norm_2(A) -> float:
    """Largest singular value (`_singular_values`); 0 for an empty A."""
    A = as_matrix(A)
    if A.size == 0:
        return 0.0
    return float(_singular_values(A)[0])


def check_hermitian(A) -> np.ndarray:
    """Return A, a validated square matrix, or raise NotHermitian when the
    Frobenius norm of A - A* exceeds 1e-10 * max(||A||_2, 1e-300)."""
    scale = max(operator_norm_2(A), 1e-300)
    if np.linalg.norm(A - A.conj().T) > 1e-10 * scale:
        raise NotHermitian("input deviates from Hermitian beyond tolerance")
    return A


def inv_sqrt_hpd(H) -> np.ndarray:
    """Inverse square root of a Hermitian positive definite matrix."""
    H = check_hermitian(as_matrix(H))
    w, U = np.linalg.eigh(H)
    if w.min() <= 0:
        raise NotPositiveDefinite(float(w.min()))
    return (U * (w ** -0.5)) @ U.conj().T
