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
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import NotHermitian, NotPositiveDefinite, SingularMatrix

PIVOT_REL_THRESHOLD = 1e-13

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


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (sorted lexicographically by (real, imag)), matching right
    eigenvectors as columns, and the reciprocal of the smallest singular
    value of the eigenvector matrix as a defectiveness indicator."""

    values: np.ndarray
    right_vectors: np.ndarray
    condition_estimate: float


@functools.lru_cache(maxsize=64)
def _strict_lower(n):
    """Boolean mask of the strict lower triangle of an n x n matrix, built
    once per n and shared read-only."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def _is_upper_triangular(A) -> bool:
    # the corner test rejects a full matrix in one scalar read; the masked
    # reduction then reads the strict lower triangle in place (gathering it
    # first would copy half the matrix: 2 MB at n = 513)
    n = A.shape[0]
    return n > 1 and A[-1, 0] == 0 and not A.any(where=_strict_lower(n))


def _singular_values(A) -> np.ndarray:
    """Singular values of a validated square A in descending order.  A
    diagonal A (every off-diagonal entry exactly zero, as for Op(a) of a
    Fourier multiplier) has the moduli of its diagonal as singular values;
    anything else goes through one values-only SVD."""
    if _is_upper_triangular(A) and _is_upper_triangular(A.T):
        return np.sort(np.abs(A.diagonal()))[::-1]
    return np.linalg.svd(A, compute_uv=False)


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
    check and is refused by the pivot floor), and a triangular A's pivots
    are read from the same |A|.  B must be 1-D or 2-D with as many rows as
    A.
    """
    A = _square(np.asarray(A, dtype=complex))
    if A.size == 0:
        raise ValueError("cannot solve with an empty matrix")
    mag = np.abs(A)
    scale = mag.max()
    if not math.isfinite(scale):
        _check_finite(A)
    if B is not None:
        B = np.asarray(B, dtype=complex)
        if B.ndim not in (1, 2):
            raise ValueError(f"B must be 1-D or 2-D, got shape {B.shape}")
        if B.shape[0] != A.shape[0]:
            raise ValueError("dimension mismatch between A and B")
    threshold = PIVOT_REL_THRESHOLD * max(scale, 1e-300)
    triangular = B is None and _is_upper_triangular(A)
    if triangular:
        min_pivot = mag.diagonal().min()
    # |A| is not held across LAPACK: 2 MB at n = 513
    del mag
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
            B = np.eye(A.shape[0], dtype=complex)
        X, info = _getrs(lu, piv, B)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    return X


def inverse_norm_2(A) -> float:
    """||A^{-1}||_2 = 1 / sigma_min(A), from the singular values of
    `_singular_values` and without forming A^{-1}.  Raises SingularMatrix
    (carrying sigma_min) when sigma_min <= PIVOT_REL_THRESHOLD *
    sigma_max."""
    A = as_matrix(A)
    if A.size == 0:
        raise ValueError("cannot invert an empty matrix")
    sigma = _singular_values(A)
    if sigma[-1] <= PIVOT_REL_THRESHOLD * sigma[0]:
        raise SingularMatrix(float(sigma[-1]))
    return float(1.0 / sigma[-1])


def eig(A) -> EigenDecomposition:
    """Full eigendecomposition with lexicographic (real, imag) ordering.

    Never refuses defective input; the caller decides via
    ``condition_estimate`` whether diagonalization-based results are usable.
    """
    A = as_matrix(A)
    if A.shape[0] > 1024:
        raise ValueError("eig is limited to dim <= 1024")
    values, vectors = np.linalg.eig(A)
    order = np.lexsort((values.imag, values.real))
    values = values[order]
    vectors = vectors[:, order]
    smin = np.linalg.svd(vectors, compute_uv=False)[-1]
    cond = 1.0 / smin if smin > 0 else np.inf
    return EigenDecomposition(values, vectors, float(cond))


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
