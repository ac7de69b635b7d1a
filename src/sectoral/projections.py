"""Projection-type operators: sectorial projections via the factorized
weighted integral over the sector contour and exactly from the reordered
Schur form, the eigendecomposition oracle, Riesz transform, APS
projection, complex powers with an explicit branch convention, and the
power/projection identity check.

Branch convention for log_alpha: arg in (alpha - 2*pi, alpha), i.e. the
cut lies along the ray L_alpha.  The positive sector Lambda_+ of a sector
contour is the one swept by the arc parameter, arg in (alpha2, alpha1).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.linalg

from . import linalg
from .contour import (CLEARANCE_MIN, TWO_PI, ContourSpec, ray_distance,
                      sector_phi, validate_contour)
from .errors import (EigenvalueAtCut, EigenvalueOnBoundary, EigenvalueOnCut,
                     EigenvalueZero, SectoralError, SingularMatrix)
from .symbol1d import DiscretizedOperator

BOUNDARY_PROBE = 1e-6

# LAPACK's Schur reordering and triangular Sylvester solver, bound once as
# linalg binds getrf/getrs/trtri
_trsen, _trsyl = scipy.linalg.get_lapack_funcs(("trsen", "trsyl"),
                                               dtype=np.complex128)


@dataclass
class ProjectionResult:
    P: np.ndarray
    rank_estimate: int
    contour_clearance: float
    truncation_error_estimate: float

    @cached_property
    def idempotency_defect(self) -> float:
        """||P^2 - P||_2, computed from P on first read."""
        return float(linalg.operator_norm_2(self.P @ self.P - self.P))

    @property
    def resolved(self) -> bool:
        return bool(abs(np.trace(self.P).real - self.rank_estimate) <= 0.1
                    and abs(np.trace(self.P).imag) <= 0.1)

    def to_record(self, include_matrix=False) -> dict:
        rec = {
            "idempotency_defect": self.idempotency_defect,
            "rank_estimate": self.rank_estimate,
            "contour_clearance": self.contour_clearance,
            "truncation_error_estimate": self.truncation_error_estimate,
            "resolved": self.resolved,
            "trace": [float(np.trace(self.P).real), float(np.trace(self.P).imag)],
        }
        if include_matrix:
            rec["matrix"] = [[[z.real, z.imag] for z in row] for row in self.P]
        return rec


def _matrix_of(A):
    if isinstance(A, DiscretizedOperator):
        return A.matrix
    return linalg.as_matrix(A)


def _schur_form(A, c: ContourSpec) -> tuple:
    """(T, Z, clearance, select): the complex Schur form M = Z T Z* of A's
    matrix, the clearance of T's diagonal from the contour, refused by
    contour.validate_contour, and the mask of the diagonal entries in the
    sector of c (|lambda| > R, arg lambda in (alpha2, alpha1)), whose count
    is the rank of the projection; the preamble of both projectors."""
    T, Z = scipy.linalg.schur(_matrix_of(A), output="complex")
    d = np.diag(T)
    clearance = validate_contour(d, c)
    select = (np.abs(d) > c.R) & ((c.alpha1 - np.angle(d)) % TWO_PI
                                  < c.theta)
    return T, Z, clearance, select


def _triangular_inverses(S) -> np.ndarray:
    """linalg.solve's inverse of each matrix of sector_phi's block S, written
    into one array (a list of them would hold a second block)."""
    out = np.empty_like(S)
    for i, B in enumerate(S):
        out[i] = linalg.solve(B, None)
    return out


def sectorial_projection(A, c: ContourSpec) -> ProjectionResult:
    """P = (-1/2 pi i) A Phi(A) with
    Phi(A) = integral over Gamma_+ of lambda^{-1} (A - lambda)^{-1}.

    Computed in the factorized form (Phi first, contour.sector_phi); the
    quadrature integrand is then O(|lambda|^-2) and the truncated ray tails
    admit an analytic second-order correction.

    The integral is evaluated on the complex Schur form M = Z T Z* of A's
    matrix and transformed back once: P = Z P(T) Z*.  Each shifted
    T - lambda I is upper triangular, so linalg.solve inverts it with one
    triangular inverse (LAPACK trtri) per node instead of an LU
    factorization, and contour.validate_contour checks the clearance of
    the diagonal d of T.  A diagonal T (a Fourier multiplier's) runs
    through sector_phi as the (n, 1, 1) stack of d, shifted and divided
    for a block of nodes at once (one division per block); solve's pivot
    floor is then checked on the nodes where it can break, and P is the
    one product (Z diag((-1/2 pi i) d phi)) Z*, the diagonal applied as a
    scaling of Z's columns.  rank_estimate counts the d in the sector,
    apart from the quadrature, so that `resolved` checks the trace of P
    against it.
    """
    T, Z, clearance, select = _schur_form(A, c)
    d = np.diag(T)
    if linalg.is_diagonal(T):
        phi, rule = sector_phi(d[:, None, None], c, lambda x: 1.0 / x)
        # solve's floor min|d - lam| >= tau max|d - lam| fails only where
        # clearance < tau (max|d| + |lam|): at |lam| > r_min, 2x for rounding
        tau = linalg.PIVOT_REL_THRESHOLD
        r_min = clearance / (2 * tau) - np.abs(d).max()
        for lam in rule.nodes[np.abs(rule.nodes) > r_min]:
            mag = np.abs(d - lam)
            if mag.min() < tau * mag.max():
                raise SingularMatrix(mag.min())
        P = (Z * ((-1.0 / (2j * np.pi)) * (d * phi.ravel()))) @ Z.conj().T
    else:
        phi, rule = sector_phi(T, c, _triangular_inverses)
        P = Z @ ((-1.0 / (2j * np.pi)) * (T @ phi)) @ Z.conj().T
    return ProjectionResult(P, int(select.sum()), clearance,
                            float(rule.truncation_error_estimate))


def schur_projection(A, c: ContourSpec) -> ProjectionResult:
    """The exact projection of A onto its eigenvalues in the sector of c
    (|lambda| > R, arg lambda in (alpha2, alpha1)), for the callers that
    consume P rather than test its quadrature.

    After the clearance check of _schur_form, LAPACK trsen moves the k
    selected eigenvalues to the leading block T11 of T = [[T11, T12],
    [0, T22]], trsyl solves T11 X - X T22 = T12, and P = Z [[I, X], [0, 0]]
    Z* (Stewart, SIAM Rev. 15, 1973; Bai & Demmel, SIMAX 19, 1998).  No
    eigenvectors are formed, so Jordan blocks are exact.  A LAPACK failure
    raises SectoralError; truncation_error_estimate is 0 (no quadrature)."""
    T, Z, clearance, select = _schur_form(A, c)
    n, k = len(select), int(select.sum())
    if k in (0, n):
        P = np.eye(n, dtype=complex) if k else np.zeros((n, n), complex)
    else:
        T, Z, _, m, _, _, info = _trsen(select, T, Z, job="N")
        if info != 0 or m != k:
            raise SectoralError(f"LAPACK trsen failed (info {info}, "
                                f"{m} of {k} eigenvalues moved)")
        X, scale, info = _trsyl(T[:k, :k], T[k:, k:], T[:k, k:], isgn=-1)
        if info != 0:
            raise SectoralError(f"LAPACK trsyl failed (info {info})")
        Z1 = Z[:, :k]
        P = Z1 @ (Z1.conj().T + (X / scale) @ Z[:, k:].conj().T)
    return ProjectionResult(P, k, clearance, 0.0)


def eigen_projection_oracle(A, sector: Callable[[complex], bool]
                            ) -> ProjectionResult:
    """Brute-force spectral projection P = V 1_sector(D) V^{-1}.

    Independent of all contour machinery; serves as the oracle for it.
    The sector is given as a membership predicate; an eigenvalue is deemed
    on the boundary when the predicate is not constant on a small circle
    around it (radius BOUNDARY_PROBE).
    """
    values, V = linalg.eig(_matrix_of(A))
    probes = BOUNDARY_PROBE * np.exp(2j * np.pi * np.arange(8) / 8)
    flags = []
    for lam in values:
        inside = bool(sector(complex(lam)))
        ring = {bool(sector(complex(lam + p))) for p in probes}
        if ring != {inside}:
            raise EigenvalueOnBoundary(f"eigenvalue {lam} within "
                                       f"{BOUNDARY_PROBE} of sector boundary")
        flags.append(inside)
    D = np.diag(np.array(flags, dtype=complex))
    P = V @ D @ np.linalg.inv(V)
    return ProjectionResult(P, int(sum(flags)), float("inf"), 0.0)


def riesz_transform(A) -> np.ndarray:
    """F(A) = (I + A^2)^{-1/2} A for Hermitian A: same eigenvectors,
    eigenvalues mapped to lambda/sqrt(1 + lambda^2), spectrum in (-1, 1)."""
    A = linalg.check_hermitian(_matrix_of(A))
    S = linalg.inv_sqrt_hpd(np.eye(len(A)) + A @ A)
    F = S @ A
    return 0.5 * (F + F.conj().T)  # symmetrize away roundoff


def aps_projection(A, c: float) -> ProjectionResult:
    """Orthogonal projection 1_{[c, infinity)}(A) for Hermitian A."""
    A = linalg.check_hermitian(_matrix_of(A))
    w, U = np.linalg.eigh(A)
    gap = float(np.abs(w - c).min())
    if gap <= CLEARANCE_MIN:
        raise EigenvalueAtCut(f"eigenvalue within {gap:.3e} of the cut {c}")
    sel = U[:, w >= c]
    P = sel @ sel.conj().T
    return ProjectionResult(P, int(sel.shape[1]), gap, 0.0)


def _arg_branch(lam: complex, alpha: float) -> float:
    """Argument of lam in the branch window (alpha - 2*pi, alpha)."""
    return alpha - ((alpha - np.angle(lam)) % TWO_PI)


def _power(values, V, s: complex, alpha: float) -> np.ndarray:
    """V diag(lambda_i^s) V^{-1} with the branch cut along L_alpha, from
    linalg.eig's (values, V)."""
    scale = max(np.abs(values).max(), 1.0)
    powers = np.empty_like(values)
    cut_dist = ray_distance(values, alpha)
    # checked in (real, imag) order: an A with a zero eigenvalue and another
    # on the cut is named by the first, whatever LAPACK's order
    for i in np.lexsort((values.imag, values.real)):
        lam = values[i]
        if abs(lam) <= 1e-12 * scale:
            raise EigenvalueZero(f"eigenvalue {lam} too close to zero")
        if cut_dist[i] <= 1e-10 * scale:
            raise EigenvalueOnCut(f"eigenvalue {lam} on the cut L_{alpha}")
        powers[i] = np.exp(s * (np.log(abs(lam)) + 1j * _arg_branch(lam, alpha)))
    return V @ np.diag(powers) @ np.linalg.inv(V)


def complex_power(A, s: complex, alpha: float) -> np.ndarray:
    """A^s with the branch cut along the ray L_alpha
    (arg in (alpha - 2*pi, alpha)), via eigendecomposition."""
    return _power(*linalg.eig(_matrix_of(A)), s, alpha)


def wodzicki_residual(A, s: complex, alpha1: float, alpha2: float,
                      c: ContourSpec) -> float:
    """Norm of A^s_{a2} - A^s_{a1} - (1 - e^{2 pi i s}) P_{Gamma+}(A) A^s_{a2},
    which vanishes identically for the correct branch and sector
    conventions; P is the exact projection of schur_projection."""
    values, V = linalg.eig(_matrix_of(A))
    p2 = _power(values, V, s, alpha2)
    p1 = _power(values, V, s, alpha1)
    P = schur_projection(A, c).P
    factor = 1.0 - np.exp(2j * np.pi * s)
    return linalg.operator_norm_2(p2 - p1 - factor * (P @ p2))
