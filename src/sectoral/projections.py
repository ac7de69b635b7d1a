"""Projection-type operators: sectorial projections via the factorized
weighted integral over the sector contour, the eigendecomposition oracle,
Riesz transform, APS projection, complex powers with an explicit branch
convention, and the power/projection identity check.

Branch convention for log_alpha: arg in (alpha - 2*pi, alpha), i.e. the
cut lies along the ray L_alpha.  The positive sector Lambda_+ of a sector
contour is the one swept by the arc parameter, arg in (alpha2, alpha1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from . import linalg
from .contour import (ContourSpec, point_contour_distance, ray_distance,
                      sector_phi)
from .errors import (EigenvalueAtCut, EigenvalueOnBoundary, EigenvalueOnCut,
                     EigenvalueZero, SpectrumOnContour, TooDefective)
from .symbol1d import DiscretizedOperator

TWO_PI = 2.0 * math.pi
CLEARANCE_MIN = 1e-6
DEFECTIVE_LIMIT = 1e8
BOUNDARY_PROBE = 1e-6


@dataclass
class ProjectionResult:
    P: np.ndarray
    idempotency_defect: float
    rank_estimate: int
    contour_clearance: float
    truncation_error_estimate: float

    @property
    def resolved(self) -> bool:
        return abs(np.trace(self.P).real - self.rank_estimate) <= 0.1 \
            and abs(np.trace(self.P).imag) <= 0.1

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
    factorization, and the eigenvalues for the clearance check (a spectrum
    within CLEARANCE_MIN of c is refused) are the diagonal of T.
    """
    T, Z = scipy.linalg.schur(_matrix_of(A), output="complex")
    clearance = float(point_contour_distance(np.diag(T), c).min())
    if clearance <= CLEARANCE_MIN:
        raise SpectrumOnContour(clearance)
    phi, rule = sector_phi(T, c, lambda B: linalg.solve(B, None))
    P_T = (-1.0 / (2j * np.pi)) * (T @ phi)
    P = Z @ P_T @ Z.conj().T
    defect = linalg.operator_norm_2(P @ P - P)
    rank = int(round(np.trace(P).real))
    return ProjectionResult(P, float(defect), max(rank, 0), float(clearance),
                            float(rule.truncation_error_estimate))


def eigen_projection_oracle(A, sector: Callable[[complex], bool]
                            ) -> ProjectionResult:
    """Brute-force spectral projection P = V 1_sector(D) V^{-1}.

    Independent of all contour machinery; serves as the oracle for it.
    The sector is given as a membership predicate; an eigenvalue is deemed
    on the boundary when the predicate is not constant on a small circle
    around it (radius BOUNDARY_PROBE).
    """
    dec = _diagonalization(A)
    probes = BOUNDARY_PROBE * np.exp(2j * np.pi * np.arange(8) / 8)
    flags = []
    for lam in dec.values:
        inside = bool(sector(complex(lam)))
        ring = {bool(sector(complex(lam + p))) for p in probes}
        if ring != {inside}:
            raise EigenvalueOnBoundary(f"eigenvalue {lam} within "
                                       f"{BOUNDARY_PROBE} of sector boundary")
        flags.append(inside)
    V = dec.right_vectors
    D = np.diag(np.array(flags, dtype=complex))
    P = V @ D @ np.linalg.inv(V)
    clearance = float("inf")
    return ProjectionResult(P, float(linalg.operator_norm_2(P @ P - P)),
                            int(sum(flags)), clearance, 0.0)


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
    return ProjectionResult(P, float(linalg.operator_norm_2(P @ P - P)),
                            int(sel.shape[1]), gap, 0.0)


def _arg_branch(lam: complex, alpha: float) -> float:
    """Argument of lam in the branch window (alpha - 2*pi, alpha)."""
    return alpha - ((alpha - np.angle(lam)) % TWO_PI)


def _diagonalization(A) -> linalg.EigenDecomposition:
    """linalg.eig of A's matrix, refused as TooDefective beyond
    DEFECTIVE_LIMIT; the one decomposition behind every power of A."""
    dec = linalg.eig(_matrix_of(A))
    if dec.condition_estimate > DEFECTIVE_LIMIT:
        raise TooDefective(dec.condition_estimate)
    return dec


def _power(dec: linalg.EigenDecomposition, s: complex,
           alpha: float) -> np.ndarray:
    """V diag(lambda_i^s) V^{-1} with the branch cut along L_alpha."""
    scale = max(np.abs(dec.values).max(), 1.0)
    powers = np.empty_like(dec.values)
    cut_dist = ray_distance(dec.values, alpha)
    for i, lam in enumerate(dec.values):
        if abs(lam) <= 1e-12 * scale:
            raise EigenvalueZero(f"eigenvalue {lam} too close to zero")
        if cut_dist[i] <= 1e-10 * scale:
            raise EigenvalueOnCut(f"eigenvalue {lam} on the cut L_{alpha}")
        powers[i] = np.exp(s * (np.log(abs(lam)) + 1j * _arg_branch(lam, alpha)))
    V = dec.right_vectors
    return V @ np.diag(powers) @ np.linalg.inv(V)


def complex_power(A, s: complex, alpha: float) -> np.ndarray:
    """A^s with the branch cut along the ray L_alpha
    (arg in (alpha - 2*pi, alpha)), via eigendecomposition."""
    return _power(_diagonalization(A), s, alpha)


def wodzicki_residual(A, s: complex, alpha1: float, alpha2: float,
                      c: ContourSpec) -> float:
    """Norm of A^s_{a2} - A^s_{a1} - (1 - e^{2 pi i s}) P_{Gamma+}(A) A^s_{a2},
    which vanishes identically for the correct branch and sector
    conventions."""
    dec = _diagonalization(A)
    p2 = _power(dec, s, alpha2)
    p1 = _power(dec, s, alpha1)
    P = sectorial_projection(A, c).P
    factor = 1.0 - np.exp(2j * np.pi * s)
    return linalg.operator_norm_2(p2 - p1 - factor * (P @ p2))
