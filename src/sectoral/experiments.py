"""Quantitative experiments: sampled decay laws, fitted exponents, and
continuity moduli of the sectorial projection, packaged as serializable
reports.

Each experiment samples a norm quantity against |lambda| (or against an
aggregated perturbation seminorm), fits a power law on log-log axes, and
records the fit together with the theoretically expected exponent and the
tolerance used for the pass flag.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from . import linalg
from .contour import ContourSpec, ray_distance
from .errors import (ClearanceLost, InsufficientSpan, RangeOutsideResolvedRegime,
                     RayHitsSpectrum, SpectrumOnContour)
from .projections import sectorial_projection
from .symbol1d import (CutoffFunction, DiscretizedOperator, SymbolFunction,
                       _fibres, _op_columns, _pointwise_product, choose_rho,
                       cutoff_resolvent_symbol, op_from_symbol,
                       parametrix_phi0, sobolev_inverse_norm, sobolev_op_norm)

DEGENERATE_ZERO_TOL = 1e-12
# Below this total log-ordinate variation the data is flat to measurement
# precision: the exponent is indistinguishable from 0 and goodness-of-fit
# against the constant power law is reported as exact.
FLAT_ORDINATE_TOL = 0.05
# A log-log fit through fewer points makes the r^2 gate (nearly) vacuous:
# two points always fit with r^2 = 1.
MIN_FIT_SAMPLES = 4


@dataclass
class ExperimentReport:
    experiment_kind: str
    parameters: dict
    samples: list                 # [(abscissa, value), ...], abscissa increasing
    fitted_slope: float
    fitted_intercept: float
    r_squared: float
    expected_slope: float
    slope_tolerance: float

    @property
    def passed(self) -> bool:
        if self.parameters.get("degenerate_zero"):
            return True
        return (abs(self.fitted_slope - self.expected_slope)
                <= self.slope_tolerance and self.r_squared >= 0.98)

    def to_json_dict(self) -> dict:
        return {**asdict(self), "pass": self.passed}


def fit_loglog(samples) -> tuple:
    """OLS fit of log y against log x: (slope, intercept, r^2)."""
    xs = np.array([x for x, _ in samples], dtype=float)
    ys = np.array([y for _, y in samples], dtype=float)
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("log-log fit needs positive samples")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    if ly.max() - ly.min() < FLAT_ORDINATE_TOL:
        return float(slope), float(intercept), 1.0
    resid = ly - (slope * lx + intercept)
    ss_tot = np.sum((ly - ly.mean()) ** 2)
    r2 = 1.0 - np.sum(resid**2) / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), float(r2)


def _check_fit_samples(abscissae):
    """Refuse a fit over fewer than MIN_FIT_SAMPLES distinct abscissae."""
    count = len(np.unique(abscissae))
    if count < MIN_FIT_SAMPLES:
        raise InsufficientSpan(f"need >= {MIN_FIT_SAMPLES} distinct "
                               f"abscissae to fit, got {count}")


def _lambda_samples(lambda_range, n_samples=None) -> np.ndarray:
    lo, hi = float(lambda_range[0]), float(lambda_range[1])
    if not 0 < lo < hi:
        raise ValueError("lambda_range must satisfy 0 < min < max")
    if n_samples is None:
        n_samples = max(MIN_FIT_SAMPLES, round(12 * math.log10(hi / lo)))
    lams = np.geomspace(lo, hi, max(n_samples, 0))
    _check_fit_samples(lams)
    return lams


def _check_resolved_regime(K: int, m: float, lambda_range, factor: float):
    ceiling = (K / factor) ** m
    if lambda_range[1] > ceiling * (1 + 1e-12):
        raise RangeOutsideResolvedRegime(
            f"lambda_max {lambda_range[1]} exceeds the resolved-mode ceiling "
            f"(K/{factor:g})^m = {ceiling:.4g}")


def _check_ray_clear(A: DiscretizedOperator, ray_angle: float):
    dist = ray_distance(np.linalg.eigvals(linalg.as_matrix(A.matrix)),
                        ray_angle)
    if dist.min() <= 1e-6:
        raise RayHitsSpectrum(
            f"spectrum within {dist.min():.3e} of the ray at angle {ray_angle}")


def _fit_report(kind, parameters, samples, expected_slope, tolerance
                ) -> ExperimentReport:
    # checked again after sampling: rejected epsilons can shrink a grid
    _check_fit_samples([x for x, _ in samples])
    scale = max((abs(y) for _, y in samples), default=0.0)
    if scale < DEGENERATE_ZERO_TOL:
        parameters = dict(parameters, degenerate_zero=True)
        return ExperimentReport(kind, parameters, samples, expected_slope,
                                0.0, 1.0, expected_slope, tolerance)
    slope, intercept, r2 = fit_loglog(samples)
    return ExperimentReport(kind, parameters, samples, slope, intercept, r2,
                            expected_slope, tolerance)


def resolvent_decay_experiment(A: DiscretizedOperator, ray_angle: float,
                               s: float, p: float, lambda_range,
                               n_samples=None) -> ExperimentReport:
    """Sampled ||(A - lambda)^{-1}||_{s, s+p} along a ray of minimal growth;
    the fitted log-log slope is compared with -1 + p/m."""
    m = A.order
    if not 0 <= p <= m:
        raise ValueError(f"need 0 <= p <= m, got p={p}, m={m}")
    _check_resolved_regime(A.K, m, lambda_range, 4.0)
    lams = _lambda_samples(lambda_range, n_samples)
    _check_ray_clear(A, ray_angle)
    I = np.eye(A.matrix.shape[0], dtype=complex)
    samples = []
    for r in lams:
        lam = r * np.exp(1j * ray_angle)
        samples.append((float(r), sobolev_inverse_norm(
            A.matrix - lam * I, s, s + p, K=A.K, N=A.fiber_dim)))
    params = {"kind_detail": "resolvent_decay", "ray_angle": ray_angle,
              "s": s, "p": p, "m": m, "K": A.K,
              "lambda_range": [float(lambda_range[0]), float(lambda_range[1])],
              "n_samples": len(lams)}
    return _fit_report("resolvent_decay", params, samples,
                       expected_slope=-1.0 + p / m, tolerance=0.1)


def parametrix_gap_experiment(A: DiscretizedOperator, psi: CutoffFunction,
                              ray_angle: float, s: float, lambda_range,
                              n_samples=None) -> ExperimentReport:
    """Sampled ||Op(psi (a_m - lambda)^{-1}) - (A - lambda)^{-1}||_{s,s+m};
    expected decay exponent -min(1/m, 1).

    Both operators are built at doubled mode resolution and the difference
    is windowed back to modes |k| <= K: inverting the truncated matrix
    perturbs the resolvent at the boundary modes by a lambda-independent
    amount that the H^{s+m} weight amplifies to O(1).  Only the window's
    columns of the resolvent are solved for and only the window's columns
    of Op(psi (a_m - lambda)^{-1}) are assembled.  A cutoff that vanishes
    on every window mode (rho >= K) is refused with ValueError."""
    if A.symbol is None:
        raise ValueError("parametrix gap needs an operator with symbol provenance")
    if not psi(np.arange(-A.K, A.K + 1, dtype=float)).any():
        raise ValueError(f"cutoff radius rho = {psi.rho} vanishes on every "
                         f"mode |k| <= K = {A.K}")
    m = A.order
    # the gap is supported on the cutoff modes, far from the truncation
    # boundary, so the faithful regime extends to (K/2)^m here
    _check_resolved_regime(A.K, m, lambda_range, 2.0)
    lams = _lambda_samples(lambda_range, n_samples)
    _check_ray_clear(A, ray_angle)
    K, N = A.K, A.fiber_dim
    K2 = 2 * K
    big = op_from_symbol(A.symbol, K2)
    n = big.matrix.shape[0]
    I = np.eye(n, dtype=complex)
    lo, hi = N * (K2 - K), N * (K2 + K + 1)
    window = np.arange(K2 - K, K2 + K + 1)
    samples = []
    for r in lams:
        lam = r * np.exp(1j * ray_angle)
        R = linalg.solve(big.matrix - lam * I, I[:, lo:hi])[lo:hi]
        approx = _op_columns(
            cutoff_resolvent_symbol(A.symbol, psi, lam), K2, window)
        D = approx[lo:hi] - R
        samples.append((float(r), sobolev_op_norm(D, s, s + m, K=K, N=N)))
    params = {"kind_detail": "parametrix_gap", "ray_angle": ray_angle,
              "s": s, "m": m, "K": A.K, "rho": psi.rho,
              "fit_only": bool(m >= 2),
              "lambda_range": [float(lambda_range[0]), float(lambda_range[1])],
              "n_samples": len(lams)}
    return _fit_report("parametrix_gap", params, samples,
                       expected_slope=-min(1.0 / m, 1.0), tolerance=0.15)


def composition_gap_experiment(f_family, g_family, r: float, m: float,
                               s: float, lambda_range, K: int,
                               n_samples=None, tolerance=0.15
                               ) -> ExperimentReport:
    """Sampled ||Op(g)Op(f) - Op(g f)||_{s, s+m-r} for lambda-dependent
    symbol families f (order r) and g (order -m); expected decay exponent
    -min(1/m, 1).  A gap that vanishes identically (commuting multipliers)
    is reported as degenerate_zero and passes vacuously; a g whose Op(g)
    is zero on every window column (a cutoff radius >= K) is refused with
    ValueError.

    The matrices are composed at doubled mode resolution and the difference
    is windowed back to modes |k| <= K before the norm is taken: truncating
    the order-r factor at the boundary modes introduces a lambda-independent
    O(1/K) artifact there that is not part of the composition error.  The
    window of Op(g)Op(f) needs all columns of Op(g) but only the window's
    columns of Op(f), so Op(f) and Op(g f) are assembled on those alone."""
    if not 0 <= r <= m:
        raise ValueError(f"need 0 <= r <= m, got r={r}, m={m}")
    # same low-mode support argument as the parametrix gap: ceiling (K/2)^m
    _check_resolved_regime(K, m, lambda_range, 2.0)
    lams = _lambda_samples(lambda_range, n_samples)
    samples = []
    K2 = 2 * K
    window = np.arange(K2 - K, K2 + K + 1)
    for rr in lams:
        lam = complex(rr * np.exp(1j * np.pi / 2))
        f = f_family(lam)
        g = g_family(lam)
        N = f.fiber_dim
        lo, hi = N * (K2 - K), N * (K2 + K + 1)
        Mg = op_from_symbol(g, K2).matrix
        if not Mg[:, lo:hi].any():
            raise ValueError(f"Op(g) is zero on every mode |k| <= K = {K}, "
                             "as for a cutoff radius >= K")
        Mf = _op_columns(f, K2, window)
        Mgf = _op_columns(_pointwise_product(g, f), K2, window)
        D = Mg[lo:hi] @ Mf - Mgf[lo:hi]
        gap = sobolev_op_norm(D, s, s + m - r, K=K, N=N)
        samples.append((float(rr), gap))
    params = {"kind_detail": "composition_gap", "r": r, "m": m, "s": s,
              "K": K,
              "lambda_range": [float(lambda_range[0]), float(lambda_range[1])],
              "n_samples": len(lams)}
    return _fit_report("composition_gap", params, samples,
                       expected_slope=-min(1.0 / m, 1.0), tolerance=tolerance)


# ---------------------------------------------------------------------------
# perturbation seminorms and continuity experiment

@dataclass
class SplitOperator:
    """An operator difference in split form: homogeneous principal symbol
    plus a lower-order matrix part (already discretized)."""

    m: float
    K: int
    principal: Optional[SymbolFunction] = None
    lower: Optional[np.ndarray] = None
    fiber_dim: int = 1

    def matrix(self) -> np.ndarray:
        dim = self.fiber_dim * (2 * self.K + 1)
        M = np.zeros((dim, dim), dtype=complex)
        if self.principal is not None:
            M += op_from_symbol(self.principal, self.K).matrix
        if self.lower is not None:
            M += np.asarray(self.lower, dtype=complex)
        return M


def _theta_spectral_derivs(samples: np.ndarray, j_max: int) -> list:
    """(G, N, N) samples over a uniform theta grid -> [d^0, ..., d^j_max]."""
    G = samples.shape[0]
    freqs = np.fft.fftfreq(G, d=1.0 / G)[:, None, None]  # integer modes
    out = [samples]
    coeffs = np.fft.fft(samples, axis=0)
    for a in range(1, j_max + 1):
        out.append(np.fft.ifft(coeffs * (1j * freqs) ** a, axis=0))
    return out


def _max_fibre_norm(fibres: np.ndarray) -> float:
    """Largest spectral norm in a (..., N, N) stack; |a| for 1 x 1 fibres,
    whose norm through the SVD differs from |a| in the last bit."""
    if fibres.shape[-1] == 1:
        return float(np.abs(fibres).max())
    return float(np.linalg.norm(fibres, ord=2, axis=(-2, -1)).max())


def seminorm_pc(D: SplitOperator, k_list: Sequence[int], j_max: int) -> dict:
    """Seminorms of the locally convex operator topology, realized
    discretely: p_j = sup of theta- and xi-derivatives of the principal
    symbol up to total order j on |xi| = 1 (theta derivatives spectral,
    xi derivatives by central finite differences), each measured by the
    spectral norm of its fibre, and the Sobolev norms
    ||lower part||_{k+m-1,k} for k in k_list."""
    p = {}
    if D.principal is not None:
        G = 256
        theta = 2.0 * np.pi * np.arange(G) / G
        N = D.principal.fiber_dim
        h = 1e-3
        sup = {}
        for xi0 in (1.0, -1.0):
            # a theta-independent value is spread over the grid
            lo, mid, hi = (np.broadcast_to(_fibres(D.principal.evaluate(
                theta, xi0 + dx), N), (G, N, N)) for dx in (-h, 0.0, h))
            # xi-derivatives up to order 2 by central differences
            xi_derivs = (mid, lo * (-0.5 / h) + hi * (0.5 / h),
                         lo * (1.0 / h**2) + mid * (-2.0 / h**2)
                         + hi * (1.0 / h**2))
            for beta in range(min(j_max, 2) + 1):
                for alpha, deriv in enumerate(
                        _theta_spectral_derivs(xi_derivs[beta], j_max - beta)):
                    key = (alpha, beta)
                    sup[key] = max(sup.get(key, 0.0), _max_fibre_norm(deriv))
        for j in range(j_max + 1):
            p[j] = max(v for (a, b), v in sup.items() if a + b <= j)
    lower_norms = {}
    if D.lower is not None:
        for k in k_list:
            lower_norms[int(k)] = sobolev_op_norm(
                np.asarray(D.lower, dtype=complex), k + D.m - 1, k,
                K=D.K, N=D.fiber_dim)
    return {"p": p, "lower_norm": lower_norms}


def aggregate_seminorm(D: SplitOperator) -> float:
    """Max over the finite seminorm family p_0..p_2 and the lower-part norm
    at k = 0; one abscissa for the continuity experiment."""
    sem = seminorm_pc(D, (0,), 2)
    vals = list(sem["p"].values()) + list(sem["lower_norm"].values())
    return max(vals) if vals else 0.0


def perturbation_experiment(A, dA, epsilons, s: float, c: ContourSpec
                            ) -> ExperimentReport:
    """Continuity of A -> P_{Gamma+}(A): for each epsilon, the abscissa is
    the aggregated seminorm of epsilon*dA and the ordinate is
    ||P(A + eps dA) - P(A)||_{s,s}.  The fitted slope 1 (local Lipschitz
    behaviour) is a desk-scale refinement of the continuity statement, not
    a claim of the underlying theory.

    Fewer than MIN_FIT_SAMPLES distinct epsilons are refused as
    InsufficientSpan before any projection.  Samples whose perturbed
    operator loses contour clearance are rejected and recorded; if every
    epsilon is rejected, ClearanceLost is raised, and fewer than
    MIN_FIT_SAMPLES samples left are refused as InsufficientSpan.
    """
    _check_fit_samples(epsilons)
    if isinstance(A, DiscretizedOperator):
        M = A.matrix
        K, N = A.K, A.fiber_dim
        if not isinstance(dA, SplitOperator):
            raise TypeError("operator-mode perturbation needs a SplitOperator")
        dM = dA.matrix()
        x_unit = aggregate_seminorm(dA)
        norm = lambda X: sobolev_op_norm(X, s, s, K=K, N=N)
    else:
        M = linalg.as_matrix(A)
        dM = linalg.as_matrix(dA)
        x_unit = linalg.operator_norm_2(dM)
        norm = linalg.operator_norm_2
    base = sectorial_projection(M, c)
    samples = []
    ratios = []
    rejected = []
    for eps in sorted(float(e) for e in epsilons):
        pert = M + eps * dM
        try:
            res = sectorial_projection(pert, c)
        except SpectrumOnContour:
            rejected.append(eps)
            continue
        y = norm(res.P - base.P)
        x = eps * x_unit
        samples.append((x, y))
        ratios.append([eps, y / x if x > 0 else float("nan")])
    if rejected and not samples:
        raise ClearanceLost(rejected[0])
    params = {"kind_detail": "perturbation", "s": s,
              "epsilons": [float(e) for e in epsilons],
              "rejected_epsilons": rejected,
              "seminorm_unit": x_unit,
              "ratio_table": ratios,
              "interpretation": ("linear response; observed desk-scale "
                                 "refinement of the continuity statement, "
                                 "not a theoretical claim")}
    return _fit_report("perturbation", params, samples,
                       expected_slope=1.0, tolerance=0.1)


def boundedness_check(A: DiscretizedOperator, c: ContourSpec,
                      s_list: Sequence[float]) -> dict:
    """||P_{Gamma+}(A)||_{s,s} for each s, together with the gap
    ||P - (-1/2 pi i) A Phi_0||_{s,s} to the symbol-level first
    approximation; the gap must not exceed the norm itself."""
    if A.symbol is None:
        raise ValueError("boundedness check needs an operator with symbol")
    psi = CutoffFunction(float(choose_rho(A.symbol, c, A.K)))
    res = sectorial_projection(A, c)
    phi0 = parametrix_phi0(A.symbol, psi, c, A.K)
    approx = (-1.0 / (2j * np.pi)) * (A.matrix @ phi0.matrix)
    out = {"rho": psi.rho, "truncation_error_estimate":
           res.truncation_error_estimate, "per_s": {}}
    for s in s_list:
        norm_p = sobolev_op_norm(res.P, s, s, K=A.K, N=A.fiber_dim)
        gap = sobolev_op_norm(res.P - approx, s, s, K=A.K, N=A.fiber_dim)
        out["per_s"][float(s)] = {"norm_P": norm_p, "gap": gap}
    return out
