import dataclasses
import json

import numpy as np
import pytest

from sectoral import experiments, linalg, presets, symbol1d
from sectoral.errors import (ClearanceLost, InsufficientSpan,
                             RangeOutsideResolvedRegime, RayHitsSpectrum,
                             SingularMatrix)
from sectoral.experiments import (ExperimentReport, SplitOperator,
                                  aggregate_seminorm, boundedness_check,
                                  composition_gap_experiment, fit_loglog,
                                  parametrix_gap_experiment,
                                  perturbation_experiment,
                                  resolvent_decay_experiment, seminorm_pc)
from sectoral.projections import sectorial_projection
from sectoral.symbol1d import (CutoffFunction, SymbolFunction,
                               cutoff_resolvent_symbol, op_from_symbol,
                               sobolev_inverse_norm, sobolev_op_norm)
from conftest import count_calls, symbol_pauli_monopole


# ---------------------------------------------------------------------------
# log-log fitting

def test_fit_loglog_exact_power_law():
    xs = np.geomspace(1.0, 100.0, 12)
    slope, intercept, r2 = fit_loglog([(x, 3.0 * x**-1.5) for x in xs])
    assert slope == pytest.approx(-1.5, abs=1e-12)
    assert intercept == pytest.approx(np.log(3.0), abs=1e-12)
    assert r2 == pytest.approx(1.0)


def test_fit_loglog_with_oscillatory_modulation():
    xs = np.geomspace(1.0, 1000.0, 40)
    ys = xs**-1.0 * (1.0 + 0.01 * np.sin(np.log(xs)))
    slope, _, r2 = fit_loglog(list(zip(xs, ys)))
    assert slope == pytest.approx(-1.0, abs=0.01)
    assert r2 >= 0.999


@pytest.fixture
def heavy_calls(monkeypatch):
    """Counts of linalg.solve, linalg.inverse_norm_2 and
    schur_projection calls made through the experiments module."""
    counts = {}
    count_calls(monkeypatch, counts, linalg, "solve")
    count_calls(monkeypatch, counts, linalg, "inverse_norm_2")
    count_calls(monkeypatch, counts, experiments, "schur_projection")
    return counts


def test_fit_loglog_insufficient_span(heavy_calls):
    # a two-point fit always has r^2 = 1, so an experiment refuses fewer
    # than 4 lambda samples instead of reporting a vacuous pass, and it
    # refuses them before it samples anything
    A = presets.op_dtheta_shift(16)
    for n in (3, 2, 0, -1):
        with pytest.raises(InsufficientSpan):
            resolvent_decay_experiment(A, np.pi / 2, 0.0, 0.0, (1.0, 4.0),
                                       n_samples=n)
        with pytest.raises(InsufficientSpan):
            parametrix_gap_experiment(A, CutoffFunction(2.0), np.pi / 2, 0.0,
                                      (1.0, 4.0), n_samples=n)
    assert heavy_calls == {"solve": 0, "inverse_norm_2": 0,
                           "schur_projection": 0}
    rep = resolvent_decay_experiment(A, np.pi / 2, 0.0, 0.0, (1.0, 4.0),
                                     n_samples=4)
    assert len(rep.samples) == 4
    # the counter sees the resolvent decay samples: one norm per sample
    assert heavy_calls["inverse_norm_2"] == 4


@pytest.mark.parametrize("p", [0.0, 0.5, 1.0])
def test_resolvent_decay_norm_matches_formed_inverse(p):
    # the samples come from 1/sigma_min of the weighted shifted matrix;
    # they must equal the Sobolev norm of the explicitly formed resolvent
    A = presets.get_operator("variable_coeff_shift", 16)
    s = 0.5
    rep = resolvent_decay_experiment(A, np.pi / 2, s, p, (1.0, 4.0),
                                     n_samples=4)
    I = np.eye(A.matrix.shape[0])
    for r, value in rep.samples:
        R = linalg.solve(A.matrix - r * np.exp(0.5j * np.pi) * I, None)
        ref = sobolev_op_norm(R, s, s + p, K=A.K)
        assert value == pytest.approx(ref, rel=1e-12)


@pytest.mark.parametrize("K, lambda_range", [(16, (1.0, 4.0)),
                                             (64, (1.6, 16.0))])
@pytest.mark.parametrize("s, p", [(0.0, 0.0), (0.5, 0.5), (1.5, 1.0)])
def test_resolvent_decay_of_a_multiplier_samples_its_diagonal(
        K, lambda_range, s, p, monkeypatch):
    # a Fourier multiplier is shifted and weighted on its diagonal alone,
    # and every sample has the bits of the route through the dense matrix
    A = presets.op_dtheta_shift(K)
    ray = np.pi / 2
    dense = [sobolev_inverse_norm(linalg.shifted(A.matrix, lam), s, s + p,
                                  K=K)
             for _, lam in experiments._ray_grid(lambda_range, None, ray)]
    shapes = []
    shifted = linalg.shifted

    def recording_shifted(M, lam):
        shapes.append(np.shape(M))
        return shifted(M, lam)

    monkeypatch.setattr(linalg, "shifted", recording_shifted)
    rep = resolvent_decay_experiment(A, ray, s, p, lambda_range)
    assert [value for _, value in rep.samples] == dense
    assert shapes == [(2 * K + 1,)] * len(dense)


def test_parametrix_gap_matches_formed_inverse():
    # the samples solve only for the window's columns of the resolvent;
    # they must equal the gap computed from the full formed inverse
    A = presets.get_operator("variable_coeff_shift", 16)
    psi = CutoffFunction(2.0)
    rep = parametrix_gap_experiment(A, psi, np.pi / 2, 0.0, (1.0, 4.0),
                                    n_samples=4)
    K2, m = 2 * A.K, A.order
    big = op_from_symbol(A.symbol, K2).matrix
    I = np.eye(big.shape[0])
    lo, hi = K2 - A.K, K2 + A.K + 1
    for r, value in rep.samples:
        lam = r * np.exp(0.5j * np.pi)
        R = np.linalg.inv(big - lam * I)
        approx = op_from_symbol(cutoff_resolvent_symbol(A.symbol, psi, lam),
                                K2).matrix
        ref = sobolev_op_norm((approx - R)[lo:hi, lo:hi], 0.0, m, K=A.K)
        assert value == pytest.approx(ref, rel=1e-12)


def test_resolvent_norm_of_singular_shift_raises():
    M = np.diag(np.arange(-8.0, 9.0)) + 0j  # modes |k| <= 8
    with pytest.raises(SingularMatrix):
        sobolev_inverse_norm(M - 2.0 * np.eye(17), 0.0, 1.0, K=8)
    with pytest.raises(SingularMatrix):
        linalg.inverse_norm_2(np.zeros((3, 3)))


def test_flat_ordinate_reports_perfect_fit():
    # variation below the flat-ordinate guard: exponent indistinguishable
    # from 0, r^2 reported as exact
    xs = np.geomspace(1.0, 100.0, 10)
    rng = np.random.default_rng(2)
    ys = 1.0 + 0.005 * rng.standard_normal(10)
    slope, _, r2 = fit_loglog(list(zip(xs, ys)))
    assert abs(slope) < 0.01
    assert r2 == 1.0


# ---------------------------------------------------------------------------
# decay experiments (small K for speed; acceptance runs the large ones)

def test_resolvent_decay_slopes_small():
    A = presets.op_dtheta_shift(64)
    rep = resolvent_decay_experiment(A, np.pi / 2, 0.0, 0.0, (1.0, 12.0))
    assert rep.expected_slope == -1.0
    assert abs(rep.fitted_slope + 1.0) <= 0.1
    assert rep.r_squared >= 0.98
    assert rep.passed
    # p = m: the norm is asymptotically constant; at this short low-lambda
    # range the residual variation is too small to fit but not yet below
    # the flat-ordinate guard, so only the slope is meaningful
    rep = resolvent_decay_experiment(A, np.pi / 2, 0.0, 1.0, (1.0, 12.0))
    assert rep.expected_slope == 0.0
    assert abs(rep.fitted_slope) <= 0.1


def test_resolvent_decay_rejects_unresolved_range():
    A = presets.op_dtheta_shift(32)
    with pytest.raises(RangeOutsideResolvedRegime):
        resolvent_decay_experiment(A, np.pi / 2, 0.0, 0.0, (1.0, 20.0))


def test_resolvent_decay_rejects_ray_through_spectrum():
    # the unshifted variable-coefficient operator has spectrum on the ray
    A = presets.op_variable_coeff(16)
    with pytest.raises(RayHitsSpectrum):
        resolvent_decay_experiment(A, 0.0, 0.0, 0.0, (1.0, 4.0))
    # a grid too short to fit is refused first
    with pytest.raises(InsufficientSpan):
        resolvent_decay_experiment(A, 0.0, 0.0, 0.0, (1.0, 4.0), n_samples=3)


def test_resolvent_decay_reads_a_multiplier_spectrum_from_its_diagonal(
        monkeypatch):
    # -i d/dtheta has the eigenvalue 0 on every ray; a diagonal operator's
    # spectrum is its diagonal, with no eigenvalue solver
    def no_eigvals(*args, **kwargs):
        raise AssertionError("eigvals called on a diagonal operator")

    monkeypatch.setattr(np.linalg, "eigvals", no_eigvals)
    with pytest.raises(RayHitsSpectrum):
        resolvent_decay_experiment(presets.op_dtheta(16), 0.0, 0.0, 0.0,
                                   (1.0, 4.0))


def test_parametrix_gap_rejects_ray_through_spectrum():
    A = presets.op_variable_coeff(16)
    psi = CutoffFunction(4.0)
    with pytest.raises(RayHitsSpectrum):
        parametrix_gap_experiment(A, psi, 0.0, 0.0, (1.0, 4.0))
    with pytest.raises(InsufficientSpan):
        parametrix_gap_experiment(A, psi, 0.0, 0.0, (1.0, 4.0), n_samples=3)


def test_parametrix_gap_slope_first_order():
    A = presets.op_variable_coeff_shift(64)
    rep = parametrix_gap_experiment(A, CutoffFunction(4.0), np.pi / 2, 0.0,
                                    (8.0, 30.0))
    assert rep.expected_slope == -1.0
    assert abs(rep.fitted_slope + 1.0) <= 0.15
    assert rep.r_squared >= 0.98


def test_composition_gap_degenerate_for_commuting_multipliers():
    # theta-independent symbols commute exactly: the gap vanishes and the
    # report passes vacuously as degenerate_zero
    def f_family(lam):
        return presets.symbol_xi()

    def g_family(lam):
        a = presets.symbol_xi()
        psi = CutoffFunction(1.0)
        return cutoff_resolvent_symbol(a, psi, lam)

    rep = composition_gap_experiment(f_family, g_family, 0.0, (4.0, 45.0),
                                     K=96)
    assert rep.parameters["degenerate_zero"]
    assert rep.passed
    # both are multipliers, so both matrices are exactly diagonal
    assert all(gap == 0.0 for _, gap in rep.samples)


@pytest.fixture
def assembled_columns(monkeypatch):
    """(symbol, K, number of columns) of every Op(a) assembly, whether
    through op_from_symbol or on a set of columns."""
    calls = []
    op_columns = symbol1d._op_columns

    def recorded(a, K, cols):
        calls.append((a, K, len(cols)))
        return op_columns(a, K, cols)

    monkeypatch.setattr(symbol1d, "_op_columns", recorded)
    monkeypatch.setattr(experiments, "_op_columns", recorded)
    return calls


def test_composition_gap_assembles_f_and_gf_on_the_window_only(
        assembled_columns):
    K, K2 = 16, 32
    f_family, g_family, tol = presets.pair_resolvent(1.0)
    made = {"f": [], "g": []}

    def f_fam(lam):
        made["f"].append(f_family(lam))
        return made["f"][-1]

    def g_fam(lam):
        made["g"].append(g_family(lam))
        return made["g"][-1]

    def kind(a):
        return next((k for k, syms in made.items()
                     if any(a is b for b in syms)), "gf")

    rep = composition_gap_experiment(f_fam, g_fam, 0.0, (2.0, 8.0), K=K,
                                     n_samples=4, tolerance=tol)
    # each lambda's pair is built once
    assert len(rep.samples) == len(made["f"]) == len(made["g"]) == 4
    assert (rep.parameters["r"], rep.parameters["m"]) == (1.0, 1.0)
    # per lambda: Op(g) on all 2K2+1 columns, Op(f) and Op(g f) on 2K+1
    got = sorted((kind(a), KK, n) for a, KK, n in assembled_columns)
    assert got == ([("f", K2, 2 * K + 1)] * 4 + [("g", K2, 2 * K2 + 1)] * 4
                   + [("gf", K2, 2 * K + 1)] * 4)


def test_parametrix_gap_assembles_the_window_only(assembled_columns):
    A = presets.get_operator("variable_coeff_shift", 16)
    K2 = 2 * A.K
    assembled_columns.clear()
    parametrix_gap_experiment(A, CutoffFunction(2.0), np.pi / 2, 0.0,
                              (1.0, 4.0), n_samples=4)
    # Op(a) once at doubled resolution, then 2K+1 columns per lambda
    assert [(a is A.symbol, K, n) for a, K, n in assembled_columns] == (
        [(True, K2, 2 * K2 + 1)] + [(False, K2, 2 * A.K + 1)] * 4)


def test_composition_gap_range_guard(assembled_columns):
    # the resolvent pair has m = 1: at K = 8 the ceiling is (8/2)^1 = 4,
    # and lambda up to 100 is refused before anything is assembled
    f_family, g_family, tol = presets.pair_resolvent(1.0)
    with pytest.raises(RangeOutsideResolvedRegime, match=r"\(K/2\)\^m = 4"):
        composition_gap_experiment(f_family, g_family, 0.0, (1.0, 100.0),
                                   K=8, tolerance=tol)
    assert assembled_columns == []


def test_composition_gap_refuses_orders_outside_the_range(assembled_columns):
    # f = g = xi declares r = 1 and m = -1, which breaks 0 <= r <= m:
    # refused from the declared orders before any Op(a) is assembled
    def fam(lam):
        return presets.symbol_xi()

    with pytest.raises(ValueError, match=r"r=1\.0, m=-1\.0"):
        composition_gap_experiment(fam, fam, 0.0, (1.0, 4.0), K=32)
    assert assembled_columns == []


# ---------------------------------------------------------------------------
# seminorms

def test_seminorm_zero_difference():
    assert aggregate_seminorm(SplitOperator(), presets.op_dtheta(8)) == 0.0


def test_seminorm_principal_scaling():
    eps = 0.25

    def ev(theta, xi):
        return np.full_like(np.asarray(theta, float), eps * xi,
                            dtype=complex)[..., None, None]

    D = SplitOperator(principal=SymbolFunction(order=1, evaluate=ev,
                                               principal=ev))
    sem = seminorm_pc(D, presets.op_dtheta(8))
    # on |xi| = 1: |eps xi| = eps, first xi-derivative eps, theta-derivs 0
    assert sem["p"][0] == pytest.approx(eps, rel=1e-6)
    assert sem["p"][1] == pytest.approx(eps, rel=1e-4)
    assert sem["p"][2] == pytest.approx(eps, rel=1e-4)


def test_seminorm_system_principal_is_the_fibre_spectral_norm():
    # xi (cos theta sx + sin theta sy) and its theta- and first
    # xi-derivatives have spectral norm 1 on |xi| = 1; its second
    # xi-derivative vanishes
    D = SplitOperator(principal=symbol_pauli_monopole())
    sem = seminorm_pc(D, presets.op_dtheta(8))
    assert sem["p"][0] == pytest.approx(1.0, rel=1e-12)
    assert sem["p"][1] == pytest.approx(1.0, rel=1e-9)
    assert sem["p"][2] == pytest.approx(1.0, rel=1e-6)


def test_seminorm_lower_part_matches_direct_norm():
    K = 8
    D = presets.perturbation_cos_theta_lower(K)
    sem = seminorm_pc(D, presets.op_dtheta_shift(K))
    want = sobolev_op_norm(D.lower, 0.0, 0.0, K=K)
    assert sem["lower_norm"][0] == pytest.approx(want, rel=1e-12)
    # the cos(theta) Toeplitz multiplier has plain 2-norm < 1 and the
    # (0, 0)-weighted norm reduces to it when m = 1
    assert 0.9 < want <= 1.0
    # at an operator of order 2 the lower part is measured in order 1
    sem2 = seminorm_pc(D, presets.op_variable_coeff_m2(K))
    assert sem2["lower_norm"][0] == sobolev_op_norm(D.lower, 1.0, 0.0, K=K)
    assert sem2["lower_norm"][0] < want


# ---------------------------------------------------------------------------
# perturbation experiment

def test_perturbation_matrix_mode_2x2_ratio():
    A = np.diag([1.0, -1.0]).astype(complex)
    dA = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = presets.contour_imag()
    rep = perturbation_experiment(A, dA, np.geomspace(1e-4, 1e-1, 7), 0.0, c)
    assert abs(rep.fitted_slope - 1.0) <= 0.1
    assert rep.r_squared >= 0.98
    # analytic: P(A + eps dA) - P(A) has norm eps/2, so y/x = 1/2
    for eps, ratio in rep.parameters["ratio_table"]:
        assert ratio == pytest.approx(0.5, rel=1e-2)
    assert rep.passed


def test_perturbation_matrix_is_the_one_mode_operator():
    # a matrix pair is the operator on the single mode k = 0, where every
    # Sobolev weight is 1: both forms give the same record, bit for bit
    A = np.diag([1.0, -1.0]).astype(complex)
    dA = np.array([[0.0, 1.0], [0.0, 0.0]])
    eps, c = np.geomspace(1e-4, 1e-1, 9), presets.contour_imag()
    matrix = perturbation_experiment(A, dA, eps, 0.0, c)
    operator = perturbation_experiment(
        symbol1d.DiscretizedOperator(A, 0, 1.0),
        SplitOperator(lower=dA), eps, 0.0, c)
    assert matrix.to_json_dict() == operator.to_json_dict()
    assert matrix.parameters["seminorm_unit"] == linalg.operator_norm_2(dA)


def test_perturbation_operator_mode_linear_response():
    A = presets.op_dtheta_shift(16)
    dA = presets.perturbation_cos_theta_lower(16)
    c = presets.contour_imag()
    rep = perturbation_experiment(A, dA, np.geomspace(1e-3, 1e-1, 5), 0.0, c)
    assert abs(rep.fitted_slope - 1.0) <= 0.1
    assert rep.r_squared >= 0.98
    assert rep.parameters["seminorm_unit"] > 0


def test_perturbation_sign_symmetry():
    # A is diagonal with eigenvalues k + 0.3, k = -12..12, in that order
    A = presets.op_dtheta_shift(12).matrix
    n = A.shape[0]
    c = presets.contour_imag()
    base = sectorial_projection(A, c).P

    def responses(dA, eps):
        return [np.linalg.norm(sectorial_projection(A + sign * eps * dA,
                                                    c).P - base, 2)
                for sign in (1.0, -1.0)]

    # coupling two modes that both lie outside the sector (-11.7, -10.7)
    # leaves P = 0 on their block: the exact response is zero
    within = np.zeros_like(A)
    within[0, 1] = 1.0
    # coupling across the cut (-11.7 and 12.3): the response
    # eps / 24 is even in the sign of the perturbation direction
    across = np.zeros_like(A)
    across[0, n - 1] = 1.0
    for eps in (1e-3, 1e-2):
        assert max(responses(within, eps)) <= 1e-12
        yp, ym = responses(across, eps)
        assert yp == pytest.approx(eps / 24.0, rel=1e-6)
        assert abs(yp - ym) <= 0.2 * yp


def test_perturbation_rejects_clearance_loss(heavy_calls):
    A = np.diag([1.0, -1.0]).astype(complex)
    dA = np.diag([-1.0, 0.0])
    c = presets.contour_imag()  # R = 0.5
    # fewer than 4 epsilons are refused before the first projection
    with pytest.raises(InsufficientSpan):
        perturbation_experiment(A, dA, [1e-3, 1e-2, 1e-1], 0.0, c)
    assert heavy_calls == {"solve": 0, "inverse_norm_2": 0,
                           "schur_projection": 0}
    # eps = 0.5 moves the eigenvalue to 0.5, exactly onto the arc; every
    # epsilon of this grid lies within 1e-6 of it
    with pytest.raises(ClearanceLost):
        perturbation_experiment(A, dA, np.linspace(0.5 - 5e-7, 0.5 + 5e-7, 4),
                                0.0, c)
    # mixed case: the bad epsilon is recorded, the rest fit
    rep = perturbation_experiment(A, dA, [1e-3, 1e-2, 1e-1, 0.5, 0.2], 0.0, c)
    assert rep.parameters["rejected_epsilons"] == [0.5]
    assert len(rep.samples) == 4
    # a rejection that leaves 3 samples leaves too few to fit
    with pytest.raises(InsufficientSpan):
        perturbation_experiment(A, dA, [1e-3, 1e-2, 1e-1, 0.5], 0.0, c)


@pytest.mark.parametrize("bad", [0.0, -1e-3, np.inf, np.nan])
def test_perturbation_refuses_a_bad_epsilon_before_projecting(heavy_calls,
                                                              bad):
    # the log-log fit needs eps > 0: a bad epsilon is named before the
    # base projection, in operator and in matrix mode
    eps = [bad, 1e-3, 1e-2, 1e-1]
    c = presets.contour_imag()
    for A, dA in ((presets.op_dtheta_shift(8),
                   presets.perturbation_cos_theta_lower(8)),
                  (np.diag([1.0, -1.0]).astype(complex),
                   np.array([[0.0, 1.0], [0.0, 0.0]]))):
        with pytest.raises(ValueError, match=f"got {bad}"):
            perturbation_experiment(A, dA, eps, 0.0, c)
    assert heavy_calls["schur_projection"] == 0


def test_perturbation_refuses_a_perturbation_that_does_not_fit(
        heavy_calls, monkeypatch):
    # a perturbation of another shape is named, with the operator's order
    # and K, before the seminorm and before any projection, in operator
    # and in matrix mode
    count_calls(monkeypatch, heavy_calls, experiments, "aggregate_seminorm")
    eps = [1e-3, 1e-2, 1e-1, 0.2]
    c = presets.contour_imag()
    for A, dA, want in ((presets.op_dtheta_shift(8),
                         presets.perturbation_cos_theta_lower(16),
                         r"shape \(33, 33\).*order 17 \(K = 8\)"),
                        (presets.op_dtheta_shift(8),
                         SplitOperator(principal=symbol_pauli_monopole()),
                         r"shape \(34, 34\).*order 17 \(K = 8\)"),
                        (np.diag([1.0, -1.0]).astype(complex), np.eye(3),
                         r"shape \(3, 3\).*order 2 \(K = 0\)")):
        with pytest.raises(ValueError, match=want):
            perturbation_experiment(A, dA, eps, 0.0, c)
    assert heavy_calls == {"solve": 0, "inverse_norm_2": 0,
                           "schur_projection": 0, "aggregate_seminorm": 0}


def test_perturbation_refuses_a_principal_part_of_another_order(
        heavy_calls, monkeypatch):
    # the principal part of a perturbation of an order-1 operator has
    # order 1: one of order 2 is named with both orders before the
    # seminorm and before any projection
    count_calls(monkeypatch, heavy_calls, experiments, "aggregate_seminorm")
    f = lambda theta, xi: (np.cos(np.asarray(theta, float)) * xi * xi
                           + 0j)[..., None, None]
    dA = SplitOperator(principal=SymbolFunction(order=2, evaluate=f,
                                                principal=f))
    with pytest.raises(ValueError, match=r"order 2 .*order 1$"):
        perturbation_experiment(presets.op_dtheta_shift(8), dA,
                                [1e-3, 1e-2, 1e-1, 0.2], 0.0,
                                presets.contour_imag())
    assert heavy_calls == {"solve": 0, "inverse_norm_2": 0,
                           "schur_projection": 0, "aggregate_seminorm": 0}


def test_perturbation_refuses_a_zero_perturbation_before_projecting(
        heavy_calls):
    # every abscissa eps * 0 would be 0: the zero seminorm is named
    # before any projection, in matrix and in operator mode
    eps = np.geomspace(1e-4, 1e-1, 7)
    c = presets.contour_imag()
    for A, dA in ((np.diag([1.0, -1.0]), np.zeros((2, 2))),
                  (presets.op_dtheta_shift(8), SplitOperator())):
        with pytest.raises(ValueError, match="aggregate seminorm 0"):
            perturbation_experiment(A, dA, eps, 0.0, c)
    assert heavy_calls["schur_projection"] == 0


def test_perturbation_reads_no_idempotency_defect(monkeypatch):
    # at the perturb defaults: one lower-part norm for the seminorm and
    # one Sobolev norm per epsilon, none for the 14 projections' defects
    counts = {}
    count_calls(monkeypatch, counts, linalg, "operator_norm_2")
    rep = perturbation_experiment(presets.op_variable_coeff_shift(32),
                                  presets.perturbation_cos_theta_lower(32),
                                  np.geomspace(1e-4, 1e-1, 13), 0.0,
                                  presets.contour_imag())
    assert len(rep.samples) == 13
    assert counts["operator_norm_2"] == 14


def test_fits_count_distinct_abscissae(heavy_calls):
    # repeated abscissae give polyfit one point to fit: they are refused
    # as too few, before anything is projected or sampled
    A = np.diag([1.0, -1.0]).astype(complex)
    dA = np.array([[0.0, 1.0], [0.0, 0.0]])
    c = presets.contour_imag()
    for eps in ([1e-2] * 13, [1e-3, 1e-2, 1e-2, 1e-1, 1e-1]):
        with pytest.raises(InsufficientSpan):
            perturbation_experiment(A, dA, eps, 0.0, c)
    # a range so narrow that its 8 geometric samples take 2 values
    narrow = (1.0, float(np.nextafter(1.0, 2.0)))
    with pytest.raises(InsufficientSpan):
        resolvent_decay_experiment(presets.op_dtheta_shift(16), np.pi / 2,
                                   0.0, 0.0, narrow, n_samples=8)
    assert heavy_calls == {"solve": 0, "inverse_norm_2": 0,
                           "schur_projection": 0}


# ---------------------------------------------------------------------------
# boundedness

def test_boundedness_norm_and_gap():
    A = presets.op_dtheta_shift(32)
    c = presets.contour_imag()
    out = boundedness_check(A, c, s_list=[-1.0, 0.0, 1.0])
    norms = [v["norm_P"] for v in out["per_s"].values()]
    # P is a diagonal 0/1 matrix for this operator: norm exactly 1 in
    # every Sobolev pair (s, s)
    assert np.allclose(norms, 1.0, atol=1e-6)
    for v in out["per_s"].values():
        assert v["gap"] <= v["norm_P"] + 1e-9


def test_boundedness_record_keys():
    # the exact projection has no quadrature, so no truncation estimate
    out = boundedness_check(presets.op_dtheta_shift(32),
                            presets.contour_imag(), [0.0])
    assert list(out) == ["rho", "per_s"]


def test_boundedness_stable_under_refinement():
    c = presets.contour_imag()
    norms = []
    for K in (16, 32, 64):
        out = boundedness_check(presets.op_variable_coeff_shift(K), c,
                                s_list=[0.0])
        norms.append(out["per_s"][0.0]["norm_P"])
    spread = (max(norms) - min(norms)) / max(norms)
    assert spread <= 0.2


# ---------------------------------------------------------------------------
# report serialization

def test_report_serialization_and_pass_flag():
    xs = np.geomspace(1.0, 100.0, 8)
    rep = ExperimentReport(
        experiment_kind="resolvent_decay",
        parameters={"K": 4},
        samples=[(float(x), float(x**-1.0)) for x in xs],
        fitted_slope=-1.0, fitted_intercept=0.0, r_squared=1.0,
        expected_slope=-1.0, slope_tolerance=0.1)
    d = json.loads(json.dumps(rep.to_json_dict()))
    assert d["pass"] is True
    assert d["fitted_slope"] == -1.0
    assert len(d["samples"]) == 8
    fields = {f.name for f in dataclasses.fields(ExperimentReport)}
    assert set(d) == fields | {"pass"}
    for sample in d["samples"]:
        assert isinstance(sample, list) and len(sample) == 2
        assert all(isinstance(v, float) for v in sample)
    # failing slope flips the flag
    rep.fitted_slope = -0.7
    assert not rep.passed
    # degenerate-zero reports pass unconditionally
    rep.parameters["degenerate_zero"] = True
    assert rep.passed
