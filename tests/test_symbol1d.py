import contextlib
import re
import warnings

import numpy as np
import pytest

from sectoral import presets, symbol1d, topology
from sectoral.contour import make_sector_contour
from sectoral.errors import AliasingRisk, SymbolSingular
from sectoral.symbol1d import (CutoffFunction, DiscretizedOperator,
                               SymbolFunction, _combine,
                               choose_rho, cutoff_resolvent_symbol,
                               op_from_symbol, parametrix_phi0,
                               sobolev_op_norm)
from conftest import count_calls, symbol_pauli_monopole


def _const_symbol(fn, order=0):
    """The scalar symbol fn, its values given their 1 x 1 fibre axes."""
    f = lambda th, xi: np.asarray(fn(th, xi))[..., None, None]
    return SymbolFunction(order=order, evaluate=f, principal=f)


def _check_classical(a, K=8, n_theta=32, c_lower=None, rtol=1e-8):
    """Sampled invariant check: homogeneity of the principal part and
    order <= m-1 of the remainder.  Raises AssertionError on failure."""
    theta = np.linspace(0.0, 2 * np.pi, n_theta, endpoint=False)
    for xi in (1.0, -1.0, 2.5, -2.5):
        for r in (1.0, 2.0, 5.0):
            lhs = np.asarray(a.principal(theta, r * xi))
            rhs = r**a.order * np.asarray(a.principal(theta, xi))
            scale = max(np.abs(rhs).max(), 1.0)
            assert np.abs(lhs - rhs).max() <= rtol * scale, (
                f"principal part not homogeneous at xi={xi}, r={r}")
    if c_lower is None:
        # infer the remainder constant from moderate xi, then test growth
        c_lower = 0.0
        for xi in (2.0, -2.0):
            rem = np.abs(np.asarray(a.evaluate(theta, xi))
                         - np.asarray(a.principal(theta, xi))).max()
            c_lower = max(c_lower, rem / (1 + abs(xi))**(a.order - 1))
    for xi in (4.0, -4.0, float(K), -float(K)):
        rem = np.abs(np.asarray(a.evaluate(theta, xi))
                     - np.asarray(a.principal(theta, xi))).max()
        bound = max(2.0 * c_lower, rtol) * (1 + abs(xi))**(a.order - 1)
        assert rem <= bound + rtol, (
            f"remainder exceeds order m-1 growth at xi={xi}: {rem} > {bound}")


def test_op_from_symbol_derivative_is_diagonal():
    A = presets.op_dtheta(8)
    assert np.allclose(A.matrix, np.diag(np.arange(-8, 9, dtype=complex)))
    assert (A.K, A.fiber_dim, A.matrix.shape) == (8, 1, (17, 17))


def test_op_from_symbol_multiplier_is_toeplitz():
    # multiplication by cos(theta) couples adjacent modes with weight 1/2
    sym = _const_symbol(lambda th, xi: np.cos(np.asarray(th)) + 0j)
    M = op_from_symbol(sym, 4).matrix
    want = np.zeros((9, 9), dtype=complex)
    for i in range(8):
        want[i, i + 1] = want[i + 1, i] = 0.5
    assert np.allclose(M, want, atol=1e-14)


def test_op_from_symbol_shift_multiplier():
    # e^{i theta} shifts mode k to k+1
    sym = _const_symbol(lambda th, xi: np.exp(1j * np.asarray(th)))
    M = op_from_symbol(sym, 3).matrix
    assert np.allclose(M, np.diag(np.ones(6), -1), atol=1e-14)


def test_aliasing_warning_for_rough_symbol():
    # a square wave in theta has coefficients decaying like 1/p
    sym = _const_symbol(
        lambda th, xi: np.sign(np.sin(np.asarray(th))) + 0j)
    with pytest.warns(AliasingRisk):
        op_from_symbol(sym, 4)


def test_sobolev_weight_and_norm():
    # single matrix entry: ||E_jk||_{s,t} = (1+j^2)^{t/2} / (1+k^2)^{s/2}
    K = 3
    T = np.zeros((7, 7), dtype=complex)
    j, k = 2, -3  # rows/cols indexed by mode + K
    T[j + K, k + K] = 1.0
    got = sobolev_op_norm(T, 2.0, 1.0, K=K)
    want = (1 + j**2) ** 0.5 / (1 + k**2) ** 1.0
    assert got == pytest.approx(want, rel=1e-12)


def test_sobolev_norm_identity_is_one():
    assert sobolev_op_norm(np.eye(9), 1.5, 1.5, K=4) == pytest.approx(1.0)


def test_matrix_order_must_be_a_multiple_of_the_mode_count():
    # 18 is not a multiple of 2K + 1 = 17: every reader of the fibre
    # dimension refuses it, naming the order and K
    reads = (lambda: DiscretizedOperator(np.eye(18), 8, 1.0).fiber_dim,
             lambda: sobolev_op_norm(np.eye(18), 0.0, 1.0, K=8))
    for read in reads:
        with pytest.raises(ValueError, match=r"order 18 .*\(K = 8\)"):
            read()
    # an operator is checked when it is built, before any projection
    with pytest.raises(ValueError, match=r"order 18 .*\(K = 8\)"):
        DiscretizedOperator(np.diag(np.arange(1.0, 19.0)), 8, 1.0)
    with pytest.raises(ValueError, match=re.escape("(17, 16) (K = 8)")):
        DiscretizedOperator(np.ones((17, 16)), 8, 1.0)
    # no order is a positive multiple of 2K + 1 < 0; one mode (K = 0)
    # takes any order
    for read in (lambda: DiscretizedOperator(np.eye(3), -1, 1.0),
                 lambda: sobolev_op_norm(np.eye(3), 0.0, 1.0, K=-1)):
        with pytest.raises(ValueError, match=r"order 3 .*\(K = -1\)"):
            read()
    assert DiscretizedOperator(np.eye(3), 0, 1.0).fiber_dim == 3


def test_cutoff_function_profile():
    psi = CutoffFunction(2.0)
    assert psi(1.0) == 0.0
    assert psi(2.0) == 0.0
    assert psi(3.0) == pytest.approx(0.5)
    assert psi(4.0) == 1.0
    assert psi(-4.0) == 1.0
    assert psi(100.0) == 1.0


@pytest.mark.parametrize("rho", [1.0, 1.3, 2.0, 2.5, 3.7, 4.0])
def test_cutoff_function_scalar_equals_array(rho):
    psi = CutoffFunction(rho)
    x = np.linspace(-2.5 * rho, 2.5 * rho, 41202)
    column = psi(x[:, None])[:, 0]
    assert np.array_equal(psi(x), column)
    assert np.array_equal([psi(float(v)) for v in x], column)


@pytest.mark.parametrize("rho", [0.0, -1.0, np.nan, np.inf])
def test_cutoff_function_refuses_a_radius_that_is_not_positive(rho):
    with pytest.raises(ValueError, match="rho"):
        CutoffFunction(rho)


def test_cutoff_resolvent_of_a_multiplier_is_a_multiplier():
    psi = CutoffFunction(2.0)
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    # a_m^{-1}, the principal part, is singular at xi = 0
    xi = np.array([-6.0, -3.5, -1.0, 1.0, 2.5, 4.0, 6.0])[:, None]
    r = cutoff_resolvent_symbol(presets.symbol_xi(), psi, 5.0j)
    got = r.evaluate(theta, xi)
    assert got.shape == (7, 1, 1, 1)
    assert np.array_equal(got[..., 0, 0], psi(xi) * (1.0 / (xi - 5.0j)))
    assert np.array_equal(r.principal(theta, xi)[..., 0, 0], 1.0 / (xi + 0j))
    # theta-dependent principal symbols keep the full grid
    r = cutoff_resolvent_symbol(presets.symbol_c_theta_times_xi(), psi,
                                5.0j)
    assert r.evaluate(theta, xi).shape == (7, 8, 1, 1)


def test_cutoff_resolvent_symbol_values_and_order():
    a = presets.symbol_c_theta_times_xi()
    psi = CutoffFunction(2.0)
    r = cutoff_resolvent_symbol(a, psi, 5.0j)
    assert r.order == -1
    theta = np.array([0.0, np.pi])
    got = r.evaluate(theta, 6.0)[..., 0, 0]
    want = 1.0 / ((2.0 + np.cos(theta)) * 6.0 - 5.0j)
    assert np.allclose(got, want)
    assert np.allclose(r.evaluate(theta, 1.0), 0.0)  # below the cutoff


def test_cutoff_resolvent_symbol_singular_lambda():
    a = presets.symbol_xi()
    psi = CutoffFunction(2.0)
    # lambda = 4 coincides with a(theta, 4) = 4 where the cutoff is active
    with pytest.raises(SymbolSingular):
        cutoff_resolvent_symbol(a, psi, 4.0)


def test_cutoff_resolvent_of_a_multiplier_below_the_cutoff_is_zero():
    # xi - 1 is singular at xi = 1, where psi(1) = 0; psi(3) = 0.5
    r = cutoff_resolvent_symbol(presets.symbol_xi(), CutoffFunction(2.0), 1.0)
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    got = r.evaluate(theta, np.array([[-3.0], [1.0], [3.0]]))
    assert got.ravel().tolist() == [-0.125, 0.0, 0.25]


def test_cutoff_resolvent_of_an_xi_independent_principal_spans_xi():
    # a principal part that depends on neither theta nor xi: its resolvent
    # is spread over the xi column, the zero-weight row exactly 0
    psi = CutoffFunction(2.0)
    a = _const_symbol(lambda th, xi: np.full((), 2.0 + 0j), order=1)
    xi = np.array([[-3.0], [1.0], [4.0]])
    got = cutoff_resolvent_symbol(a, psi, 5.0j).evaluate(np.zeros(8), xi)
    assert got.shape == (3, 1, 1, 1)
    assert np.array_equal(got.ravel(),
                          psi(xi[:, 0]) * (1.0 / np.full(3, 2.0 - 5.0j)))


@pytest.mark.parametrize("a, lam", [
    (presets.symbol_c_theta_times_xi(), 2.0),
    (symbol_pauli_monopole(), 1.0),
], ids=["c_theta_times_xi", "pauli_monopole"])
def test_cutoff_resolvent_below_the_cutoff_is_zero(a, lam):
    # a_m(theta, 1) - lam is singular at a grid angle (pi/2 and 0) and
    # psi(1) = 0: that fibre is not refused and comes out exactly 0 (every
    # singular |xi| is at most rho = 2, so the precondition accepts lam)
    psi = CutoffFunction(2.0)
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    xi = np.array([[-3.0], [1.0], [4.0]])
    got = cutoff_resolvent_symbol(a, psi, lam).evaluate(theta, xi)
    N = a.fiber_dim
    assert got.shape[:2] == (3, 8) and not got[1].any()
    for row in (0, 2):
        fibres = a.principal(theta, xi[row, 0])
        want = psi(xi[row, 0]) * np.linalg.inv(fibres - lam * np.eye(N))
        assert np.allclose(got[row], want, rtol=1e-14, atol=0)


def test_choose_rho_for_presets():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    assert choose_rho(presets.symbol_xi(), c, 16) == 1
    assert choose_rho(presets.symbol_c_theta_times_xi(), c, 16) == 1
    symbols = [presets.get_operator(name, 2).symbol
               for name in presets.OPERATOR_PRESETS]
    symbols.append(symbol_pauli_monopole())
    for c in (presets.contour_imag(), make_sector_contour(2.0, 0.5, 9.0)):
        assert [choose_rho(a, c, 16) for a in symbols] == [1] * 6


@pytest.mark.parametrize("R, rho", [(5.0, 6), (40.0, 41)])
def test_choose_rho_clears_the_arc_for_every_larger_xi(R, rho):
    # xi - R vanishes at xi = R, where lambda = R is the arc's midpoint
    c = presets.contour_imag(R)
    assert choose_rho(presets.symbol_xi(), c, 64) == rho
    assert choose_rho(presets.symbol_c_theta_times_xi(), c, 64) == rho
    with pytest.raises(SymbolSingular) as err:
        choose_rho(presets.symbol_xi(), c, rho - 1)
    assert err.value.xi == R


def test_parametrix_phi0_refuses_a_contour_met_where_the_cutoff_is_active():
    # xi - 5 vanishes at xi = 5, where lambda = 5 is the arc's midpoint:
    # psi(5) > 0 for rho = 1, and psi(5) = 0 for rho = 5
    c, K = presets.contour_imag(5.0), 16
    with pytest.raises(SymbolSingular) as err:
        parametrix_phi0(presets.symbol_xi(), CutoffFunction(1.0), c, K)
    assert (err.value.theta, err.value.xi) == (0.0, 5.0)
    parametrix_phi0(presets.symbol_xi(), CutoffFunction(5.0), c, K)
    # an eigenvalue i xi along a ray breaks the rays' minimal growth
    i_xi = _const_symbol(lambda th, xi: 1j * np.asarray(xi), order=1)
    with pytest.raises(SymbolSingular):
        parametrix_phi0(i_xi, CutoffFunction(6.0), c, K)


def test_cutoff_resolvent_precondition_where_the_cutoff_is_active():
    # xi - lambda is singular at xi = lambda: psi(2) = 0 but psi(3) = 0.5
    psi = CutoffFunction(2.0)
    r = cutoff_resolvent_symbol(presets.symbol_xi(), psi, 2.0)
    assert r.evaluate(0.0, np.array([[2.0], [3.0]])).ravel().tolist() \
        == [0.0, 0.5]
    with pytest.raises(SymbolSingular) as err:
        cutoff_resolvent_symbol(presets.symbol_xi(), psi, 3.0)
    assert (err.value.theta, err.value.xi) == (0.0, 3.0)
    # on the negative side, and for a system with eigenvalues +-xi
    with pytest.raises(SymbolSingular) as err:
        cutoff_resolvent_symbol(presets.symbol_xi(), psi, -3.0)
    assert err.value.xi == -3.0
    cutoff_resolvent_symbol(symbol_pauli_monopole(), psi, -1.5)
    with pytest.raises(SymbolSingular):
        cutoff_resolvent_symbol(symbol_pauli_monopole(), psi, -3.0)


def test_cosphere_radii_refuse_an_order_that_is_not_positive():
    # |xi|^m mu has modulus r at |xi| = (r/|mu|)^{1/m} only for m > 0
    sym = _const_symbol(lambda th, xi: 2.0 + 0j * np.asarray(th), order=0)
    with pytest.raises(ValueError, match="positive order"):
        choose_rho(sym, presets.contour_imag(), 16)
    with pytest.raises(ValueError, match="positive order"):
        cutoff_resolvent_symbol(sym, CutoffFunction(2.0), 5.0j)


def test_cosphere_refuses_the_order_before_the_rays():
    # an order-0 symbol whose eigenvalue 2i lies on the ray arg = pi/2 is
    # refused for its order, before the cosphere is sampled
    sym = _const_symbol(lambda th, xi: 2.0j + 0j * np.asarray(th), order=0)
    with pytest.raises(ValueError, match="positive order"):
        choose_rho(sym, presets.contour_imag(), 16)


@pytest.mark.parametrize("N", [1, 2])
def test_fibre_inverse_names_a_theta_independent_stack(N):
    # a (columns, 1, N, N) stack against G theta samples: the singular
    # fibre is named at the first theta sample and its own xi
    theta = 0.25 + 2.0 * np.pi * np.arange(12) / 12
    xi = np.array([[-2.0], [0.0], [3.0]])
    fibres = np.broadcast_to(np.eye(N, dtype=complex), (3, 1, N, N)).copy()
    fibres[1, 0] = 0.0
    with pytest.raises(SymbolSingular) as err:
        symbol1d._fibre_inverse(fibres, theta, xi)
    assert (err.value.theta, err.value.xi) == (0.25, 0.0)


def _check_phi0_against_nodewise_assembly(a, expect_phi0):
    from sectoral.contour import quad_nodes, ray_tail_moments
    psi = CutoffFunction(2.0)
    K, N = 8, a.fiber_dim
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    with expect_phi0:
        phi0 = parametrix_phi0(a, psi, c, K)
    rule = quad_nodes(c)
    M = np.zeros_like(phi0.matrix)
    with warnings.catch_warnings():
        # near-contour nodes put a legitimate but harmless 1e-9 tail in
        # the reference assembly at this small K
        warnings.simplefilter("ignore", AliasingRisk)
        for lam, w in zip(rule.nodes, rule.weights):
            M += (w / lam) * op_from_symbol(
                cutoff_resolvent_symbol(a, psi, lam), K).matrix
    m2, m3 = ray_tail_moments(c)
    psi_vals = [psi(float(k)) for k in range(-K, K + 1)]
    psi_diag = np.diag(np.repeat(psi_vals, N))
    M += -m2 * psi_diag.astype(complex)
    Ma = op_from_symbol(a, K).matrix
    M += -m3 * (Ma @ psi_diag)  # a-hat columns scaled by psi(k)
    assert np.allclose(phi0.matrix, M, atol=1e-12)
    assert phi0.order == -1
    assert phi0.fiber_dim == N


def test_parametrix_phi0_consistent_with_nodewise_assembly():
    # Phi_0 is assembled as Op(psi Phi(a_m)) is, and warns of the same
    # tail (1.9e-10 at this small K) as that assembly
    _check_phi0_against_nodewise_assembly(presets.symbol_c_theta_times_xi(),
                                          pytest.warns(AliasingRisk))


def test_parametrix_phi0_system_consistent_with_nodewise_assembly():
    # N = 2: the 2x2 fibre inverses and block columns of the same assembly
    _check_phi0_against_nodewise_assembly(symbol_pauli_monopole(),
                                          contextlib.nullcontext())


def test_parametrix_phi0_calls_sector_phi_once_per_block(monkeypatch):
    # Phi_0 = Op(psi Phi(a_m)) is tabulated by _op_columns: one sector_phi
    # call on each block of the columns where psi(k) != 0
    K = 128
    a = presets.get_operator("variable_coeff_shift", K).symbol
    psi = CutoffFunction(1.0)
    cols = np.flatnonzero(psi(np.arange(-K, K + 1, dtype=float)))
    counts = {}
    count_calls(monkeypatch, counts, symbol1d, "sector_phi")
    parametrix_phi0(a, psi, presets.contour_imag(), K)
    assert counts["sector_phi"] == -(-cols.size // _block_widths(K, 1)[0])
    assert counts["sector_phi"] == 8


def _sigma_x_times_xi():
    sx = topology.PAULI[0]
    f = lambda theta, xi: np.asarray(xi, float)[..., None, None] * sx + 0j
    return SymbolFunction(order=1, evaluate=f, principal=f, fiber_dim=2)


@pytest.mark.parametrize("a", [
    presets.symbol_xi(),
    presets.get_operator("dtheta_shift", 2).symbol,
    _sigma_x_times_xi(),
], ids=["xi", "xi+0.3", "xi_sigma_x"])
def test_parametrix_phi0_of_a_multiplier_is_its_block_diagonal(a):
    # theta-extent-1 principal values go through sector_phi with that
    # extent; the same values spread over the theta grid take the FFT path
    N = a.fiber_dim
    spread = SymbolFunction(
        order=a.order, evaluate=a.evaluate, fiber_dim=N,
        principal=lambda theta, xi: a.principal(theta, xi) + np.zeros(
            np.shape(theta) + (N, N)))
    c, psi, K = presets.contour_imag(), CutoffFunction(2.0), 16
    got = parametrix_phi0(a, psi, c, K).matrix
    want = parametrix_phi0(spread, psi, c, K).matrix
    blocks = np.kron(np.eye(2 * K + 1), np.ones((N, N))).astype(bool)
    assert not got[~blocks].any()
    assert np.abs(got - want).max() <= 1e-14 * max(np.abs(want).max(), 1.0)


def test_check_classical_accepts_presets_and_rejects_fakes():
    _check_classical(presets.symbol_xi())
    _check_classical(presets.symbol_c_theta_times_xi())
    # declared order 1 but actually quadratic growth
    bad = SymbolFunction(
        order=1,
        evaluate=lambda th, xi: np.full_like(np.asarray(th, float),
                                             xi * xi, dtype=complex),
        principal=lambda th, xi: np.full_like(np.asarray(th, float), xi,
                                              dtype=complex))
    with pytest.raises(AssertionError):
        _check_classical(bad)


def test_op_from_symbol_system_blocks():
    sym = symbol_pauli_monopole()
    A = op_from_symbol(sym, 3)
    assert A.fiber_dim == 2
    assert A.matrix.shape == (14, 14)
    # theta-dependence of the Pauli symbol only couples adjacent modes
    blk = A.matrix[0:2, 4:6]  # modes -3 <- -1
    assert np.allclose(blk, 0.0)


def test_shift_of_a_system_is_shift_times_identity():
    sym = symbol1d._combine(symbol_pauli_monopole(), 0.3)
    assert np.array_equal(sym.evaluate(0.0, 2.0), [[0.3, 2.0], [2.0, 0.3]])
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    xi = np.arange(-3.0, 4.0)[:, None]
    pauli = symbol_pauli_monopole().evaluate(theta, xi)
    assert np.array_equal(sym.evaluate(theta, xi), pauli + 0.3 * np.eye(2))
    # a scalar symbol keeps its shape, a multiplier its theta-extent 1
    scalar = symbol1d._combine(presets.symbol_xi(), 0.3).evaluate(theta, xi)
    assert scalar.shape == xi.shape + (1, 1)
    assert np.array_equal(scalar[..., 0, 0], xi + 0.3)


def test_product_of_systems_is_the_fibre_product_g_f():
    sx, sy, sz = topology.PAULI
    # g = xi sigma_x (a multiplier) and f = cos(theta) sigma_y, of orders
    # 1 and 0: g f = i xi cos(theta) sigma_z, and f g is its negative
    gv = lambda theta, xi: np.asarray(xi)[..., None, None] * sx
    fv = lambda theta, xi: np.cos(theta)[..., None, None] * sy
    g = SymbolFunction(order=1, evaluate=gv, principal=gv, fiber_dim=2)
    f = SymbolFunction(order=0, evaluate=fv, principal=fv, fiber_dim=2)
    gf = symbol1d._pointwise_product(g, f)
    assert gf.order == 1 and gf.fiber_dim == 2
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    xi = np.arange(-3.0, 4.0)[:, None]
    want = 1j * (xi * np.cos(theta))[..., None, None] * sz
    for value in (gf.evaluate(theta, xi), gf.principal(theta, xi)):
        assert value.shape == (7, 8, 2, 2)
        assert np.allclose(value, want, rtol=0, atol=1e-15)
    fg = symbol1d._pointwise_product(f, g).evaluate(theta, xi)
    assert np.allclose(fg, -want, rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# block assembly of Op(a)

def _op_by_columns(a, K, cols=None):
    """Op(a), or its block columns `cols`, one Fourier column at a time:
    one evaluate call and one FFT per mode, the DFT divided by G and block
    (j, k) read at index (j - k) mod G.  The reference for the block
    assembly; it shares no code with _op_columns."""
    n_modes = 2 * K + 1
    G = 8 * K
    theta = 2.0 * np.pi * np.arange(G) / G
    N = a.fiber_dim
    cols = range(n_modes) if cols is None else cols
    M = np.zeros((n_modes, N, len(cols), N), dtype=complex)
    for pos, col in enumerate(cols):
        # a theta-independent value is spread over the theta grid
        samples = np.broadcast_to(np.asarray(
            a.evaluate(theta, float(col - K)), dtype=complex).reshape(
                -1, N, N), (G, N, N))
        coeffs = np.fft.fft(samples, axis=0) / G
        M[:, :, pos, :] = coeffs[(np.arange(n_modes) - col) % G]
    return M.reshape(N * n_modes, N * len(cols))


def _block_widths(K, N):
    """Column counts of the evaluate calls op_from_symbol makes."""
    n_modes = 2 * K + 1
    width = -(-symbol1d.BLOCK_SAMPLES // (8 * K * N * N))
    return [min(width, n_modes - start) for start in range(0, n_modes, width)]


def _block_case_symbols():
    from sectoral.symbol1d import _pointwise_product
    psi = CutoffFunction(2.5)
    cases = {name: presets.get_operator(name, 2).symbol
             for name in presets.OPERATOR_PRESETS}
    cases["pauli_monopole"] = symbol_pauli_monopole()
    cases["cos_theta"] = _const_symbol(
        lambda th, xi: np.cos(np.asarray(th)) + 0j)
    cases["resolvent_xi"] = cutoff_resolvent_symbol(
        presets.symbol_xi(), psi, 7.5j)
    cases["resolvent_pauli"] = cutoff_resolvent_symbol(
        symbol_pauli_monopole(), psi, 3.0 + 4.5j)
    for name, (factory, _) in presets.PAIR_PRESETS.items():
        f_family, g_family = factory(4.0)[:2]
        f, g = f_family(20j), g_family(20j)
        cases[f"{name}.f"] = f
        cases[f"{name}.g"] = g
        cases[f"{name}.gf"] = _pointwise_product(g, f)
    return cases


@pytest.mark.parametrize("name", sorted(_block_case_symbols()))
def test_symbol_values_are_fibre_stacks(name):
    # every preset symbol, scalar ones included, returns (..., N, N) over
    # the broadcast grid (theta-extent 1 allowed) for a scalar xi and for a
    # (B, 1) column of xi
    a = _block_case_symbols()[name]
    N = a.fiber_dim
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    for xi, grid in ((3.0, (8,)), (np.array([[-3.0], [2.0], [5.0]]), (3, 8))):
        for fn in (a.evaluate, a.principal):
            value = np.asarray(fn(theta, xi))
            assert value.shape[-2:] == (N, N)
            assert np.broadcast_shapes(value.shape[:-2], grid) == grid


def test_values_without_fibre_axes_are_refused():
    f = lambda theta, xi: (2.0 + np.cos(theta)) * xi + 0j
    scalar = SymbolFunction(order=1, evaluate=f, principal=f)
    for build in (lambda: op_from_symbol(scalar, 8),
                  lambda: choose_rho(scalar, presets.contour_imag(), 8),
                  lambda: cutoff_resolvent_symbol(scalar, CutoffFunction(2.0),
                                                  5.0j)):
        with pytest.raises(ValueError, match=r"values of shape \("):
            build()


def _multiplier_diagonal(a, K):
    """The exact Op(a) of a theta-independent symbol: a(k) in the diagonal
    blocks, zeros elsewhere, from one evaluation on the xi column."""
    n_modes = 2 * K + 1
    N = a.fiber_dim
    G = 8 * K
    theta = 2.0 * np.pi * np.arange(G) / G
    xi = np.arange(-K, K + 1, dtype=float)[:, None]
    values = np.asarray(a.evaluate(theta, xi), dtype=complex)
    values = np.broadcast_to(values.reshape(-1, N, N), (n_modes, N, N))
    M = np.zeros((n_modes, N, n_modes, N), dtype=complex)
    for col in range(n_modes):
        M[col, :, col, :] = values[col]
    return M.reshape(N * n_modes, N * n_modes)


# the block cases whose symbols do not depend on theta
MULTIPLIER_CASES = {"dtheta", "dtheta_shift", "resolvent_xi",
                    "multiplier_pair.f", "multiplier_pair.g",
                    "multiplier_pair.gf"}

# K = 4 fits in one block; K = 64 spans three, the last one partial
BLOCK_KS = (4, 64)


def test_block_ks_cover_one_and_several_partial_blocks():
    assert _block_widths(BLOCK_KS[0], 1) == [2 * BLOCK_KS[0] + 1]
    widths = _block_widths(BLOCK_KS[1], 1)
    assert len(widths) >= 3 and widths[-1] < widths[0]


@pytest.mark.parametrize("name", sorted(_block_case_symbols()))
@pytest.mark.parametrize("K", BLOCK_KS)
def test_op_from_symbol_equals_column_assembly(name, K):
    a = _block_case_symbols()[name]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingRisk)
        got = op_from_symbol(a, K).matrix
    reference = _op_by_columns(a, K)
    if name in MULTIPLIER_CASES:
        # exactly diagonal, and the FFT's round-off off the diagonal gone
        assert np.array_equal(got, _multiplier_diagonal(a, K))
        assert np.abs(got - reference).max() <= 1e-13 * np.abs(got).max()
    else:
        assert np.array_equal(got, reference)


def _windows(K):
    """Column sets for _op_columns: K + 1 columns in the middle, as the gap
    experiments take them, and a set that ends at the last column."""
    return {"middle": np.arange(K // 2 + 1, 3 * K // 2 + 2),
            "tail": np.arange(K // 2 + 3, 2 * K + 1)}


def test_windows_start_mid_block_and_end_in_a_partial_block():
    K = BLOCK_KS[1]
    for N in (1, 2):
        width = _block_widths(K, N)[0]
        for cols in _windows(K).values():
            assert cols[0] % width != 0
            assert cols.size > width and cols.size % width != 0


@pytest.mark.parametrize("name", sorted(_block_case_symbols()))
@pytest.mark.parametrize("K", BLOCK_KS)
@pytest.mark.parametrize("window", ["middle", "tail"])
def test_op_columns_equal_the_columns_of_op_from_symbol(name, K, window):
    a = _block_case_symbols()[name]
    N = a.fiber_dim
    cols = _windows(K)[window]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingRisk)
        got = symbol1d._op_columns(a, K, cols)
        full = op_from_symbol(a, K).matrix
    n = N * (2 * K + 1)
    want = full.reshape(n, 2 * K + 1, N)[:, cols].reshape(n, N * cols.size)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


def test_op_from_symbol_evaluates_once_per_block():
    K = 256
    widths = _block_widths(K, 1)
    multiplier = presets.symbol_xi()
    for base in (presets.symbol_c_theta_times_xi(), multiplier):
        calls = []

        def evaluate(theta, xi):
            calls.append(np.shape(xi))
            return base.evaluate(theta, xi)

        op_from_symbol(SymbolFunction(order=1, evaluate=evaluate,
                                      principal=base.principal), K)
        assert len(calls) <= len(widths) < 2 * K + 1
        if base is multiplier:
            # a multiplier is known from the first block; the other
            # columns take one more call
            assert calls == [(widths[0], 1), (2 * K + 1 - widths[0], 1)]
        else:
            assert calls == [(w, 1) for w in widths]


def test_op_from_symbol_transforms_on_a_grid_of_8K_points(monkeypatch):
    # 8K is a power of two for a power-of-two K, where numpy's FFT is
    # fastest: a theta-dependent symbol is transformed along 8K samples
    lengths = []
    fft = np.fft.fft

    def recorded(x, *args, axis=-1, **kwargs):
        lengths.append(np.shape(x)[axis])
        return fft(x, *args, axis=axis, **kwargs)

    monkeypatch.setattr(np.fft, "fft", recorded)
    for K in (4, 64, 128):
        lengths.clear()
        op_from_symbol(presets.symbol_c_theta_times_xi(), K)
        assert lengths and set(lengths) == {8 * K}


def test_aliasing_warning_from_the_last_block_only():
    # the square wave sits in the column xi = K alone, the last block
    K = BLOCK_KS[1]
    assert _block_widths(K, 1)[-1] == 1

    def rough_at(k):
        return _const_symbol(lambda th, xi: np.where(
            np.asarray(xi) == k, np.sign(np.sin(np.asarray(th))),
            np.cos(np.asarray(th))) + 0j)

    with pytest.warns(AliasingRisk):
        op_from_symbol(rough_at(K), K)
    with warnings.catch_warnings():
        warnings.simplefilter("error", AliasingRisk)
        op_from_symbol(rough_at(K + 1), K)


@pytest.mark.parametrize("a, lam, xi", [
    # (2 + cos theta) xi = 14 on the grid only at theta = pi/2, xi = 7
    (presets.symbol_c_theta_times_xi(), 14.0, 7.0),
    # eigenvalues +-xi of the Pauli symbol hit 5 first at xi = -5
    (symbol_pauli_monopole(), 5.0, -5.0),
])
def test_singular_fibre_in_a_block_named_as_on_the_scalar_path(a, lam, xi):
    K = BLOCK_KS[1]
    G = 8 * K
    theta = 2.0 * np.pi * np.arange(G) / G
    # the precondition refuses lam itself (a_m - lam is singular where
    # psi > 0), so the singular fibre is reached through a principal part
    # that carries the shift -lam, at the resolvent point 0
    shifted = SymbolFunction(order=a.order, evaluate=a.evaluate,
                             principal=_combine(a, -lam).evaluate,
                             fiber_dim=a.fiber_dim)
    r = cutoff_resolvent_symbol(shifted, CutoffFunction(1.0), 0.0)
    with pytest.raises(SymbolSingular) as scalar:
        r.evaluate(theta, xi)
    with pytest.raises(SymbolSingular) as block:
        op_from_symbol(r, K)
    assert (block.value.theta, block.value.xi) == (scalar.value.theta, xi)
    assert scalar.value.xi == xi
    # the singular column is not the first of its block
    starts = np.cumsum([0] + _block_widths(K, a.fiber_dim))
    assert xi + K not in starts


def test_choose_rho_probes_the_arc_corners():
    # the principal symbol 0.5i xi lies exactly on the arc corners
    # R e^{+-i pi/2} of the contour at |xi| = 1, between its thinned probe
    # nodes
    c = presets.contour_imag()
    sym = _const_symbol(lambda th, xi: 0.5j * np.asarray(xi, float)
                        + np.zeros(np.shape(th)), order=1)
    with pytest.raises(SymbolSingular):
        choose_rho(sym, c, 16)


def _variable_coeff_shift():
    return presets.get_operator("variable_coeff_shift", 4).symbol


# (symbol, K, columns) for the naive-oracle check of _op_columns
ORACLE_CASES = {
    # 513 columns: several blocks, the last one partial
    "variable_coeff_shift": lambda: (_variable_coeff_shift(), 256,
                                     np.arange(513)),
    "window": lambda: (_variable_coeff_shift(), 64, np.arange(35, 100)),
    # psi(k) = 0 for |k| <= 4
    "resolvent_rho4": lambda: (cutoff_resolvent_symbol(
        presets.symbol_c_theta_times_xi(), CutoffFunction(4.0), 20j), 64,
        np.arange(129)),
    "pauli": lambda: (symbol_pauli_monopole(), 64, np.arange(129)),
}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_op_columns_equal_a_naive_per_column_assembly(case):
    a, K, cols = ORACLE_CASES[case]()
    widths = _block_widths(K, a.fiber_dim)
    assert len(widths) > 2 and widths[-1] < widths[0]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", AliasingRisk)
        got = symbol1d._op_columns(a, K, cols)
    assert np.array_equal(got, _op_by_columns(a, K, cols))
    if case == "resolvent_rho4":
        # the zero-weight columns are exactly 0, and only those
        zero = np.abs(cols - K) <= 4
        assert not got[:, zero].any() and got[:, ~zero].any(axis=0).all()
