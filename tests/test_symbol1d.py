import warnings

import numpy as np
import pytest

from sectoral import presets, symbol1d, topology
from sectoral.contour import make_sector_contour
from sectoral.errors import AliasingRisk, SymbolSingular
from sectoral.symbol1d import (CutoffFunction, SymbolFunction, choose_rho,
                               cutoff_resolvent_symbol, op_from_symbol,
                               parametrix_phi0, sobolev_op_norm)


def _const_symbol(fn, order=0):
    return SymbolFunction(order=order, evaluate=fn, principal=fn)


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
    assert got.shape == (7, 1)
    assert np.array_equal(got, psi(xi) * (1.0 / (xi - 5.0j)))
    assert np.array_equal(r.principal(theta, xi), 1.0 / (xi + 0j))
    # theta-dependent principal symbols keep the full grid
    r = cutoff_resolvent_symbol(presets.symbol_c_theta_times_xi(), psi,
                                5.0j)
    assert r.evaluate(theta, xi).shape == (7, 8)


def test_cutoff_resolvent_symbol_values_and_order():
    a = presets.symbol_c_theta_times_xi()
    psi = CutoffFunction(2.0)
    r = cutoff_resolvent_symbol(a, psi, 5.0j)
    assert r.order == -1
    theta = np.array([0.0, np.pi])
    got = r.evaluate(theta, 6.0)
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


@pytest.mark.parametrize("a, lam", [
    (presets.symbol_c_theta_times_xi(), 3.0),
    (presets.symbol_pauli_monopole(), 1.0),
], ids=["c_theta_times_xi", "pauli_monopole"])
def test_cutoff_resolvent_below_the_cutoff_is_zero(a, lam):
    # a_m(0, 1) - lam is singular and psi(1) = 0: that fibre is not
    # refused and comes out exactly 0
    psi = CutoffFunction(2.0)
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    xi = np.array([[-3.0], [1.0], [4.0]])
    got = cutoff_resolvent_symbol(a, psi, lam).evaluate(theta, xi)
    N = a.fiber_dim
    assert got.shape[:2] == (3, 8) and not got[1].any()
    for row in (0, 2):
        fibres = symbol1d._fibres(a.principal(theta, xi[row, 0]), N)
        want = psi(xi[row, 0]) * np.linalg.inv(fibres - lam * np.eye(N))
        assert np.allclose(symbol1d._fibres(got[row], N), want,
                           rtol=1e-14, atol=0)


def test_choose_rho_for_presets():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    assert choose_rho(presets.symbol_xi(), c, 16) == 1
    assert choose_rho(presets.symbol_c_theta_times_xi(), c, 16) == 1


def _check_phi0_against_nodewise_assembly(a):
    from sectoral.contour import quad_nodes, ray_tail_moments
    psi = CutoffFunction(2.0)
    K, N = 8, a.fiber_dim
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    phi0 = parametrix_phi0(a, psi, c, K)
    rule = quad_nodes(c)
    M = np.zeros_like(phi0.matrix)
    import warnings
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
    _check_phi0_against_nodewise_assembly(presets.symbol_c_theta_times_xi())


def test_parametrix_phi0_system_consistent_with_nodewise_assembly():
    # N = 2: the 2x2 fibre inverses and block columns of the same assembly
    _check_phi0_against_nodewise_assembly(presets.symbol_pauli_monopole())


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
    sym = presets.symbol_pauli_monopole()
    A = op_from_symbol(sym, 3)
    assert A.fiber_dim == 2
    assert A.matrix.shape == (14, 14)
    # theta-dependence of the Pauli symbol only couples adjacent modes
    blk = A.matrix[0:2, 4:6]  # modes -3 <- -1
    assert np.allclose(blk, 0.0)


def test_shift_of_a_system_is_shift_times_identity():
    sym = symbol1d._combine(presets.symbol_pauli_monopole(), 0.3)
    assert np.array_equal(sym.evaluate(0.0, 2.0), [[0.3, 2.0], [2.0, 0.3]])
    theta = np.linspace(0.0, 2 * np.pi, 8, endpoint=False)
    xi = np.arange(-3.0, 4.0)[:, None]
    pauli = presets.symbol_pauli_monopole().evaluate(theta, xi)
    assert np.array_equal(sym.evaluate(theta, xi), pauli + 0.3 * np.eye(2))
    # a scalar symbol keeps its shape, a multiplier its theta-extent 1
    scalar = symbol1d._combine(presets.symbol_xi(), 0.3).evaluate(theta, xi)
    assert scalar.shape == xi.shape
    assert np.array_equal(scalar, xi + 0.3)


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

def _op_by_columns(a, K):
    """Op(a) one Fourier column at a time, one evaluate call and one FFT
    per mode: the reference for the block assembly."""
    n_modes = 2 * K + 1
    G = 4 * n_modes
    theta = 2.0 * np.pi * np.arange(G) / G
    N = a.fiber_dim
    M = np.zeros((n_modes, N, n_modes, N), dtype=complex)
    for col, k in enumerate(range(-K, K + 1)):
        # a theta-independent value is spread over the theta grid
        samples = np.broadcast_to(np.asarray(
            a.evaluate(theta, float(k)), dtype=complex).reshape(-1, N, N),
            (G, N, N))
        coeffs = np.fft.fft(samples, axis=0) / G
        M[:, :, col, :] = coeffs[(np.arange(n_modes) - col) % G]
    return M.reshape(N * n_modes, N * n_modes)


def _block_widths(K, N):
    """Column counts of the evaluate calls op_from_symbol makes."""
    n_modes = 2 * K + 1
    width = -(-symbol1d.BLOCK_SAMPLES // (4 * n_modes * N * N))
    return [min(width, n_modes - start) for start in range(0, n_modes, width)]


def _block_case_symbols():
    from sectoral.symbol1d import _pointwise_product
    psi = CutoffFunction(2.5)
    cases = {name: presets.get_operator(name, 2).symbol
             for name in presets.OPERATOR_PRESETS}
    cases["pauli_monopole"] = presets.symbol_pauli_monopole()
    cases["cos_theta"] = _const_symbol(
        lambda th, xi: np.cos(np.asarray(th)) + 0j)
    cases["resolvent_xi"] = cutoff_resolvent_symbol(
        presets.symbol_xi(), psi, 7.5j)
    cases["resolvent_pauli"] = cutoff_resolvent_symbol(
        presets.symbol_pauli_monopole(), psi, 3.0 + 4.5j)
    for name, (factory, _) in presets.PAIR_PRESETS.items():
        f_family, g_family = factory(4.0)[:2]
        f, g = f_family(20j), g_family(20j)
        cases[f"{name}.f"] = f
        cases[f"{name}.g"] = g
        cases[f"{name}.gf"] = _pointwise_product(g, f)
    return cases


def _multiplier_diagonal(a, K):
    """The exact Op(a) of a theta-independent symbol: a(k) in the diagonal
    blocks, zeros elsewhere, from one evaluation on the xi column."""
    n_modes = 2 * K + 1
    N = a.fiber_dim
    G = 4 * n_modes
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
    for base in (presets.symbol_c_theta_times_xi(), presets.symbol_xi()):
        calls = []

        def evaluate(theta, xi):
            calls.append(np.shape(xi))
            return base.evaluate(theta, xi)

        op_from_symbol(SymbolFunction(order=1, evaluate=evaluate,
                                      principal=base.principal), K)
        assert len(calls) <= len(widths) < 2 * K + 1
        if base.name == "xi":
            # a multiplier is known from the first block; the other
            # columns take one more call
            assert calls == [(widths[0], 1), (2 * K + 1 - widths[0], 1)]
        else:
            assert calls == [(w, 1) for w in widths]


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
    (presets.symbol_pauli_monopole(), 5.0, -5.0),
])
def test_singular_fibre_in_a_block_named_as_on_the_scalar_path(a, lam, xi):
    K = BLOCK_KS[1]
    G = 4 * (2 * K + 1)
    theta = 2.0 * np.pi * np.arange(G) / G
    r = cutoff_resolvent_symbol(a, CutoffFunction(1.0), lam)
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
    # the principal symbol 0.5i sign(xi) lies exactly on the arc corners
    # R e^{+-i pi/2} of the contour, between its thinned probe nodes
    c = presets.contour_imag()
    sym = _const_symbol(lambda th, xi: 0.5j * np.sign(xi)
                        + np.zeros(np.shape(th)), order=0)
    with pytest.raises(SymbolSingular):
        choose_rho(sym, c, 16)
