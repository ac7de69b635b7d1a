import json

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sectoral import contour, experiments, linalg, presets, projections
from sectoral.contour import (make_sector_contour, point_contour_distance,
                              quad_nodes, ray_tail_moments, sector_phi)
from sectoral.errors import (EigenvalueAtCut, EigenvalueOnBoundary,
                             EigenvalueOnCut, EigenvalueZero, NotHermitian,
                             SectoralError, SingularMatrix, SpectrumOnContour,
                             TooDefective)
from sectoral.experiments import boundedness_check, perturbation_experiment
from sectoral.projections import (_triangular_inverses, aps_projection,
                                  complex_power, eigen_projection_oracle,
                                  riesz_transform, schur_projection,
                                  sectorial_projection, wodzicki_residual)
from conftest import count_calls, random_diagonalizable


def test_sectorial_projection_derived_2x2(imag_contour):
    A = np.array([[1.0, 1.0], [0.0, -1.0]], dtype=complex)
    res = sectorial_projection(A, imag_contour)
    assert np.allclose(res.P, [[1.0, 0.5], [0.0, 0.0]], atol=1e-8)
    assert res.rank_estimate == 1
    assert res.resolved


@pytest.mark.parametrize("c", [
    presets.contour_imag(),
    make_sector_contour(2.9, 0.4, 1.3),
], ids=["imag", "sector_2.9_0.4"])
def test_sectorial_projection_one_solve_per_node(c, monkeypatch):
    # a dense Schur factor keeps the node loop: exactly one linalg.solve
    # per quadrature node (896, as the benchmark's probe counts), from one
    # rule built once
    nodes = len(quad_nodes(c).nodes)
    assert nodes == 896
    counts = {}
    count_calls(monkeypatch, counts, linalg, "solve")
    count_calls(monkeypatch, counts, contour, "quad_nodes")
    A, _, _ = random_diagonalizable(np.random.default_rng(17), dim=6)
    sectorial_projection(A, c)
    assert counts == {"solve": nodes, "quad_nodes": 1}


@pytest.mark.parametrize("A, R", [
    (presets.op_dtheta(64), 0.5),
    (presets.op_dtheta_shift(32), 0.5),
    (presets.op_dtheta_shift(32), 0.15),
], ids=["dtheta_64", "dtheta_shift_32", "c8_dtheta_shift_32"])
def test_diagonal_schur_factor_takes_the_fibre_route(A, R, monkeypatch):
    # Op(a) of a Fourier multiplier has a diagonal Schur factor: no solve,
    # and the node loop's value to 1e-14 relative
    c = presets.contour_imag(R)
    T, Z = scipy.linalg.schur(A.matrix, output="complex")
    assert linalg.is_diagonal(T)
    phi, _ = sector_phi(T, c, _triangular_inverses)
    want = Z @ ((-1.0 / (2j * np.pi)) * (T @ phi)) @ Z.conj().T
    counts = {}
    count_calls(monkeypatch, counts, linalg, "solve")
    count_calls(monkeypatch, counts, contour, "quad_nodes")
    got = sectorial_projection(A, c).P
    assert counts == {"solve": 0, "quad_nodes": 1}
    scale = max(linalg.operator_norm_2(want), 1.0)
    assert np.abs(got - want).max() <= 1e-14 * scale


@pytest.mark.parametrize("A", [
    presets.op_dtheta(16), presets.op_dtheta(64), presets.op_dtheta_shift(32)
], ids=["dtheta_16", "dtheta_64", "dtheta_shift_32"])
def test_fibre_route_forms_p_in_one_product(A):
    # P = (Z * ((-1/2 pi i) d phi)) Z* has the bytes, signs of zero
    # included, of the three dense products Z ((-1/2 pi i) T diag(phi)) Z*
    c = presets.contour_imag()
    T, Z = scipy.linalg.schur(A.matrix, output="complex")
    phi, _ = sector_phi(np.diag(T)[:, None, None], c, lambda x: 1.0 / x)
    D = np.diag(phi.ravel())
    want = Z @ ((-1.0 / (2j * np.pi)) * (T @ D)) @ Z.conj().T
    assert sectorial_projection(A, c).P.tobytes() == want.tobytes()


def test_fibre_route_keeps_the_pivot_floor(monkeypatch):
    # an eigenvalue 4e-6 off the contour, next to a node (the first and
    # last of each ray, one on the arc), against one of modulus 1e9: clear
    # of the contour, but min|d - lambda| falls below PIVOT_REL_THRESHOLD
    # max|d - lambda| at that node on both routes
    c = presets.contour_imag()
    nodes = quad_nodes(c).nodes
    counts = {}
    count_calls(monkeypatch, counts, linalg, "solve")
    for index, normal in ((0, 1j), (383, 1j), (384 + 64, 1.0), (512, 1j),
                          (895, 1j)):
        node = nodes[index]
        T = np.diag([1e9, node * (1.0 + normal * 4e-6 / abs(node))])
        with pytest.raises(SingularMatrix):
            sector_phi(T, c, _triangular_inverses)
        counts["solve"] = 0
        with pytest.raises(SingularMatrix):
            sectorial_projection(T, c)
        assert counts == {"solve": 0}, index


def test_fibre_route_floor_counts_the_node_modulus():
    # at the outermost node of a ray, max|d - lambda| reaches 1.41 max|d|:
    # the floor breaks at a clearance above PIVOT_REL_THRESHOLD max|d|
    c = presets.contour_imag(100.0)
    node = quad_nodes(c).nodes[0]
    d = np.array([-abs(node), node * (1.0 + 1.2e-5j / abs(node))])
    tau = linalg.PIVOT_REL_THRESHOLD
    clearance = point_contour_distance(d, c).min()
    assert tau * np.abs(d).max() < clearance < tau * np.abs(d - node).max()
    with pytest.raises(SingularMatrix):
        sector_phi(np.diag(d), c, _triangular_inverses)
    with pytest.raises(SingularMatrix):
        sectorial_projection(np.diag(d), c)


def test_fibre_route_checks_the_floor_where_it_holds():
    # 1.5e-4 off the arc against 1e9: the clearance is below twice
    # PIVOT_REL_THRESHOLD (max|d| + |lambda|) at every node, so every node
    # is checked, but min|d - lambda| stays above PIVOT_REL_THRESHOLD
    # max|d - lambda| (1e-4): the projection is the node loop's
    c = presets.contour_imag()
    rule = quad_nodes(c)
    node = rule.nodes[384 + 64]
    d = np.array([1e9, node * (1.0 + 1.5e-4 / abs(node))])
    res = sectorial_projection(np.diag(d), c)
    tau = linalg.PIVOT_REL_THRESHOLD
    near = res.contour_clearance < 2 * tau * (1e9 + np.abs(rule.nodes))
    assert near.all()
    phi, _ = sector_phi(np.diag(d), c, _triangular_inverses)
    want = (-1.0 / (2j * np.pi)) * (np.diag(d) @ phi)
    scale = max(linalg.operator_norm_2(want), 1.0)
    assert np.abs(res.P - want).max() <= 1e-14 * scale


def test_sectorial_projection_diagonal(imag_contour):
    res = sectorial_projection(np.diag([1.0, -1.0]).astype(complex),
                               imag_contour)
    assert np.allclose(res.P, np.diag([1.0, 0.0]), atol=1e-9)
    # defective inputs: a Jordan block lies wholly inside or outside the
    # sector, so P is I or 0 although A has no eigenbasis
    for lam, want in ((2.0, np.eye(2)), (-2.0, np.zeros((2, 2)))):
        J = np.array([[lam, 1.0], [0.0, lam]], dtype=complex)
        res = sectorial_projection(J, imag_contour)
        assert np.allclose(res.P, want, atol=1e-10)


def test_sectorial_projection_dtheta_modes(imag_contour):
    A = presets.op_dtheta(16)
    res = sectorial_projection(A, imag_contour)
    # eigenvalue 0 sits inside the arc bulge and is excluded; modes >= 1
    # are projected onto
    want = np.diag((np.arange(-16, 17) >= 1).astype(complex))
    assert np.allclose(res.P, want, atol=1e-8)
    assert res.rank_estimate == 16


def test_sectorial_projection_spectrum_on_ray(imag_contour):
    with pytest.raises(SpectrumOnContour):
        sectorial_projection(np.diag([2.0j, 1.0]), imag_contour)


def test_eigen_oracle_sector_membership():
    A = np.diag([1.0 + 2.0j, -1.0 - 3.0j])
    res = eigen_projection_oracle(A, lambda z: z.imag > 0)
    assert np.allclose(res.P, np.diag([1.0, 0.0]))
    with pytest.raises(EigenvalueOnBoundary):
        # eigenvalue within the probe radius of the sector boundary
        eigen_projection_oracle(np.diag([1e-9, 5.0]), lambda z: z.real > 0)


def test_eigen_oracle_refuses_defective():
    J = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    with pytest.raises(TooDefective):
        eigen_projection_oracle(J, lambda z: z.real > 0)


def test_oracle_equivalence_sample(imag_contour):
    rng = np.random.default_rng(42)
    for _ in range(5):
        A, values, _ = random_diagonalizable(rng, dim=8)
        got = sectorial_projection(A, imag_contour)
        want = eigen_projection_oracle(A, lambda z: z.real > 0)
        assert linalg.operator_norm_2(got.P - want.P) <= 1e-7
        assert got.rank_estimate == want.rank_estimate


def test_idempotency_and_commutation(imag_contour):
    rng = np.random.default_rng(3)
    A, _, _ = random_diagonalizable(rng, dim=10)
    res = sectorial_projection(A, imag_contour)
    tol = max(1e-6, 10 * res.truncation_error_estimate)
    assert res.idempotency_defect <= tol
    comm = linalg.operator_norm_2(A @ res.P - res.P @ A)
    assert comm <= 10 * res.truncation_error_estimate \
        * linalg.operator_norm_2(A)


# ---------------------------------------------------------------------------
# the exact projector of the reordered Schur form

# three sectors (alpha1, alpha2, R) besides the imaginary-axis one
SECTORS = ((3 * np.pi / 4, -np.pi / 4, 0.5), (np.pi / 3, -np.pi / 3, 0.8),
           (np.pi, np.pi / 4, 0.3))


def _in_sector(c):
    return lambda z: (abs(z) > c.R
                      and 0.0 < (c.alpha1 - np.angle(z)) % (2 * np.pi)
                      < c.theta)


@pytest.mark.parametrize("sector", SECTORS, ids=["a", "b", "c"])
def test_schur_projection_matches_the_oracle(sector):
    c = make_sector_contour(*sector)
    rng = np.random.default_rng(101)
    for _ in range(10):
        A, _, _ = random_diagonalizable(rng, dim=12)
        got = schur_projection(A, c)
        want = eigen_projection_oracle(A, _in_sector(c))
        scale = max(linalg.operator_norm_2(want.P), 1.0)
        assert linalg.operator_norm_2(got.P - want.P) <= 1e-12 * scale
        assert got.rank_estimate == want.rank_estimate
        assert got.truncation_error_estimate == 0.0
        assert got.resolved


def test_schur_projection_matches_the_quadrature():
    A = presets.get_operator("variable_coeff_shift", 32)
    c = presets.contour_imag()
    got, want = schur_projection(A, c), sectorial_projection(A, c)
    assert got.contour_clearance == want.contour_clearance
    assert got.rank_estimate == want.rank_estimate == 32
    scale = max(linalg.operator_norm_2(want.P), 1.0)
    assert linalg.operator_norm_2(got.P - want.P) <= 1e-11 * scale


def test_both_projectors_count_the_sector_for_their_rank(imag_contour):
    # the rank is the count of Schur diagonal entries in the sector, not
    # read from the quadrature's trace: equal on criterion 1's inputs
    rng = np.random.default_rng(20250601)
    for _ in range(100):
        A, _, _ = random_diagonalizable(rng)
        assert (sectorial_projection(A, imag_contour).rank_estimate
                == schur_projection(A, imag_contour).rank_estimate)
    # 0.3 lies inside the arc (|0.3| < R = 0.5, Re > 0): both exclude it
    A = np.array([[0.3, 1.0, 0.0], [0.0, 2.0, 1.0], [0.0, 0.0, -1.5]],
                 dtype=complex)
    got = sectorial_projection(A, imag_contour)
    assert got.rank_estimate == schur_projection(A, imag_contour).rank_estimate
    assert got.rank_estimate == 1 and got.resolved


def test_schur_projection_of_jordan_blocks():
    # V diag(J_3(l_in), J_2(l_out)) V^-1 has no eigenbasis: the oracle
    # refuses it, the projection is V diag(I_3, 0) V^-1
    J = np.diag([2.0 + 0.5j] * 3 + [-1.5 - 0.3j] * 2)
    J += np.diag([1.0, 1.0, 0.0, 1.0], 1)
    _, _, V = random_diagonalizable(np.random.default_rng(5), dim=5)
    Vinv = np.linalg.inv(V)
    c = presets.contour_imag()
    want = V @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0]) @ Vinv
    got = schur_projection(V @ J @ Vinv, c)
    assert got.rank_estimate == 3
    assert linalg.operator_norm_2(got.P - want) <= 1e-10
    with pytest.raises(TooDefective):
        eigen_projection_oracle(V @ J @ Vinv, _in_sector(c))


def test_schur_projection_edge_ranks():
    # Grcar-40 (1 on the diagonal and three superdiagonals, -1 below) has
    # its whole spectrum in the right half plane: P = I exactly, where the
    # quadrature is off by 1e3; no eigenvalue inside gives P = 0
    G = np.eye(40) - np.eye(40, k=-1) + sum(np.eye(40, k=k) for k in (1, 2, 3))
    c = presets.contour_imag()
    res = schur_projection(G, c)
    assert (res.P == np.eye(40)).all()
    assert res.rank_estimate == 40 and res.idempotency_defect == 0.0
    res = schur_projection(-G, c)
    assert (res.P == 0).all() and res.rank_estimate == 0


def test_schur_projection_refuses_a_spectrum_on_the_contour(imag_contour):
    for A in (np.diag([2.0j, 1.0]), np.diag([0.5, -1.0])):
        with pytest.raises(SpectrumOnContour):
            schur_projection(A, imag_contour)


@pytest.mark.parametrize("routine, bad", [
    ("_trsen", lambda out: (*out[:6], 1)),
    ("_trsen", lambda out: (*out[:3], out[3] - 1, *out[4:])),
    ("_trsyl", lambda out: (*out[:2], 1)),
], ids=["trsen_info", "trsen_moved", "trsyl_info"])
def test_schur_projection_refuses_a_lapack_failure(routine, bad,
                                                   monkeypatch, imag_contour):
    fn = getattr(projections, routine)
    monkeypatch.setattr(projections, routine,
                        lambda *a, **k: bad(fn(*a, **k)))
    with pytest.raises(SectoralError, match=routine[1:]):
        schur_projection(np.array([[1.0, 2.0], [0.0, -1.0]]), imag_contour)


def test_consumers_of_p_make_no_solve(monkeypatch, imag_contour):
    counts = {}
    count_calls(monkeypatch, counts, linalg, "solve")
    count_calls(monkeypatch, counts, experiments, "schur_projection")
    perturbation_experiment(presets.op_variable_coeff_shift(16),
                            presets.perturbation_cos_theta_lower(16),
                            np.geomspace(1e-3, 1e-1, 5), 0.0, imag_contour)
    boundedness_check(presets.op_dtheta_shift(16), imag_contour, [0.0])
    A, _, _ = random_diagonalizable(np.random.default_rng(23), dim=6)
    wodzicki_residual(A, 0.37, np.pi / 2, -np.pi / 2, imag_contour)
    assert counts == {"solve": 0, "schur_projection": 7}


def test_riesz_transform_eigenvalue_map():
    A = presets.op_dtheta(8)
    H = A.matrix + 0.3 * np.eye(17)
    F = riesz_transform(H)
    k = np.arange(-8, 9) + 0.3
    want = np.sort(k / np.sqrt(1 + k * k))
    got = np.sort(np.linalg.eigvalsh(F))
    assert np.allclose(got, want, atol=1e-12)
    assert np.abs(np.linalg.eigvalsh(F)).max() < 1.0
    # same positive spectral projection
    PF = aps_projection(F, 0.0).P
    PA = aps_projection(H, 0.0).P
    assert np.abs(PF - PA).max() <= 1e-9


def test_riesz_transform_requires_hermitian():
    with pytest.raises(NotHermitian):
        riesz_transform(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_hermitian_check_reads_the_frobenius_norm():
    # ||A - A*||_2 / ||A||_2 = 5e-11 passes a spectral-norm test at 1e-10;
    # the Frobenius norm of A - A* is 10 times larger, and refused
    A = (1.0 + 2.5e-11j) * np.eye(100)
    with pytest.raises(NotHermitian):
        aps_projection(A, 0.0)
    assert aps_projection(A.real, 0.0).rank_estimate == 100


def test_aps_projection_cut():
    A = np.diag([-2.0, 0.5, 3.0])
    res = aps_projection(A, 0.0)
    assert np.allclose(res.P, np.diag([0.0, 1.0, 1.0]))
    assert res.rank_estimate == 2
    with pytest.raises(EigenvalueAtCut):
        aps_projection(A, 0.5)


def test_complex_power_branch_convention():
    minus_one = np.array([[-1.0 + 0j]])
    # cut along L_{pi/2}: arg(-1) = -pi, (-1)^{1/2} = -i
    assert complex_power(minus_one, 0.5, np.pi / 2)[0, 0] == pytest.approx(
        -1j)
    # cut along L_{3pi/2}: arg(-1) = +pi, (-1)^{1/2} = +i
    assert complex_power(minus_one, 0.5, 3 * np.pi / 2)[0, 0] == \
        pytest.approx(1j)


def test_complex_power_consistency():
    rng = np.random.default_rng(9)
    A, _, _ = random_diagonalizable(rng, dim=6)
    assert np.allclose(complex_power(A, 1.0, np.pi / 2), A, atol=1e-8)
    assert np.allclose(complex_power(A, 0.0, np.pi / 2), np.eye(6),
                       atol=1e-10)
    half = complex_power(A, 0.5, np.pi / 2)
    assert np.allclose(half @ half, A, atol=1e-7)


def test_complex_power_errors():
    with pytest.raises(EigenvalueZero):
        complex_power(np.diag([0.0, 1.0]), 0.5, np.pi / 2)
    with pytest.raises(EigenvalueOnCut):
        complex_power(np.diag([2.0j, 1.0]), 0.5, np.pi / 2)
    with pytest.raises(TooDefective):
        complex_power(np.array([[1.0, 1.0], [0.0, 1.0]]), 0.5, np.pi / 2)


def test_complex_power_names_the_first_refused_eigenvalue():
    # a zero eigenvalue and another on the cut: the refusal names the first
    # in (real, imag) order, whichever order LAPACK returns them in
    with pytest.raises(EigenvalueZero):
        complex_power(np.diag([3.0j, 0.0]), 0.5, np.pi / 2)
    with pytest.raises(EigenvalueOnCut):
        complex_power(np.diag([0.0, -1.0]), 0.5, np.pi)


def test_wodzicki_identity_sample(imag_contour):
    rng = np.random.default_rng(17)
    for _ in range(5):
        A, _, _ = random_diagonalizable(rng, dim=7)
        s = rng.uniform(-2.0, 2.0)
        resid = wodzicki_residual(A, s, np.pi / 2, -np.pi / 2, imag_contour)
        assert resid <= 1e-6


def test_wodzicki_residual_decomposes_once(imag_contour, monkeypatch):
    A, _, _ = random_diagonalizable(np.random.default_rng(23), dim=6)
    s = 0.37
    two_powers = linalg.operator_norm_2(
        complex_power(A, s, -np.pi / 2) - complex_power(A, s, np.pi / 2)
        - (1.0 - np.exp(2j * np.pi * s))
        * (schur_projection(A, imag_contour).P
           @ complex_power(A, s, -np.pi / 2)))
    calls = []
    eig = linalg.eig
    monkeypatch.setattr(linalg, "eig", lambda M: calls.append(1) or eig(M))
    resid = wodzicki_residual(A, s, np.pi / 2, -np.pi / 2, imag_contour)
    assert len(calls) == 1
    assert resid == two_powers


def _dense_sector_projection(M, c):
    """The per-node formula on the dense matrix, without the Schur basis:
    P = (-1/2 pi i) M [sum_k (w_k/lambda_k) (M - lambda_k)^{-1}
    - m2 I - m3 M]."""
    rule = quad_nodes(c)
    m2, m3 = ray_tail_moments(c)
    I = np.eye(M.shape[0], dtype=complex)
    shifted = M[None, :, :] - rule.nodes[:, None, None] * I
    coef = (rule.weights / rule.nodes)[:, None, None]
    phi = (coef * np.linalg.solve(shifted, I)).sum(axis=0) - m2 * I - m3 * M
    return (-1.0 / (2j * np.pi)) * (M @ phi)


@st.composite
def _non_normal_matrices(draw):
    """S J S^{-1}: J upper triangular with a spectrum at least 0.5 from the
    imag contour (|Re| >= 0.7, 1.1 <= |lambda| <= 4), coupled above the
    diagonal; with `jordan`, runs of equal eigenvalues on a nonzero
    superdiagonal, i.e. Jordan blocks.  S has condition number <= 10."""
    n = draw(st.integers(2, 8))
    seed = draw(st.integers(0, 2**32 - 1))
    jordan = draw(st.booleans())
    coupling = draw(st.floats(0.1, 3.0))
    rng = np.random.default_rng(seed)
    values = np.empty(n, dtype=complex)
    i = 0
    while i < n:
        z = rng.uniform(-4.0, 4.0) + 1j * rng.uniform(-4.0, 4.0)
        if abs(z.real) < 0.7 or not 1.1 <= abs(z) <= 4.0:
            continue
        size = int(rng.integers(1, 4)) if jordan else 1
        values[i:i + size] = z
        i += size
    J = np.diag(values) + coupling * np.triu(
        rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    if jordan:
        J += np.diag(np.where(values[1:] == values[:-1], 1.0, 0.0), 1)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n))
                         + 1j * rng.standard_normal((n, n)))
    S = q1 @ np.diag(np.geomspace(1.0, 10.0, n)) @ q2
    return S @ J @ np.linalg.inv(S)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(_non_normal_matrices())
def test_schur_kernel_matches_dense_formula(A):
    c = presets.contour_imag()
    res = sectorial_projection(A, c)
    P_ref = _dense_sector_projection(A, c)
    # P = 0 when no eigenvalue lies in the sector: then roundoff is
    # measured against 1
    scale = max(np.linalg.norm(P_ref, 2), 1.0)
    assert np.linalg.norm(res.P - P_ref, 2) <= 1e-10 * scale
    assert res.idempotency_defect <= 1e-9 * scale ** 2


def _grcar(n):
    return (np.eye(n) - np.eye(n, k=-1)
            + sum(np.eye(n, k=k) for k in (1, 2, 3)))


def _random_hermitian(n):
    X = np.random.default_rng(29).standard_normal((n, 2 * n)).view(complex)
    return X + X.conj().T


@pytest.mark.parametrize("produce", [
    lambda c: schur_projection(
        random_diagonalizable(np.random.default_rng(31), dim=12)[0], c),
    lambda c: eigen_projection_oracle(
        random_diagonalizable(np.random.default_rng(31), dim=12)[0],
        lambda z: z.real > 0),
    lambda c: sectorial_projection(_grcar(40), c),
    lambda c: aps_projection(_random_hermitian(10), 0.0),
], ids=["schur", "oracle", "quadrature_grcar40", "aps"])
def test_idempotency_defect_is_read_from_p_once(produce, imag_contour,
                                                monkeypatch):
    # every producer leaves the defect to the record: ||P^2 - P||_2 is
    # computed from P on the first read and not again
    res = produce(imag_contour)
    counts = {}
    count_calls(monkeypatch, counts, linalg, "operator_norm_2")
    assert res.idempotency_defect == float(
        linalg.operator_norm_2(res.P @ res.P - res.P))
    assert counts["operator_norm_2"] == 2
    assert res.to_record()["idempotency_defect"] == res.idempotency_defect
    assert counts["operator_norm_2"] == 2


def test_projection_record_fields(imag_contour):
    res = sectorial_projection(np.diag([1.0, -1.0]).astype(complex),
                               imag_contour)
    rec = res.to_record()
    assert set(rec) >= {"idempotency_defect", "rank_estimate",
                        "contour_clearance", "truncation_error_estimate",
                        "resolved", "trace"}
    assert "matrix" not in rec
    rec2 = res.to_record(include_matrix=True)
    assert np.allclose(np.array(rec2["matrix"])[..., 0]
                       + 1j * np.array(rec2["matrix"])[..., 1], res.P)


def test_projection_record_is_plain_json(imag_contour):
    # every record value is a Python type: json needs no conversion hook
    res = sectorial_projection(np.diag([1.0, -1.0]).astype(complex),
                               imag_contour)
    assert type(res.resolved) is bool
    rec = json.loads(json.dumps(res.to_record(include_matrix=True)))
    assert rec["resolved"] is True and rec["rank_estimate"] == 1
