import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sectoral import contour, linalg, presets
from sectoral.contour import make_sector_contour, quad_nodes, ray_tail_moments
from sectoral.errors import (EigenvalueAtCut, EigenvalueOnBoundary,
                             EigenvalueOnCut, EigenvalueZero, NotHermitian,
                             SpectrumOnContour, TooDefective)
from sectoral.projections import (aps_projection, complex_power,
                                  eigen_projection_oracle, riesz_transform,
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
    make_sector_contour(2.9, 0.4, 1.3, panels_ray=5, gauss_order=8),
], ids=["imag", "sector_2.9_0.4"])
def test_sectorial_projection_one_solve_per_node(c, monkeypatch):
    # the contour loop makes exactly one linalg.solve per quadrature node,
    # from one rule built once
    nodes = len(quad_nodes(c).nodes)
    counts = {}
    count_calls(monkeypatch, counts, linalg, "solve")
    count_calls(monkeypatch, counts, contour, "quad_nodes")
    A, _, _ = random_diagonalizable(np.random.default_rng(17), dim=6)
    sectorial_projection(A, c)
    assert counts == {"solve": nodes, "quad_nodes": 1}


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
        * (sectorial_projection(A, imag_contour).P
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
