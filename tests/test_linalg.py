import warnings

import numpy as np
import pytest
import scipy.linalg

from sectoral import linalg
from sectoral.errors import (NotHermitian, NotPositiveDefinite,
                             SingularMatrix, TooDefective)


def test_as_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError):
        linalg.as_matrix(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        linalg.as_matrix([[np.inf, 0], [0, 1]])
    with pytest.raises(ValueError):
        linalg.as_matrix([[1.0 + 1j * np.nan, 0], [0, 1]])
    with pytest.raises(ValueError):
        linalg.as_matrix([[np.inf + 1j, 0], [0, 1]])
    with pytest.raises(ValueError):
        linalg.as_matrix([1, 2, 3])


def test_solve_matches_direct_inverse():
    rng = np.random.default_rng(7)
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    B = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
    X = linalg.solve(A, B)
    assert np.linalg.norm(A @ X - B) <= 1e-10 * np.linalg.norm(B)


def test_solve_raises_on_singular():
    A = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    # an exact zero pivot is refused, not warned about, by the solve and
    # by the inverse (B = None)
    for B in (np.eye(2), None):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix) as exc:
                linalg.solve(A, B)
        assert exc.value.pivot_magnitude < 1e-10


def test_eig_reconstruction_well_conditioned():
    rng = np.random.default_rng(11)
    A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    values, V = linalg.eig(A)
    assert 1.0 / np.linalg.svd(V, compute_uv=False)[-1] <= 1e4
    R = V @ np.diag(values) @ np.linalg.inv(V)
    assert np.linalg.norm(R - A) <= 1e-7 * np.linalg.norm(A)


def test_eig_refuses_defective():
    J = np.array([[2.0, 1.0], [0.0, 2.0]], dtype=complex)  # Jordan block
    with pytest.raises(TooDefective) as exc:
        linalg.eig(J)
    assert exc.value.condition_estimate > 1e8


def test_eig_dimension_limit():
    with pytest.raises(ValueError):
        linalg.eig(np.eye(1025))


def test_operator_norm_known_values():
    assert linalg.operator_norm_2(np.diag([3.0, -5.0])) == pytest.approx(5.0)
    # rank-1: norm = |u||v|
    u = np.array([[1.0], [2.0]])
    v = np.array([[3.0, 4.0]])
    assert linalg.operator_norm_2(u @ v) == pytest.approx(
        np.sqrt(5.0) * 5.0, rel=1e-12)


@pytest.mark.parametrize("n", [2, 9, 64])
def test_singular_values_of_a_diagonal_match_svd(n, monkeypatch):
    rng = np.random.default_rng(n)
    d = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) \
        * np.logspace(0, -6, n)
    want = np.linalg.svd(np.diag(d), compute_uv=False)
    svd_calls = []
    monkeypatch.setattr(np.linalg, "svd",
                        lambda *a, **k: svd_calls.append(1))
    got = linalg._singular_values(np.diag(d))
    assert not svd_calls
    ulp = np.spacing(want)
    assert np.all(np.abs(got - want) <= 4 * ulp)
    assert linalg.operator_norm_2(np.diag(d)) == got[0]
    assert linalg.inverse_norm_2(np.diag(d)) == 1.0 / got[-1]


def test_singular_values_diagonal_refusals():
    with pytest.raises(SingularMatrix):
        linalg.inverse_norm_2(np.diag([1.0, 1e-14]))
    for f in (linalg.operator_norm_2, linalg.inverse_norm_2):
        with pytest.raises(ValueError, match="finite"):
            f(np.diag([1.0, np.nan]))
    # max|diag| of an empty matrix would raise; the norm is 0
    assert linalg.operator_norm_2(np.zeros((0, 0))) == 0.0
    with pytest.raises(ValueError, match="empty"):
        linalg.inverse_norm_2(np.zeros((0, 0)))


def test_inverse_norm_of_a_diagonal_given_as_its_diagonal():
    # a 1-D array is the diagonal of a diagonal matrix: the same norm, the
    # same refusals and the same SingularMatrix payload
    d = np.array([2.0 - 1j, -0.5, 3j, 1e-3])
    assert linalg.inverse_norm_2(d) == linalg.inverse_norm_2(np.diag(d))
    assert np.array_equal(linalg.shifted(d, 0.25 + 1j),
                          np.diag(linalg.shifted(np.diag(d), 0.25 + 1j)))
    for zero in (np.array([1.0, 0.0, -2.0]), np.array([1e-14, 1.0]),
                 np.zeros(2)):
        payloads = []
        for A in (zero, np.diag(zero)):
            with pytest.raises(SingularMatrix) as exc:
                linalg.inverse_norm_2(A)
            payloads.append(exc.value.pivot_magnitude)
        assert payloads[0] == payloads[1]
    with pytest.raises(ValueError, match="finite"):
        linalg.inverse_norm_2(np.array([1.0, np.nan]))
    with pytest.raises(ValueError, match="empty"):
        linalg.inverse_norm_2(np.zeros(0))


@pytest.mark.parametrize("i, j", [(0, 5), (5, 0), (2, 3), (4, 1)])
def test_singular_values_one_off_diagonal_entry_takes_the_svd(i, j):
    rng = np.random.default_rng(i + 7 * j)
    A = np.diag(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    A[i, j] = 0.5 - 0.25j
    sigma = np.linalg.svd(A, compute_uv=False)
    assert np.array_equal(linalg._singular_values(A), sigma)
    assert linalg.operator_norm_2(A) == float(sigma[0])
    assert linalg.inverse_norm_2(A) == float(1.0 / sigma[-1])


def _strided(A):
    """A non-contiguous view with the entries of A."""
    wide = np.zeros((A.shape[0], 2 * A.shape[1]), dtype=A.dtype)
    wide[:, ::2] = A
    return wide[:, ::2]


@pytest.mark.parametrize("n", [2, 3, 6])
def test_is_diagonal_sees_every_off_diagonal_entry(n):
    # C and F order are read through a view of their memory, a
    # non-contiguous slice through a copy; a 1e-300 entry is not zero
    D = np.diag(np.arange(1.0, n + 1) + 0.5j)
    view = _strided(D)
    assert not (view.flags.c_contiguous or view.flags.f_contiguous)
    layouts = (np.ascontiguousarray, np.asfortranarray, _strided)
    assert all(linalg.is_diagonal(make(D)) for make in layouts)
    for i in range(n):
        for j in range(n):
            if i != j:
                B = D.copy()
                B[i, j] = 1e-300
                assert not any(linalg.is_diagonal(make(B))
                               for make in layouts)


def test_is_diagonal_needs_order_two():
    assert not linalg.is_diagonal(np.ones((1, 1)))


def test_inv_sqrt_hpd():
    rng = np.random.default_rng(3)
    B = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = B @ B.conj().T + 5 * np.eye(5)
    S = linalg.inv_sqrt_hpd(H)
    assert np.linalg.norm(S @ H @ S - np.eye(5)) <= 1e-10
    with pytest.raises(NotHermitian):
        linalg.inv_sqrt_hpd(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(NotPositiveDefinite):
        linalg.inv_sqrt_hpd(np.diag([1.0, -2.0]))


@pytest.mark.parametrize("n", [1, 7, 20])
def test_solve_bit_identical_to_lu_factor_lu_solve(n):
    rng = np.random.default_rng(n)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    vector = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    inputs = [A, np.asfortranarray(A), A.T]
    if n > 1:
        # a zero corner but a nonzero strict lower part: not triangular
        corner = A.copy()
        corner[-1, 0] = 0.0
        inputs.append(corner)
    for M in inputs:
        factors = scipy.linalg.lu_factor(M)
        for B in (vector, block):
            assert np.array_equal(linalg.solve(M, B),
                                  scipy.linalg.lu_solve(factors, B))


def test_solve_empty_matrix_raises_before_lapack(capfd):
    with pytest.raises(ValueError):
        linalg.solve(np.zeros((0, 0)), np.zeros(0))
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def _upper_triangular(rng, n):
    U = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return U + n * np.eye(n)  # diagonally dominant: well conditioned


@pytest.mark.parametrize("n", [2, 7, 20])
def test_solve_upper_triangular_matches_lu_solve(n):
    rng = np.random.default_rng(100 + n)
    U = _upper_triangular(rng, n)
    vector = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    block = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    for M in (U, np.asfortranarray(U)):
        factors = scipy.linalg.lu_factor(M)
        for B in (vector, block):
            X = linalg.solve(M, B)
            assert X.shape == B.shape
            ref = scipy.linalg.lu_solve(factors, B)
            assert np.linalg.norm(X - ref) <= 1e-14 * np.linalg.norm(ref)


def test_solve_upper_triangular_skips_lu(monkeypatch):
    def no_lu(*args, **kwargs):
        raise AssertionError("getrf called on a triangular matrix")

    monkeypatch.setattr(linalg, "_getrf", no_lu)
    U = _upper_triangular(np.random.default_rng(5), 6)
    X = linalg.solve(U, None)
    assert np.linalg.norm(U @ X - np.eye(6)) <= 1e-13
    # lower triangular input is not mistaken for upper triangular
    with pytest.raises(AssertionError):
        linalg.solve(U.T, None)


def test_solve_upper_triangular_tiny_diagonal_raises():
    for B in (np.eye(5), None):  # getrf and trtri
        U = _upper_triangular(np.random.default_rng(9), 5)
        U[2, 2] = 1e-15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrix) as exc:
                linalg.solve(U, B)
        assert exc.value.pivot_magnitude == pytest.approx(1e-15)
        U[2, 2] = 0.0  # an exact zero is refused as well
        with pytest.raises(SingularMatrix):
            linalg.solve(U, B)


def test_solve_one_by_one_stays_on_lu(monkeypatch):
    def no_trtri(*args, **kwargs):
        raise AssertionError("trtri called on a 1 x 1 matrix")

    monkeypatch.setattr(linalg, "_trtri", no_trtri)
    X = linalg.solve(np.array([[4.0 - 2.0j]]), np.array([2.0]))
    assert X == pytest.approx(np.array([2.0 / (4.0 - 2.0j)]), rel=1e-15)
    X = linalg.solve(np.array([[4.0 - 2.0j]]), None)
    assert X == pytest.approx(np.array([[1.0 / (4.0 - 2.0j)]]), rel=1e-15)
    with pytest.raises(SingularMatrix):
        linalg.solve(np.zeros((1, 1)), np.ones(1))


def _with_entry(A, index, value):
    A = np.array(A, dtype=complex)
    A[index] = value
    return A


_UPPER = np.triu(np.arange(1.0, 10.0).reshape(3, 3)) + 0j
_FULL = np.arange(1.0, 10.0).reshape(3, 3) + 3 * np.eye(3) + 0j
_NONFINITE = "matrix entries must be finite"


@pytest.mark.parametrize("A, B, error, message", [
    (_with_entry(_FULL, (1, 2), complex(1.0, np.nan)), np.eye(3),
     ValueError, _NONFINITE),
    (_with_entry(_FULL, (0, 1), complex(np.inf, 2.0)), np.eye(3),
     ValueError, _NONFINITE),
    # a NaN below the diagonal of an otherwise triangular A
    (_with_entry(_UPPER, (2, 0), np.nan), np.eye(3), ValueError, _NONFINITE),
    # the finiteness check comes before the B row check
    (_with_entry(_FULL, (0, 0), np.inf), np.eye(2), ValueError, _NONFINITE),
    # finite entries whose modulus overflows: refused by the pivot floor
    (_with_entry(_UPPER, (0, 2), 1.5e308 + 1.5e308j), np.eye(3),
     SingularMatrix, None),
    (_with_entry(_FULL, (1, 0), 1.5e308 + 1.5e308j), np.eye(3),
     SingularMatrix, None),
    (np.zeros((2, 3)), np.eye(2), ValueError,
     "expected a square matrix, got shape (2, 3)"),
    (np.ones(3), np.ones(3), ValueError,
     "expected a square matrix, got shape (3,)"),
    (np.zeros((0, 0)), np.zeros(0), ValueError,
     "cannot solve with an empty matrix"),
    (_FULL, np.ones(2), ValueError, "dimension mismatch between A and B"),
    (np.eye(2), 1.0, ValueError, "B must be 1-D or 2-D, got shape ()"),
    (np.eye(2), np.ones((2, 2, 2)), ValueError,
     "B must be 1-D or 2-D, got shape (2, 2, 2)"),
], ids=["nan_imag", "inf_real", "nan_strict_lower", "inf_before_b_rows",
        "overflow_triangular", "overflow_full", "non_square", "one_d",
        "empty", "b_rows", "b_scalar", "b_three_d"])
def test_solve_refusals(A, B, error, message, monkeypatch):
    def no_lapack(*args, **kwargs):
        raise AssertionError("a refused matrix reached LAPACK")

    if error is ValueError:
        for routine in ("_getrf", "_getrs", "_trtri"):
            monkeypatch.setattr(linalg, routine, no_lapack)
    with pytest.raises(error) as exc:
        linalg.solve(A, B)
    if message is not None:
        assert str(exc.value) == message
    else:
        assert exc.value.pivot_magnitude < np.inf


def test_solve_overflowing_modulus_keeps_the_triangular_test_exact(
        monkeypatch):
    # a finite entry with |a| = inf: the zeros below the diagonal are still
    # seen (inf * 0 is NaN in a 0/1-weighted sum of |A|), so the inverse is
    # refused by the pivot floor with the diagonal pivot, before getrf
    def no_lu(*args, **kwargs):
        raise AssertionError("getrf called on a triangular matrix")

    monkeypatch.setattr(linalg, "_getrf", no_lu)
    with pytest.raises(SingularMatrix) as exc:
        linalg.solve(_with_entry(_UPPER, (0, 2), 1.5e308 + 1.5e308j), None)
    assert exc.value.pivot_magnitude == 1.0
    with pytest.raises(AssertionError):
        linalg.solve(_with_entry(_UPPER, (2, 0), 1.5e308 + 1.5e308j), None)


def _general(rng, n):
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return A + n * np.eye(n)  # diagonally dominant: well conditioned


@pytest.mark.parametrize("n, make", [
    (2, _upper_triangular), (7, _upper_triangular), (20, _upper_triangular),
    (65, _upper_triangular), (1, _general), (7, _general), (20, _general)])
def test_solve_without_b_is_the_inverse(n, make):
    A = make(np.random.default_rng(300 + n), n)
    for M in (A, np.asfortranarray(A)):
        X = linalg.solve(M, None)
        ref = linalg.solve(M, np.eye(n))
        assert X.shape == (n, n)
        assert np.linalg.norm(X - ref) <= 1e-14 * np.linalg.norm(ref)


def test_solve_upper_triangular_inverse_uses_trtri(monkeypatch):
    def forbidden(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called for a triangular inverse")
        return call

    calls = []
    trtri = linalg._trtri

    def counted_trtri(*args, **kwargs):
        calls.append(args)
        return trtri(*args, **kwargs)

    for name in ("_getrf", "_getrs"):
        monkeypatch.setattr(linalg, name, forbidden(name))
    monkeypatch.setattr(linalg, "_trtri", counted_trtri)
    U = _upper_triangular(np.random.default_rng(12), 9)
    X = linalg.solve(U, None)
    assert len(calls) == 1
    assert np.linalg.norm(U @ X - np.eye(9)) <= 1e-13
    # the inverse of an upper-triangular matrix is exactly upper triangular
    assert not X[np.tril_indices(9, -1)].any()


@pytest.mark.parametrize("lam", [2.5, -3.0 + 4.0j, 1j, 0.0])
def test_shifted_is_a_minus_lam_identity_and_leaves_a(lam):
    rng = np.random.default_rng(11)
    for A in (rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7)),
              rng.standard_normal((5, 5)), np.triu(np.ones((4, 4)))):
        before = A.copy()
        S = linalg.shifted(A, lam)
        assert S.dtype == complex and S is not A
        assert (S == A - lam * np.eye(len(A))).all()
        assert np.array_equal(A, before) and A.dtype == before.dtype
