"""Shared test helpers: seeded random matrix factories and the Pauli
monopole symbol, the 2 x 2 system symbol of the symbol-calculus tests."""
import os

# One BLAS thread, set before numpy loads its BLAS: the contour quadrature
# runs one small triangular inverse (trtri) per node, hundreds per
# projection, which a threaded BLAS slows down, the more so when other jobs
# share the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from sectoral import topology
from sectoral.contour import make_sector_contour
from sectoral.symbol1d import SymbolFunction


def random_diagonalizable(rng, dim=None, cond_max=1e3, min_abs_re=0.7,
                          abs_min=1.1, abs_max=5.0):
    """Random diagonalizable matrix whose spectrum clears the standard
    imaginary-axis sector contour (R=0.5) by at least 0.5.

    Eigenvalues have |Re| >= min_abs_re and abs_min <= |lambda| <= abs_max;
    the eigenvector matrix is built with condition <= cond_max.
    """
    if dim is None:
        dim = int(rng.integers(2, 21))
    values = np.empty(dim, dtype=complex)
    for i in range(dim):
        while True:
            re = rng.uniform(-abs_max, abs_max)
            im = rng.uniform(-abs_max, abs_max)
            z = re + 1j * im
            if abs(re) >= min_abs_re and abs_min <= abs(z) <= abs_max:
                values[i] = z
                break
    # eigenvector matrix with modest condition number
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))
    sing = np.geomspace(1.0, rng.uniform(2.0, min(50.0, cond_max)), dim)
    V = q1 @ np.diag(sing) @ q2
    A = V @ np.diag(values) @ np.linalg.inv(V)
    return A, values, V


def symbol_pauli_monopole() -> SymbolFunction:
    """xi (cos theta sigma_x + sin theta sigma_y), order 1, 2 x 2 fibres."""
    sx, sy = topology.PAULI[0], topology.PAULI[1]

    def evaluate(theta, xi):
        theta = np.asarray(theta, float)[..., None, None]
        return np.asarray(xi, float)[..., None, None] * (
            np.cos(theta) * sx + np.sin(theta) * sy) + 0j

    return SymbolFunction(order=1, evaluate=evaluate, principal=evaluate,
                          fiber_dim=2)


def count_calls(monkeypatch, counts, module, name):
    """Replace module.name by a wrapper that counts its calls in
    counts[name]."""
    fn = getattr(module, name)
    counts[name] = 0

    def wrapped(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, wrapped)


@pytest.fixture
def imag_contour():
    return make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
