import dataclasses
import tracemalloc

import numpy as np
import pytest

from sectoral import linalg, presets
from sectoral.contour import (ContourSpec, make_sector_contour, point_contour_distance,
                              quad_nodes, ray_tail_moments, sector_phi,
                              validate_contour)
from sectoral.errors import (InvalidAngles, InvalidRadii, SpectrumOnContour,
                             SymbolSingular)
from sectoral.projections import _triangular_inverses
from sectoral.symbol1d import _fibre_inverse


def test_theta_property():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    assert c.theta == pytest.approx(np.pi)
    c2 = make_sector_contour(0.1, -0.1, 1.0)
    assert c2.theta == pytest.approx(0.2)


def test_sector_validation():
    with pytest.raises(InvalidRadii):
        make_sector_contour(np.pi / 2, -np.pi / 2, -1.0)
    with pytest.raises(InvalidAngles):
        make_sector_contour(1.0, 1.0, 0.5)  # degenerate opening
    # non-finite parameters are refused before any quadrature is built, and
    # so is a radius whose ray cut 1e6 R overflows
    for R in (np.nan, np.inf, 1e303):
        with pytest.raises(InvalidRadii):
            make_sector_contour(np.pi / 2, -np.pi / 2, R)
    for alpha1, alpha2 in ((np.nan, -np.pi / 2), (np.pi / 2, np.inf)):
        with pytest.raises(InvalidAngles):
            make_sector_contour(alpha1, alpha2, 0.5)


def test_contour_spec_built_directly_is_validated():
    # a spec built without make_sector_contour is checked as well; left
    # unchecked, these two give diag(2, -2) a projection with resolved=True
    # (diag(0, 1), the eigenvalue on the left, and 0)
    with pytest.raises(InvalidRadii):
        ContourSpec(np.pi / 2, -np.pi / 2, -0.5)
    with pytest.raises(InvalidAngles):
        ContourSpec(1.0, 1.0, 0.5)
    c = presets.contour_imag()
    with pytest.raises(InvalidRadii):
        dataclasses.replace(c, R=np.inf)


def test_sector_rule_matches_antiderivative():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    rule = quad_nodes(c)
    # integral of lambda^-2 along the truncated contour equals the
    # difference of -1/lambda between the truncated ray endpoints
    got = np.sum(rule.weights / rule.nodes**2)
    lam_start = c.lambda_max * np.exp(1j * c.alpha1)
    lam_end = c.lambda_max * np.exp(1j * c.alpha2)
    want = (-1.0 / lam_end) - (-1.0 / lam_start)
    assert got == pytest.approx(want, rel=1e-10)
    # and the analytic tail moment m2 is exactly the missing piece to the
    # full (untruncated) integral, which vanishes
    m2, _ = ray_tail_moments(c)
    assert got + m2 == pytest.approx(0.0, abs=1e-14)


def test_sector_rule_scalar_projection():
    # the full machinery in scalar form: the weighted integral gives
    # 1 on the positive sector, 0 on the negative one
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    rule = quad_nodes(c)
    m2, m3 = ray_tail_moments(c)
    for a, want in ((2.0, 1.0), (-3.0, 0.0), (1.0 + 0.8j, 1.0),
                    (-0.9 + 2.0j, 0.0)):
        phi = np.sum(rule.weights / (rule.nodes * (a - rule.nodes)))
        phi += -m2 - m3 * a
        p = (-1.0 / (2j * np.pi)) * a * phi
        assert p == pytest.approx(want, abs=1e-9)


def test_truncation_estimate_reported():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    rule = quad_nodes(c)
    assert 0 < rule.truncation_error_estimate < 1e-4


def test_point_contour_distance_known_cases():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    assert point_contour_distance(0.5, c) == pytest.approx(0.0)   # on arc
    assert point_contour_distance(2.0j, c) == pytest.approx(0.0)  # on ray
    assert point_contour_distance(0.0, c) == pytest.approx(0.5)
    assert point_contour_distance(2.0, c) == pytest.approx(1.5)
    assert point_contour_distance(-1.0, c) == pytest.approx(
        np.sqrt(1.0 + 0.25))  # nearest point is an arc endpoint


def _scalar_contour_distance(z: complex, c) -> float:
    """Reference: distance from one point to the truncated rays
    {r e^{i alpha} : r >= R} and the arc, one case at a time."""
    def ray(alpha):
        w = z * np.exp(-1j * alpha)
        return abs(w.imag) if w.real >= c.R else abs(w - c.R)

    if z == 0:
        arc = c.R
    elif (c.alpha1 - np.angle(z)) % (2 * np.pi) <= c.theta:
        arc = abs(abs(z) - c.R)
    else:
        arc = min(abs(z - c.R * np.exp(1j * a)) for a in (c.alpha1, c.alpha2))
    return min(ray(c.alpha1), ray(c.alpha2), arc)


def test_point_contour_distance_array_matches_scalar_reference():
    rng = np.random.default_rng(3)
    contours = (make_sector_contour(np.pi / 2, -np.pi / 2, 0.5),
                make_sector_contour(2.9, 0.4, 1.3),
                make_sector_contour(0.2, -5.5, 0.8))
    for c in contours:
        z = rng.uniform(-4.0, 4.0, 200) + 1j * rng.uniform(-4.0, 4.0, 200)
        on = [r * np.exp(1j * a) for a in (c.alpha1, c.alpha2)
              for r in (c.R, 1.5 * c.R, 3.0)]
        z = np.concatenate((z, [0.0], on))
        d = point_contour_distance(z, c)
        assert d.shape == z.shape
        ref = np.array([_scalar_contour_distance(complex(x), c) for x in z])
        assert np.abs(d - ref).max() <= 1e-14
        assert np.all(d[-len(on):] <= 1e-14)
        assert d[-len(on) - 1] == pytest.approx(c.R, abs=1e-15)


def test_sector_phi_fibre_stack_matches_diagonal_matrix():
    # the stack path (elementwise 1 x 1 inverses) and the matrix path (one
    # LU solve per node) integrate the same diagonal entries
    rng = np.random.default_rng(5)
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    vals = (rng.choice([-1.0, 1.0], 12) * rng.uniform(0.8, 4.0, 12)
            + 1j * rng.uniform(-4.0, 4.0, 12))
    stack, rule_s = sector_phi(vals.reshape(-1, 1, 1), c,
                               lambda X: _fibre_inverse(X, 0.0, 0.0))
    eye = np.eye(len(vals), dtype=complex)
    phi, rule_m = sector_phi(np.diag(vals), c,
                             lambda S: np.array([linalg.solve(B, eye)
                                                 for B in S]))
    assert stack.shape == (len(vals), 1, 1)
    assert np.array_equal(rule_s.nodes, rule_m.nodes)
    assert np.abs(phi - np.diag(stack[:, 0, 0])).max() <= 1e-13
    # Phi(a) = -2 pi i a^{-1} on the sector Re a > 0, 0 outside
    exact = np.where(vals.real > 0, -2j * np.pi / vals, 0.0)
    assert np.abs(stack[:, 0, 0] - exact).max() <= 1e-10
    # every X is shifted and inverted for a block of k nodes in one call,
    # k from the byte budget: a matrix at 227 nodes at n = 6, at the floor
    # of 16 at n = 32 and at n = 64, all 896 at n = 1 (rows padded to 2
    # entries); a stack at 51 at (8, 20, 1, 1), 85 at (8, 3, 2, 2), all 896
    # at (5, 1, 1, 1) and at its floor of 1 above the byte budget at
    # (3, 2800, 1, 1); the plain sum over k of
    # w_k/lambda_k (X - lambda_k I)^{-1} is bit-equal
    m2, m3 = ray_tail_moments(c)
    divide = lambda B: 1.0 / B
    for shape, inverse, k in (
            ((6, 6), None, 227), ((32, 32), None, 16), ((64, 64), None, 16),
            ((1, 1), None, 896), ((8, 20, 1, 1), divide, 51),
            ((8, 3, 2, 2), np.linalg.inv, 85), ((5, 1, 1, 1), divide, 896),
            ((3, 2800, 1, 1), divide, 1)):
        X = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        X_before = X.copy()
        I = np.eye(shape[-1], dtype=complex)
        one = inverse
        if inverse is None:
            one = lambda B: linalg.solve(B, I)
            inverse = lambda S: np.array([one(B) for B in S])
        seen = []

        def counted(S):
            seen.append(S.shape)
            return inverse(S)

        got, rule = sector_phi(X, c, counted)
        ref = np.zeros_like(X)
        for lam, w in zip(rule.nodes, rule.weights / rule.nodes):
            ref += w * one(X - lam * I)
        assert np.array_equal(got, ref - m2 * I - m3 * X), shape
        assert np.array_equal(X, X_before)
        # ceil(896 / k) calls, each on a (k, *X.shape) block but the last
        assert len(seen) == -(-896 // k), shape
        assert all(s == (k,) + shape for s in seen[:-1]), shape
        assert seen[-1] == (896 - k * (len(seen) - 1),) + shape, shape


@pytest.mark.parametrize("N, node, theta_extent", [
    (1, 300, 6), (1, 57, 1), (2, 500, 6)])
def test_sector_phi_names_the_fibre_a_node_meets(N, node, theta_extent):
    # a fibre with the eigenvalue lambda_node is singular at that node only:
    # the blocked inverse names it with the (theta, xi) of that node's
    # stack alone, whatever its place in the block
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    lam = quad_nodes(c).nodes[node]
    theta = 0.3 + 2.0 * np.pi * np.arange(6) / 6
    xi = np.array([[-3.0], [1.0], [4.0], [7.0]])
    rng = np.random.default_rng(11)
    shape = (4, theta_extent, N, N)
    X = 2.0 + rng.uniform(0.5, 1.0, shape) + 0j
    X[..., 0, 0] += 1j * rng.uniform(0.5, 1.0, shape[:2])
    if N == 2:
        X[..., 0, 1] = X[..., 1, 0] = 0.0
    X[2, theta_extent - 1, 0, 0] = lam
    with pytest.raises(SymbolSingular) as alone:
        _fibre_inverse(X - lam * np.eye(N), theta, xi)
    with pytest.raises(SymbolSingular) as blocked:
        sector_phi(X, c, lambda B: _fibre_inverse(B, theta, xi))
    where = (blocked.value.theta, blocked.value.xi)
    assert where == (alone.value.theta, alone.value.xi)
    assert where == (theta[theta_extent - 1], 4.0)


def _sector_phi_peak(X, inverse):
    """Peak bytes traced by tracemalloc during sector_phi(X)."""
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        sector_phi(X, c, inverse)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_sector_phi_memory_stays_within_a_few_nodes():
    # a (32, 1028, 1, 1) stack is above the byte budget: one node per
    # block, and the loop's peak stays within 8 copies of X (6.1 measured);
    # inverting all 896 nodes at once would take about 1,800
    rng = np.random.default_rng(2)
    shape = (32, 1028, 1, 1)
    X = rng.uniform(1.0, 4.0, shape) + 1j * rng.uniform(-4.0, 4.0, shape)
    assert _sector_phi_peak(X, lambda B: 1.0 / B) <= 8 * X.nbytes


def test_sector_phi_memory_of_a_matrix_stays_near_its_node_floor():
    # a 129 x 129 matrix is above the byte budget: blocks of the floor of
    # 16 nodes, whose shifted copies, scaled inverses and the inverse block
    # hold about 3 x 16 copies of X; the peak stays within 56 (50.7
    # measured), against about 2,700 for all 896 nodes at once
    rng = np.random.default_rng(4)
    X = np.triu(rng.standard_normal((129, 129))
                + 1j * rng.standard_normal((129, 129)))
    X[np.diag_indices(129)] += 3.0
    assert _sector_phi_peak(X, _triangular_inverses) <= 56 * X.nbytes


def test_validate_contour_minimal_spectral_distance():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    # a spectrum on the arc or on a ray is refused
    for values in ([0.5, 3.0], [1j]):
        with pytest.raises(SpectrumOnContour):
            validate_contour(np.array(values), c)
    assert validate_contour(np.array([2.0, -2.0]), c) == pytest.approx(1.5)


def test_contour_serialization_roundtrip():
    c = make_sector_contour(1.2, -0.3, 0.7)
    d = c.to_dict()
    assert d == {"alpha1": 1.2, "alpha2": -0.3, "R": 0.7}
    assert type(c)(**d) == c
    # the sector and the arc radius are the whole specification
    assert [f.name for f in dataclasses.fields(ContourSpec)] == [
        "alpha1", "alpha2", "R"]


def test_default_lambda_max_scales_with_radius():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 2.0)
    assert c.lambda_max == pytest.approx(2e6)
    with pytest.raises(AttributeError):
        c.lambda_max = 1.0


def test_gauss_legendre_cache_is_read_only():
    from sectoral.contour import _GAUSS_W, _GAUSS_X
    assert not _GAUSS_X.flags.writeable and not _GAUSS_W.flags.writeable
    with pytest.raises(ValueError):
        _GAUSS_X[0] = 0.0
    with pytest.raises(ValueError):
        _GAUSS_W[0] = 0.0


def _rebuilt_rule(c):
    """Reference: the fixed rule written out from a fresh leggauss(16)."""
    x, w = np.polynomial.legendre.leggauss(16)

    def composite(edges):
        mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
        half = 0.5 * (edges[1:] - edges[:-1])[:, None]
        return (mid + half * x).ravel(), (half * w).ravel()

    u, wu = composite(np.geomspace(c.R / (1e6 * c.R), 1.0, 25))
    t, wt = composite(np.linspace(0.0, c.theta, 9))
    e1, e2 = np.exp(1j * c.alpha1), np.exp(1j * c.alpha2)
    arc = c.R * np.exp(1j * (c.alpha1 - t))
    nodes = np.concatenate(((c.R / u) * e1, arc, (c.R / u) * e2))
    weights = np.concatenate((wu * (-c.R / u**2) * e1, wt * (-1j) * arc,
                              wu * (c.R / u**2) * e2))
    return nodes, weights


def test_quad_nodes_match_uncached_leggauss():
    # 8 arc panels and 24 panels per ray of order 16, rays cut at 1e6 R
    for c in (presets.contour_imag(), presets.contour_imag(R=0.35),
              make_sector_contour(2.9, 0.4, 1.3)):
        rule = quad_nodes(c)
        nodes, weights = _rebuilt_rule(c)
        assert len(rule.nodes) == 896
        assert np.array_equal(rule.nodes, nodes)
        assert np.array_equal(rule.weights, weights)


def test_quad_nodes_returns_independent_arrays():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    first = quad_nodes(c)
    expected = first.nodes.copy()
    first.nodes[:] = 0.0
    first.weights[:] = 0.0
    assert np.array_equal(quad_nodes(c).nodes, expected)
