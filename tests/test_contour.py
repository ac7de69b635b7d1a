import numpy as np
import pytest

from sectoral.contour import (make_circle_contour, make_sector_contour,
                              point_contour_distance, quad_nodes,
                              ray_tail_moments, validate_contour)
from sectoral.errors import InvalidAngles, InvalidRadii


def test_theta_property():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    assert c.theta == pytest.approx(np.pi)
    c2 = make_sector_contour(0.1, -0.1, 1.0)
    assert c2.theta == pytest.approx(0.2)


def test_sector_validation():
    with pytest.raises(InvalidRadii):
        make_sector_contour(np.pi / 2, -np.pi / 2, -1.0)
    with pytest.raises(InvalidRadii):
        make_sector_contour(np.pi / 2, -np.pi / 2, 2.0, lambda_max=1.0)
    with pytest.raises(InvalidAngles):
        make_sector_contour(1.0, 1.0, 0.5)  # degenerate opening
    with pytest.raises(ValueError):
        make_sector_contour(np.pi / 2, -np.pi / 2, 0.5, gauss_order=1)
    with pytest.raises(InvalidRadii):
        make_circle_contour(0, 0.0)


def test_circle_rule_reproduces_residues():
    c = make_circle_contour(1.0 + 1.0j, 2.0)
    rule = quad_nodes(c)
    # Cauchy: (1/2 pi i) * integral dz/(z - z0) = 1 inside, 0 outside
    inside = np.sum(rule.weights / (rule.nodes - (1.5 + 1.0j))) / (2j * np.pi)
    outside = np.sum(rule.weights / (rule.nodes - 10.0)) / (2j * np.pi)
    assert inside == pytest.approx(1.0, abs=1e-12)
    assert outside == pytest.approx(0.0, abs=1e-12)
    # holomorphic integrand integrates to zero
    poly = np.sum(rule.weights * rule.nodes**3)
    assert abs(poly) <= 1e-10


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
    circ = make_circle_contour(0.0, 1.0)
    assert point_contour_distance(3.0, circ) == pytest.approx(2.0)
    assert point_contour_distance(0.5j, circ) == pytest.approx(0.5)


def test_validate_contour_minimal_spectral_distance():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    assert validate_contour(np.diag([0.5, 3.0]), c) == pytest.approx(0.0)
    assert validate_contour(np.diag([1j]), c) == pytest.approx(0.0)
    assert validate_contour(np.diag([2.0, -2.0]), c) == pytest.approx(1.5)


def test_contour_serialization_roundtrip():
    c = make_sector_contour(1.2, -0.3, 0.7, lambda_max=100.0, panels_arc=4)
    d = c.to_dict()
    assert d["kind"] == "sector"
    assert d["alpha1"] == pytest.approx(1.2)
    assert d["panels_arc"] == 4
    assert d["center"] == [0.0, 0.0]


def test_default_lambda_max_scales_with_radius():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 2.0)
    assert c.lambda_max == pytest.approx(2e6)


def test_gauss_legendre_cache_is_read_only():
    from sectoral.contour import _gauss_legendre
    x, w = _gauss_legendre(16)
    assert not x.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        x[0] = 0.0


@pytest.mark.parametrize("order", [2, 16, 64])
def test_quad_nodes_match_uncached_leggauss(order, monkeypatch):
    from sectoral import contour
    specs = (make_sector_contour(np.pi / 2, -np.pi / 2, 0.5,
                                 gauss_order=order),
             make_circle_contour(0.3 - 0.2j, 1.5, gauss_order=order))
    cached = [quad_nodes(c) for c in specs]
    monkeypatch.setattr(contour, "_gauss_legendre",
                        np.polynomial.legendre.leggauss)
    for c, rule in zip(specs, cached):
        fresh = quad_nodes(c)
        assert np.array_equal(rule.nodes, fresh.nodes)
        assert np.array_equal(rule.weights, fresh.weights)


def test_quad_nodes_returns_independent_arrays():
    c = make_sector_contour(np.pi / 2, -np.pi / 2, 0.5)
    first = quad_nodes(c)
    expected = first.nodes.copy()
    first.nodes[:] = 0.0
    first.weights[:] = 0.0
    assert np.array_equal(quad_nodes(c).nodes, expected)
