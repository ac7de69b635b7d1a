import numpy as np
import pytest

from sectoral.errors import EigenvalueOnAxis, RoundingUnsafe
from sectoral.topology import (BUNDLE_PRESETS,
                               SphereBundleSample, antimonopole_projector,
                               bundle_from_map, chern_number, chern_rounding_residual,
                               component_index, icosphere,
                               monopole_projector, obstruction_demo,
                               seeley_deformation_check,
                               seeley_one_ray_deformation, spectral_flow,
                               trivial_projector)


# ---------------------------------------------------------------------------
# component index and spectral flow

def test_component_index_counts_right_halfplane_eigenvalues():
    assert component_index(np.diag([1.0, -2.0, 3.0])) == 2
    assert component_index(-np.eye(4)) == 0
    assert component_index(np.diag([0.5 + 10.0j, 0.5 - 10.0j])) == 2
    # counted with algebraic multiplicity (Jordan block at 2)
    J = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]])
    assert component_index(J) == 2


def test_component_index_random_against_eigvals_oracle():
    rng = np.random.default_rng(21)
    for _ in range(25):
        A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        values = np.linalg.eigvals(A)
        if np.abs(values.real).min() <= 1e-6:
            continue
        assert component_index(A) == int(np.sum(values.real > 0))


def test_component_index_rejects_axis_spectrum():
    with pytest.raises(EigenvalueOnAxis):
        component_index(np.diag([1.0j, 2.0]))


def test_spectral_flow_single_crossing():
    p = lambda t: np.diag([t - 0.4, -1.0]).astype(complex)
    assert spectral_flow(p) == 1
    back = lambda t: np.diag([0.6 - t, -1.0]).astype(complex)
    assert spectral_flow(back) == -1


def test_spectral_flow_constant_and_loop():
    const = lambda t: np.diag([1.0, -1.0]).astype(complex)
    assert spectral_flow(const) == 0
    # eigenvalue loops around 1 without ever leaving the right half-plane
    loop = lambda t: np.diag([1.0 + 0.5 * np.exp(2j * np.pi * t), -1.0])
    assert spectral_flow(loop) == 0


def test_spectral_flow_rejects_axis_endpoint():
    for start in (0.0, 1e-6):  # on the axis, and within AXIS_CLEARANCE
        p = lambda t: np.diag([start + t, -1.0]).astype(complex)
        with pytest.raises(EigenvalueOnAxis):
            spectral_flow(p)


# ---------------------------------------------------------------------------
# one-ray deformation

def test_seeley_deformation_values():
    assert seeley_one_ray_deformation(2.0) == pytest.approx(2.0)
    assert seeley_one_ray_deformation(-3.0) == pytest.approx(-3.0)
    assert seeley_one_ray_deformation(0.0) == pytest.approx(-1.0j)
    # continuity at the seams
    assert seeley_one_ray_deformation(1.0 - 1e-9) == pytest.approx(
        1.0, abs=1e-7)
    assert seeley_one_ray_deformation(-1.0 + 1e-9) == pytest.approx(
        -1.0, abs=1e-7)
    # values stay on the unit circle inside
    xs = np.linspace(-0.99, 0.99, 101)
    assert np.allclose(np.abs(seeley_one_ray_deformation(xs)), 1.0)


def test_seeley_check_single_ray_passes_two_rays_fail():
    grid = np.linspace(-5.0, 5.0, 4001)
    single = seeley_deformation_check(grid, cut="single_ray")
    assert single["passing"]
    # the deformation stays at distance >= 1 from the upward ray
    assert single["min_distance"] == pytest.approx(1.0, abs=1e-3)
    both = seeley_deformation_check(grid, cut="imaginary_axis")
    assert not both["passing"]
    assert both["min_distance"] == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        seeley_deformation_check(grid, cut="elsewhere")


# ---------------------------------------------------------------------------
# icosphere

def test_icosphere_counts_and_norms():
    v0, f0 = icosphere(0)
    assert v0.shape == (12, 3) and f0.shape == (20, 3)
    v3, f3 = icosphere(3)
    assert v3.shape == (642, 3) and f3.shape == (1280, 3)
    assert np.allclose(np.linalg.norm(v3, axis=1), 1.0)


def test_icosphere_orientation_outward():
    verts, faces = icosphere(1)
    for (i, j, k) in faces:
        n = np.cross(verts[j] - verts[i], verts[k] - verts[i])
        center = (verts[i] + verts[j] + verts[k]) / 3.0
        assert np.dot(n, center) > 0


def test_icosphere_triangle_closure():
    # every edge is shared by exactly two triangles (closed surface)
    _, faces = icosphere(2)
    from collections import Counter
    edges = Counter()
    for (i, j, k) in faces:
        for a, b in ((i, j), (j, k), (k, i)):
            edges[(min(a, b), max(a, b))] += 1
    assert set(edges.values()) == {2}


def _icosphere_face_by_face(level):
    """Reference: subdivide one face at a time, appending each edge
    midpoint at its first use."""
    verts, faces = icosphere(0)
    verts, faces = list(verts), faces.tolist()
    for _ in range(level):
        cache, new_faces = {}, []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for (i, j, k) in faces:
            a, b, c = midpoint(i, j), midpoint(j, k), midpoint(k, i)
            new_faces += [(i, a, c), (j, b, a), (k, c, b), (a, b, c)]
        faces = new_faces
    return np.array(verts), np.array(faces)


@pytest.mark.parametrize("level", [1, 2, 3, 4])
def test_icosphere_matches_face_by_face_reference(level):
    # the same points and the same oriented triangles, in the same order;
    # only the numbering of the midpoints differs
    verts, faces = icosphere(level)
    ref_verts, ref_faces = _icosphere_face_by_face(level)
    order = np.lexsort(np.round(verts, 12).T)
    ref_order = np.lexsort(np.round(ref_verts, 12).T)
    assert np.abs(verts[order] - ref_verts[ref_order]).max() <= 1e-15
    relabel = np.empty(len(verts), dtype=int)
    relabel[ref_order] = order
    assert np.array_equal(relabel[ref_faces], faces)


# ---------------------------------------------------------------------------
# Chern numbers

def _berry_loop_phase_chern(proj, n_theta=120, n_phi=240):
    """Independent oracle: total Berry phase of latitude loops on a
    latitude-longitude grid, using overlap phases along each loop and
    accumulating the phase difference between adjacent latitudes."""
    thetas = np.linspace(0.0, np.pi, n_theta + 1)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)

    def loop_phase(theta):
        pts = np.stack([np.sin(theta) * np.cos(phis),
                        np.sin(theta) * np.sin(phis),
                        np.full_like(phis, np.cos(theta))], axis=1)
        vecs = []
        for p in pts:
            w, U = np.linalg.eigh(proj(p))
            vecs.append(U[:, -1])
        phase = 0.0
        for a in range(len(vecs)):
            b = (a + 1) % len(vecs)
            phase += np.angle(np.vdot(vecs[a], vecs[b]))
        return phase

    total = 0.0
    prev = loop_phase(thetas[0] + 1e-9)
    for th in thetas[1:-1]:
        cur = loop_phase(th)
        d = cur - prev
        total += d - 2.0 * np.pi * round(d / (2.0 * np.pi))
        prev = cur
    last = loop_phase(thetas[-1] - 1e-9)
    d = last - prev
    total += d - 2.0 * np.pi * round(d / (2.0 * np.pi))
    # orientation fixed empirically by the analytic monopole (+1)
    return total / (2.0 * np.pi)


def test_chern_monopole_matches_berry_oracle():
    got = chern_number(bundle_from_map(monopole_projector, level=3))
    oracle = _berry_loop_phase_chern(monopole_projector)
    assert round(oracle) == 1
    assert got == round(oracle) == 1


def test_chern_antimonopole_and_trivial():
    assert chern_number(bundle_from_map(antimonopole_projector, 3)) == -1
    assert chern_number(bundle_from_map(trivial_projector, 2)) == 0


def test_chern_direct_sum_cancels():
    def pair(xi):
        P = np.zeros(xi.shape[:-1] + (4, 4), dtype=complex)
        P[..., :2, :2] = monopole_projector(xi)
        P[..., 2:, 2:] = antimonopole_projector(xi)
        return P

    assert chern_number(bundle_from_map(pair, 3)) == 0


def test_chern_of_rank_zero_bundle_is_zero():
    zero = lambda xi: np.zeros(xi.shape[:-1] + (2, 2), dtype=complex)
    b = bundle_from_map(zero, 2)
    assert b.validate() == 0
    assert chern_number(b) == 0
    assert chern_rounding_residual(b) == 0.0


def test_chern_refinement_invariance_and_residual():
    for level in (2, 3, 4):
        b = bundle_from_map(monopole_projector, level)
        assert chern_number(b) == 1
        assert chern_rounding_residual(b) < 0.05


def test_chern_random_family_still_sums_to_integer():
    # edge overlap phases cancel exactly between adjacent triangles on a
    # closed oriented grid, so even an incoherent family produces an exact
    # (meaningless) integer rather than a large residual
    rng = np.random.default_rng(5)
    verts, tris = icosphere(1)
    projectors = []
    for _ in range(len(verts)):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        projectors.append(np.outer(v, v.conj()))
    b = SphereBundleSample(verts, tris, np.array(projectors))
    assert chern_rounding_residual(b) < 1e-9


def test_chern_rejects_inconsistent_orientation():
    # flipping one triangle breaks the edge-phase cancellation by twice the
    # Berry flux through that triangle, which the rounding guard catches
    verts, tris = icosphere(0)
    tris = tris.copy()
    tris[0] = tris[0][::-1]
    projectors = np.array([monopole_projector(v) for v in verts])
    b = SphereBundleSample(verts, tris, projectors)
    with pytest.raises(RoundingUnsafe):
        chern_number(b)


def _loop_plaquette_sum(b):
    """Reference: the plaquette sum / 2 pi, one triangle at a time."""
    rank = b.validate()
    F = np.array([np.linalg.eigh(P)[1][:, -rank:] for P in b.projectors])
    total = 0.0
    for (i, j, k) in b.triangles:
        m = (F[i].conj().T @ F[j]) @ (F[j].conj().T @ F[k]) \
            @ (F[k].conj().T @ F[i])
        total += float(np.angle(np.linalg.det(m)))
    return total / (2.0 * np.pi)


@pytest.mark.parametrize("preset", ["monopole", "antimonopole", "trivial"])
def test_batched_plaquette_sum_matches_loop(preset):
    for level in (2, 3, 4):
        b = bundle_from_map(BUNDLE_PRESETS[preset][0], level)
        c = _loop_plaquette_sum(b)
        assert chern_number(b) == round(c)
        assert chern_rounding_residual(b) == pytest.approx(
            abs(c - round(c)), abs=1e-12)


def test_bundle_validate_errors():
    verts, tris = icosphere(0)
    n = len(verts)
    not_proj = np.array([0.5 * np.eye(2)] * n)
    with pytest.raises(ValueError):
        SphereBundleSample(verts, tris, not_proj).validate()
    not_herm = np.array([np.array([[1.0, 1.0], [0.0, 0.0]])] * n)
    with pytest.raises(ValueError):
        SphereBundleSample(verts, tris, not_herm).validate()
    mixed = np.array([np.eye(2)] * (n - 1) + [np.zeros((2, 2))])
    with pytest.raises(ValueError):
        SphereBundleSample(verts, tris, mixed).validate()
    ok = SphereBundleSample(verts, tris,
                            np.array([np.diag([1.0, 0.0])] * n))
    assert ok.validate() == 1


@pytest.mark.parametrize("preset", ["monopole", "antimonopole", "trivial"])
def test_projector_map_on_vertex_array_matches_point_by_point(preset):
    proj = BUNDLE_PRESETS[preset][0]
    for level in range(6):
        verts, _ = icosphere(level)
        assert np.array_equal(proj(verts), np.array([proj(v) for v in verts]))


def test_bundle_from_map_calls_the_map_once():
    calls = []

    def counted(xi):
        calls.append(xi.shape)
        return monopole_projector(xi)

    b = bundle_from_map(counted, 3)
    assert calls == [(642, 3)]
    assert b.projectors.shape == (642, 2, 2)
    # a map that returns one matrix, whatever it is given, is refused
    single = lambda xi: np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError):
        bundle_from_map(single, 1)


def test_obstruction_demo_flags():
    mono = obstruction_demo(monopole_projector, level=3)
    assert mono["hyperbolic_everywhere"]
    assert mono["chern_number"] == 1
    assert mono["obstructed"]
    assert mono["rounding_residual"] < 0.05
    triv = obstruction_demo(trivial_projector, level=2)
    assert triv["hyperbolic_everywhere"]
    assert not triv["obstructed"]
