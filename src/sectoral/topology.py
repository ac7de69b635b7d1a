"""Executable topology of hyperbolic symbols.

Component classification of matrices without imaginary-axis spectrum,
spectral flow of matrix paths as the endpoint component-index difference,
the one-ray spectral deformation check, and the first Chern number of a
family of projections over S^2 computed by the gauge-invariant lattice
field-strength (plaquette overlap-phase) method on an icosphere grid.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import linalg
from .contour import ray_distance
from .errors import EigenvalueOnAxis, RoundingUnsafe

AXIS_CLEARANCE = 1e-6
ROUNDING_LIMIT = 0.05


def component_index(a) -> int:
    """Number of eigenvalues with positive real part (with algebraic
    multiplicity); labels the connected component of the space of
    hyperbolic matrices."""
    values = np.linalg.eigvals(linalg.as_matrix(a))
    min_clear = float(np.abs(values.real).min())
    if min_clear <= AXIS_CLEARANCE:
        raise EigenvalueOnAxis(
            f"eigenvalue within {min_clear:.3e} of the imaginary axis")
    return int(np.count_nonzero(values.real > 0))


def spectral_flow(path: Callable[[float], np.ndarray]) -> int:
    """Net rightward eigenvalue flow across the imaginary axis along the
    matrix path t -> path(t), 0 <= t <= 1: the endpoint difference of
    component indices.  Only the endpoints are read; each must clear the
    axis."""
    return component_index(path(1.0)) - component_index(path(0.0))


def seeley_one_ray_deformation(xi):
    """The deformed scalar symbol: xi for |xi| >= 1, the unit-circle arc
    e^{-i(1-xi) pi/2} through -i for |xi| < 1.  Continuous at the seams
    and avoiding the single ray L_{pi/2}."""
    xi = np.asarray(xi, dtype=float)
    inner = np.exp(-1j * (1.0 - xi) * (np.pi / 2.0))
    return np.where(np.abs(xi) >= 1.0, xi.astype(complex), inner)


def seeley_deformation_check(grid, cut: str = "single_ray") -> dict:
    """Minimum distance of the deformed symbol's values to the spectral
    cut.  For the single ray L_{pi/2} the check passes (distance bounded
    away from 0); for the two-ray cut (the whole imaginary axis) the
    deformation crosses the cut and the check reports the violation."""
    grid = np.asarray(grid, dtype=float)
    vals = seeley_one_ray_deformation(grid)
    if cut == "single_ray":
        d = ray_distance(vals, np.pi / 2.0)
    elif cut == "imaginary_axis":
        d = np.minimum(ray_distance(vals, np.pi / 2.0),
                       ray_distance(vals, -np.pi / 2.0))
    else:
        raise ValueError(f"unknown cut {cut!r}")
    min_distance = float(d.min())
    return {"min_distance": min_distance, "passing": min_distance > 1e-12}


# ---------------------------------------------------------------------------
# icosphere grid and Chern numbers

_PHI = (1.0 + math.sqrt(5.0)) / 2.0

_ICO_VERTS = np.array([
    (-1, _PHI, 0), (1, _PHI, 0), (-1, -_PHI, 0), (1, -_PHI, 0),
    (0, -1, _PHI), (0, 1, _PHI), (0, -1, -_PHI), (0, 1, -_PHI),
    (_PHI, 0, -1), (_PHI, 0, 1), (-_PHI, 0, -1), (-_PHI, 0, 1),
], dtype=float)

# counterclockwise seen from outside
_ICO_FACES = [
    (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
    (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
    (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
    (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
]


def icosphere(level: int):
    """Subdivided icosahedron projected to the unit sphere.

    Returns (vertices, triangles) with consistently outward-oriented
    triangles; no coordinate poles, uniform triangle quality.  Each level
    appends the edge midpoints in the order of their sorted edges.
    """
    if level < 0:
        raise ValueError(f"icosphere level must be >= 0, got {level}")
    verts = _ICO_VERTS / np.linalg.norm(_ICO_VERTS, axis=1, keepdims=True)
    faces = np.array(_ICO_FACES)
    for _ in range(level):
        V = len(verts)
        # edges (i, j), (j, k), (k, i) of every face, keyed lo * V + hi
        ends = np.sort(np.stack([faces, np.roll(faces, -1, axis=1)]), axis=0)
        keys, mid = np.unique(ends[0] * V + ends[1], return_inverse=True)
        m = verts[keys // V] + verts[keys % V]
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        verts = np.vstack([verts, m])
        (i, j, k), (a, b, c) = faces.T, (V + mid.reshape(faces.shape)).T
        faces = np.stack([i, a, c, j, b, a, k, c, b, a, b, c],
                         axis=1).reshape(-1, 3)
    return verts, faces


@dataclass
class SphereBundleSample:
    """A family of Hermitian projections sampled on an icosphere grid."""

    vertices: np.ndarray       # (V, 3) unit vectors
    triangles: np.ndarray      # (T, 3) oriented vertex indices
    projectors: np.ndarray     # (V, N, N)

    @functools.cached_property
    def spectrum(self) -> tuple:
        """The one eigh of the family: eigenvalues (V, N), eigenvectors."""
        return np.linalg.eigh(self.projectors)

    def validate(self):
        """Constant rank; Hermitian is tested first: eigh reads a triangle."""
        P = self.projectors
        if (np.linalg.norm(P - P.conj().transpose(0, 2, 1),
                           axis=(1, 2)) > 1e-10).any():
            raise ValueError("projector family not Hermitian to tolerance")
        w = self.spectrum[0]
        if (np.abs(w * w - w) > 1e-10).any():
            raise ValueError("projector family not idempotent to tolerance")
        ranks = np.unique(np.count_nonzero(w > 0.5, axis=1))
        if len(ranks) != 1:
            raise ValueError(f"projector rank not constant: {ranks.tolist()}")
        return int(ranks[0])


def bundle_from_map(proj: Callable[[np.ndarray], np.ndarray],
                    level: int = 3) -> SphereBundleSample:
    """Sample the projector map, which takes (..., 3) points to (..., N, N)
    projections, in one call on the vertex array of icosphere(level)."""
    verts, tris = icosphere(level)
    projectors = np.asarray(proj(verts))
    if projectors.shape != (len(verts),) + projectors.shape[-1:] * 2:
        raise ValueError(f"projector map returned shape {projectors.shape}"
                         f" for {len(verts)} vertices, not (V, N, N)")
    return SphereBundleSample(verts, tris, projectors)


def _plaquette_chern(b: SphereBundleSample, strict: bool = True) -> tuple:
    """One plaquette pass: validate the bundle, frame ran P at each vertex,
    and sum arg det(F_i^* F_j F_j^* F_k F_k^* F_i) over the oriented
    triangles.  Returns (nearest integer to the sum / 2 pi, distance to
    it); with `strict`, raises RoundingUnsafe if that distance is not
    below ROUNDING_LIMIT."""
    rank = b.validate()
    if rank == 0:
        return 0, 0.0
    # orthonormal frame of ran P per vertex (top-`rank` eigenvectors)
    F = b.spectrum[1][..., -rank:]
    Fh = F.conj().transpose(0, 2, 1)
    i, j, k = b.triangles.T
    m = (Fh[i] @ F[j]) @ (Fh[j] @ F[k]) @ (Fh[k] @ F[i])
    c = float(np.angle(np.linalg.det(m)).sum()) / (2.0 * np.pi)
    residual = abs(c - round(c))
    if strict and residual >= ROUNDING_LIMIT:
        raise RoundingUnsafe(residual)
    return int(round(c)), residual


def chern_number(b: SphereBundleSample) -> int:
    """First Chern number of ran P: the plaquette overlap-phase sum of
    _plaquette_chern divided by 2*pi.  Gauge invariant by construction;
    raises RoundingUnsafe if the sum is not close to an integer."""
    return _plaquette_chern(b)[0]


def chern_rounding_residual(b: SphereBundleSample) -> float:
    return _plaquette_chern(b, strict=False)[1]


# sigma_x, sigma_y, sigma_z
PAULI = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                 dtype=complex)


def monopole_projector(xi: np.ndarray) -> np.ndarray:
    """P(xi) = (I + xi . sigma) / 2, rank 1 on the unit sphere."""
    return 0.5 * (np.eye(2) + np.tensordot(xi, PAULI, axes=1))


def antimonopole_projector(xi: np.ndarray) -> np.ndarray:
    return monopole_projector(np.negative(xi))


def trivial_projector(xi: np.ndarray) -> np.ndarray:
    return np.diag([1.0, 0j]) + np.zeros(np.shape(xi)[:-1] + (1, 1))


BUNDLE_PRESETS = {
    "monopole": (monopole_projector,
                 "P(xi) = (I + xi.sigma)/2; Chern number +1, obstructed"),
    "antimonopole": (antimonopole_projector,
                     "P(xi) = (I - xi.sigma)/2; Chern number -1, obstructed"),
    "trivial": (trivial_projector,
                "constant rank-1 projector; Chern number 0, extendable"),
}


def obstruction_demo(proj: Callable[[np.ndarray], np.ndarray],
                     level: int = 3) -> dict:
    """Appendix-style obstruction report for the projector map xi -> P(xi)
    (a BUNDLE_PRESETS entry): build a(xi) = 2 P(xi) - I on the sphere grid,
    confirm it is hyperbolic everywhere (spec = {-1, +1}, both imaginary
    half-axes clear), compute the Chern number of the positive spectral
    bundle, and flag the extension obstruction when the Chern number is
    nonzero."""
    sample = bundle_from_map(proj, level)
    chern, residual = _plaquette_chern(sample)
    values = 2.0 * sample.spectrum[0] - 1.0  # the eigenvalues of 2P - I
    spec_ok = bool(np.allclose(np.abs(values), 1.0, atol=1e-9))
    return {
        "fiber_dim": sample.projectors.shape[-1],
        "grid_level": level,
        "hyperbolic_everywhere": spec_ok,
        "chern_number": chern,
        "rounding_residual": residual,
        "obstructed": chern != 0,
    }
