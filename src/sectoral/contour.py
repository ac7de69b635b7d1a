"""Spectral-cut contours and quadrature rules.

Two contour kinds are supported: the sector cut made of two rays and an
arc of radius R (traversed inward along the ray at angle alpha1, along the
arc with decreasing angle, then outward along the ray at angle alpha2),
and a closed circle traversed counterclockwise.

Quadrature is composite Gauss-Legendre.  On each ray the substitution
r = R/u maps [R, lambda_max] to a bounded u-interval on which integrands
decaying like r^-2 are smooth; geometric panels in u keep the node count
low.  Weights carry d(lambda) including traversal direction.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, asdict

import numpy as np

from . import linalg
from .errors import InvalidAngles, InvalidRadii

TWO_PI = 2.0 * math.pi

DEFAULT_PANELS_ARC = 8
DEFAULT_PANELS_RAY = 24
DEFAULT_GAUSS_ORDER = 16
DEFAULT_LAMBDA_MAX_FACTOR = 1e6


@dataclass(frozen=True)
class ContourSpec:
    kind: str  # "sector" or "closed_circle"
    alpha1: float = 0.0
    alpha2: float = 0.0
    R: float = 0.0
    lambda_max: float = 0.0
    center: complex = 0j
    radius: float = 0.0
    panels_arc: int = DEFAULT_PANELS_ARC
    panels_ray: int = DEFAULT_PANELS_RAY
    gauss_order: int = DEFAULT_GAUSS_ORDER

    @property
    def theta(self) -> float:
        """Arc opening (alpha1 - alpha2) mod 2*pi, in (0, 2*pi)."""
        return (self.alpha1 - self.alpha2) % TWO_PI

    def to_dict(self) -> dict:
        d = asdict(self)
        d["center"] = [self.center.real, self.center.imag]
        return d


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    truncation_error_estimate: float


def make_sector_contour(alpha1, alpha2, R, lambda_max=None,
                        panels_arc=DEFAULT_PANELS_ARC,
                        panels_ray=DEFAULT_PANELS_RAY,
                        gauss_order=DEFAULT_GAUSS_ORDER) -> ContourSpec:
    if R <= 0:
        raise InvalidRadii(f"arc radius must be positive, got {R}")
    if lambda_max is None:
        lambda_max = DEFAULT_LAMBDA_MAX_FACTOR * R
    if lambda_max <= R:
        raise InvalidRadii(f"lambda_max ({lambda_max}) must exceed R ({R})")
    theta = (alpha1 - alpha2) % TWO_PI
    if theta <= 0.0 or theta >= TWO_PI:
        raise InvalidAngles(f"degenerate sector: (alpha1 - alpha2) mod 2pi = {theta}")
    if panels_arc < 1 or panels_ray < 1:
        raise ValueError("panel counts must be >= 1")
    if not 2 <= gauss_order <= 64:
        raise ValueError("gauss_order must lie in [2, 64]")
    return ContourSpec(kind="sector", alpha1=float(alpha1), alpha2=float(alpha2),
                       R=float(R), lambda_max=float(lambda_max),
                       panels_arc=panels_arc, panels_ray=panels_ray,
                       gauss_order=gauss_order)


def make_circle_contour(center, radius,
                        panels_arc=DEFAULT_PANELS_ARC,
                        gauss_order=DEFAULT_GAUSS_ORDER) -> ContourSpec:
    if radius <= 0:
        raise InvalidRadii(f"radius must be positive, got {radius}")
    return ContourSpec(kind="closed_circle", center=complex(center),
                       radius=float(radius), panels_arc=panels_arc,
                       gauss_order=gauss_order)


@functools.lru_cache(maxsize=64)
def _gauss_legendre(order):
    """Gauss-Legendre nodes/weights on [-1, 1], computed once per order and
    shared read-only (every rule is built from fresh arrays)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def _panel_gauss(a, b, order):
    """Gauss-Legendre nodes/weights on [a, b]."""
    x, w = _gauss_legendre(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def _ray_u_panels(c: ContourSpec):
    """Geometric panel edges in u = R/r, from u_min = R/lambda_max to 1."""
    u_min = c.R / c.lambda_max
    return np.geomspace(u_min, 1.0, c.panels_ray + 1)


def quad_nodes(c: ContourSpec) -> QuadratureRule:
    """Composite Gauss-Legendre rule along the contour, weights = d(lambda)."""
    if c.kind == "closed_circle":
        nodes, weights = [], []
        edges = np.linspace(0.0, TWO_PI, c.panels_arc + 1)
        for a, b in zip(edges[:-1], edges[1:]):
            phi, w = _panel_gauss(a, b, c.gauss_order)
            z = c.center + c.radius * np.exp(1j * phi)
            nodes.append(z)
            weights.append(w * 1j * c.radius * np.exp(1j * phi))
        return QuadratureRule(np.concatenate(nodes), np.concatenate(weights), 0.0)

    if c.kind != "sector":
        raise ValueError(f"unknown contour kind {c.kind!r}")

    nodes, weights = [], []
    edges = _ray_u_panels(c)
    e1 = np.exp(1j * c.alpha1)
    e2 = np.exp(1j * c.alpha2)

    # Ray alpha1, inward: r from lambda_max down to R, i.e. u increasing.
    # lambda = (R/u) e^{i a1}, d(lambda) = -(R/u^2) e^{i a1} du.
    for a, b in zip(edges[:-1], edges[1:]):
        u, w = _panel_gauss(a, b, c.gauss_order)
        nodes.append((c.R / u) * e1)
        weights.append(w * (-c.R / u**2) * e1)

    # Arc: lambda = R e^{i(a1 - t)}, t in [0, theta] increasing.
    t_edges = np.linspace(0.0, c.theta, c.panels_arc + 1)
    for a, b in zip(t_edges[:-1], t_edges[1:]):
        t, w = _panel_gauss(a, b, c.gauss_order)
        z = c.R * np.exp(1j * (c.alpha1 - t))
        nodes.append(z)
        weights.append(w * (-1j) * z)

    # Ray alpha2, outward: r from R up to lambda_max, i.e. u decreasing;
    # same panels as ray alpha1 with the sign of du flipped.
    for a, b in zip(edges[:-1], edges[1:]):
        u, w = _panel_gauss(a, b, c.gauss_order)
        nodes.append((c.R / u) * e2)
        weights.append(w * (c.R / u**2) * e2)

    # Resolution indicator: outermost ray panel's contribution to the model
    # integrand r^-2 (both rays).
    r_hi, r_lo = c.R / edges[0], c.R / edges[1]
    trunc = 2.0 * abs(1.0 / r_lo - 1.0 / r_hi)
    return QuadratureRule(np.concatenate(nodes), np.concatenate(weights), float(trunc))


def ray_tail_moments(c: ContourSpec):
    """Analytic tail of the truncated rays for integrands with expansion
    f(lambda) ~ c2/lambda^2 + c3/lambda^3: the missing contribution is
    c2*m2 + c3*m3 with the moments returned here."""
    if c.kind != "sector":
        return 0.0j, 0.0j
    L = c.lambda_max
    m2 = (np.exp(-1j * c.alpha2) - np.exp(-1j * c.alpha1)) / L
    m3 = (np.exp(-2j * c.alpha2) - np.exp(-2j * c.alpha1)) / (2.0 * L**2)
    return complex(m2), complex(m3)


def ray_distance(z, alpha: float) -> np.ndarray:
    """Elementwise distance from z to the ray {r e^{i alpha} : r >= 0}."""
    w = np.asarray(z) * np.exp(-1j * alpha)
    return np.where(w.real >= 0, np.abs(w.imag), np.abs(w))


def _dist_to_ray(z: complex, alpha: float, R: float) -> float:
    """Distance from z to the truncated ray {r e^{i alpha} : r >= R}."""
    w = z * np.exp(-1j * alpha)
    if w.real >= R:
        return abs(w.imag)
    return abs(w - R)


def _dist_to_arc(z: complex, c: ContourSpec) -> float:
    """Distance from z to the arc {R e^{i(alpha1 - t)} : t in [0, theta]}."""
    if z == 0:
        return c.R
    t = (c.alpha1 - np.angle(z)) % TWO_PI
    if t <= c.theta:
        return abs(abs(z) - c.R)
    ends = (c.R * np.exp(1j * c.alpha1), c.R * np.exp(1j * c.alpha2))
    return min(abs(z - e) for e in ends)


def point_contour_distance(z: complex, c: ContourSpec) -> float:
    """Analytic distance from a point to the contour (not to the nodes)."""
    z = complex(z)
    if c.kind == "closed_circle":
        return abs(abs(z - c.center) - c.radius)
    return min(_dist_to_ray(z, c.alpha1, c.R),
               _dist_to_ray(z, c.alpha2, c.R),
               _dist_to_arc(z, c))


def validate_contour(A, c: ContourSpec) -> float:
    """Minimal distance from spec(A) to the contour."""
    dec = linalg.eig(A)
    return min(point_contour_distance(z, c) for z in dec.values)
