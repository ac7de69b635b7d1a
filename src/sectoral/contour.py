"""Spectral-cut contours and quadrature rules.

The one contour is the sector cut Gamma_+ made of two rays and an arc of
radius R, traversed inward along the ray at angle alpha1, along the arc
with decreasing angle, then outward along the ray at angle alpha2.

Quadrature is composite Gauss-Legendre.  On each ray the substitution
r = R/u maps [R, lambda_max] to a bounded u-interval on which integrands
decaying like r^-2 are smooth; geometric panels in u keep the node count
low.  Weights carry d(lambda) including traversal direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from .errors import InvalidAngles, InvalidRadii, SpectrumOnContour

TWO_PI = 2.0 * math.pi

# the one quadrature rule: 8 arc panels and 24 geometric panels per ray of
# Gauss-Legendre order 16 (896 nodes), the rays cut at 1e6 R; the order-16
# nodes/weights on [-1, 1] are shared read-only (every rule is built from
# fresh arrays)
PANELS_ARC = 8
PANELS_RAY = 24
LAMBDA_MAX_FACTOR = 1e6
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(16)
_GAUSS_X.flags.writeable = False
_GAUSS_W.flags.writeable = False
# a spectrum within this distance of the contour is refused
CLEARANCE_MIN = 1e-6
# sector_phi shifts, inverts and sums the nodes in blocks of about this many
# bytes of shifted copies and inverses; a single matrix in blocks of at
# least 16 nodes: numpy's reduce of a few long rows costs several adds (2
# rows of 16,641 entries: 10.6 us against 3.7 us for one add)
_BLOCK_BYTES = 2 ** 18


@dataclass(frozen=True)
class ContourSpec:
    alpha1: float
    alpha2: float
    R: float

    def __post_init__(self):
        if not (math.isfinite(self.R) and self.R > 0
                and math.isfinite(LAMBDA_MAX_FACTOR * self.R)):
            raise InvalidRadii(f"R and 1e6 R must be positive and finite, "
                               f"got {self.R}")
        if not (math.isfinite(self.alpha1) and math.isfinite(self.alpha2)):
            raise InvalidAngles(f"sector angles must be finite, got "
                                f"({self.alpha1}, {self.alpha2})")
        if not 0.0 < self.theta < TWO_PI:
            raise InvalidAngles(f"degenerate sector: (alpha1 - alpha2) mod "
                                f"2pi = {self.theta}")

    @property
    def theta(self) -> float:
        """Arc opening (alpha1 - alpha2) mod 2*pi, in (0, 2*pi)."""
        return (self.alpha1 - self.alpha2) % TWO_PI

    @property
    def lambda_max(self) -> float:
        """Modulus at which the quadrature rule cuts the rays."""
        return LAMBDA_MAX_FACTOR * self.R

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray
    truncation_error_estimate: float


def make_sector_contour(alpha1, alpha2, R) -> ContourSpec:
    return ContourSpec(alpha1=float(alpha1), alpha2=float(alpha2), R=float(R))


def _composite_gauss(edges):
    """Order-16 Gauss-Legendre nodes/weights on each panel, in panel order."""
    mid = 0.5 * (edges[:-1] + edges[1:])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    return (mid + half * _GAUSS_X).ravel(), (half * _GAUSS_W).ravel()


def quad_nodes(c: ContourSpec) -> QuadratureRule:
    """Composite Gauss-Legendre rule along the contour, weights = d(lambda)."""
    # Rays: geometric panels in u = R/r from u_min = R/lambda_max to 1;
    # lambda = (R/u) e^{i alpha}, |d(lambda)| = (R/u^2) du.  Ray alpha1 runs
    # inward (u increasing), ray alpha2 outward (the sign of du flipped).
    edges = np.geomspace(c.R / c.lambda_max, 1.0, PANELS_RAY + 1)
    u, wu = _composite_gauss(edges)
    e1 = np.exp(1j * c.alpha1)
    e2 = np.exp(1j * c.alpha2)
    # Arc: lambda = R e^{i(a1 - t)}, t in [0, theta] increasing.
    t, wt = _composite_gauss(np.linspace(0.0, c.theta, PANELS_ARC + 1))
    arc = c.R * np.exp(1j * (c.alpha1 - t))
    nodes = np.concatenate(((c.R / u) * e1, arc, (c.R / u) * e2))
    weights = np.concatenate((wu * (-c.R / u**2) * e1, wt * (-1j) * arc,
                              wu * (c.R / u**2) * e2))

    # Resolution indicator: outermost ray panel's contribution to the model
    # integrand r^-2 (both rays).
    r_hi, r_lo = c.R / edges[0], c.R / edges[1]
    trunc = 2.0 * abs(1.0 / r_lo - 1.0 / r_hi)
    return QuadratureRule(nodes, weights, float(trunc))


def ray_tail_moments(c: ContourSpec):
    """Analytic tail of the truncated rays for integrands with expansion
    f(lambda) ~ c2/lambda^2 + c3/lambda^3: the missing contribution is
    c2*m2 + c3*m3 with the moments returned here."""
    L = c.lambda_max
    m2 = (np.exp(-1j * c.alpha2) - np.exp(-1j * c.alpha1)) / L
    m3 = (np.exp(-2j * c.alpha2) - np.exp(-2j * c.alpha1)) / (2.0 * L**2)
    return complex(m2), complex(m3)


def sector_phi(X, c: ContourSpec, inverse) -> tuple:
    """Phi(X) = integral over Gamma_+ of lambda^{-1} (X - lambda)^{-1} by
    the rule quad_nodes(c), plus the analytic tail of the truncated rays:
    lambda^{-1} (X - lambda)^{-1} ~ -I/lambda^2 - X/lambda^3.  X is one
    N x N matrix or a (..., N, N) stack.  This is the quadrature node loop
    of the package: for each block of k consecutive nodes, `inverse` gets
    the (k, *X.shape) array of the shifted copies X - lambda_j I and
    returns their inverses (per N x N matrix, whatever the leading axes),
    leaving its argument unchanged.  k is set so that a block's shifted
    copies and inverses take about _BLOCK_BYTES, at least 16 nodes for a
    single matrix and one for a stack.  The node inverses are summed in
    node order, a block at a time, with the bits of the plain running sum.
    Returns (Phi, rule)."""
    rule = quad_nodes(c)
    n_nodes = len(rule.nodes)
    coefs = rule.weights / rule.nodes
    # a row of at least 2 entries: numpy sums over rows in row order then
    # (a lone contiguous axis it sums pairwise)
    width = max(2, X.size)
    k = min(n_nodes, max(_BLOCK_BYTES // (32 * width),
                         16 if X.ndim == 2 else 1))
    # X - lambda I without temporaries of X's size: k shifted copies of X
    # whose diagonals are rewritten at every block
    shifted = np.repeat(np.asarray(X, dtype=complex)[None], k, axis=0)
    diag = np.einsum("...ii->...i", shifted)
    base = diag[0].copy()
    # row 0 holds the running sum, rows 1.. a block's scaled inverses
    store = np.zeros((k + 1, width), dtype=complex)
    inverses = store[:, :X.size].reshape((k + 1,) + X.shape)
    for start in range(0, n_nodes, k):
        m = min(k, n_nodes - start)
        lams = rule.nodes[start:start + m]
        scale = coefs[start:start + m].reshape((-1,) + (1,) * X.ndim)
        np.subtract(base, lams.reshape(scale.shape[:-1]), out=diag[:m])
        np.multiply(scale, inverse(shifted[:m]), out=inverses[1:m + 1])
        np.add.reduce(store[:m + 1], axis=0, out=store[0])
    phi = inverses[0]
    m2, m3 = ray_tail_moments(c)
    return phi - m2 * np.eye(X.shape[-1], dtype=complex) - m3 * X, rule


def ray_distance(z, alpha: float, start: float = 0.0) -> np.ndarray:
    """Elementwise distance from z to the ray {r e^{i alpha} : r >= start}."""
    w = np.asarray(z) * np.exp(-1j * alpha)
    return np.where(w.real >= start, np.abs(w.imag), np.abs(w - start))


def point_contour_distance(z, c: ContourSpec) -> np.ndarray:
    """Elementwise analytic distance from z to the contour (not to the
    nodes): the nearer of the truncated rays
    {r e^{i alpha} : r >= R} and the arc {R e^{i(alpha1 - t)} : t in
    [0, theta]}, whose distance is ||z| - R| where arg z lies on the arc
    and the distance to the nearer arc end elsewhere."""
    z = np.asarray(z, dtype=complex)
    on_arc = (c.alpha1 - np.angle(z)) % TWO_PI <= c.theta
    ends = np.minimum(np.abs(z - c.R * np.exp(1j * c.alpha1)),
                      np.abs(z - c.R * np.exp(1j * c.alpha2)))
    arc = np.where(on_arc, np.abs(np.abs(z) - c.R), ends)
    return np.minimum(np.minimum(ray_distance(z, c.alpha1, c.R),
                                 ray_distance(z, c.alpha2, c.R)), arc)


def validate_contour(values, c: ContourSpec) -> float:
    """Minimal distance from the eigenvalues `values` to the contour;
    raises SpectrumOnContour when it is at most CLEARANCE_MIN."""
    clearance = float(point_contour_distance(values, c).min())
    if clearance <= CLEARANCE_MIN:
        raise SpectrumOnContour(clearance)
    return clearance
