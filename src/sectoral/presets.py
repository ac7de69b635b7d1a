"""Named preset library: operators, symbols, perturbations, composition-gap
symbol pairs, the standard contour and matrix paths.

Presets are the only way operators and symbols enter through the CLI;
arbitrary expressions are out of scope.  Each registry maps a name that a
subcommand accepts to a factory plus a description for ``list-presets``;
``REGISTRIES`` holds them all, the sphere bundles of
``topology.BUNDLE_PRESETS`` included, and ``lookup`` resolves a name.
"""
from __future__ import annotations

import numpy as np

from . import topology
from .contour import ContourSpec, make_sector_contour
from .errors import ConfigInvalid
from .experiments import SplitOperator
from .symbol1d import (CutoffFunction, DiscretizedOperator, SymbolFunction,
                       _combine, _pointwise_product, cutoff_resolvent_symbol,
                       op_from_symbol)

# ---------------------------------------------------------------------------
# symbol library

def symbol_xi() -> SymbolFunction:
    # independent of theta: the xi column itself, a Fourier multiplier
    f = lambda theta, xi: xi
    return SymbolFunction(order=1, evaluate=f, principal=f, name="xi")


def symbol_c_theta_times_xi() -> SymbolFunction:
    f = lambda theta, xi: (2.0 + np.cos(theta)) * xi + 0j
    return SymbolFunction(order=1, evaluate=f, principal=f,
                          name="c_theta_times_xi")


def symbol_pauli_monopole() -> SymbolFunction:
    sx, sy = topology.PAULI[0], topology.PAULI[1]

    def evaluate(theta, xi):
        theta = np.asarray(theta, float)[..., None, None]
        return np.asarray(xi, float)[..., None, None] * (
            np.cos(theta) * sx + np.sin(theta) * sy) + 0j

    return SymbolFunction(order=1, evaluate=evaluate, principal=evaluate,
                          fiber_dim=2, name="pauli_monopole")


# ---------------------------------------------------------------------------
# operator presets (factories take the mode cutoff K)

def op_dtheta(K: int) -> DiscretizedOperator:
    return op_from_symbol(symbol_xi(), K)


def op_dtheta_shift(K: int) -> DiscretizedOperator:
    return op_from_symbol(_combine(symbol_xi(), 0.3), K)


def op_variable_coeff(K: int) -> DiscretizedOperator:
    return op_from_symbol(symbol_c_theta_times_xi(), K)


def op_variable_coeff_shift(K: int) -> DiscretizedOperator:
    return op_from_symbol(_combine(symbol_c_theta_times_xi(), 0.3), K)


def op_variable_coeff_m2(K: int) -> DiscretizedOperator:
    f = lambda theta, xi: ((2.0 + np.cos(np.asarray(theta, float)))
                           * xi * xi + 0j)
    sym = SymbolFunction(order=2, evaluate=f, principal=f,
                         name="c_theta_times_xi2")
    return op_from_symbol(_combine(sym, 1.0), K)


OPERATOR_PRESETS = {
    "dtheta": (op_dtheta, "-i d/dtheta on the circle; spectrum = integers"),
    "dtheta_shift": (op_dtheta_shift,
                     "-i d/dtheta + 0.3; spectrum = integers + 0.3, "
                     "clear of 0 and of the imaginary axis"),
    "variable_coeff": (op_variable_coeff,
                       "Op((2+cos theta) xi); spectrum = sqrt(3) * integers"),
    "variable_coeff_shift": (op_variable_coeff_shift,
                             "Op((2+cos theta) xi) + 0.3, kernel-free"),
    "variable_coeff_m2": (op_variable_coeff_m2,
                          "Op((2+cos theta) xi^2 + 1), order 2, positive"),
}

# ---------------------------------------------------------------------------
# perturbation presets (split form)

def perturbation_cos_theta_lower(K: int) -> SplitOperator:
    f = lambda theta, xi: np.cos(np.asarray(theta, float)) + 0j
    sym = SymbolFunction(order=0, evaluate=f, principal=f, name="cos_theta")
    return SplitOperator(m=1.0, K=K, lower=op_from_symbol(sym, K).matrix)


PERTURBATION_PRESETS = {
    "cos_theta_lower": (perturbation_cos_theta_lower,
                        "lower-order multiplication by cos theta "
                        "(split form: no principal part)"),
}

# ---------------------------------------------------------------------------
# composition-gap symbol pairs (factories take the cutoff radius rho and
# return the lambda-dependent families f and g, the order r of f, the order
# m of the resolvent and the slope tolerance: (f, g, r, m, tolerance))

def _cutoff_resolvent_family(a: SymbolFunction, rho: float):
    psi = CutoffFunction(rho)
    return lambda lam: cutoff_resolvent_symbol(a, psi, lam)


def pair_resolvent(rho: float) -> tuple:
    am = symbol_c_theta_times_xi()
    f_family = lambda lam: _combine(am, -lam)
    return f_family, _cutoff_resolvent_family(am, rho), 1.0, 1.0, 0.15


def pair_multiplier(rho: float) -> tuple:
    xi = symbol_xi()
    f_family = lambda lam: _combine(xi, -lam)
    return f_family, _cutoff_resolvent_family(xi, rho), 1.0, 1.0, 0.15


def pair_order_zero(rho: float) -> tuple:
    g_family = _cutoff_resolvent_family(symbol_c_theta_times_xi(), rho)
    b = lambda theta, xi: np.exp(1j * np.asarray(theta, float)) * xi
    phase_xi = SymbolFunction(order=1, evaluate=b, principal=b,
                              name="e^{i theta} xi")
    f_family = lambda lam: _pointwise_product(g_family(lam), phase_xi)
    return f_family, g_family, 0.0, 1.0, 0.2


PAIR_PRESETS = {
    "resolvent_pair": (pair_resolvent,
                       "f = (2+cos theta) xi - lambda, g = its cutoff "
                       "resolvent symbol; gap slope -1"),
    "multiplier_pair": (pair_multiplier,
                        "f = xi - lambda, g = psi(xi)/(xi - lambda): "
                        "commuting multipliers, gap identically 0"),
    "order_zero_pair": (pair_order_zero,
                        "f = g e^{i theta} xi of order 0, g = the cutoff "
                        "resolvent symbol; gap slope -1"),
}

# ---------------------------------------------------------------------------
# the standard contour

def contour_imag(R: float = 0.5) -> ContourSpec:
    """Sector contour cut along the imaginary axis (rays at +-pi/2); the
    positive sector is the right half-plane."""
    return make_sector_contour(np.pi / 2, -np.pi / 2, R)


# ---------------------------------------------------------------------------
# matrix path presets

def path_crossing(t: float) -> np.ndarray:
    return np.diag([t - 0.5 + 0j, -1.0 + 0j])


def path_constant(t: float) -> np.ndarray:
    return np.diag([1.0 + 0j, -1.0 + 0j])


def path_loop(t: float) -> np.ndarray:
    return np.diag([1.0 + 0.5 * np.exp(2j * np.pi * t), -1.0 + 0j])


PATH_PRESETS = {
    "crossing": (path_crossing,
                 "diag(t-1/2, -1): one eigenvalue crosses the axis at t=1/2"),
    "constant": (path_constant, "diag(1, -1), no crossings"),
    "loop": (path_loop,
             "closed loop diag(1 + 0.5 e^{2 pi i t}, -1); flow 0"),
}

# every name a subcommand accepts, by the registry it is looked up in
REGISTRIES = {
    "operators": OPERATOR_PRESETS,
    "perturbations": PERTURBATION_PRESETS,
    "pairs": PAIR_PRESETS,
    "paths": PATH_PRESETS,
    "bundles": topology.BUNDLE_PRESETS,
}


def lookup(title: str, key: str, name: str):
    """The factory registered as `name` in REGISTRIES[title]; an unknown
    name is refused as ConfigInvalid on the configuration key `key`."""
    registry = REGISTRIES[title]
    if name not in registry:
        raise ConfigInvalid(key, f"unknown name {name!r} in {title}; "
                                 f"choose from {sorted(registry)}")
    return registry[name][0]


def get_operator(name: str, K: int) -> DiscretizedOperator:
    return lookup("operators", "preset", name)(K)


def describe_presets() -> str:
    """Human-readable registry listing, one line per preset."""
    lines = []
    for title, registry in REGISTRIES.items():
        lines.append(f"[{title}]")
        for name, (_, desc) in sorted(registry.items()):
            lines.append(f"  {name}: {desc}")
    return "\n".join(lines) + "\n"
