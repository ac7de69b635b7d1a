"""Sectorial spectral projections of non-self-adjoint matrices and
discretized 1-D periodic elliptic operators, with decay-law experiments
and topological obstruction invariants.

Main entry points:

- :mod:`sectoral.contour` — spectral-cut contours and quadrature rules
- :mod:`sectoral.projections` — sectorial projections, powers
- :mod:`sectoral.symbol1d` — Fourier discretization and symbol calculus
- :mod:`sectoral.experiments` — sampled decay laws and continuity fits
- :mod:`sectoral.topology` — component index, spectral flow, Chern numbers
- :mod:`sectoral.presets` — the named operator/symbol/bundle library
- :mod:`sectoral.cli` — the ``sectoral`` command
"""

from .contour import (ContourSpec, make_sector_contour, point_contour_distance,
                      quad_nodes, validate_contour)
from .errors import SectoralError
from .experiments import (ExperimentReport, SplitOperator, boundedness_check,
                          composition_gap_experiment, fit_loglog,
                          parametrix_gap_experiment, perturbation_experiment,
                          resolvent_decay_experiment, seminorm_pc)
from .projections import (ProjectionResult, aps_projection, complex_power,
                          eigen_projection_oracle, riesz_transform,
                          schur_projection, sectorial_projection,
                          wodzicki_residual)
from .symbol1d import (CutoffFunction, DiscretizedOperator, SymbolFunction,
                       op_from_symbol, parametrix_phi0, sobolev_op_norm)
from .topology import (chern_number, component_index, obstruction_demo,
                       seeley_deformation_check, spectral_flow)

__version__ = "0.1.0"

__all__ = [
    "ContourSpec", "make_sector_contour", "point_contour_distance",
    "quad_nodes", "validate_contour", "SectoralError", "ExperimentReport",
    "SplitOperator", "boundedness_check", "composition_gap_experiment",
    "fit_loglog", "parametrix_gap_experiment", "perturbation_experiment",
    "resolvent_decay_experiment", "seminorm_pc", "ProjectionResult",
    "aps_projection", "complex_power", "eigen_projection_oracle",
    "riesz_transform", "schur_projection", "sectorial_projection",
    "wodzicki_residual",
    "CutoffFunction", "DiscretizedOperator", "SymbolFunction",
    "op_from_symbol", "parametrix_phi0", "sobolev_op_norm", "chern_number",
    "component_index", "obstruction_demo", "seeley_deformation_check",
    "spectral_flow", "__version__",
]
