"""Graph learning from smooth signals under moment uncertainty.

The package learns a graph Laplacian by minimizing the worst case of the
Laplacian quadratic risk over an uncertainty region around the empirical
signal moments, via projected gradient descent on the edge-weight simplex.
"""

__version__ = "0.1.0"

from .datagen import GeneratedGraph, GraphSpec, SignalSpec, gen_graph, gen_signals
from .evaluation import binarize, confusion, metric_record, nmi, prf
from .harness import ExperimentSummary, ModelPreset, learn, run_experiment
from .laplacian import adjoint, expand, pair_to_linear, validate_simplex
from .moments import (
    EmpiricalMoments,
    RadiusParams,
    empirical_moments,
    expected_risk,
    rho1_radius,
    rho2_radius,
)
from .objective import (
    ModelConfig,
    ObjectiveContext,
    build_context,
    gradient,
    objective_value,
    worst_case_cov_risk,
    worst_case_mean_risk,
)
from .solvers import (
    SolveReport,
    SolverOptions,
    ls_pgd_solve,
    project_simplex,
    stationarity_residual,
)

__all__ = [
    "__version__",
    "GeneratedGraph",
    "GraphSpec",
    "SignalSpec",
    "gen_graph",
    "gen_signals",
    "binarize",
    "confusion",
    "metric_record",
    "nmi",
    "prf",
    "ExperimentSummary",
    "ModelPreset",
    "learn",
    "run_experiment",
    "adjoint",
    "expand",
    "pair_to_linear",
    "validate_simplex",
    "EmpiricalMoments",
    "RadiusParams",
    "empirical_moments",
    "expected_risk",
    "rho1_radius",
    "rho2_radius",
    "ModelConfig",
    "ObjectiveContext",
    "build_context",
    "gradient",
    "objective_value",
    "worst_case_cov_risk",
    "worst_case_mean_risk",
    "SolveReport",
    "SolverOptions",
    "ls_pgd_solve",
    "project_simplex",
    "stationarity_residual",
]
