"""hp-adaptive cG/dG time stepping with a posteriori blow-up detection."""

from .adapt import (
    AdaptConfig,
    IntervalRecord,
    Mode,
    RunResult,
    SmoothnessReport,
    Termination,
    h_adapt,
    hp_adapt,
    smoothness,
)
from .estimator import (
    DeltaNotFound,
    DeltaSolverConfig,
    StepEstimate,
    effectivity,
    error_bound,
    phi,
    projection_estimator,
    psi_update,
    reconstruction_error,
    residual_estimator,
    solve_delta,
)
from .galerkin import PicardConfig, Scheme, StepFailure, StepInput, StepOutput, reconstruct, step
from .poly import Interval, LocalPoly, QuadRule, gauss_legendre, l2_project
from .problems import (
    NumericOverflow,
    Problem,
    builtin_problem,
    make_exponential,
    make_linear,
    make_power_square,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptConfig",
    "DeltaNotFound",
    "DeltaSolverConfig",
    "Interval",
    "IntervalRecord",
    "LocalPoly",
    "Mode",
    "NumericOverflow",
    "PicardConfig",
    "Problem",
    "QuadRule",
    "RunResult",
    "Scheme",
    "SmoothnessReport",
    "StepEstimate",
    "StepFailure",
    "StepInput",
    "StepOutput",
    "Termination",
    "builtin_problem",
    "effectivity",
    "error_bound",
    "gauss_legendre",
    "h_adapt",
    "hp_adapt",
    "l2_project",
    "make_exponential",
    "make_linear",
    "make_power_square",
    "phi",
    "projection_estimator",
    "psi_update",
    "reconstruct",
    "reconstruction_error",
    "residual_estimator",
    "smoothness",
    "solve_delta",
    "step",
]
