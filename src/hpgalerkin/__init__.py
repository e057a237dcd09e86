"""hp-adaptive cG/dG time stepping with a posteriori blow-up detection."""

from .adapt import (
    AdaptConfig,
    IntervalRecord,
    Mode,
    RunResult,
    Termination,
    h_adapt,
    hp_adapt,
    run_errors,
    smoothness,
)
from .estimator import (
    DeltaNotFound,
    StepEstimate,
    psi_update,
    reconstruction_error,
    residual_estimator,
    solve_delta,
)
from .galerkin import PicardConfig, Scheme, StepFailure, StepInput, StepOutput, reconstruct, step
from .poly import Interval, LocalPoly
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
    "Interval",
    "IntervalRecord",
    "LocalPoly",
    "Mode",
    "NumericOverflow",
    "PicardConfig",
    "Problem",
    "RunResult",
    "Scheme",
    "StepEstimate",
    "StepFailure",
    "StepInput",
    "StepOutput",
    "Termination",
    "builtin_problem",
    "h_adapt",
    "hp_adapt",
    "make_exponential",
    "make_linear",
    "make_power_square",
    "psi_update",
    "reconstruct",
    "reconstruction_error",
    "residual_estimator",
    "run_errors",
    "smoothness",
    "solve_delta",
    "step",
]
