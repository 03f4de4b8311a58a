"""Unified predictor-corrector solvers for diffusion ODEs.

Fast deterministic sampling of diffusion probability-flow ODEs via
arbitrary-order exponential-integrator predictor-corrector steps in
half-log-SNR time, for both noise- and data-prediction models, plus a
convergence-study harness (see the `unipc` CLI).
"""

from .coeffs import bh_value, psi, varphi
from .errors import (
    DomainError,
    FitError,
    InsufficientHistoryError,
    NumericError,
    ReferenceAccuracyError,
    SingularSystemError,
    UniPCError,
    ValidationError,
)
from .model import (
    ModelEvaluator,
    SyntheticModel,
    convert_parameterization,
    dynamic_threshold,
    exact_solution_xfree,
)
from .schedule import NoiseSchedule, TimeGrid, make_time_grid
from .solver import (
    SampleResult,
    SolverConfig,
    SolverState,
    Thresholding,
    correct,
    ddim_step,
    sample,
)
from .study import ConvergenceStudy, OrderFit, emit, fit_order, reference_solution, run_study

__version__ = "0.1.0"

__all__ = [
    "ConvergenceStudy",
    "DomainError",
    "FitError",
    "InsufficientHistoryError",
    "ModelEvaluator",
    "NoiseSchedule",
    "NumericError",
    "OrderFit",
    "ReferenceAccuracyError",
    "SampleResult",
    "SingularSystemError",
    "SolverConfig",
    "SolverState",
    "SyntheticModel",
    "Thresholding",
    "TimeGrid",
    "UniPCError",
    "ValidationError",
    "bh_value",
    "convert_parameterization",
    "correct",
    "ddim_step",
    "dynamic_threshold",
    "emit",
    "exact_solution_xfree",
    "fit_order",
    "make_time_grid",
    "psi",
    "reference_solution",
    "run_study",
    "sample",
    "varphi",
]
