"""The public API is pinned: growing or shrinking it takes a deliberate edit here."""

import dataclasses
import inspect

import unipc

PUBLIC_NAMES = [
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


def test_public_api_is_pinned():
    assert len(PUBLIC_NAMES) == 32
    assert sorted(unipc.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(unipc, name) is not None


def test_one_step_signatures_are_pinned():
    # per-run options come from a SolverConfig, not from keyword knobs
    assert list(inspect.signature(unipc.correct).parameters) == [
        "sched", "state", "t_next", "x_pred", "p", "model", "config"]
    assert inspect.signature(unipc.correct).parameters["config"].default == unipc.SolverConfig()
    assert list(inspect.signature(unipc.SolverState.push).parameters) == ["self", "t", "output"]
    # a model call may write into the caller's buffer
    call = inspect.signature(unipc.ModelEvaluator.__call__).parameters
    assert list(call) == ["self", "x", "t", "out"] and call["out"].default is None


def test_solver_config_fields_are_pinned():
    # one knob per choice: varying_coefficients alone decides whether every weight is solved
    assert [f.name for f in dataclasses.fields(unipc.SolverConfig)] == [
        "order", "variant", "bh", "prediction", "corrector", "varying_coefficients",
        "order_schedule", "thresholding"]


def test_time_grid_fields_are_pinned():
    # a grid is its times: the schedule it is sampled under maps them to lambda
    assert [f.name for f in dataclasses.fields(unipc.TimeGrid)] == ["times"]
