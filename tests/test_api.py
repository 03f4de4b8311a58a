"""The public API is pinned: growing or shrinking it takes a deliberate edit here."""

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
