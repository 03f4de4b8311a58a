"""The public API is pinned: growing or shrinking it takes a deliberate edit here."""

import dataclasses
import inspect
import math
import re
import warnings

import numpy as np
import pytest

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


PAIR = np.array(["noise", "data"])  # two strings: == against a choice gives an array
SCHED = unipc.NoiseSchedule()
STUDY = dict(model=unipc.SyntheticModel.x_free_poly([0.3], 4), schedule=SCHED,
             solver_configs=[unipc.SolverConfig()], step_counts=[4, 5, 6, 7])


@pytest.mark.parametrize("call,what,error", [
    (lambda: unipc.SolverConfig(variant=PAIR), "variant", unipc.ValidationError),
    (lambda: unipc.SolverConfig(bh=PAIR), "bh", unipc.ValidationError),
    (lambda: unipc.SolverConfig(prediction=PAIR), "prediction", unipc.ValidationError),
    (lambda: unipc.SolverConfig(corrector=PAIR), "corrector", unipc.ValidationError),
    (lambda: unipc.NoiseSchedule(kind=PAIR), "schedule kind", unipc.ValidationError),
    (lambda: unipc.make_time_grid(SCHED, 4, PAIR), "skip kind", unipc.ValidationError),
    (lambda: unipc.ModelEvaluator(lambda x, t: x, PAIR, 4), "prediction kind",
     unipc.ValidationError),
    (lambda: unipc.SyntheticModel(PAIR, 1, [[0.3]]), "model family", unipc.ValidationError),
    (lambda: unipc.bh_value(PAIR, 0.5), "B(h) variant", unipc.DomainError),
    (lambda: unipc.reference_solution(STUDY["model"], SCHED, np.ones(4), 1.0, 1e-3, PAIR),
     "reference mode", unipc.ValidationError),
    (lambda: unipc.ConvergenceStudy(**STUDY, error_norm=PAIR), "error norm",
     unipc.ValidationError),
    (lambda: unipc.ConvergenceStudy(**STUDY, reference=PAIR), "reference mode",
     unipc.ValidationError),
    (lambda: unipc.ConvergenceStudy(**STUDY, skip_kind=PAIR), "skip kind", unipc.ValidationError),
    (lambda: unipc.emit(unipc.ConvergenceStudy(**STUDY), "out.csv", PAIR), "emit format",
     unipc.ValidationError),
], ids=["variant", "bh", "prediction", "corrector", "schedule-kind", "skip-kind",
        "evaluator-prediction", "family", "bh_value", "reference-mode", "error-norm",
        "study-reference", "study-skip", "emit-format"])
def test_array_as_a_string_choice_rejected(tmp_path, monkeypatch, call, what, error):
    # each raised numpy's bare ValueError "truth value of an array ... is ambiguous"
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error, match=re.escape(f"unknown {what} array(['noise', 'data']")):
        call()
    assert not list(tmp_path.iterdir())


#: The fixed hostile values the fuzz puts into every argument position, one at a time.
#: 10**5000 has more digits than str and repr convert.
HOSTILE = [None, True, "0.5", 1 + 2j, math.nan, math.inf, 10**400, 10**5000, -1, [], {},
           {1: 2, "x": 3}, object(), np.array([[1.0]]), np.array([0.5, 0.7])]
HOSTILE_IDS = ["none", "bool", "text", "complex", "nan", "inf", "10**400", "10**5000", "-1", "list",
               "dict", "mixed-keys-dict", "object", "1x1-array", "2-array"]


def entry_points():
    """Every public entry point: label -> a function that returns the callable and valid
    arguments for all of its positions, by name, built afresh for each call.  The exception
    classes are left out: they take any message."""
    sched = unipc.NoiseSchedule()
    poly = unipc.SyntheticModel.x_free_poly([0.3, -0.2], 4)
    x = np.linspace(-1.0, 1.0, 4)
    config = unipc.SolverConfig(order=2)

    def evaluator():
        return poly.evaluator(sched)

    def state():
        state = unipc.SolverState(x=x.copy())
        state.push(0.9, np.ones(4))
        state.push(0.8, np.ones(4))
        return state

    def study_fields():
        return dict(model=poly, schedule=sched, solver_configs=[config], step_counts=[4, 5, 6, 7],
                    error_norm="max-abs", reference="closed-form", seed=0,
                    skip_kind="uniform-lambda", oracle_starts=False, results=[])

    study = unipc.run_study(unipc.ConvergenceStudy(**study_fields()))
    forward = {name: (lambda name=name: (getattr(sched, name), dict(t=0.5)))
               for name in ("log_alpha", "alpha", "sigma", "lam", "alpha_sigma_lambda")}
    return {
        "ConvergenceStudy": lambda: (unipc.ConvergenceStudy, study_fields()),
        "ConvergenceStudy.from_json": lambda: (unipc.ConvergenceStudy.from_json, dict(
            cfg={"model": poly.to_json(), "schedule": sched.to_json(),
                 "solvers": [config.to_json()], "step_counts": [4, 5, 6, 7]})),
        "ModelEvaluator": lambda: (unipc.ModelEvaluator, dict(
            fn=lambda x, t: 0.1 * x, prediction="noise", dim=4)),
        "ModelEvaluator.__call__": lambda: (unipc.ModelEvaluator(lambda x, t: 0.1 * x, "noise", 4),
                                            dict(x=x.copy(), t=0.5, out=np.empty(4))),
        "NoiseSchedule": lambda: (unipc.NoiseSchedule, dict(
            kind="vp-linear", beta_min=0.1, beta_max=20.0, cosine_s=0.008, t_start=1.0,
            t_end=1e-3)),
        "NoiseSchedule.from_json": lambda: (unipc.NoiseSchedule.from_json,
                                            dict(spec={"kind": "vp-cosine"})),
        **{f"NoiseSchedule.{name}": call for name, call in forward.items()},
        "NoiseSchedule.t_of_lambda": lambda: (sched.t_of_lambda, dict(lam=0.0)),
        "OrderFit": lambda: (unipc.OrderFit, dict(slope=2.0, intercept=0.0, r_squared=1.0,
                                                  n_used=4)),
        "SampleResult": lambda: (unipc.SampleResult, dict(final=x.copy(), nfe=4, trace=[],
                                                          trajectory=None)),
        "SolverConfig": lambda: (unipc.SolverConfig, dict(
            order=2, variant="multistep", bh="b2", prediction="data", corrector="standard",
            varying_coefficients=False, order_schedule="12", thresholding=unipc.Thresholding())),
        "SolverConfig.from_json": lambda: (unipc.SolverConfig.from_json,
                                           dict(spec=config.to_json())),
        "SolverConfig.resolved_orders": lambda: (config.resolved_orders, dict(M=4)),
        "SolverState": lambda: (unipc.SolverState, dict(x=x.copy(), capacity=3)),
        "SolverState.push": lambda: (state().push, dict(t=0.7, output=np.ones(4))),
        "SyntheticModel": lambda: (unipc.SyntheticModel, dict(
            family="x-free-poly", dim=4, coeffs=np.ones((4, 2)))),
        "SyntheticModel.x_free_poly": lambda: (unipc.SyntheticModel.x_free_poly,
                                               dict(coeffs=[0.3, -0.2], dim=4)),
        "SyntheticModel.linear_in_x": lambda: (unipc.SyntheticModel.linear_in_x,
                                               dict(kappa=0.3, dim=4)),
        "SyntheticModel.from_json": lambda: (unipc.SyntheticModel.from_json,
                                             dict(spec=poly.to_json())),
        "SyntheticModel.evaluator": lambda: (poly.evaluator, dict(sched=sched)),
        "Thresholding": lambda: (unipc.Thresholding, dict(ratio=0.995, floor=1.0)),
        "TimeGrid": lambda: (unipc.TimeGrid, dict(times=[1.0, 0.5, 1e-3])),
        "bh_value": lambda: (unipc.bh_value, dict(bh="b2", h=0.5)),
        "convert_parameterization": lambda: (unipc.convert_parameterization,
                                             dict(m=evaluator(), sched=sched)),
        "correct": lambda: (unipc.correct, dict(
            sched=sched, state=state(), t_next=0.7, x_pred=x.copy(), p=2, model=evaluator(),
            config=config)),
        "ddim_step": lambda: (unipc.ddim_step, dict(sched=sched, x=x.copy(), eps_prev=np.ones(4),
                                                    t_prev=0.8, t_next=0.7)),
        "dynamic_threshold": lambda: (unipc.dynamic_threshold,
                                      dict(x0=3.0 * x, ratio=0.995, floor=1.0)),
        "emit": lambda: (unipc.emit, dict(study=study, path="study.csv", fmt="csv")),
        "exact_solution_xfree": lambda: (unipc.exact_solution_xfree, dict(
            model=poly, sched=sched, x_s=x.copy(), s=0.8, t=0.7)),
        "fit_order": lambda: (unipc.fit_order, dict(step_counts=[4, 8, 16, 32],
                                                    errors=[1e-2, 2.6e-3, 6.1e-4, 1.6e-4])),
        "make_time_grid": lambda: (unipc.make_time_grid,
                                   dict(sched=sched, M=4, skip_kind="uniform-lambda")),
        "psi": lambda: (unipc.psi, dict(k=2, h=0.5)),
        "reference_solution": lambda: (unipc.reference_solution, dict(
            model=poly, sched=sched, x_T=x.copy(), t_start=1.0, t_end=1e-3, mode="closed-form",
            steps=100)),
        "run_study": lambda: (unipc.run_study, dict(study=unipc.ConvergenceStudy(**study_fields()))),
        "sample": lambda: (unipc.sample, dict(
            model=evaluator(), sched=sched, grid=unipc.make_time_grid(sched, 4), config=config,
            x_init=x.copy(), warm_start=[x.copy()], trajectory=True)),
        "varphi": lambda: (unipc.varphi, dict(k=2, h=0.5)),
    }


def returned_values(result):
    """The numbers and arrays a call returned, wherever a public result keeps them."""
    for value in (result if isinstance(result, tuple) else (result,)):
        for part in (value, *(getattr(value, name, None)
                              for name in ("final", "corrected", "push_output"))):
            if isinstance(part, (float, np.ndarray)):
                yield part


def test_fuzz_every_argument_position(tmp_path, monkeypatch):
    # Each call with one hostile argument, the others valid, succeeds or raises a UniPCError
    # (emit's path may also raise OSError), and returns nothing non-finite unless the hostile
    # value was NaN or infinite.
    monkeypatch.chdir(tmp_path)  # emit writes its path, "0.5" among them, here
    points = entry_points()
    names = {label.split(".")[0] for label in points}
    exceptions = {name for name in PUBLIC_NAMES
                  if isinstance(getattr(unipc, name), type)
                  and issubclass(getattr(unipc, name), unipc.UniPCError)}
    assert names == set(PUBLIC_NAMES) - exceptions
    failures = []
    for label, build in points.items():
        target, valid = build()
        assert set(inspect.signature(target).parameters) == set(valid), label
        target(**valid)  # the valid arguments are valid
        for name in valid:
            for value, vid in zip(HOSTILE, HOSTILE_IDS):
                target, args = build()
                args[name] = value
                allowed = (unipc.UniPCError, OSError) if (label, name) == ("emit", "path") \
                    else unipc.UniPCError
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    try:
                        result = target(**args)
                    except allowed:
                        continue
                    except Exception as exc:  # noqa: BLE001 - the finding itself
                        failures.append(f"{label}({name}={vid}): {type(exc).__name__}: {exc}")
                        continue
                if value is not math.nan and value is not math.inf and not all(
                        np.isfinite(v).all() for v in returned_values(result)):
                    failures.append(f"{label}({name}={vid}): non-finite result")
    assert not failures, "\n".join(failures)
