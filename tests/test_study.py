import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import fitted_slope, rk4_reference
from unipc import (
    ConvergenceStudy,
    DomainError,
    FitError,
    ModelEvaluator,
    NoiseSchedule,
    ReferenceAccuracyError,
    SolverConfig,
    SyntheticModel,
    Thresholding,
    ValidationError,
    emit,
    exact_solution_xfree,
    fit_order,
    reference_solution,
    run_study,
)
from unipc.cli import main
from unipc.study import WINDOW_CAP, WINDOW_FLOOR

SMALL_COEFFS = [1.5e-4, -6.0e-4, 2.5e-4]


def small_study(configs, step_counts=(10, 20, 40, 80), **kwargs):
    return ConvergenceStudy(
        model=SyntheticModel.x_free_poly(SMALL_COEFFS, 4),
        schedule=NoiseSchedule(),
        solver_configs=list(configs),
        step_counts=list(step_counts),
        seed=42,
        **kwargs,
    )


class TestReferenceSolution:
    def test_zero_model_both_modes(self, vp_linear):
        model = SyntheticModel.x_free_poly([0.0], 3)
        x = np.array([1.0, -2.0, 0.4])
        ratio = vp_linear.alpha(vp_linear.t_end) / vp_linear.alpha(vp_linear.t_start)
        for mode in ("closed-form", "fine-rk4"):
            out = reference_solution(model, vp_linear, x, vp_linear.t_start, vp_linear.t_end, mode)
            assert np.allclose(out, ratio * x, rtol=1e-9)

    def test_rk4_matches_closed_form(self, vp_linear, poly_model, rng):
        x = rng.standard_normal(4)
        closed = reference_solution(poly_model, vp_linear, x, 1.0, 1e-3, "closed-form")
        rk4 = reference_solution(poly_model, vp_linear, x, 1.0, 1e-3, "fine-rk4")
        scale = max(1.0, float(np.max(np.abs(closed))))
        assert np.max(np.abs(rk4 - closed)) / scale < 1e-9

    def test_linear_model_self_consistency(self, vp_linear, rng):
        model = SyntheticModel.linear_in_x(0.5, 2)
        out = reference_solution(model, vp_linear, rng.standard_normal(2), 1.0, 1e-3, "fine-rk4")
        assert np.all(np.isfinite(out))

    def test_self_consistency_failure_raises(self, vp_linear, rng):
        model = SyntheticModel.linear_in_x(0.5, 2)
        with pytest.raises(ReferenceAccuracyError):
            reference_solution(model, vp_linear, rng.standard_normal(2), 1.0, 1e-3,
                               "fine-rk4", steps=40)

    def test_closed_form_needs_xfree(self, vp_linear, rng):
        from unipc.errors import DomainError

        with pytest.raises(DomainError):
            reference_solution(SyntheticModel.linear_in_x(0.5, 2), vp_linear,
                               rng.standard_normal(2), 1.0, 1e-3, "closed-form")


class _CountedModel(SyntheticModel):
    """A SyntheticModel that keeps the evaluators it hands out, to count their calls."""

    def __init__(self, model):
        super().__init__(model.family, model.dim, model.coeffs)
        self.model, self.evaluators = model, []

    def evaluator(self, sched):
        self.evaluators.append(self.model.evaluator(sched))
        return self.evaluators[-1]


class TestReferenceAgainstOracle:
    # 1500 steps are one full block and a partial one (the 3000-step pass: two and a
    # partial); 1024 steps are exactly one block (two).  Both pass the drift gate.
    @pytest.mark.parametrize("kind,family,steps", [
        ("vp-linear", "linear-in-x", 1500),
        ("vp-linear", "x-free-poly", 1500),
        ("vp-cosine", "linear-in-x", 1500),
        ("vp-cosine", "x-free-poly", 1500),
        ("vp-cosine", "x-free-poly", 1024),
    ])
    def test_matches_stagewise_rk4(self, kind, family, steps, rng):
        sched = NoiseSchedule.from_json({"kind": kind})
        if family == "linear-in-x":
            model = SyntheticModel.linear_in_x([0.3, -0.5, 0.8], 3)
        else:
            model = SyntheticModel.x_free_poly([0.3, -1.2, 0.5], 3)
        x = rng.standard_normal(3)
        counted = _CountedModel(model)
        got = reference_solution(counted, sched, x, sched.t_start, sched.t_end, "fine-rk4",
                                 steps=steps)
        want = rk4_reference(model.evaluator(sched), sched, x, sched.t_start, sched.t_end,
                             2 * steps)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert sum(e.eval_count for e in counted.evaluators) == 12 * steps

    @pytest.mark.parametrize("family", ["linear-in-x", "x-free-poly"])
    def test_patched_call_sees_every_call(self, vp_cosine, rng, patched_calls, family):
        # the count perfbench's traced model.call relies on: the call is bound per pass,
        # at run time, so a __call__ patched before the run sees all 12 * steps calls
        if family == "linear-in-x":
            model = SyntheticModel.linear_in_x([0.3, -0.5, 0.8], 3)
        else:
            model = SyntheticModel.x_free_poly([0.3, -1.2, 0.5], 3)
        reference_solution(model, vp_cosine, rng.standard_normal(3), vp_cosine.t_start,
                           vp_cosine.t_end, "fine-rk4", steps=1500)
        assert len(patched_calls) == 12 * 1500

    @pytest.mark.parametrize("steps", [0, -3, 2.0, True])
    def test_bad_step_count_rejected(self, vp_linear, steps):
        with pytest.raises(ValidationError, match="steps"):
            reference_solution(SyntheticModel.linear_in_x(0.5, 2), vp_linear, np.ones(2),
                               1.0, 1e-3, "fine-rk4", steps=steps)


class _RecordingModel(SyntheticModel):
    """A SyntheticModel whose evaluators record every call: the time, a copy of the
    input, and the input array itself (which the reference may reuse)."""

    def __init__(self, model):
        super().__init__(model.family, model.dim, model.coeffs)
        self.model, self.calls, self.inputs = model, [], []

    def evaluator(self, sched):
        inner = self.model.evaluator(sched)

        def fn(x, t):
            self.calls.append((t, x.copy()))
            self.inputs.append(x)
            return inner(x, t)

        return ModelEvaluator(fn, "noise", self.dim)


class _MisshapenModel(SyntheticModel):
    """A dim-2 model whose evaluator returns `output` whatever the state."""

    def __init__(self, output):
        super().__init__("linear-in-x", 2, np.zeros((2, 1)))
        self.output, self.calls = output, 0

    def evaluator(self, sched):
        def fn(x, t):
            self.calls += 1
            return self.output

        return ModelEvaluator(fn, "noise", self.dim)


class TestReferenceStages:
    STEPS = 1500  # the first pass's steps 1023 and 1024 lie on either side of a block seam

    @pytest.fixture
    def case(self, vp_cosine, rng):
        return SyntheticModel.linear_in_x([0.3, -0.5, 0.8], 3), vp_cosine, rng.standard_normal(3)

    def reference(self, model, sched, x):
        return reference_solution(model, sched, x, sched.t_start, sched.t_end, "fine-rk4",
                                  steps=self.STEPS)

    def test_stages_match_stagewise_oracle(self, case):
        model, sched, x = case
        recorder = _RecordingModel(model)
        self.reference(recorder, sched, x)
        oracle_calls = []
        inner = model.evaluator(sched)

        def oracle_model(y, t):
            oracle_calls.append((t, y.copy()))
            return inner(y, t)

        rk4_reference(oracle_model, sched, x, sched.t_start, sched.t_end, self.STEPS)
        assert len(oracle_calls) == 4 * self.STEPS
        scale = max(float(np.max(np.abs(y))) for _, y in oracle_calls)
        for step in (0, 1023, 1024):
            for stage in range(4):
                k = 4 * step + stage  # the first pass's calls come first
                (t_got, y_got), (t_want, y_want) = recorder.calls[k], oracle_calls[k]
                assert t_got == t_want, (step, stage)
                assert np.max(np.abs(y_got - y_want)) <= 1e-14 * scale, (step, stage)

    def test_input_untouched_and_result_owns_its_memory(self, case):
        model, sched, x = case
        kept = x.copy()
        recorder = _RecordingModel(model)
        out = self.reference(recorder, sched, x)
        assert x.tobytes() == kept.tobytes()
        assert not any(np.shares_memory(out, seen) for seen in recorder.inputs)
        assert out.flags.owndata

    def test_repeat_calls_are_bitwise_equal(self, case):
        model, sched, x = case
        assert self.reference(model, sched, x).tobytes() == self.reference(model, sched, x).tobytes()

    @pytest.mark.parametrize("mode", ["closed-form", "fine-rk4"])
    @pytest.mark.parametrize("shape", [(2, 2), (3,), (1,), ()])
    def test_x_T_must_be_one_state(self, vp_linear, mode, shape):
        recorder = _RecordingModel(SyntheticModel.x_free_poly([0.3], 2))
        model = recorder if mode == "fine-rk4" else recorder.model
        with pytest.raises(ValidationError, match="x_T must be a 1-d array of length 2"):
            reference_solution(model, vp_linear, np.ones(shape), 1.0, 1e-3, mode)
        assert not recorder.calls

    @pytest.mark.parametrize("shape", [(1,), (3,), (2, 1)])
    def test_fine_rk4_rejects_misshapen_model_output(self, vp_linear, shape):
        # (1,) was broadcast over the state and ended in a ReferenceAccuracyError;
        # (3,) and (2, 1) raised a bare numpy ValueError
        model = _MisshapenModel(np.full(shape, 0.1))
        with pytest.raises(ValidationError, match=r"model output must have shape \(2,\)"):
            reference_solution(model, vp_linear, np.ones(2), 1.0, 1e-3, "fine-rk4", steps=10)
        assert model.calls == 1

    @pytest.mark.parametrize("mode", ["closed-form", "fine-rk4"])
    @pytest.mark.parametrize("t_start, t_end", [(1e-3, 1.0), (0.5, 0.5)])
    def test_times_must_run_backwards(self, vp_linear, mode, t_start, t_end):
        recorder = _RecordingModel(SyntheticModel.x_free_poly([0.3], 2))
        model = recorder if mode == "fine-rk4" else recorder.model
        with pytest.raises(DomainError, match="need t_end < t_start"):
            reference_solution(model, vp_linear, np.ones(2), t_start, t_end, mode)
        assert not recorder.calls

    @pytest.mark.parametrize("mode", ["closed-form", "fine-rk4"])
    def test_model_must_be_a_synthetic_model(self, vp_linear, mode):
        # a ModelEvaluator raised AttributeError: no attribute 'evaluator'
        ev = SyntheticModel.x_free_poly([0.3], 2).evaluator(vp_linear)
        with pytest.raises(ValidationError, match="reference model must be a SyntheticModel"):
            reference_solution(ev, vp_linear, np.ones(2), 1.0, 1e-3, mode, steps=10)
        assert ev.eval_count == 0

    @pytest.mark.parametrize("mode", ["closed-form", "fine-rk4"])
    @pytest.mark.parametrize("where", ["t_start", "t_end"])
    @pytest.mark.parametrize("t", [None, "0.5", 1 + 2j, True, 10**400],
                             ids=["none", "text", "complex", "bool", "10**400"])
    def test_times_must_be_real_numbers(self, vp_linear, mode, where, t):
        # None, "0.5" and complex raised a bare TypeError from the comparison
        recorder = _RecordingModel(SyntheticModel.x_free_poly([0.3], 2))
        times = {"t_start": 1.0, "t_end": 1e-3, where: t}
        with pytest.raises(ValidationError, match=f"^{where} must be a real number, got "):
            reference_solution(recorder, vp_linear, np.ones(2), times["t_start"], times["t_end"],
                               mode, steps=10)
        assert not recorder.calls

    @pytest.mark.parametrize("mode", ["closed-form", "fine-rk4"])
    @pytest.mark.parametrize("sched", ["vp", None])
    def test_schedule_must_be_a_noise_schedule(self, mode, sched):
        # raised AttributeError: no attribute 'lam' (or 'log_alpha')
        recorder = _RecordingModel(SyntheticModel.x_free_poly([0.3], 2))
        with pytest.raises(ValidationError, match="schedule must be a NoiseSchedule"):
            reference_solution(recorder, sched, np.ones(2), 1.0, 1e-3, mode, steps=10)
        assert not recorder.calls


class TestFitOrder:
    def test_exact_power_law(self):
        Ms = [10, 20, 40, 80, 160]
        errs = [0.37 * m**-2.0 for m in Ms]
        fit = fit_order(Ms, errs)
        assert fit.slope == pytest.approx(2.0, abs=1e-6)
        assert fit.r_squared > 0.999999

    def test_divergent_entry_excluded(self):
        Ms = [10, 20, 40, 80, 160]
        errs = [float("nan")] + [0.1 * m**-1.0 for m in Ms[1:]]
        fit = fit_order(Ms, errs)
        assert fit.n_used == 4
        assert fit.slope == pytest.approx(1.0, abs=1e-6)

    def test_too_few_points_names_excluded(self):
        with pytest.raises(FitError) as excinfo:
            fit_order([10, 20, 40, 80], [2.0, 3.0, float("nan"), 1e-15])
        message = str(excinfo.value)
        assert "excluded" in message and "80" in message

    @pytest.mark.parametrize("Ms", [[0, -5, 20], [10, float("inf"), 40], [10, float("nan"), 40]],
                             ids=["non-positive", "inf", "nan"])
    def test_bad_step_counts_rejected(self, Ms):
        # [0, -5, 20] reached the log and raised numpy's LinAlgError
        with pytest.raises(DomainError, match="step counts must be finite and > 0"):
            fit_order(Ms, [0.1, 0.01, 0.001])

    @pytest.mark.parametrize("Ms,errs", [
        ([10, "twenty", 40], [0.1, 0.01, 0.001]),
        ([10, 20, 40], [0.1, "small", 0.001]),
        ([10, [20, 30], 40], [0.1, 0.01, 0.001]),
        ([10, 10**400, 40], [0.1, 0.01, 0.001]),
        ([10, 20, 40], [0.1, 10**400, 0.001]),
        (["10", "20", "40", "80"], ["1e-2", "2.5e-3", "6e-4", "1.6e-4"]),
    ], ids=["text-M", "text-error", "ragged", "huge-M", "huge-error", "all-text"])
    def test_non_numeric_entry_rejected(self, Ms, errs):
        # each raised numpy's bare ValueError, and 10**400 an OverflowError; text that numpy
        # could convert, every entry a string, fitted a slope of 1.996
        with pytest.raises(DomainError, match="step counts and errors must be numbers"):
            fit_order(Ms, errs)

    def test_one_distinct_step_count_unfittable(self):
        # once fitted an order of 1.834 with r2 = 0 through three points at one M
        with pytest.raises(FitError, match="M = 10; need >= 2 distinct step counts"):
            fit_order([10, 10, 10], [0.1, 0.01, 0.001])

    def test_window_bounds(self):
        # errors above 1 or at round-off are dropped
        Ms = [10, 20, 40, 80, 160, 320]
        errs = [5.0, 0.5, 0.25, 0.125, 1e-13, 1e-14]
        fit = fit_order(Ms, errs)
        assert fit.n_used == 3


def _lstsq_slope(Ms, errs) -> float:
    """The order that tests/oracles.fitted_slope (np.linalg.lstsq) fits over fit_order's window."""
    Ms, errs = np.asarray(Ms, float), np.asarray(errs, float)
    usable = np.isfinite(errs) & (errs > WINDOW_FLOOR) & (errs < WINDOW_CAP)
    return -fitted_slope(Ms[usable], errs[usable])


class TestClosedFormFit:
    """fit_order's closed-form line against np.linalg.lstsq."""

    def test_agrees_with_lstsq_on_random_windows(self):
        rng, fitted = np.random.default_rng(2024), 0
        for _ in range(2000):
            n = int(rng.integers(3, 7))
            Ms = np.sort(rng.choice([10, 20, 40, 80, 160, 320, 640], n, replace=False))
            errs = (10.0 ** rng.uniform(-8, -0.5) * (Ms / Ms[0]) ** -rng.uniform(0.5, 5)
                    * np.exp(rng.normal(0.0, 0.3, n)))
            inside = (errs > WINDOW_FLOOR) & (errs < WINDOW_CAP)
            if inside.sum() < 3:
                continue
            Ms, errs = Ms[inside], errs[inside]
            fitted += 1
            assert fit_order(Ms, errs).slope == pytest.approx(_lstsq_slope(Ms, errs), rel=1e-12)
        assert fitted > 1500

    def test_intercept_and_r_squared_of_an_exact_power_law(self):
        fit = fit_order([10, 20, 40, 80, 160], [0.37 * m**-2.5 for m in (10, 20, 40, 80, 160)])
        assert fit.intercept == pytest.approx(math.log2(0.37), rel=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_lstsq_on_the_shipped_study(self):
        path = Path(__file__).resolve().parent.parent / "configs" / "order_study.json"
        study = run_study(ConvergenceStudy.from_json(json.loads(path.read_text())))
        for ci, (_, fit, _) in enumerate(study.fits()):
            rows = [r for r in study.results if r.config_index == ci]
            want = _lstsq_slope([r.M for r in rows], [r.error for r in rows])
            assert fit is not None and fit.slope == pytest.approx(want, rel=1e-12)

    def test_no_lstsq_behind_study_fits_or_the_fit_command(self, monkeypatch, tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("np.linalg.lstsq called")

        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        study = run_study(small_study([SolverConfig(order=1, corrector="off"), SolverConfig(order=2)]))
        assert all(fit is not None for _, fit, _ in study.fits())
        out = tmp_path / "results.csv"
        emit(study, out)
        assert main(["fit", "--in", str(out)]) == 0
        assert capsys.readouterr().out.count("order=") == 2


class TestRunStudy:
    def test_cardinality(self):
        study = run_study(small_study([SolverConfig(order=2)]))
        assert len(study.results) == 4
        assert [r.M for r in study.results] == [10, 20, 40, 80]

    def test_unip1_first_order(self):
        study = run_study(small_study(
            [SolverConfig(order=1, corrector="off")], step_counts=(10, 20, 40, 80, 160)
        ))
        fit = study.fits()[0][1]
        assert 0.8 <= fit.slope <= 1.3

    def test_unipc2_third_order(self):
        study = run_study(small_study(
            [SolverConfig(order=2, corrector="standard")], step_counts=(10, 20, 40, 80, 160)
        ))
        fit = study.fits()[0][1]
        assert fit.slope >= 2.6

    def test_data_unipc2_third_order_and_distinct_path(self):
        study = run_study(small_study(
            [SolverConfig(order=2, corrector="standard", prediction="data"),
             SolverConfig(order=2, corrector="standard")],
            step_counts=(10, 20, 40, 80, 160),
        ))
        data_fit = study.fits()[0][1]
        assert data_fit.slope >= 2.6
        # data- and noise-prediction runs follow genuinely different updates
        data_rows = {r.M: r.error for r in study.results if r.config_index == 0}
        noise_rows = {r.M: r.error for r in study.results if r.config_index == 1}
        assert abs(data_rows[10] - noise_rows[10]) > 1e-12

    def test_nfe_column(self):
        study = run_study(small_study([SolverConfig(order=3, corrector="standard")]))
        for row in study.results:
            assert row.nfe == row.M

    def test_monotone_refinement(self):
        study = run_study(small_study([SolverConfig(order=2, corrector="standard")]))
        errs = [r.error for r in study.results]
        for a, b in zip(errs, errs[1:]):
            assert b < a

    def test_identical_x_T_across_configs(self):
        study = small_study([SolverConfig(order=1, corrector="off"), SolverConfig(order=2)])
        assert np.array_equal(study.draw_x_T(), study.draw_x_T())

    def test_divergent_runs_recorded_not_raised(self):
        # An aggressive high-order schedule-free run on a huge-coefficient
        # model can blow up; the study must record NaN rather than crash.
        study = ConvergenceStudy(
            model=SyntheticModel.x_free_poly([30.0, -120.0, 50.0], 2),
            schedule=NoiseSchedule(),
            solver_configs=[SolverConfig(order=5, corrector="off", varying_coefficients=True)],
            step_counts=[4, 5, 6, 7],
            seed=0,
        )
        run_study(study)
        assert len(study.results) == 4

    def test_oracle_starts_requires_closed_form(self):
        with pytest.raises(ValidationError):
            ConvergenceStudy(
                model=SyntheticModel.linear_in_x(0.3, 2),
                schedule=NoiseSchedule(),
                solver_configs=[SolverConfig(order=2)],
                step_counts=[10, 20, 40, 80],
                oracle_starts=True,
            )

    def test_validation(self):
        with pytest.raises(ValidationError):
            small_study([SolverConfig(order=2)], step_counts=(10, 20, 40))  # too few
        with pytest.raises(ValidationError):
            small_study([SolverConfig(order=2)], step_counts=(10, 20, 20, 40))
        with pytest.raises(ValidationError):
            small_study([])

    @pytest.mark.parametrize("change,message", [
        ({"skip_kind": "uniform-sqrt"}, "unknown skip kind"),
        ({"step_counts": [0, 20, 40, 80]}, "step counts must be >= 1"),
        ({"step_counts": [1.5, 20, 40, 80]}, "step count must be an int"),
        ({"step_counts": [True, 20, 40, 80]}, "step count must be an int"),
        ({"solver_configs": [SolverConfig(order=2),
                             SolverConfig(order=2, order_schedule="1222222222")]},
         "solver 1 has an order_schedule"),
        ({"seed": 1.5}, "seed must be an int"),   # passed, then a bare TypeError in run_study
        ({"seed": True}, "seed must be an int"),  # ran as seed 1
        # each raised a bare AttributeError, TypeError or ValueError
        ({"model": SyntheticModel.x_free_poly([0.3], 4).evaluator(NoiseSchedule())},
         "^model must be a SyntheticModel, got ModelEvaluator$"),
        ({"schedule": {"kind": "vp-linear"}}, "^schedule must be a NoiseSchedule, got dict$"),
        ({"solver_configs": None}, "^solver_configs must be a list, got None$"),
        ({"solver_configs": [{"order": 2}]}, "^solver 0 must be a SolverConfig, got dict$"),
        ({"step_counts": None}, "^step_counts must be a list, got None$"),
        ({"step_counts": 4}, "^step_counts must be a list, got 4$"),
        ({"oracle_starts": np.array([True, False])}, "^oracle_starts must be a bool, got "),
    ], ids=["skip", "zero-M", "float-M", "bool-M", "order-schedule", "float-seed", "bool-seed",
            "evaluator-model", "dict-schedule", "none-configs", "dict-config", "none-M", "int-M",
            "array-oracle"])
    def test_rejected_before_run(self, change, message):
        fields = dict(model=SyntheticModel.x_free_poly(SMALL_COEFFS, 4), schedule=NoiseSchedule(),
                      solver_configs=[SolverConfig(order=2)], step_counts=[10, 20, 40, 80])
        with pytest.raises(ValidationError, match=message):
            ConvergenceStudy(**{**fields, **change})


class TestEmit:
    @pytest.mark.parametrize("call", [run_study, emit], ids=["run_study", "emit"])
    @pytest.mark.parametrize("study", [None, {"model": {}}], ids=["none", "dict"])
    def test_needs_a_study(self, tmp_path, call, study):
        # raised a bare AttributeError
        args = (study,) if call is run_study else (study, tmp_path / "out.csv")
        with pytest.raises(ValidationError, match="^study must be a ConvergenceStudy, got "):
            call(*args)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("path", [None, True, 3], ids=["none", "bool", "int"])
    def test_path_must_be_text_or_path_like(self, tmp_path, monkeypatch, path):
        # each wrote a file named str(path)
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValidationError, match=r"^path must be a str \| os.PathLike, got "):
            emit(small_study([SolverConfig(order=2)]), path)
        assert not list(tmp_path.iterdir())

    def test_empty_results_header_only(self, tmp_path):
        study = small_study([SolverConfig(order=2)])
        path = emit(study, tmp_path / "empty.csv")
        lines = open(path).read().splitlines()
        assert lines == ["solver,order,variant,bh,prediction,corrector,M,nfe,error,seconds"]

    def test_csv_rows(self, tmp_path):
        study = run_study(small_study([SolverConfig(order=2)]))
        path = emit(study, tmp_path / "out.csv")
        lines = open(path).read().splitlines()
        assert len(lines) == 5
        assert lines[1].startswith("unipc-2,2,multistep,b2,noise,standard,10,10,")

    def test_json_round_trip_exact(self, tmp_path):
        study = run_study(small_study([SolverConfig(order=2)]))
        path = emit(study, tmp_path / "out.json", fmt="json")
        doc = json.load(open(path))
        for row, parsed in zip(study.results, doc["results"]):
            assert parsed["error"] == row.error
            assert parsed["seconds"] == row.seconds
            assert parsed["nfe"] == row.nfe
        assert doc["fits"][0]["slope"] == study.fits()[0][1].slope

    def test_json_is_the_config_plus_results_and_fits(self, tmp_path):
        study = run_study(small_study([SolverConfig(order=2), SolverConfig(order=1, corrector="off")],
                                      error_norm="rms", skip_kind="quadratic-time"))
        doc = json.load(open(emit(study, tmp_path / "out.json", fmt="json")))
        assert list(doc)[-2:] == ["results", "fits"]
        config = {key: value for key, value in doc.items() if key not in ("results", "fits")}
        assert config == study.to_json()
        assert ConvergenceStudy.from_json(config) == replace(study, results=[])

    def test_config_round_trip(self):
        # every optional field away from its default
        study = small_study([SolverConfig(order=3, variant="singlestep", bh="b1",
                                          prediction="data", thresholding=Thresholding(1, 2))],
                            error_norm="rms", reference="fine-rk4", skip_kind="uniform-time",
                            oracle_starts=True)
        doc = study.to_json()
        assert doc["seed"] == 42 and ConvergenceStudy.from_json(doc) == study
        assert json.dumps(ConvergenceStudy.from_json(doc).to_json()) == json.dumps(doc)  # 1 stays 1

    def test_deterministic_bytes_excluding_seconds(self, tmp_path):
        def run_once(name):
            study = run_study(small_study([SolverConfig(order=2)]))
            return emit(study, tmp_path / name)

        def strip_seconds(path):
            lines = open(path, "rb").read().split(b"\n")
            return [b",".join(line.split(b",")[:-1]) for line in lines]

        a, b = run_once("a.csv"), run_once("b.csv")
        assert strip_seconds(a) == strip_seconds(b)

    def test_from_json_study(self):
        cfg = {
            "model": {"family": "x-free-poly", "coeffs": SMALL_COEFFS, "dim": 4},
            "schedule": {"kind": "vp-linear", "beta_min": 0.1, "beta_max": 20.0,
                         "t_start": 1.0, "t_end": 0.001},
            "solvers": [{"order": 2, "corrector": "standard"}],
            "step_counts": [10, 20, 40, 80],
            "seed": 7,
        }
        study = ConvergenceStudy.from_json(cfg)
        assert study.seed == 7 and study.solver_configs[0].order == 2
        with pytest.raises(ValidationError):
            ConvergenceStudy.from_json({**cfg, "surprise": 1})
