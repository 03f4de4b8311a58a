import json
import math

import numpy as np
import pytest

from oracles import rk4_reference
from unipc import (
    ConvergenceStudy,
    FitError,
    NoiseSchedule,
    ReferenceAccuracyError,
    SolverConfig,
    SyntheticModel,
    ValidationError,
    emit,
    exact_solution_xfree,
    fit_order,
    reference_solution,
    run_study,
)

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


class _CountedModel:
    """A SyntheticModel that keeps the evaluators it hands out, to count their calls."""

    def __init__(self, model):
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

    @pytest.mark.parametrize("steps", [0, -3, 2.0, True])
    def test_bad_step_count_rejected(self, vp_linear, steps):
        with pytest.raises(ValidationError, match="steps"):
            reference_solution(SyntheticModel.linear_in_x(0.5, 2), vp_linear, np.ones(2),
                               1.0, 1e-3, "fine-rk4", steps=steps)


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

    def test_window_bounds(self):
        # errors above 1 or at round-off are dropped
        Ms = [10, 20, 40, 80, 160, 320]
        errs = [5.0, 0.5, 0.25, 0.125, 1e-13, 1e-14]
        fit = fit_order(Ms, errs)
        assert fit.n_used == 3


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
            solver_configs=[SolverConfig(order=5, corrector="off", half_a1=False)],
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


class TestEmit:
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
