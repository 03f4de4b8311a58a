import math
import tracemalloc
import warnings
from collections import OrderedDict
from dataclasses import replace

import numpy as np
import pytest

from oracles import fitted_slope
from unipc import (
    DomainError,
    InsufficientHistoryError,
    ModelEvaluator,
    NoiseSchedule,
    NumericError,
    SolverConfig,
    SyntheticModel,
    Thresholding,
    ValidationError,
    convert_parameterization,
    correct,
    ddim_step,
    exact_solution_xfree,
    make_time_grid,
    sample,
)
from unipc import solver
from unipc.coeffs import bh_value
from unipc.schedule import TimeGrid
from unipc.solver import SolverState, _guard


def zero_model(dim=4):
    return ModelEvaluator(lambda x, t: np.zeros(dim), "noise", dim)


def const_model(value, dim=4):
    return ModelEvaluator(lambda x, t: np.full(dim, value), "noise", dim)


def fresh_state(sched, model, x, t0):
    state = SolverState(x=np.asarray(x, float), capacity=4)
    state.push(t0, model(x, t0))
    return state


def documented_layout(sched, grid, config, warm):
    """The model-call times and the per-step trace rows (index, order, t_prev, t_next,
    used_ts, corrected) of a run, as the solver.py docstrings lay it out.

    The run evaluates the model at its start state and each warm-start state, then
    per step i of order p: singlestep first evaluates its p - 1 interior nodes
    lambda_{i-1} + (m/p) h, m = 1..p-1; every step but the last evaluates at t_i, and
    the oracle corrector evaluates there again.  A multistep step reads the outputs
    at t_{i-p}..t_{i-1}, a singlestep step its interior nodes then t_{i-1}; a
    corrector (every step but the last) also reads t_i.
    """
    t, M = [float(v) for v in grid.times], grid.num_steps
    calls, records = t[:warm + 1], []
    for i, p in zip(range(warm + 1, M + 1), config.resolved_orders(M)[warm:]):
        lam0, h = sched.lam(t[i - 1]), sched.lam(t[i]) - sched.lam(t[i - 1])
        interior = [sched.t_of_lambda(lam0 + (m / p) * h) for m in range(1, p)]
        corrected = i < M and config.corrector != "off"
        if config.variant == "singlestep":
            calls += interior
            used = interior + [t[i - 1]]
        else:
            used = t[i - p:i]
        calls += [t[i]] * ((i < M) + (corrected and config.corrector == "oracle"))
        records.append((i, p, t[i - 1], t[i], tuple(used + [t[i]] * corrected), corrected))
    return calls, records


LAYOUTS = [(variant, corrector, warm) for variant in ("multistep", "singlestep")
           for corrector in ("off", "standard", "oracle") for warm in (0, 2)]


class TestDDIMReduction:
    def manual_ddim(self, sched, model, grid, x0):
        x = np.asarray(x0, float)
        traj = [x.copy()]
        for i in range(1, len(grid.times)):
            eps = model(x, float(grid.times[i - 1]))
            x = ddim_step(sched, x, eps, float(grid.times[i - 1]), float(grid.times[i]))
            traj.append(x.copy())
        return traj

    def test_unip1_is_ddim_bitwise(self, vp_linear, poly_model, rng):
        grid = make_time_grid(vp_linear, 8)
        x0 = rng.standard_normal(4)
        res = sample(
            poly_model.evaluator(vp_linear), vp_linear, grid,
            SolverConfig(order=1, corrector="off"), x0, trajectory=True,
        )
        manual = self.manual_ddim(vp_linear, poly_model.evaluator(vp_linear), grid, x0)
        for a, b in zip(res.trajectory, manual):
            assert np.array_equal(a, b)

    def test_varying_p1_is_ddim_bitwise(self, vp_linear, poly_model, rng):
        grid = make_time_grid(vp_linear, 8)
        x0 = rng.standard_normal(4)
        res = sample(
            poly_model.evaluator(vp_linear), vp_linear, grid,
            SolverConfig(order=1, corrector="off", varying_coefficients=True), x0,
            trajectory=True,
        )
        manual = self.manual_ddim(vp_linear, poly_model.evaluator(vp_linear), grid, x0)
        for a, b in zip(res.trajectory, manual):
            assert np.array_equal(a, b)


class TestUpdateFormulas:
    def test_homogeneous_model(self, vp_linear, rng):
        x0 = rng.standard_normal(4)
        grid = make_time_grid(vp_linear, 6)
        ratio = vp_linear.alpha(vp_linear.t_end) / vp_linear.alpha(vp_linear.t_start)
        for order in (1, 2, 3):
            for corrector in ("off", "standard"):
                res = sample(
                    zero_model(), vp_linear, grid,
                    SolverConfig(order=order, corrector=corrector), x0,
                )
                assert np.allclose(res.final, ratio * x0, rtol=1e-13)

    def test_single_step_grid_is_one_ddim_step(self, vp_linear, poly_model, rng):
        # warm-up forces order 1 on the only step, and no corrector runs after it
        grid = make_time_grid(vp_linear, 1)
        x0 = rng.standard_normal(4)
        model = poly_model.evaluator(vp_linear)
        res = sample(model, vp_linear, grid,
                     SolverConfig(order=3, corrector="standard"), x0)
        check = poly_model.evaluator(vp_linear)
        eps0 = check(x0, float(grid.times[0]))
        expected = ddim_step(vp_linear, x0, eps0, float(grid.times[0]), float(grid.times[1]))
        assert np.array_equal(res.final, expected)
        assert res.nfe == 1
        assert [rec.order for rec in res.trace] == [1]

    @pytest.mark.parametrize("corrector", ["off", "standard", "oracle"])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_one_step_run_is_ddim_at_any_order(self, vp_linear, poly_model, rng, order,
                                               corrector):
        # The ring is as wide as the widest row the plan reads, one output here, so the
        # update is the same two-term gemv as ddim_step's whatever the configured order.
        grid = make_time_grid(vp_linear, 1)
        x0 = rng.standard_normal(4)
        res = sample(poly_model.evaluator(vp_linear), vp_linear, grid,
                     SolverConfig(order=order, corrector=corrector), x0)
        eps0 = poly_model.evaluator(vp_linear)(x0, float(grid.times[0]))
        expected = ddim_step(vp_linear, x0, eps0, float(grid.times[0]), float(grid.times[1]))
        assert np.array_equal(res.final, expected)
        assert res.nfe == 1

    def test_homogeneous_model_varying_coefficients(self, vp_linear, rng):
        x0 = rng.standard_normal(4)
        grid = make_time_grid(vp_linear, 6)
        ratio = vp_linear.alpha(vp_linear.t_end) / vp_linear.alpha(vp_linear.t_start)
        res = sample(zero_model(), vp_linear, grid,
                     SolverConfig(order=3, corrector="standard", varying_coefficients=True), x0)
        assert np.allclose(res.final, ratio * x0, rtol=1e-13)

    def test_constant_model_collapses_to_first_order(self, vp_linear, rng):
        x0 = rng.standard_normal(4)
        grid = make_time_grid(vp_linear, 6)
        runs = [
            sample(const_model(0.7), vp_linear, grid,
                   SolverConfig(order=order, corrector="standard"), x0, trajectory=True)
            for order in (1, 2, 3)
        ]
        for res in runs[1:]:
            for a, b in zip(res.trajectory, runs[0].trajectory):
                assert np.allclose(a, b, rtol=1e-14, atol=1e-15)

    def test_unic1_uses_half_weight_and_current_difference(self, vp_linear, poly_model, rng):
        # One corrected step, reproduced by hand from the update formula.
        grid = make_time_grid(vp_linear, 2)
        x0 = rng.standard_normal(4)
        model = poly_model.evaluator(vp_linear)
        res = sample(model, vp_linear, grid, SolverConfig(order=1, corrector="standard"), x0,
                     trajectory=True)

        check = poly_model.evaluator(vp_linear)
        t0, t1 = float(grid.times[0]), float(grid.times[1])
        h = vp_linear.lam(t1) - vp_linear.lam(t0)
        eps0 = check(x0, t0)
        x_pred = ddim_step(vp_linear, x0, eps0, t0, t1)
        d1 = check(x_pred, t1) - eps0
        expected = x_pred - vp_linear.sigma(t1) * bh_value("b2", h) * 0.5 * d1
        assert np.allclose(res.trajectory[1], expected, rtol=1e-14)


class TestLocalOrders:
    def _matched_state(self, sched, model, lam_base, h, x_base):
        evaluator = model.evaluator(sched)
        t_a = sched.t_of_lambda(lam_base - h)
        t_b = sched.t_of_lambda(lam_base)
        state = SolverState(x=x_base, capacity=4)
        state.push(t_a, evaluator(x_base, t_a))
        state.push(t_b, evaluator(x_base, t_b))
        return state, t_b

    def test_unip2_local_error_order(self, vp_linear, poly_model):
        # One UniP-2 step from x_base at t_b, the output at t_a from the same
        # x_base (the model is x-free): sample() over (t_a, t_b, t_next), warm-started at t_b.
        lam_base = vp_linear.lam(0.35)
        x_base = np.array([1.0, -1.0, 0.5, 2.0])
        hs = [0.4 * 2.0**-k for k in range(6)]
        errs = []
        for h in hs:
            ts = [vp_linear.t_of_lambda(lam) for lam in (lam_base - h, lam_base, lam_base + h)]
            grid = TimeGrid(np.array(ts))
            res = sample(poly_model.evaluator(vp_linear), vp_linear, grid,
                         SolverConfig(order=2, corrector="off"), x_base, warm_start=[x_base])
            assert [rec.order for rec in res.trace] == [2]
            exact = exact_solution_xfree(poly_model, vp_linear, x_base, ts[1], ts[2])
            errs.append(np.max(np.abs(res.final - exact)))
        assert fitted_slope(hs, errs) >= 2.6

    def test_unic2_local_error_order(self, vp_linear):
        model = SyntheticModel.x_free_poly([0.3, -1.2, 0.5, 0.4], 4)
        evaluator = model.evaluator(vp_linear)
        lam_base = vp_linear.lam(0.35)
        x_base = np.array([1.0, -1.0, 0.5, 2.0])
        hs = [2.0**-k for k in range(2, 8)]
        errs = []
        for h in hs:
            state, t_b = self._matched_state(vp_linear, model, lam_base, h, x_base)
            t_next = vp_linear.t_of_lambda(lam_base + h)
            # x-free: the output at x_pred does not depend on x_pred, so any estimate will do
            res = correct(vp_linear, state, t_next, x_base, 2, evaluator)
            exact = exact_solution_xfree(model, vp_linear, x_base, t_b, t_next)
            errs.append(np.max(np.abs(res.corrected - exact)))
        assert fitted_slope(hs, errs) >= 3.6

    def test_insufficient_history(self, vp_linear, poly_model):
        evaluator = poly_model.evaluator(vp_linear)
        state = fresh_state(vp_linear, evaluator, np.ones(4), 0.9)
        with pytest.raises(InsufficientHistoryError, match="order 2 needs 2 buffered outputs"):
            correct(vp_linear, state, 0.5, np.ones(4), 2, evaluator)
        assert evaluator.eval_count == 1  # the buffered output only

    def test_correct_on_empty_buffer(self, vp_linear, poly_model):
        evaluator = poly_model.evaluator(vp_linear)
        state = SolverState(x=np.ones(4))
        with pytest.raises(InsufficientHistoryError, match="buffer is empty"):
            correct(vp_linear, state, 0.5, np.ones(4), 1, evaluator)
        assert evaluator.eval_count == 0


class TestCorrectChecks:
    """correct() rejects a bad order, a model of the other prediction and a t_next that
    does not step forward, before it calls the model."""

    def _state(self, evaluator, ts):
        state = SolverState(x=np.ones(4), capacity=len(ts))
        for t in ts:
            state.push(t, evaluator(np.ones(4), t))
        return state

    @pytest.mark.parametrize("p,varying", [
        (0, False), (-1, False), (1.5, False), (2.0, False), (True, False), ("2", False),
        (None, False), (10, False), (6, True),
    ], ids=["zero", "negative", "fraction", "float", "bool", "text", "none", "above-cap",
            "above-varying-cap"])
    def test_bad_order_rejected(self, vp_linear, poly_model, p, varying):
        # ten buffered outputs: enough history for every order tried
        evaluator = poly_model.evaluator(vp_linear)
        state = self._state(evaluator, [0.9 - 0.05 * k for k in range(10)])
        calls = evaluator.eval_count
        with pytest.raises(ValidationError, match="order"):
            correct(vp_linear, state, 0.4, np.ones(4), p, evaluator,
                    SolverConfig(varying_coefficients=varying))
        assert evaluator.eval_count == calls

    def test_numpy_int_order_accepted(self, vp_linear, poly_model):
        evaluator = poly_model.evaluator(vp_linear)
        state = self._state(evaluator, [0.9, 0.8, 0.7])
        got = correct(vp_linear, state, 0.6, np.ones(4), np.int64(3), evaluator)
        want = correct(vp_linear, state, 0.6, np.ones(4), 3, evaluator)
        assert np.array_equal(got.corrected, want.corrected)

    @pytest.mark.parametrize("model_prediction", ["noise", "data"])
    def test_prediction_mismatch_rejected(self, vp_linear, poly_model, model_prediction):
        evaluator = poly_model.evaluator(vp_linear)
        if model_prediction == "data":
            evaluator = convert_parameterization(evaluator, vp_linear)
        other = "noise" if model_prediction == "data" else "data"
        state = self._state(evaluator, [0.9, 0.8])
        calls = evaluator.eval_count
        with pytest.raises(ValidationError,
                           match=f"model predicts '{model_prediction}' but config expects '{other}'"):
            correct(vp_linear, state, 0.7, np.ones(4), 2, evaluator, SolverConfig(prediction=other))
        assert evaluator.eval_count == calls

    @pytest.mark.parametrize("t_next", [0.95, 0.7, math.nan])
    def test_t_next_must_lie_below_last_buffered_time(self, vp_linear, poly_model, t_next):
        evaluator = poly_model.evaluator(vp_linear)
        state = self._state(evaluator, [0.9, 0.7])
        calls = evaluator.eval_count
        with pytest.raises(DomainError, match="t_next"):
            correct(vp_linear, state, t_next, np.ones(4), 2, evaluator)
        assert evaluator.eval_count == calls

    @pytest.mark.parametrize("config", [
        SolverConfig(corrector="off"),
        SolverConfig(prediction="data", thresholding=Thresholding()),
        {"bh": "b2"},
        None,
    ], ids=["corrector-off", "thresholding", "dict", "none"])
    def test_config_needs_a_corrector_and_no_thresholding(self, vp_linear, poly_model, config):
        evaluator = poly_model.evaluator(vp_linear)
        if isinstance(config, SolverConfig) and config.prediction == "data":
            evaluator = convert_parameterization(evaluator, vp_linear)
        state = self._state(evaluator, [0.9, 0.8])
        calls = evaluator.eval_count
        with pytest.raises(ValidationError, match="needs a SolverConfig with a corrector"):
            correct(vp_linear, state, 0.7, np.ones(4), 2, evaluator, config)
        assert evaluator.eval_count == calls


class TestDataPrediction:
    def test_order1_matches_noise_path(self, vp_linear, rng):
        noise = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        data = convert_parameterization(SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear), vp_linear)
        grid = make_time_grid(vp_linear, 6)
        x0 = rng.standard_normal(2)
        res_n = sample(noise, vp_linear, grid, SolverConfig(order=1, corrector="off"), x0,
                       trajectory=True)
        res_d = sample(data, vp_linear, grid,
                       SolverConfig(order=1, corrector="off", prediction="data"), x0,
                       trajectory=True)
        worst = max(
            np.max(np.abs(a - b)) for a, b in zip(res_n.trajectory, res_d.trajectory)
        )
        assert worst < 1e-12

    def test_order2_paths_differ(self, vp_linear, rng):
        noise = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        data = convert_parameterization(SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear), vp_linear)
        grid = make_time_grid(vp_linear, 6)
        x0 = rng.standard_normal(2)
        res_n = sample(noise, vp_linear, grid, SolverConfig(order=2, corrector="off"), x0)
        res_d = sample(data, vp_linear, grid,
                       SolverConfig(order=2, corrector="off", prediction="data"), x0)
        assert np.max(np.abs(res_n.final - res_d.final)) > 1e-6

    def test_zero_data_model_scales_by_sigma(self, vp_linear, rng):
        zero = ModelEvaluator(lambda x, t: np.zeros(3), "data", 3)
        grid = make_time_grid(vp_linear, 5)
        x0 = rng.standard_normal(3)
        res = sample(zero, vp_linear, grid,
                     SolverConfig(order=2, corrector="standard", prediction="data"), x0)
        ratio = vp_linear.sigma(vp_linear.t_end) / vp_linear.sigma(vp_linear.t_start)
        assert np.allclose(res.final, ratio * x0, rtol=1e-12)

    def test_prediction_mismatch_rejected(self, vp_linear, rng):
        noise = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        grid = make_time_grid(vp_linear, 5)
        with pytest.raises(ValidationError):
            sample(noise, vp_linear, grid,
                   SolverConfig(order=2, prediction="data"), rng.standard_normal(2))


class TestNFEAccounting:
    @pytest.mark.parametrize("M", [5, 10])
    @pytest.mark.parametrize(
        "corrector,expected",
        [("off", lambda M: M), ("standard", lambda M: M), ("oracle", lambda M: 2 * M - 1)],
    )
    def test_multistep_nfe(self, vp_linear, poly_model, rng, M, corrector, expected):
        evaluator = poly_model.evaluator(vp_linear)
        grid = make_time_grid(vp_linear, M)
        res = sample(evaluator, vp_linear, grid,
                     SolverConfig(order=3, corrector=corrector), rng.standard_normal(4))
        assert res.nfe == expected(M)
        assert evaluator.eval_count == res.nfe

    def test_singlestep_nfe(self, vp_linear, poly_model, rng):
        M = 5
        evaluator = poly_model.evaluator(vp_linear)
        grid = make_time_grid(vp_linear, M)
        config = SolverConfig(order=3, corrector="standard", variant="singlestep")
        res = sample(evaluator, vp_linear, grid, config, rng.standard_normal(4))
        orders = config.resolved_orders(M)
        expected = 1 + sum(p - 1 for p in orders) + (M - 1)
        assert res.nfe == expected
        assert evaluator.eval_count == res.nfe


class TestBufferDiscipline:
    @pytest.mark.parametrize("variant,corrector,warm", LAYOUTS)
    def test_used_timesteps_per_step(self, vp_linear, poly_model, rng, variant, corrector, warm):
        M, x0 = 6, rng.standard_normal(4)
        grid = make_time_grid(vp_linear, M)
        config = SolverConfig(order=3, variant=variant, corrector=corrector)
        res = sample(poly_model.evaluator(vp_linear), vp_linear, grid, config, x0,
                     warm_start=[x0] * warm)
        _, records = documented_layout(vp_linear, grid, config, warm)
        assert [rec.index for rec in res.trace] == [r[0] for r in records]
        for rec, (i, p, t_prev, t_next, used, corrected) in zip(res.trace, records):
            assert (rec.order, rec.t_prev, rec.t_next, rec.corrected) == (
                p, t_prev, t_next, corrected)
            assert rec.used_ts == pytest.approx(used, rel=1e-12, abs=0)

    def test_warmup_orders(self, vp_linear, poly_model, rng):
        grid = make_time_grid(vp_linear, 9)
        res = sample(poly_model.evaluator(vp_linear), vp_linear, grid,
                     SolverConfig(order=4, corrector="standard"), rng.standard_normal(4))
        assert [rec.order for rec in res.trace] == [1, 2, 3, 4, 4, 4, 4, 4, 4]

    @pytest.mark.parametrize("variant,corrector,warm", LAYOUTS)
    def test_eval_call_pattern(self, vp_linear, poly_model, rng, variant, corrector, warm):
        M, x0 = 6, rng.standard_normal(4)
        grid = make_time_grid(vp_linear, M)
        calls = []
        inner = poly_model.evaluator(vp_linear)

        def recording(x, t):
            calls.append(float(t))
            return inner._fn(x, t)

        config = SolverConfig(order=3, variant=variant, corrector=corrector)
        res = sample(ModelEvaluator(recording, "noise", 4), vp_linear, grid, config, x0,
                     warm_start=[x0] * warm)
        expected, _ = documented_layout(vp_linear, grid, config, warm)
        assert calls == pytest.approx(expected, rel=1e-12, abs=0)
        assert res.nfe == len(expected)

    def test_oracle_mode_reevaluates(self, vp_linear, rng):
        # On an x-dependent model the oracle push differs from the standard one.
        M = 6
        grid = make_time_grid(vp_linear, M)
        x0 = rng.standard_normal(2)

        def run(corrector):
            evaluator = SyntheticModel.linear_in_x(0.4, 2).evaluator(vp_linear)
            return sample(evaluator, vp_linear, grid,
                          SolverConfig(order=2, corrector=corrector), x0)

        res_std, res_oracle = run("standard"), run("oracle")
        assert res_oracle.nfe == 2 * M - 1
        assert np.max(np.abs(res_std.final - res_oracle.final)) > 0

    def test_push_keeps_the_latest_outputs(self):
        state = SolverState(x=np.ones(2), capacity=2)
        for t in (0.9, 0.8, 0.7):
            state.push(t, np.full(2, t))
        assert [e.t for e in state.buffer] == [0.8, 0.7]
        assert np.array_equal(state.buffer[-1].output, np.full(2, 0.7))

    @pytest.mark.parametrize("t", [0.8, 0.9, math.nan])
    def test_push_time_must_lie_below_the_last(self, t):
        state = SolverState(x=np.ones(2))
        state.push(0.8, np.ones(2))
        with pytest.raises(ValidationError, match="strictly decreasing"):
            state.push(t, np.ones(2))
        assert len(state.buffer) == 1

    @pytest.mark.parametrize("capacity", [-1, 0, 1.5, 2.0, True, "2", None])
    def test_capacity_must_be_a_positive_int(self, capacity):
        # -1 made push raise IndexError and 0 emptied the buffer on every push
        with pytest.raises(ValidationError, match="capacity"):
            SolverState(x=np.ones(2), capacity=capacity)


class TestOrderSchedules:
    @pytest.mark.parametrize("schedule,M", [("123321", 6), ("123456", 6), ("1223334", 7)])
    def test_valid_schedules_run(self, vp_linear, poly_model, rng, schedule, M):
        grid = make_time_grid(vp_linear, M)
        config = SolverConfig(order=max(int(d) for d in schedule),
                              corrector="standard", order_schedule=schedule)
        res = sample(poly_model.evaluator(vp_linear), vp_linear, grid,
                     config, rng.standard_normal(4))
        assert [rec.order for rec in res.trace] == [int(d) for d in schedule]
        assert res.nfe == M

    def test_entry_exceeding_history_rejected(self):
        config = SolverConfig(order=3, order_schedule="231")
        with pytest.raises(ValidationError, match="exceeds available history"):
            config.resolved_orders(3)

    def test_length_mismatch_rejected(self):
        config = SolverConfig(order=3, order_schedule="123")
        with pytest.raises(ValidationError, match="does not match"):
            config.resolved_orders(5)

    def test_bad_digits_rejected(self):
        with pytest.raises(ValidationError):
            SolverConfig(order=3, order_schedule="12a")
        with pytest.raises(ValidationError):
            SolverConfig(order=3, order_schedule="102")


class TestSinglestep:
    def test_converges_on_xfree(self, vp_linear, small_poly_model, rng):
        x0 = rng.standard_normal(4)
        exact = exact_solution_xfree(
            small_poly_model, vp_linear, x0, vp_linear.t_start, vp_linear.t_end
        )
        Ms = [10, 20, 40, 80]
        errs = []
        for M in Ms:
            grid = make_time_grid(vp_linear, M)
            res = sample(small_poly_model.evaluator(vp_linear), vp_linear, grid,
                         SolverConfig(order=2, corrector="standard", variant="singlestep"), x0)
            errs.append(np.max(np.abs(res.final - exact)))
        assert fitted_slope([1.0 / m for m in Ms], errs) >= 1.7

    @pytest.mark.parametrize("prediction", ["noise", "data"])
    @pytest.mark.parametrize("varying", [False, True])
    def test_variant_combinations_smoke(self, vp_linear, rng, prediction, varying):
        model = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        if prediction == "data":
            model = convert_parameterization(model, vp_linear)
        grid = make_time_grid(vp_linear, 8)
        config = SolverConfig(order=3, corrector="standard", variant="singlestep",
                              prediction=prediction, varying_coefficients=varying)
        res = sample(model, vp_linear, grid, config, rng.standard_normal(2))
        assert np.all(np.isfinite(res.final))
        assert res.nfe == model.eval_count

    def test_interior_nodes_between_grid_points(self, vp_linear, poly_model, rng):
        M = 4
        grid = make_time_grid(vp_linear, M)
        calls = []
        inner = poly_model.evaluator(vp_linear)

        def recording(x, t):
            calls.append(float(t))
            return inner._fn(x, t)

        instrumented = ModelEvaluator(recording, "noise", 4)
        sample(instrumented, vp_linear, grid,
               SolverConfig(order=2, corrector="off", variant="singlestep"),
               rng.standard_normal(4))
        grid_ts = {round(float(t), 12) for t in grid.times}
        interior = [t for t in calls if round(t, 12) not in grid_ts]
        # one midpoint evaluation per full-order step
        assert len(interior) == M - 1
        for t in interior:
            assert grid.times[-1] < t < grid.times[0]


class TestGuards:
    def test_nonfinite_model_output_aborts_with_step(self, vp_linear, rng):
        count = {"n": 0}

        def flaky(x, t):
            count["n"] += 1
            if count["n"] > 3:
                return np.full(2, np.nan)
            return 0.1 * x

        grid = make_time_grid(vp_linear, 6)
        with pytest.raises(NumericError) as excinfo:
            sample(ModelEvaluator(flaky, "noise", 2), vp_linear, grid,
                   SolverConfig(order=2, corrector="standard"), rng.standard_normal(2))
        assert excinfo.value.step == 3

    @pytest.mark.parametrize("variant,corrector,value,after,step,calls", [
        # the model's 4th call returns NaN: the abort names the step that made the call
        ("multistep", "off", np.nan, 3, 3, 4),
        ("multistep", "standard", np.nan, 3, 3, 4),
        ("multistep", "oracle", np.nan, 3, 2, 4),
        ("singlestep", "off", np.nan, 3, 2, 4),
        ("singlestep", "standard", np.nan, 3, 2, 4),
        ("singlestep", "oracle", np.nan, 3, 2, 4),
        # the 2nd call (at t_1) returns a finite 1e308: the first update that weights it
        # by more than about 1.8 overflows; a corrector's oracle call (3rd) comes before
        # the guard of the corrected state
        ("multistep", "off", 1e308, 1, 2, 2),
        ("multistep", "standard", 1e308, 1, 1, 2),
        ("multistep", "oracle", 1e308, 1, 1, 3),
        ("singlestep", "off", 1e308, 1, 2, 3),
        ("singlestep", "standard", 1e308, 1, 1, 2),
        ("singlestep", "oracle", 1e308, 1, 1, 3),
    ])
    def test_abort_reports_step_and_calls(self, vp_linear, variant, corrector, value, after,
                                          step, calls):
        # eval_count is what run_study writes into the nfe column of a divergent row.
        def fn(x, t):
            return 0.1 * x if model.eval_count <= after else np.full(3, value)

        model = ModelEvaluator(fn, "noise", 3)
        config = SolverConfig(order=2, variant=variant, corrector=corrector)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the overflow itself
            with pytest.raises(NumericError, match=f"non-finite value at step {step}$") as excinfo:
                sample(model, vp_linear, make_time_grid(vp_linear, 5), config, np.ones(3))
        assert (excinfo.value.step, model.eval_count) == (step, calls)

    def test_grid_from_another_schedule_samples_as_its_times(self, vp_linear, poly_model, rng):
        # A grid is its times: the schedule sample() is given maps them to lambda.
        grid = make_time_grid(type(vp_linear)(beta_min=0.2, beta_max=15.0), 5)
        x0 = rng.standard_normal(4)
        finals = [sample(poly_model.evaluator(vp_linear), vp_linear, g, SolverConfig(order=2),
                         x0).final.tobytes() for g in (grid, TimeGrid(grid.times.tolist()))]
        assert finals[0] == finals[1]

    def test_lambdas_not_increasing_rejected_before_any_call(self, vp_linear, poly_model):
        # Adjacent times one ulp apart map to one lambda under the schedule: no step
        # can be taken between them.
        grid = TimeGrid([1.0, 0.002, np.nextafter(0.002, 0.0), 1e-3])
        model = poly_model.evaluator(vp_linear)
        with pytest.raises(ValidationError, match="strictly increasing lambdas"):
            sample(model, vp_linear, grid, SolverConfig(order=2), np.ones(4))
        assert model.eval_count == 0

    @pytest.mark.parametrize("x_init,warm", [
        (np.ones(3), None),                      # too short for the dim-4 model
        (np.ones(5), None),                      # too long
        (np.ones((2, 4)), None),                 # a batch of states is not a state
        (np.float64(1.0), None),                 # a scalar
        ([["a", "b", "c", "d"]], None),          # not numeric
        (np.ones(4), [np.ones(3)]),              # a warm-start state of the wrong length
        (np.ones(4), [np.ones((1, 4))]),         # a 2-d warm-start state
    ])
    def test_state_shape_rejected(self, vp_linear, poly_model, x_init, warm):
        grid = make_time_grid(vp_linear, 4)
        evaluator = poly_model.evaluator(vp_linear)
        with pytest.raises(ValidationError, match="1-d array of length 4|not a numeric array"):
            sample(evaluator, vp_linear, grid, SolverConfig(order=2), x_init, warm_start=warm)
        assert evaluator.eval_count == 0

    @pytest.mark.parametrize("output", [
        lambda dim: 0.1,                     # a scalar was broadcast over the state
        lambda dim: np.array([0.1]),         # so was a length-1 output
        lambda dim: np.full(dim - 1, 0.1),   # these raised a bare numpy ValueError
        lambda dim: np.full(dim + 1, 0.1),
        lambda dim: np.full((1, dim), 0.1),  # a 2-d output, broadcastable or not
        lambda dim: np.full((dim, 1), 0.1),
    ], ids=["scalar", "length-1", "dim-1", "dim+1", "1xdim", "dimx1"])
    @pytest.mark.parametrize("prediction", ["noise", "data"])
    def test_model_output_shape_rejected(self, vp_linear, rng, output, prediction):
        dim = 4
        model = ModelEvaluator(lambda x, t: output(dim), prediction, dim)
        th = Thresholding() if prediction == "data" else None
        config = SolverConfig(order=2, prediction=prediction, thresholding=th)
        with pytest.raises(ValidationError, match=r"model output must have shape \(4,\)"):
            sample(model, vp_linear, make_time_grid(vp_linear, 4), config, rng.standard_normal(dim))
        assert model.eval_count == 1

    @pytest.mark.parametrize("oracle", [False, True])
    def test_correct_rejects_misshapen_output(self, vp_linear, rng, oracle):
        calls = {"n": 0}

        def model_fn(x, t):  # a state for the corrector's first call, then a scalar
            calls["n"] += 1
            return 0.1 * x if calls["n"] == 1 and oracle else np.array([0.1])

        dim, t0, t1 = 4, 0.9, 0.8
        state = fresh_state(vp_linear, zero_model(dim), rng.standard_normal(dim), t0)
        with pytest.raises(ValidationError, match="model output must have shape"):
            correct(vp_linear, state, t1, state.x.copy(), 1, ModelEvaluator(model_fn, "noise", dim),
                    SolverConfig(corrector="oracle" if oracle else "standard"))

    @pytest.mark.parametrize("x,eps", [
        (np.array(1.0), np.ones(4)),     # a scalar state was broadcast to a constant state
        (np.ones(4), np.ones(1)),        # so was a length-1 output
        (np.ones(4), np.ones(3)),        # a bare numpy ValueError
        (np.ones((1, 4)), np.ones(4)),   # a batch of states is not a state
        (np.ones(4), np.ones((4, 1))),
        (np.ones(4), ["a"] * 4),         # not numeric
    ], ids=["scalar-x", "length-1-eps", "short-eps", "1x4-x", "4x1-eps", "text-eps"])
    def test_ddim_step_shape_rejected(self, vp_linear, x, eps):
        with pytest.raises(ValidationError, match="1-d array|not a numeric array"):
            ddim_step(vp_linear, x, eps, 0.8, 0.6)

    @pytest.mark.parametrize("t_prev,t_next", [(0.5, 0.9), (0.6, 0.6), (0.8, math.nan)],
                             ids=["backwards", "equal", "nan"])
    def test_ddim_step_must_step_forward(self, vp_linear, t_prev, t_next):
        # backwards stepped silently; equal times warned 0/0 before the DomainError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="t_next=.* is not below t_prev"):
                ddim_step(vp_linear, np.ones(4), np.ones(4), t_prev, t_next)

    @pytest.mark.parametrize("where,value", [
        ("x", np.array(1.0)),            # a scalar state.x returned a broadcast state
        ("x", np.ones(3)),
        ("x_pred", np.array(1.0)),       # an x-free model never noticed a wrong x_pred
        ("x_pred", np.ones(5)),
        ("x_pred", np.ones((1, 4))),
        ("output", np.ones(3)),          # a bare numpy ValueError
        ("output", np.ones(1)),          # broadcast over the state
        ("output", np.array(0.5)),
    ], ids=["scalar-x", "short-x", "scalar-x_pred", "long-x_pred", "1x4-x_pred",
            "short-output", "length-1-output", "scalar-output"])
    def test_correct_shape_rejected(self, vp_linear, poly_model, where, value):
        evaluator = poly_model.evaluator(vp_linear)
        state = SolverState(x=np.ones(4), capacity=4)
        state.push(0.9, evaluator(np.ones(4), 0.9))
        state.push(0.8, value if where == "output" else evaluator(np.ones(4), 0.8))
        if where == "x":
            state.x = value
        x_pred = value if where == "x_pred" else np.ones(4)
        calls = evaluator.eval_count
        with pytest.raises(ValidationError, match="must be a 1-d array of length 4"):
            correct(vp_linear, state, 0.7, x_pred, 2, evaluator)
        assert evaluator.eval_count == calls

    def test_warm_start_too_long(self, vp_linear, poly_model, rng):
        grid = make_time_grid(vp_linear, 3)
        with pytest.raises(ValidationError, match="warm_start"):
            sample(poly_model.evaluator(vp_linear), vp_linear, grid,
                   SolverConfig(order=2), rng.standard_normal(4),
                   warm_start=[rng.standard_normal(4)] * 3)


    def test_guard_passes_finite_entries_whose_sum_overflows(self):
        big = np.full(6, 1e308)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # the sum overflows by design
            _guard(big, 2)
            _guard(-big, 2)

    @pytest.mark.parametrize("dim", [1, 4, 4097, 2**18])
    @pytest.mark.parametrize("big", [1e155, 1e200, 1e308, -1e308], ids=str)
    def test_guard_passes_finite_entries_whose_squares_overflow(self, dim, big):
        # The guard's sum of squares overflows to inf; the scan that follows passes.
        arr = np.full(dim, big)
        arr[::2] *= -1.0  # mixed signs
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            _guard(arr, 1)
            _guard(np.full(2 * dim, big)[::2], 1)  # a strided view

    @pytest.mark.parametrize("dim", [1, 4, 4097, 2**18])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=str)
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_guard_raises_on_a_nonfinite_entry(self, dim, bad, where):
        arr = np.linspace(-3.0, 5.0, dim)
        arr[{"first": 0, "middle": dim // 2, "last": dim - 1}[where]] = bad
        strided = np.zeros(2 * dim)
        strided[::2] = arr
        for view in (arr, strided[::2]):
            with pytest.raises(NumericError, match="non-finite value at step 7$"):
                _guard(view, 7)

    def test_huge_state_samples_without_numeric_error(self, vp_linear, poly_model):
        # Every square of a 1e200 state overflows; the x-free model never sees x.
        grid = make_time_grid(vp_linear, 6)
        model = poly_model.evaluator(vp_linear)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            result = sample(model, vp_linear, grid, SolverConfig(order=3), np.full(4, 1e200))
        assert np.all(np.isfinite(result.final)) and result.nfe == 6

    @pytest.mark.parametrize("variant", ["multistep", "singlestep"])
    def test_ulp_long_lambda_steps_rejected_before_any_call(self, vp_linear, poly_model, variant):
        # Three times one ulp apart below 0.5 give lambda steps of 2.2e-16, 2.2e-16 and
        # 6.7e-16; UniPC-3 returned 4.9e14 (multistep) and -1,449 (singlestep) per entry
        # over them without error, where the exact answer is -1,937.
        times = [1.0, 0.5]
        for _ in range(3):
            times.append(np.nextafter(times[-1], 0.0))
        model = poly_model.evaluator(vp_linear)
        with pytest.raises(ValidationError, match="2\\^20 ulp"):
            sample(model, vp_linear, TimeGrid(times + [1e-3]), SolverConfig(order=3, variant=variant),
                   np.ones(4))
        assert model.eval_count == 0

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    @pytest.mark.parametrize("skip", ["uniform-lambda", "uniform-time", "quadratic-time"])
    def test_time_grids_stay_far_above_the_step_floor(self, kind, skip):
        sched = NoiseSchedule.from_json({"kind": kind})
        for M in (1, 10, 1000, 10**5):
            lam = sched._maps(make_time_grid(sched, M, skip).times)[1]
            ends = np.maximum(1.0, np.maximum(abs(lam[:-1]), abs(lam[1:])))
            assert np.min(np.diff(lam) / (solver._MIN_STEP * ends)) > 2.0**15

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("position", range(3))
    def test_nonfinite_entry_aborts_at_same_step(self, vp_linear, rng, bad, position):
        count = {"n": 0}

        def flaky(x, t):
            count["n"] += 1
            out = 0.1 * x
            if count["n"] > 3:
                out[position] = bad
            return out

        grid = make_time_grid(vp_linear, 6)
        with pytest.raises(NumericError) as excinfo:
            sample(ModelEvaluator(flaky, "noise", 3), vp_linear, grid,
                   SolverConfig(order=2, corrector="standard"), rng.standard_normal(3))
        assert excinfo.value.step == 3


NON_REAL = {
    "complex": lambda dim: np.ones(dim) + 1j,
    "text": lambda dim: np.array([str(v) for v in range(1, dim + 1)]),
    "bool": lambda dim: np.ones(dim, bool),
    "object": lambda dim: np.array([1.0] * (dim - 1) + [None], dtype=object),
}


@pytest.mark.filterwarnings("error")  # a ComplexWarning means the imaginary part was dropped
class TestNonRealValues:
    """A state or a model output that does not hold integers or floats raises
    ValidationError: complex values lost their imaginary part with a warning, text and
    bools sampled as numbers, and text from the model raised a bare ValueError."""

    @pytest.mark.parametrize("kind", NON_REAL)
    @pytest.mark.parametrize("where", ["x_init", "warm_start"])
    def test_sample_rejects_a_non_real_state_before_any_call(self, vp_linear, poly_model,
                                                             kind, where):
        model = poly_model.evaluator(vp_linear)
        x, warm = (NON_REAL[kind](4), None) if where == "x_init" else (np.ones(4), [NON_REAL[kind](4)])
        with pytest.raises(ValidationError, match=f"{where}.* is not a numeric array"):
            sample(model, vp_linear, make_time_grid(vp_linear, 4), SolverConfig(order=2), x,
                   warm_start=warm)
        assert model.eval_count == 0

    @pytest.mark.parametrize("kind", NON_REAL)
    def test_sample_rejects_a_non_real_model_output(self, vp_linear, kind):
        model = ModelEvaluator(lambda x, t: NON_REAL[kind](3), "noise", 3)
        with pytest.raises(ValidationError, match="model output is not a numeric array"):
            sample(model, vp_linear, make_time_grid(vp_linear, 4), SolverConfig(), np.ones(3))
        assert model.eval_count == 1

    @pytest.mark.parametrize("kind", NON_REAL)
    @pytest.mark.parametrize("where", ["x_pred", "state.x", "output"])
    def test_correct_rejects_non_real_values(self, vp_linear, poly_model, kind, where):
        good = poly_model.evaluator(vp_linear)
        state = SolverState(x=np.ones(4), capacity=2)
        state.push(0.9, good(np.ones(4), 0.9))
        model, x_pred, calls = good, np.ones(4), good.eval_count
        if where == "x_pred":
            x_pred = NON_REAL[kind](4)
        elif where == "state.x":
            state.x = NON_REAL[kind](4)
        else:
            model, calls = ModelEvaluator(lambda x, t: NON_REAL[kind](4), "noise", 4), 1
        with pytest.raises(ValidationError, match="is not a numeric array"):
            correct(vp_linear, state, 0.8, x_pred, 1, model)
        assert model.eval_count == calls

    @pytest.mark.parametrize("kind", NON_REAL)
    @pytest.mark.parametrize("where", ["x", "eps_prev"])
    def test_ddim_step_rejects_non_real_values(self, vp_linear, kind, where):
        x, eps = np.ones(4), np.ones(4)
        if where == "x":
            x = NON_REAL[kind](4)
        else:
            eps = NON_REAL[kind](4)
        with pytest.raises(ValidationError, match=f"{where} is not a numeric array"):
            ddim_step(vp_linear, x, eps, 0.9, 0.8)

    def test_integer_states_and_outputs_sample_as_floats(self, vp_linear):
        grid, config = make_time_grid(vp_linear, 5), SolverConfig(order=2)
        finals = [sample(ModelEvaluator(lambda x, t, c=c: c(np.arange(3)), "noise", 3), vp_linear,
                         grid, config, c(np.arange(3) - 1)).final.tobytes()
                  for c in (lambda v: v, lambda v: v.astype(float))]
        assert finals[0] == finals[1]


class TestWorkingSet:
    def run(self, sched, x0, M=7, **kwargs):
        model = SyntheticModel.linear_in_x(0.3, len(x0)).evaluator(sched)
        return sample(model, sched, make_time_grid(sched, M), SolverConfig(order=3), x0, **kwargs)

    def test_trajectory_is_opt_in(self, vp_linear, rng):
        x0 = rng.standard_normal(4)
        plain = self.run(vp_linear, x0)
        kept = self.run(vp_linear, x0, trajectory=True)
        assert plain.trajectory is None
        assert len(kept.trajectory) == 8
        assert np.array_equal(kept.trajectory[0], x0)
        assert np.array_equal(plain.final, kept.trajectory[-1])
        assert np.array_equal(kept.final, kept.trajectory[-1])

    def test_inputs_untouched_and_not_aliased(self, vp_linear, rng):
        x0 = rng.standard_normal(4)
        warm = [rng.standard_normal(4), rng.standard_normal(4)]
        copies = [x0.copy()] + [w.copy() for w in warm]
        res = self.run(vp_linear, x0, warm_start=warm, trajectory=True)
        for given, copy in zip([x0] + warm, copies):
            assert np.array_equal(given, copy)
            assert not np.shares_memory(res.final, given)
        assert not any(np.shares_memory(res.final, s) for s in res.trajectory)

    @pytest.mark.parametrize("M", [1, 7])
    def test_final_owns_its_memory(self, vp_linear, rng, M):
        # Not a view of the run's work array, which the result would otherwise keep alive.
        res = self.run(vp_linear, rng.standard_normal(4), M=M)
        assert res.final.base is None and res.final.flags.owndata

    def test_second_run_leaves_first_final(self, vp_linear, rng):
        first = self.run(vp_linear, rng.standard_normal(4))
        kept = first.final.copy()
        second = self.run(vp_linear, rng.standard_normal(4))
        assert np.array_equal(first.final, kept)
        assert not np.shares_memory(first.final, second.final)

    @pytest.mark.parametrize("M", [10, 40])
    def test_peak_memory_flat_in_steps(self, vp_linear, M):
        # unipc-3 with a corrector keeps K = 4 outputs; thresholding is the
        # hungriest model call.  The bound does not grow with M.
        dim, K = 2**16, 4
        model = SyntheticModel.x_free_poly([0.3, -1.2, 0.5], dim).evaluator(vp_linear)
        model = convert_parameterization(model, vp_linear)
        config = SolverConfig(order=3, prediction="data", thresholding=Thresholding())
        grid = make_time_grid(vp_linear, M)
        x0 = np.random.default_rng(0).standard_normal(dim)
        sample(model, vp_linear, make_time_grid(vp_linear, 4), config, x0)  # warm caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = sample(model, vp_linear, grid, config, x0)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert res.nfe == M
        assert peak <= (K + 4) * x0.nbytes


class TestThresholding:
    def test_binds_on_large_data_predictions(self, vp_linear):
        model = SyntheticModel.linear_in_x(0.3, 3)
        x0 = np.array([4.0, -5.0, 3.0])
        grid = make_time_grid(vp_linear, 8)

        def run(th):
            evaluator = convert_parameterization(model.evaluator(vp_linear), vp_linear)
            config = SolverConfig(order=2, corrector="standard", prediction="data",
                                  thresholding=th)
            return sample(evaluator, vp_linear, grid, config, x0)

        plain = run(None)
        clipped = run(Thresholding(ratio=0.995, floor=1.0))
        assert np.all(np.isfinite(clipped.final))
        assert np.max(np.abs(plain.final - clipped.final)) > 1e-8

    def test_thresholding_requires_data(self):
        with pytest.raises(ValidationError):
            SolverConfig(order=2, prediction="noise", thresholding=Thresholding())

    @pytest.mark.parametrize("th", [{"ratio": 0.995, "floor": 1.0}, [0.995, 1.0], 0.995])
    def test_thresholding_must_be_a_thresholding(self, th):
        with pytest.raises(ValidationError, match="must be a Thresholding"):
            SolverConfig(order=2, prediction="data", thresholding=th)

    @pytest.mark.parametrize("ratio", [0.5, 0.2, 1.0 + 1e-12, 2.0, -1.0])
    def test_ratio_outside_half_to_one_rejected(self, ratio):
        with pytest.raises(ValidationError, match="ratio"):
            Thresholding(ratio=ratio)

    @pytest.mark.parametrize("floor", [0.5, 0.0, -1.0])
    def test_floor_below_one_rejected(self, floor):
        with pytest.raises(ValidationError, match="floor"):
            Thresholding(floor=floor)

    @pytest.mark.parametrize("field", ["ratio", "floor"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, "0.9", None, True])
    def test_nonfinite_or_non_number_rejected(self, field, value):
        with pytest.raises(ValidationError, match=field):
            Thresholding(**{field: value})

    def test_edges_accepted(self):
        assert Thresholding(ratio=1.0, floor=1.0) == Thresholding(ratio=1, floor=1)


class TestPlugAndPlayCorrector:
    @staticmethod
    def manual_run(sched, grid, evaluator, x0, config):
        """DDIM steps, each but the last refined by correct() and its output pushed, as
        sample() runs UniPC-1; the trajectory and the model calls it made."""
        t = [float(v) for v in grid.times]
        state = SolverState(x=x0.copy(), capacity=1)
        state.push(t[0], evaluator(x0, t[0]))
        traj = [x0.copy()]
        for t_prev, t_next in zip(t[:-1], t[1:]):
            x_pred = ddim_step(sched, state.x, state.buffer[-1].output, t_prev, t_next)
            if t_next != t[-1]:
                res = correct(sched, state, t_next, x_pred, 1, evaluator, config)
                state.push(t_next, res.push_output)
                x_pred = res.corrected
            state.x = x_pred
            traj.append(state.x.copy())
        return traj, evaluator.eval_count

    def test_unic_on_manual_ddim_equals_driver(self, vp_linear, poly_model, rng):
        grid = make_time_grid(vp_linear, 7)
        x0 = rng.standard_normal(4)
        config = SolverConfig(order=1, corrector="standard")
        driver = sample(poly_model.evaluator(vp_linear), vp_linear, grid, config, x0,
                        trajectory=True)
        traj, _ = self.manual_run(vp_linear, grid, poly_model.evaluator(vp_linear), x0, config)
        for a, b in zip(driver.trajectory, traj):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("corrector", ["standard", "oracle"])
    @pytest.mark.parametrize("weights", ["pinned", "varying"])
    @pytest.mark.parametrize("bh", ["b1", "b2"])
    def test_every_option_equals_driver(self, vp_linear, poly_model, rng, bh, weights, corrector):
        grid = make_time_grid(vp_linear, 7)
        x0 = rng.standard_normal(4)
        config = SolverConfig(order=1, bh=bh, corrector=corrector,
                              varying_coefficients=weights == "varying")
        driver = sample(poly_model.evaluator(vp_linear), vp_linear, grid, config, x0,
                        trajectory=True)
        traj, nfe = self.manual_run(vp_linear, grid, poly_model.evaluator(vp_linear), x0, config)
        assert nfe == driver.nfe == (13 if corrector == "oracle" else 7)
        if weights == "pinned":
            assert all(np.array_equal(a, b) for a, b in zip(driver.trajectory, traj))
        else:
            # Solved weights come from a batch of plan rows, whose basis series takes as
            # many terms as the batch's largest h needs, so they agree to round-off only.
            scale = max(float(np.max(np.abs(a))) for a in driver.trajectory)
            for a, b in zip(driver.trajectory, traj):
                assert np.max(np.abs(a - b)) <= 8 * np.finfo(float).eps * scale


class TestConfigJSON:
    def test_round_trip(self):
        config = SolverConfig(order=4, variant="singlestep", bh="b1", prediction="data",
                              corrector="oracle", order_schedule=None,
                              thresholding=Thresholding(0.99, 1.5), varying_coefficients=True)
        assert SolverConfig.from_json(config.to_json()) == config

    def test_lowercase_enums(self):
        doc = SolverConfig(order=2).to_json()
        assert doc["variant"] == "multistep" and doc["bh"] == "b2" and doc["corrector"] == "standard"

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            SolverConfig.from_json({"order": 2, "step_mode": "fancy"})

    @pytest.mark.parametrize("th,message", [
        ({"ratio": 0.9, "floor": 1.0, "flor": 2}, r"unknown \['flor'\]"),  # was accepted
        ({"ratio": 0.9}, r"missing \['floor'\]"),                        # was a bare KeyError
        ({"floor": 1.0}, r"missing \['ratio'\]"),
    ])
    def test_thresholding_fields_checked(self, th, message):
        with pytest.raises(ValidationError, match="thresholding fields.*" + message):
            SolverConfig.from_json({"order": 2, "prediction": "data", "thresholding": th})

    def test_varying_order_cap(self):
        with pytest.raises(ValidationError):
            SolverConfig(order=6, varying_coefficients=True)
        SolverConfig(order=5, varying_coefficients=True)

    def test_name(self):
        assert SolverConfig(order=3, corrector="off").name() == "unip-3"
        assert SolverConfig(order=2).name() == "unipc-2"
        assert SolverConfig(order=2, varying_coefficients=True).name() == "unipc_v-2"


class TestPlanCache:
    """sample() builds a plan once per (schedule, config, warm-start length, grid times)
    and shares it read-only from the key's second use on."""

    @pytest.fixture(autouse=True)
    def empty_cache(self, monkeypatch):
        monkeypatch.setattr(solver, "_cache", OrderedDict())
        monkeypatch.setattr(solver, "_cache_steps", 0)
        monkeypatch.setattr(solver, "_seen", set())

    @staticmethod
    def assert_same_plan(plan, fresh):
        for name in ("rows", "src", "dst", "low", "corrector", "call", "bounds"):
            got, want = getattr(plan, name), getattr(fresh, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes(), name
        assert list(plan.ts) == list(fresh.ts)
        assert list(plan.trace) == list(fresh.trace)

    @staticmethod
    def differs(plan, other):
        return (plan.rows.shape != other.rows.shape or plan.rows.tobytes() != other.rows.tobytes()
                or list(plan.ts) != list(other.ts) or list(plan.trace) != list(other.trace))

    @pytest.mark.parametrize("variant, corrector, warm", LAYOUTS)
    def test_hit_is_bitwise_a_fresh_build(self, vp_linear, rng, variant, corrector, warm):
        model = SyntheticModel.linear_in_x(0.3, 4).evaluator(vp_linear)
        grid, config = make_time_grid(vp_linear, 9), SolverConfig(order=3, variant=variant,
                                                                   corrector=corrector)
        x0, states = rng.standard_normal(4), [rng.standard_normal(4) for _ in range(warm)]
        runs = [sample(model, vp_linear, grid, config, x0, warm_start=states) for _ in range(3)]
        assert len(solver._cache) == 1  # kept at the second use, read at the third
        (plan,) = solver._cache.values()
        self.assert_same_plan(plan, solver._plan(vp_linear, grid, config, warm + 1))
        for res in runs[1:]:
            assert res.final.tobytes() == runs[0].final.tobytes()
            assert res.nfe == runs[0].nfe and res.trace == runs[0].trace

    def test_each_key_part_separates_plans(self, vp_linear):
        grid, config = make_time_grid(vp_linear, 8, "quadratic-time"), SolverConfig(order=3)
        times = grid.times.copy()
        times[3] = np.nextafter(times[3], 1.0)  # one ulp
        nudged = TimeGrid(times)
        other = NoiseSchedule(beta_max=19.0)  # the same times under another schedule
        variants = {
            "grid time": (vp_linear, nudged, config, 1),
            "warm start": (vp_linear, grid, config, 2),
            "schedule": (other, grid, config, 1),
        }
        for name, value in [("bh", "b1"), ("order_schedule", "12312312"),
                            ("variant", "singlestep"), ("prediction", "data"),
                            ("corrector", "off"), ("order", 2), ("varying_coefficients", True)]:
            variants[name] = (vp_linear, grid, replace(config, **{name: value}), 1)
        for _ in range(2):  # kept at its second use
            base = solver._cached_plan(vp_linear, grid, config, 1)
        for name, args in variants.items():
            fresh = solver._plan(*args)
            assert self.differs(fresh, base), name
            for _ in range(3):
                plan = solver._cached_plan(*args)
                self.assert_same_plan(plan, fresh)
        assert len(solver._cache) == 1 + len(variants)
        self.assert_same_plan(solver._cached_plan(vp_linear, grid, config, 1), base)

    def test_shared_plans_are_read_only(self, vp_linear, rng):
        model = SyntheticModel.linear_in_x(0.3, 4).evaluator(vp_linear)
        grid, config, x0 = make_time_grid(vp_linear, 6), SolverConfig(order=2), rng.standard_normal(4)
        first = sample(model, vp_linear, grid, config, x0)
        kept = list(first.trace)
        first.trace.clear()
        second = sample(model, vp_linear, grid, config, x0)  # kept in the cache from here
        second.trace[0] = second.trace[-1]
        second.trace.append(second.trace[0])
        (plan,) = solver._cache.values()
        for arr in (plan.rows, plan.src, plan.dst, plan.low, plan.corrector, plan.call,
                    plan.bounds):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        third = sample(model, vp_linear, grid, config, x0)
        assert third.trace == kept and third.trace is not second.trace
        assert third.final.tobytes() == first.final.tobytes()

    def test_bounded_in_steps(self, vp_linear, monkeypatch):
        monkeypatch.setattr(solver, "_CACHE_STEPS", 25)
        config = SolverConfig(order=2)
        grids = [make_time_grid(vp_linear, M) for M in (10, 7, 8, 9, 3)]
        for grid in grids:
            for _ in range(2):
                solver._cached_plan(vp_linear, grid, config, 1)
            held = [len(plan.trace) for plan in solver._cache.values()]
            assert solver._cache_steps == sum(held) <= 25
        assert sorted(held) == [3, 8, 9]  # the oldest dropped first
        big = make_time_grid(vp_linear, 26)
        for _ in range(3):
            assert len(solver._cached_plan(vp_linear, big, config, 1).trace) == 26
        assert len(solver._cache) == 3 and solver._cache_steps == 20

    def test_numpy_scalar_schedule_is_cached(self, rng):
        # A 0-d array field, which could not key the cache, is now refused at construction;
        # a numpy scalar is a number, hashes like the float it equals, and keys one plan.
        with pytest.raises(ValidationError, match="beta_min"):
            NoiseSchedule(beta_min=np.array(0.1))
        sched = NoiseSchedule(beta_min=np.float64(0.1))
        model = SyntheticModel.linear_in_x(0.3, 4).evaluator(sched)
        grid, x0 = make_time_grid(sched, 5), rng.standard_normal(4)
        runs = [sample(model, sched, grid, SolverConfig(order=2), x0) for _ in range(3)]
        assert runs[2].final.tobytes() == runs[0].final.tobytes()
        (kept,) = solver._cache.values()  # kept at the second use, read at the third
        # the plain-float schedule it equals finds the same plan
        assert solver._cached_plan(NoiseSchedule(), grid, SolverConfig(order=2), 1) is kept

    def test_first_use_keeps_nothing(self, vp_linear):
        grid, config = make_time_grid(vp_linear, 5), SolverConfig(order=3)
        solver._cached_plan(vp_linear, grid, config, 1)
        assert not solver._cache and solver._cache_steps == 0
