import json
import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dynamic_threshold_reference, trapezoid, xfree_eps
from unipc import (
    ConvergenceStudy,
    DomainError,
    ModelEvaluator,
    NoiseSchedule,
    SyntheticModel,
    ValidationError,
    convert_parameterization,
    dynamic_threshold,
    exact_solution_xfree,
)
from unipc.cli import main
from unipc.model import _tail_candidates


class TestConversion:
    def test_zero_noise_gives_x_over_alpha(self, vp_linear):
        zero = ModelEvaluator(lambda x, t: np.zeros_like(x), "noise", 3)
        data = convert_parameterization(zero, vp_linear)
        x = np.array([1.0, -2.0, 0.5])
        out = data(x, 0.4)
        assert np.allclose(out, x / vp_linear.alpha(0.4), rtol=1e-15)
        assert data.prediction == "data"

    def test_round_trip_reproduces_outputs(self, vp_linear, rng):
        kappa = SyntheticModel.linear_in_x(0.7, 3)
        noise = kappa.evaluator(vp_linear)
        back = convert_parameterization(convert_parameterization(noise, vp_linear), vp_linear)
        for _ in range(20):
            x = rng.standard_normal(3)
            t = rng.uniform(vp_linear.t_end, vp_linear.t_start)
            a, b = noise(x, t), back(x, t)
            assert np.allclose(a, b, rtol=1e-14, atol=1e-16)

    def test_linear_in_x_substitution(self, vp_linear):
        noise = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        data = convert_parameterization(noise, vp_linear)
        x = np.ones(2)
        alpha, sigma, _ = vp_linear.alpha_sigma_lambda(0.5)
        assert np.allclose(data(x, 0.5), x * (1 - 0.3 * sigma) / alpha, rtol=1e-14)

    def test_parameterization_identity(self, vp_linear, rng):
        poly = SyntheticModel.x_free_poly([0.3, -1.2, 0.5], 4)
        noise = poly.evaluator(vp_linear)
        data = convert_parameterization(noise, vp_linear)
        for _ in range(100):
            x = rng.standard_normal(4) * 3
            t = float(rng.uniform(vp_linear.t_end, vp_linear.t_start))
            alpha, sigma, _ = vp_linear.alpha_sigma_lambda(t)
            recon = alpha * data(x, t) + sigma * noise(x, t)
            assert np.max(np.abs(recon - x)) < 1e-12 * max(1.0, np.max(np.abs(x)))

    def test_one_call_per_call(self, vp_linear):
        noise = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        data = convert_parameterization(noise, vp_linear)
        data(np.ones(2), 0.5)
        data(np.ones(2), 0.5, out=np.empty(2))
        assert noise.eval_count == 2 and data.eval_count == 2


class TestExactSolution:
    def test_homogeneous(self, vp_linear):
        model = SyntheticModel.x_free_poly([0.0], 3)
        x = np.array([1.0, 2.0, -0.5])
        out = exact_solution_xfree(model, vp_linear, x, 0.9, 0.1)
        ratio = vp_linear.alpha(0.1) / vp_linear.alpha(0.9)
        assert np.allclose(out, ratio * x, rtol=1e-14)

    def test_constant_noise_closed_form_and_quadrature(self, vp_linear):
        c0 = 0.8
        model = SyntheticModel.x_free_poly([c0], 2)
        x = np.array([0.3, -1.1])
        s, t = 0.9, 0.1
        out = exact_solution_xfree(model, vp_linear, x, s, t)
        lam_s, lam_t = vp_linear.lam(s), vp_linear.lam(t)
        alpha_s, alpha_t = vp_linear.alpha(s), vp_linear.alpha(t)
        closed = (alpha_t / alpha_s) * x - alpha_t * c0 * (math.exp(-lam_s) - math.exp(-lam_t))
        assert np.allclose(out, closed, rtol=1e-13)
        integral = trapezoid(lambda lam: np.exp(-lam) * c0, lam_s, lam_t, 1_000_000)
        quad = (alpha_t / alpha_s) * x - alpha_t * integral
        assert np.max(np.abs(out - quad)) < 1e-10

    def test_degree2_vs_quadrature(self, vp_linear, rng):
        coeffs = rng.normal(size=3)
        model = SyntheticModel.x_free_poly(coeffs, 1)
        x = rng.standard_normal(1)
        s, t = 0.8, 0.2
        out = exact_solution_xfree(model, vp_linear, x, s, t)
        lam_s, lam_t = vp_linear.lam(s), vp_linear.lam(t)
        poly = lambda lam: coeffs[0] + coeffs[1] * lam + coeffs[2] * lam**2
        integral = trapezoid(lambda lam: np.exp(-lam) * poly(lam), lam_s, lam_t, 1_000_000)
        quad = (vp_linear.alpha(t) / vp_linear.alpha(s)) * x - vp_linear.alpha(t) * integral
        assert np.max(np.abs(out - quad)) < 1e-9

    def test_semigroup(self, vp_linear, rng):
        model = SyntheticModel.x_free_poly([0.3, -1.2, 0.5], 4)
        x = rng.standard_normal(4)
        s, u, t = 0.9, 0.5, 0.05
        two_hops = exact_solution_xfree(
            model, vp_linear, exact_solution_xfree(model, vp_linear, x, s, u), u, t
        )
        one_hop = exact_solution_xfree(model, vp_linear, x, s, t)
        assert np.max(np.abs(two_hops - one_hop)) < 1e-11

    def test_wrong_family_and_direction(self, vp_linear):
        linear = SyntheticModel.linear_in_x(0.3, 2)
        with pytest.raises(DomainError):
            exact_solution_xfree(linear, vp_linear, np.ones(2), 0.9, 0.1)
        poly = SyntheticModel.x_free_poly([1.0], 2)
        with pytest.raises(DomainError):
            exact_solution_xfree(poly, vp_linear, np.ones(2), 0.1, 0.9)

    @pytest.mark.parametrize("shape", [(4, 4), (3,), (5,), (1,), ()])
    def test_x_s_must_be_one_state(self, vp_linear, shape):
        # a (4, 4) x_s with a dim-4 model returned a (4, 4) array
        model = SyntheticModel.x_free_poly([0.3, -1.2, 0.5], 4)
        with pytest.raises(ValidationError, match="x_s must be a 1-d array of length 4"):
            exact_solution_xfree(model, vp_linear, np.ones(shape), 0.9, 0.1)

    @pytest.mark.parametrize("where,value,message", [
        ("model", None, "^model must be a SyntheticModel, got NoneType$"),
        ("model", "poly", "^model must be a SyntheticModel, got str$"),
        ("sched", None, "^schedule must be a NoiseSchedule, got NoneType$"),
        ("sched", {"kind": "vp-linear"}, "^schedule must be a NoiseSchedule, got dict$"),
        ("s", None, "^time s must be a real number, got None$"),
        ("s", 1 + 2j, "^time s must be a real number, got "),
        ("t", [0.1], r"^time t must be a real number, got \[0.1\]$"),
        ("t", True, "^time t must be a real number, got True$"),  # ran from t = 1.0
    ], ids=["none-model", "text-model", "none-sched", "dict-sched", "none-s", "complex-s",
            "list-t", "bool-t"])
    def test_argument_types_checked(self, vp_linear, where, value, message):
        # the models and schedules raised a bare AttributeError, the times a bare TypeError
        args = dict(model=SyntheticModel.x_free_poly([0.3, -1.2], 4), sched=vp_linear,
                    x_s=np.ones(4), s=0.9, t=0.1)
        args[where] = value
        with pytest.raises(ValidationError, match=message):
            exact_solution_xfree(**args)


class TestDynamicThreshold:
    def test_identity_inside_unit_box(self, rng):
        x = rng.uniform(-1, 1, size=16)
        assert np.array_equal(dynamic_threshold(x), x)

    def test_top_entry_clipped(self):
        out = dynamic_threshold(np.array([0.0, 0.0, 10.0]), ratio=0.995, floor=1.0)
        assert np.allclose(out, [0.0, 0.0, 1.0], atol=1e-12)

    def test_scaling_preserves_clip_pattern(self):
        x = np.array([0.1, -3.0, 2.0, 0.5, -0.2])
        s1 = max(1.0, np.quantile(np.abs(x), 0.9))
        s2 = max(1.0, np.quantile(np.abs(2 * x), 0.9))
        clipped1 = np.abs(x) > s1
        clipped2 = np.abs(2 * x) > s2
        assert np.array_equal(clipped1, clipped2)
        out1 = dynamic_threshold(x, ratio=0.9, floor=1.0)
        out2 = dynamic_threshold(2 * x, ratio=0.9, floor=1.0)
        assert np.array_equal(np.abs(out1) == 1.0, np.abs(out2) == 1.0)

    def test_argument_errors(self):
        with pytest.raises(DomainError):
            dynamic_threshold(np.array([]))
        with pytest.raises(DomainError):
            dynamic_threshold(np.ones(3), ratio=0.4)
        with pytest.raises(DomainError):
            dynamic_threshold(np.ones(3), floor=0.5)

    @pytest.mark.parametrize("floor", [math.nan, math.inf, -math.inf])
    def test_nonfinite_floor_rejected(self, floor):
        # floor=nan returned all NaN and floor=inf all zeros
        with pytest.raises(DomainError, match="floor"):
            dynamic_threshold(np.array([0.5, 2.0, -3.0]), floor=floor)

    @pytest.mark.parametrize("ratio", ["0.9", None, [0.9], True, math.nan, math.inf])
    def test_non_number_ratio_rejected(self, ratio):
        with pytest.raises(DomainError, match="ratio"):
            dynamic_threshold(np.array([0.5, 2.0, -3.0]), ratio=ratio)

    @pytest.mark.parametrize("floor", ["1.0", None, True])
    def test_non_number_floor_rejected(self, floor):
        with pytest.raises(DomainError, match="floor"):
            dynamic_threshold(np.array([0.5, 2.0, -3.0]), floor=floor)

    @pytest.mark.parametrize("x0", [np.array([1 + 5j, 2, 3]), ["1", "2", "3"],
                                    np.array([True, False, True]), [object(), 1.0]],
                             ids=["complex", "text", "bool", "object"])
    def test_non_real_input_rejected(self, x0):
        # The complex input lost its imaginary part with only a ComplexWarning and the
        # text gave [0.334, 0.669, 1.0]; the bools gave [1, 0, 1].
        with pytest.raises(ValidationError, match="integers or floats"):
            dynamic_threshold(x0)

    def test_integer_input_accepted(self):
        x = np.array([1, -2, 3])
        out = dynamic_threshold(x, ratio=0.9)
        assert out.tobytes() == dynamic_threshold_reference(x, ratio=0.9).tobytes()

    def test_input_not_written(self, rng):
        x = rng.standard_normal(300) * 4
        kept = x.copy()
        out = dynamic_threshold(x)
        assert np.array_equal(x, kept) and not np.shares_memory(out, x)


def _values(kind: str, n: int, rng) -> np.ndarray:
    if kind == "normal":
        return rng.standard_normal(n) * 3.0
    if kind == "rounded":  # heavy ties
        return np.round(rng.standard_normal(n) * 2.0)
    if kind == "constant":
        return np.full(n, rng.choice([0.0, 0.5, -2.0, 7.0]))
    return rng.standard_cauchy(n)


@st.composite
def threshold_inputs(draw):
    n = draw(st.integers(1, 4096))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = _values(draw(st.sampled_from(["normal", "rounded", "constant", "cauchy"])), n, rng)
    poison = draw(st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3))
    x[rng.integers(n, size=len(poison))] = poison
    ratio = draw(st.one_of(st.just(1.0), st.floats(0.5, 1.0, exclude_min=True)))
    floor = draw(st.sampled_from([1.0, 1.5, 40.0]))
    return x, ratio, floor


class TestThresholdBitwise:
    """dynamic_threshold against np.quantile-based thresholding, bit for bit."""

    @staticmethod
    def same(x, ratio, floor=1.0) -> bool:
        with np.errstate(invalid="ignore"):  # inf / inf where an infinity sets s
            got = dynamic_threshold(x, ratio, floor)
            want = dynamic_threshold_reference(x, ratio, floor)
        return np.array_equal(got, want, equal_nan=True)

    @settings(max_examples=400, deadline=None)
    @given(threshold_inputs())
    def test_matches_reference(self, case):
        assert self.same(*case)

    @pytest.mark.parametrize("n", [2**16, 2**18])
    @pytest.mark.parametrize("kind", ["normal", "rounded", "cauchy"])
    @pytest.mark.parametrize("ratio", [0.6, 0.995, 0.9999, 1.0])
    def test_state_sized(self, n, kind, ratio):
        assert self.same(_values(kind, n, np.random.default_rng(n)), ratio)

    def test_large_states_take_the_candidate_branch(self):
        a = np.abs(_values("normal", 2**18, np.random.default_rng(0)))
        need = a.size - math.floor((a.size - 1) * 0.995)
        assert need <= _tail_candidates(a, need).size < a.size // 50

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("kind", ["normal", "rounded"])
    def test_small_sizes(self, n, kind):
        x = _values(kind, n, np.random.default_rng(n))
        for ratio in (0.51, 0.6, 0.75, 0.9, 0.995, 1.0):
            assert self.same(x, ratio)

    @pytest.mark.parametrize("extra,fallback", [(13, True), (14, False)])
    def test_full_partition_fallback(self, extra, fallback):
        # The 0.995 quantile of 4096 entries needs the largest 22.  The strided
        # subsample holds 100..163 and keeps its 8 largest, 156..163, so the
        # candidates are those 8 and `extra` entries of 200 placed off it: one
        # short of 22 takes the full partition, exactly 22 the candidates.
        n, ratio = 4096, 0.995
        x = np.random.default_rng(3).uniform(-1.0, 1.0, n)
        x[::64] = 100.0 + np.arange(64)
        x[1:1 + extra] = -200.0
        a = np.abs(x)
        need = n - math.floor((n - 1) * ratio)
        assert need == 22
        kept = _tail_candidates(a, need)
        assert (kept is a) == fallback and kept.size == (n if fallback else 22)
        assert self.same(x, ratio)


class TestModelEvaluator:
    def test_determinism(self, vp_linear):
        ev = SyntheticModel.x_free_poly([0.3, -1.2, 0.5], 4).evaluator(vp_linear)
        x = np.ones(4)
        assert np.array_equal(ev(x, 0.5), ev(x, 0.5))

    def test_count_increments_by_one(self, vp_linear):
        ev = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        for expected in range(1, 6):
            ev(np.ones(2), 0.5)
            assert ev.eval_count == expected

    def test_counts_never_lost_under_threads(self, vp_linear):
        # More threads than cores and a short switch interval, so threads are preempted
        # mid-call often: a lost update would leave the count short.
        ev = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        n_threads, calls = (os.cpu_count() or 1) + 4, 2000

        def hammer():
            x, out = np.ones(2), np.empty(2)
            for _ in range(calls):
                ev(x, 0.5, out=out)

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert ev.eval_count == n_threads * calls

    def test_reading_the_count_does_not_advance_it(self, vp_linear):
        ev = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        assert ev.eval_count == ev.eval_count == 0
        ev(np.ones(2), 0.5)
        assert ev.eval_count == ev.eval_count == 1

    @pytest.mark.parametrize("t", [None, "abc", "0.5", True, 1j, [0.5], np.array([0.5]), 10**400],
                             ids=["None", "text", "numeric-text", "bool", "complex", "list", "array",
                                  "10**400"])
    def test_time_must_be_a_real_number(self, t):
        # None raised a TypeError, "abc" a bare ValueError, and "0.5" ran as 0.5
        seen = []
        ev = ModelEvaluator(lambda x, t: seen.append(t) or x, "noise", 2)
        with pytest.raises(ValidationError, match="model time must be a real number"):
            ev(np.ones(2), t)
        assert not seen

    @pytest.mark.parametrize("t", [0.5, 1, np.float64(0.5), np.float32(0.5), np.int64(1)],
                             ids=["float", "int", "float64", "float32", "int64"])
    def test_real_times_reach_fn_as_floats(self, t):
        seen = []
        ModelEvaluator(lambda x, t: seen.append(t) or x, "noise", 2)(np.ones(2), t)
        assert type(seen[0]) is float and seen[0] == float(t)

    @pytest.mark.parametrize("output", [0.1, [0.1], [0.1] * 3, [[0.1, 0.1]], [[0.1], [0.1]]],
                             ids=["scalar", "length-1", "length-3", "1x2", "2x1"])
    def test_output_must_be_a_state(self, output):
        ev = ModelEvaluator(lambda x, t: output, "noise", 2)
        with pytest.raises(ValidationError, match=r"model output must have shape \(2,\), got"):
            ev(np.ones(2), 0.5)
        assert ev.eval_count == 1  # the call is counted before its result is checked


    @pytest.mark.filterwarnings("error")  # a ComplexWarning means the imaginary part was dropped
    @pytest.mark.parametrize("output", [
        np.ones(2) + 1j, np.array(["1", "2"]), np.ones(2, bool), np.array([1.0, None], dtype=object),
        ["1", "2"], [1.0, 2j],
    ], ids=["complex", "text", "bool", "object", "text-list", "complex-list"])
    def test_output_must_hold_integers_or_floats(self, output):
        ev = ModelEvaluator(lambda x, t: output, "noise", 2)
        with pytest.raises(ValidationError, match="model output is not a numeric array"):
            ev(np.ones(2), 0.5)
        assert ev.eval_count == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("x", [np.ones(2) + 1j, np.array(["1", "2"]), np.ones(2, bool)],
                             ids=["complex", "text", "bool"])
    def test_input_must_hold_integers_or_floats(self, x):
        ev = ModelEvaluator(lambda x, t: x, "noise", 2)
        with pytest.raises(ValidationError, match="model input is not a numeric array"):
            ev(x, 0.5)

    @pytest.mark.parametrize("output", [np.arange(2), np.ones(2, np.float32), [1, 2.5],
                                        np.ones(2).astype(">f8")],
                             ids=["int", "float32", "list", "big-endian"])
    def test_integer_and_float_outputs_become_float64(self, output):
        f = ModelEvaluator(lambda x, t: output, "noise", 2)(np.ones(2), 0.5)
        assert type(f) is np.ndarray and f.dtype == np.float64
        assert np.array_equal(f, np.asarray(output, dtype=float))

    @pytest.mark.parametrize("family", ["x-free-poly", "linear-in-x", "user"])
    @pytest.mark.parametrize("x", [np.ones(3), np.ones(1), np.ones((2, 2)), np.float64(1.0)],
                             ids=["length-3", "length-1", "2x2", "scalar"])
    def test_input_must_be_a_state(self, vp_linear, family, x):
        # linear-in-x raised a bare numpy ValueError on a length-3 x, and x-free-poly
        # accepted an x of any length
        seen = []
        if family == "user":
            ev = ModelEvaluator(lambda x, t: seen.append(x) or np.zeros(2), "noise", 2)
        elif family == "x-free-poly":
            ev = SyntheticModel.x_free_poly([0.3, -1.2], 2).evaluator(vp_linear)
        else:
            ev = SyntheticModel.linear_in_x(0.3, 2).evaluator(vp_linear)
        for out in (None, np.empty(2)):
            with pytest.raises(ValidationError, match=r"model input must have shape \(2,\), got"):
                ev(x, 0.5, out=out)
        assert not seen and ev.eval_count == 2

    def test_float64_output_passes_as_it_is(self):
        out = np.ones(3)
        assert ModelEvaluator(lambda x, t: out, "noise", 3)(np.ones(3), 0.5) is out

    @pytest.mark.parametrize("dim", [0, -1, 2.7, 2.0, True, "3", None])
    def test_dim_must_be_an_int_of_at_least_one(self, dim):
        with pytest.raises(ValidationError, match="model dim"):
            ModelEvaluator(lambda x, t: x, "noise", dim)

    @pytest.mark.parametrize("fn", [None, 3, "model"])
    def test_fn_must_be_callable(self, fn):
        with pytest.raises(ValidationError, match="model function must be callable"):
            ModelEvaluator(fn, "noise", 2)

    def test_numpy_int_dim_accepted(self):
        ev = ModelEvaluator(lambda x, t: x, "noise", np.int64(3))
        assert ev.dim == 3 and type(ev.dim) is int

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    @pytest.mark.parametrize("coeffs", [[0.3, -1.2, 0.5], [[0.1], [-0.2], [0.3]],
                                        [[0.3, -1.2, 0.5, 0.7, -2.0]] * 3])
    def test_xfree_output_is_bitwise_the_written_out_polynomial(self, kind, coeffs):
        sched = NoiseSchedule.from_json({"kind": kind})
        model = SyntheticModel.x_free_poly(coeffs, 3)
        ev = model.evaluator(sched)
        for t in np.linspace(sched.t_end, sched.t_start, 101):
            assert ev(np.ones(3), t).tobytes() == xfree_eps(model.coeffs, sched.lam(t)).tobytes()

    @pytest.mark.parametrize("K", range(1, 8))
    def test_xfree_output_is_bitwise_the_polynomial_at_every_degree(self, vp_cosine, rng, K):
        # The evaluator raises lambda to float exponents, the oracle to int ones.
        model = SyntheticModel.x_free_poly(rng.standard_normal((3, K)), 3)
        ev = model.evaluator(vp_cosine)
        ends = (vp_cosine.t_end, vp_cosine.t_start)
        for t in np.r_[np.linspace(*ends, 201), rng.uniform(*ends, 200)]:
            assert ev(np.ones(3), t).tobytes() == xfree_eps(model.coeffs, vp_cosine.lam(t)).tobytes()


def _evaluators(sched):
    """Every in-package evaluator kind: both synthetic families, and both conversions."""
    rng = np.random.default_rng(7)
    xfree = SyntheticModel.x_free_poly(rng.standard_normal((5, 4)), 5).evaluator(sched)
    linear = SyntheticModel.linear_in_x(rng.standard_normal(5), 5).evaluator(sched)
    to_data = convert_parameterization(xfree, sched)
    return {"x-free-poly": xfree, "linear-in-x": linear, "to-data": to_data,
            "to-noise": convert_parameterization(convert_parameterization(linear, sched), sched),
            "linear-to-data": convert_parameterization(linear, sched)}


class TestOutContract:
    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    @pytest.mark.parametrize("name", ["x-free-poly", "linear-in-x", "to-data", "to-noise",
                                      "linear-to-data"])
    def test_in_place_and_returning_forms_are_bitwise_equal(self, kind, name):
        sched = NoiseSchedule.from_json({"kind": kind})
        ev = _evaluators(sched)[name]
        rng = np.random.default_rng(11)
        for t in np.linspace(sched.t_end, sched.t_start, 41).tolist():
            x = rng.standard_normal(5) * 3
            want = ev(x, t)
            out = np.full(5, np.nan)
            assert ev(x, t, out=out) is out
            assert out.tobytes() == want.tobytes()
            y = x.copy()
            assert ev(y, t, out=y) is y  # out may be x itself
            assert y.tobytes() == want.tobytes()

    def test_user_fn_result_is_copied_into_out(self):
        result = np.array([1.0, 2.0])
        ev = ModelEvaluator(lambda x, t: result, "noise", 2)
        out = np.zeros(2)
        assert ev(np.ones(2), 0.5, out=out) is out
        assert out.tolist() == [1.0, 2.0] and not np.shares_memory(out, result)

    def test_user_fn_with_x_as_out(self):
        ev = ModelEvaluator(lambda x, t: 2.0 * x + t, "noise", 2)
        x = np.array([1.0, -3.0])
        assert ev(x, 0.5, out=x) is x and x.tolist() == [2.5, -5.5]

    @pytest.mark.parametrize("out", [
        [0.0, 0.0], np.zeros(2, np.float32), np.zeros(2, int), np.zeros(2).astype(">f8"),
        np.zeros(3), np.zeros((2, 1)), np.zeros(()), np.zeros(4)[::2], np.zeros(2, complex),
    ], ids=["list", "float32", "int", "big-endian", "length-3", "2x1", "0-d", "strided", "complex"])
    def test_out_must_be_a_float64_state(self, out):
        calls = []
        ev = ModelEvaluator(lambda x, t: calls.append(t) or x, "noise", 2)
        with pytest.raises(ValidationError, match=r"out must be a writeable, C-contiguous "
                                                  r"float64 array of shape \(2,\)"):
            ev(np.ones(2), 0.5, out=out)
        assert not calls  # checked before fn runs

    def test_read_only_out_rejected(self, vp_linear):
        out = np.zeros(5)
        out.flags.writeable = False
        for ev in _evaluators(vp_linear).values():
            with pytest.raises(ValidationError, match="writeable False"):
                ev(np.ones(5), 0.5, out=out)
        assert not out.any()

    @pytest.mark.parametrize("output", [[0.1], [0.1] * 3, [[0.1, 0.1]]],
                             ids=["length-1", "length-3", "1x2"])
    def test_misshapen_user_output_rejected_with_out(self, output):
        out = np.zeros(2)
        ev = ModelEvaluator(lambda x, t: output, "noise", 2)
        with pytest.raises(ValidationError, match=r"model output must have shape \(2,\), got"):
            ev(np.ones(2), 0.5, out=out)
        assert not out.any()


class TestModelBoundaryErrors:
    def test_convert_needs_a_model_evaluator(self, vp_linear):
        # raised AttributeError: 'function' object has no attribute 'prediction'
        with pytest.raises(ValidationError, match=r"^model must be a ModelEvaluator, got function$"):
            convert_parameterization(lambda x, t: x, vp_linear)

    @pytest.mark.parametrize("to", ["data", "noise"])
    @pytest.mark.parametrize("x_at,out_at", [(slice(1, None), slice(None, -1)),
                                             (slice(None, -1), slice(1, None))],
                             ids=["out-before-x", "out-after-x"])
    def test_convert_with_an_out_that_partly_overlaps_x(self, vp_linear, to, x_at, out_at):
        # the wrapped model wrote out before x was read: to data, with out one entry before x,
        # [-5.12, -7.17, 10.13] came back for [5.07, 7.60, 10.13]
        model = SyntheticModel.linear_in_x(0.3, 3).evaluator()
        if to == "noise":
            model = convert_parameterization(model, vp_linear)
        converted = convert_parameterization(model, vp_linear)
        buf = np.array([1.0, 2.0, 3.0, 4.0])
        want = converted(buf[x_at].copy(), 0.5)
        got = converted(buf[x_at], 0.5, out=buf[out_at])
        assert got.base is buf and np.array_equal(got, want)

    @pytest.mark.parametrize("sched", ["vp", None, {"kind": "vp-linear"}])
    def test_convert_needs_a_schedule(self, sched):
        # "vp" raised an AttributeError, and only at the first call
        noise = SyntheticModel.linear_in_x(0.3, 2).evaluator()
        with pytest.raises(ValidationError, match="schedule must be a NoiseSchedule"):
            convert_parameterization(noise, sched)

    @pytest.mark.parametrize("model", [SyntheticModel.x_free_poly([0.3], 2),
                                       SyntheticModel.linear_in_x(0.3, 2)],
                             ids=["x-free-poly", "linear-in-x"])
    def test_evaluator_needs_a_schedule_or_none(self, model):
        # x-free-poly raised an AttributeError; linear-in-x ignored the argument
        with pytest.raises(ValidationError, match="schedule must be a NoiseSchedule"):
            model.evaluator("vp")


class TestSyntheticModelConstruction:
    @pytest.mark.parametrize("dim", [0, -2, 2.5, 2.0, True, "3", None])
    @pytest.mark.parametrize("build", [
        lambda dim: SyntheticModel.x_free_poly([0.3, -1.2], dim),
        lambda dim: SyntheticModel.linear_in_x(0.3, dim),
        lambda dim: SyntheticModel(family="linear-in-x", dim=dim, coeffs=[[0.3], [0.3]]),
        lambda dim: SyntheticModel.from_json({"family": "linear-in-x", "kappa": 0.3, "dim": dim}),
    ], ids=["x_free_poly", "linear_in_x", "direct", "from_json"])
    def test_dim_must_be_an_int_of_at_least_one(self, build, dim):
        # 2.5, True and "3" raised a bare TypeError, and SyntheticModel(dim=True) was accepted
        with pytest.raises(ValidationError, match="model dim"):
            build(dim)

    @pytest.mark.parametrize("build", [
        lambda dim: SyntheticModel.x_free_poly([0.3, -1.2], dim),
        lambda dim: SyntheticModel.linear_in_x(0.3, dim),
        lambda dim: ModelEvaluator(lambda x, t: x, "noise", dim),
    ], ids=["x_free_poly", "linear_in_x", "evaluator"])
    def test_dim_beyond_any_array_rejected(self, build):
        # the factories raised numpy's bare ValueError "Maximum allowed dimension exceeded"
        with pytest.raises(ValidationError, match=r"^model dim must lie in 1\.\.\d+, got 1000"):
            build(10**400)

    @pytest.mark.parametrize("coeffs", [1 + 2j, {}, object(), 10**400, [[math.nan]], np.ones((1, 0))],
                             ids=["complex", "dict", "object", "10**400", "nan", "empty"])
    def test_direct_coefficients_checked(self, coeffs):
        # built directly (not by a factory) the first four raised a bare TypeError, and a
        # NaN or an empty polynomial was kept
        with pytest.raises(ValidationError, match="^coefficients must be finite numbers, got "):
            SyntheticModel(family="x-free-poly", dim=1, coeffs=coeffs)

    def test_from_json_broadcast(self):
        m = SyntheticModel.from_json({"family": "x-free-poly", "coeffs": [0.3, -1.2, 0.5], "dim": 4})
        assert m.dim == 4 and len(m.coeffs) == 4 and m.closed_form
        assert m.degree == 2

    def test_from_json_per_dimension(self):
        m = SyntheticModel.from_json(
            {"family": "x-free-poly", "coeffs": [[0.1, 0.2], [0.3, 0.4]], "dim": 2}
        )
        assert m.coeffs.tolist() == [[0.1, 0.2], [0.3, 0.4]]

    def test_coefficients_are_one_read_only_array(self):
        source = np.array([[0.1, 0.2], [0.3, 0.4]])
        m = SyntheticModel.x_free_poly(source, 2)
        C = m.coeffs
        assert C.dtype == np.float64 and C.shape == (2, 2) and C.flags.c_contiguous
        assert not C.flags.writeable and source.flags.writeable  # the model owns a copy
        with pytest.raises(ValueError):
            C[0, 0] = 1.0
        assert SyntheticModel.linear_in_x([0.5, 0.7], 2).coeffs.shape == (2, 1)

    def test_large_model_holds_only_its_numbers(self):
        dim, K = 2**20, 3
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            m = SyntheticModel.x_free_poly([0.3, -1.2, 0.5], dim)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert m.coeffs.shape == (dim, K)
        assert held <= 1.5 * dim * K * 8

    def test_to_json_output(self):
        xfree = SyntheticModel.from_json({"family": "x-free-poly", "coeffs": [0.3, -1.2], "dim": 2})
        linear = SyntheticModel.linear_in_x(np.array([0.5, 0.7]), 2)
        assert json.dumps(xfree.to_json()) == (
            '{"family": "x-free-poly", "coeffs": [[0.3, -1.2], [0.3, -1.2]], "dim": 2}')
        assert json.dumps(linear.to_json()) == '{"family": "linear-in-x", "kappa": [0.5, 0.7], "dim": 2}'
        assert SyntheticModel.from_json(xfree.to_json()) == xfree
        assert xfree != SyntheticModel.x_free_poly([0.3, -1.25], 2)

    @pytest.mark.parametrize("model", [
        SyntheticModel.x_free_poly([[0.1, -0.2, 0.3], [0.4, 0.5, -0.6]], 2),
        SyntheticModel.linear_in_x([0.3, -0.7, 1.1], 3),
    ], ids=["x-free-poly", "linear-in-x"])
    def test_round_trip(self, model):
        assert SyntheticModel.from_json(model.to_json()) == model

    def test_linear_round_trip(self):
        m = SyntheticModel.from_json({"family": "linear-in-x", "kappa": 0.3, "dim": 2})
        assert not m.closed_form
        assert SyntheticModel.from_json(m.to_json()) == m

    def test_bad_family(self):
        with pytest.raises(ValidationError):
            SyntheticModel.from_json({"family": "neural", "dim": 2})

    @pytest.mark.parametrize("family, name", [("x-free-poly", "coeffs"), ("linear-in-x", "kappa")])
    def test_missing_model_field_is_named(self, family, name, tmp_path, capsys):
        # was "study config missing field 'coeffs'" and, for linear-in-x,
        # "coefficients must be finite numbers, got None"
        spec = {"family": family, "dim": 2}
        message = f"{family} model missing field '{name}'"
        with pytest.raises(ValidationError, match=message):
            SyntheticModel.from_json(spec)
        config = {"model": spec, "schedule": {"kind": "vp-linear"},
                  "solvers": [{"order": 1}], "step_counts": [4, 8]}
        with pytest.raises(ValidationError, match=message):
            ConvergenceStudy.from_json(config)
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("spec, message", [
        ({"family": "x-free-poly", "coeffs": [0.3], "dim": 2, "kapa": 1},
         r"unknown x-free-poly model fields \['kapa'\]"),
        ({"family": "x-free-poly", "coeffs": [0.3], "dim": 2, "kappa": 5},
         r"unknown x-free-poly model fields \['kappa'\]"),
        ({"family": "linear-in-x", "kappa": 0.2, "dim": 2, "mu": [0.0]},
         r"unknown linear-in-x model fields \['mu'\]"),
        ({"family": "linear-in-x", "kappa": 0.2, "coeffs": [0.3, 0.1], "dim": 2},
         "linear-in-x model takes 'kappa' or 'coeffs', not both"),
    ])
    def test_unknown_or_clashing_model_field_is_named(self, spec, message, tmp_path, capsys):
        # each of these loaded: unknown fields were ignored, and coeffs beside kappa dropped
        with pytest.raises(ValidationError, match=message):
            SyntheticModel.from_json(spec)
        config = {"model": spec, "schedule": {"kind": "vp-linear"},
                  "solvers": [{"order": 1}], "step_counts": [4, 8]}
        path = tmp_path / "study.json"
        path.write_text(json.dumps(config))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "error: " in err and "Traceback" not in err
        assert not (tmp_path / "x.csv").exists()

    def test_linear_gains_by_either_name(self):
        by_kappa = SyntheticModel.from_json({"family": "linear-in-x", "kappa": [0.2, 0.4], "dim": 2})
        by_coeffs = SyntheticModel.from_json({"family": "linear-in-x", "coeffs": [0.2, 0.4], "dim": 2})
        assert by_kappa == by_coeffs

    def test_xfree_needs_schedule(self):
        m = SyntheticModel.x_free_poly([1.0], 2)
        with pytest.raises(ValidationError):
            m.evaluator()
