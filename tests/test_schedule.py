import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import log_alpha_reference
from unipc import DomainError, NoiseSchedule, ValidationError, make_time_grid
from unipc.schedule import _EDGE_TOL, TimeGrid

# Frozen with a 40-digit mpmath evaluation of the closed forms.
ALPHA_AT_1 = 0.0065715864949296154
SIGMA_AT_1 = 0.9999784068923386
LAMBDA_AT_1 = -5.024978406659204


class TestVPLinearClosedForm:
    def test_log_alpha_at_t1(self, vp_linear):
        # log alpha_1 = -(0.25 * 19.9 + 0.05) = -5.025
        assert vp_linear.log_alpha(1.0) == pytest.approx(-5.025, abs=1e-14)

    def test_alpha_sigma_lambda_at_t1(self, vp_linear):
        alpha, sigma, lam = vp_linear.alpha_sigma_lambda(1.0)
        assert alpha == pytest.approx(ALPHA_AT_1, abs=1e-17)
        assert sigma == pytest.approx(SIGMA_AT_1, abs=1e-14)
        assert lam == pytest.approx(LAMBDA_AT_1, abs=1e-12)

    def test_limit_at_t_end(self, vp_linear):
        alpha, sigma, lam = vp_linear.alpha_sigma_lambda(vp_linear.t_end)
        assert alpha > 0.999
        assert 0.0 < sigma < 0.02
        assert lam > 4.0

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    def test_vp_identity(self, kind, rng):
        sched = NoiseSchedule.from_json({"kind": kind})
        for t in rng.uniform(sched.t_end, sched.t_start, size=200):
            alpha, sigma, _ = sched.alpha_sigma_lambda(float(t))
            assert alpha * alpha + sigma * sigma == pytest.approx(1.0, abs=1e-12)

    def test_out_of_range_t(self, vp_linear):
        with pytest.raises(DomainError):
            vp_linear.log_alpha(1.5)
        with pytest.raises(DomainError):
            vp_linear.alpha_sigma_lambda(0.0)


class TestMapArguments:
    @pytest.mark.parametrize("name", ["log_alpha", "alpha", "sigma", "lam", "alpha_sigma_lambda"])
    @pytest.mark.parametrize("t", [True, "0.5", None, 1 + 2j, [0.5], 10**400],
                             ids=["bool", "text", "none", "complex", "list", "10**400"])
    def test_forward_maps_take_real_times_only(self, vp_linear, name, t):
        # True and "0.5" ran as 1.0 and 0.5, 10**400 raised OverflowError, the rest TypeError
        with pytest.raises(ValidationError, match="^time t must be a real number, got "):
            getattr(vp_linear, name)(t)

    @pytest.mark.parametrize("t", [0.5, 1, np.float64(0.5), np.float32(0.5), np.int64(1)],
                             ids=["float", "int", "float64", "float32", "int64"])
    def test_forward_maps_take_any_real_number(self, vp_linear, t):
        assert vp_linear.lam(t) == vp_linear.lam(float(t))

    @pytest.mark.parametrize("lam", [True, "0.5", np.array(["0.5"]), 1 + 2j, 10**400],
                             ids=["bool", "text", "text-array", "complex", "10**400"])
    def test_inverse_takes_numbers_only(self, vp_linear, lam):
        # True and "0.5" ran as 1.0 and 0.5, 10**400 raised OverflowError, complex TypeError
        with pytest.raises(ValidationError, match="^lambda is not a numeric array"):
            vp_linear.t_of_lambda(lam)


class TestForwardMapsBitwise:
    """log_alpha and lam against the range check and min(max(...)) clamp written out."""

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    def test_sweep_matches_the_written_out_formula(self, kind):
        sched = NoiseSchedule.from_json({"kind": kind})
        lo, hi = sched.t_end, sched.t_start
        ts = list(np.linspace(lo, hi, 2001))
        ts += [lo - 1e-10, lo - 1e-9, lo + 1e-12, hi + 1e-10, hi + 1e-9, hi - 1e-12]
        ts += [np.nextafter(lo, 0.0), np.nextafter(hi, 2.0)]
        for t in ts:
            la = log_alpha_reference(sched, t)
            assert sched.log_alpha(t) == la
            assert sched.lam(t) == la - 0.5 * math.log(-math.expm1(2.0 * la))

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    def test_clamp_band(self, kind):
        sched = NoiseSchedule.from_json({"kind": kind})
        t_end, t_start = sched.t_end, sched.t_start
        assert sched.log_alpha(t_end - 1e-10) == sched.log_alpha(t_end)
        assert sched.lam(t_end - 1e-10) == sched.lam(t_end)
        assert sched.log_alpha(t_start + 1e-10) == sched.log_alpha(t_start)
        for t in (t_end - 2e-9, t_start + 2e-9):
            with pytest.raises(DomainError, match=f"t={t} outside usable range"):
                sched.lam(t)


class TestInverse:
    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    def test_round_trip_1000_points(self, kind):
        sched = NoiseSchedule.from_json({"kind": kind})
        rng = np.random.default_rng(7)
        ts = list(rng.uniform(sched.t_end, sched.t_start, size=1000))
        # acos is ill-conditioned near t_end, where its argument approaches 1
        ts += [sched.t_end + 10.0**-k for k in range(2, 14)]
        ts += [sched.t_start - 10.0**-k for k in range(2, 14)]
        for t in ts:
            assert abs(sched.t_of_lambda(sched.lam(float(t))) - float(t)) < 1e-10

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    @settings(max_examples=200, deadline=None)
    @given(t=st.floats(min_value=1e-3, max_value=1.0))
    def test_round_trip_property(self, kind, t):
        sched = NoiseSchedule.from_json({"kind": kind})
        assume(t <= sched.t_start)
        assert abs(sched.t_of_lambda(sched.lam(t)) - t) < 1e-10

    def test_boundary_maps_exactly(self, vp_linear, vp_cosine):
        for sched in (vp_linear, vp_cosine):
            assert sched.t_of_lambda(sched.lambda_end) == sched.t_end
            assert sched.t_of_lambda(sched.lambda_start) == sched.t_start

    def test_out_of_range_lambda(self, vp_linear):
        with pytest.raises(DomainError):
            vp_linear.t_of_lambda(vp_linear.lambda_end + 1.0)
        with pytest.raises(DomainError):
            vp_linear.t_of_lambda(vp_linear.lambda_start - 1.0)

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    def test_lambda_monotone_decreasing(self, kind):
        sched = NoiseSchedule.from_json({"kind": kind})
        rng = np.random.default_rng(11)
        pairs = rng.uniform(sched.t_end, sched.t_start, size=(1000, 2))
        for a, b in pairs:
            ta, tb = min(a, b), max(a, b)
            if ta == tb:
                continue
            assert sched.lam(float(ta)) > sched.lam(float(tb))


class TestArrayMaps:
    """t_of_lambda and _maps on arrays against the scalar maps, element by element."""

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    def test_inverse_array_equals_scalar(self, kind):
        sched = NoiseSchedule.from_json({"kind": kind})
        lams = np.linspace(sched.lambda_start, sched.lambda_end, 2001)
        lams = np.concatenate([lams, np.random.default_rng(3).uniform(lams[0], lams[-1], 500)])
        ts = sched.t_of_lambda(lams)
        assert isinstance(ts, np.ndarray) and ts.shape == lams.shape
        scalar = [sched.t_of_lambda(float(lam)) for lam in lams]
        assert all(type(t) is float for t in scalar)
        assert np.array_equal(ts, scalar)

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    def test_forward_arrays_match_scalar_maps(self, kind):
        sched = NoiseSchedule.from_json({"kind": kind})
        ts = np.linspace(sched.t_end, sched.t_start, 2001)
        la, lam, sigma = sched._maps(ts)
        scalar = np.array([(sched.log_alpha(t), sched.lam(t), sched.sigma(t)) for t in ts.tolist()])
        # numpy's log, cos and expm1 may differ from the math module's in the last place
        assert np.max(np.abs(np.stack([la, lam, sigma], axis=1) - scalar)) <= 1e-15
        if kind == "vp-linear":  # log alpha is arithmetic alone
            assert np.array_equal(la, scalar[:, 0])

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    def test_endpoints_exact_within_slack(self, kind):
        sched = NoiseSchedule.from_json({"kind": kind})
        lo, hi, slack = sched.lambda_start, sched.lambda_end, 0.5 * _EDGE_TOL
        ts = sched.t_of_lambda(np.array([lo, hi, lo - slack, hi + slack]))
        assert ts.tolist() == [sched.t_start, sched.t_end] * 2
        edges = np.array([sched.t_end, sched.t_start])
        for got, want in zip(sched._maps(edges + [-slack, slack]), sched._maps(edges)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    @pytest.mark.parametrize("where", [0, 3, 7])
    @pytest.mark.parametrize("bad", ["below", "above", "nan"])
    def test_one_bad_element_raises(self, kind, where, bad):
        sched = NoiseSchedule.from_json({"kind": kind})
        lams = np.linspace(sched.lambda_start, sched.lambda_end, 8)
        ts = np.linspace(sched.t_end, sched.t_start, 8)
        lams[where] = {"below": sched.lambda_start - 2 * _EDGE_TOL,
                       "above": sched.lambda_end + 2 * _EDGE_TOL, "nan": math.nan}[bad]
        ts[where] = {"below": sched.t_end - 2 * _EDGE_TOL,
                     "above": sched.t_start + 2 * _EDGE_TOL, "nan": math.nan}[bad]
        with pytest.raises(DomainError, match="lambda=.* outside achievable range"):
            sched.t_of_lambda(lams)
        with pytest.raises(DomainError, match="t=.* outside usable range"):
            sched._maps(ts)

    def test_scalar_nan_rejected(self, vp_cosine):
        with pytest.raises(DomainError):
            vp_cosine.t_of_lambda(math.nan)

    @pytest.mark.parametrize("lam", [np.array(0.3), np.float64(0.3), 0.3, 1])
    def test_scalar_in_gives_float_out(self, vp_cosine, lam):
        t = vp_cosine.t_of_lambda(lam)
        assert type(t) is float
        assert t == vp_cosine.t_of_lambda(np.array([lam], dtype=float))[0]


class TestTimeGrid:
    def test_single_step(self, vp_linear):
        grid = make_time_grid(vp_linear, 1)
        assert list(grid.times) == [vp_linear.t_start, vp_linear.t_end]

    def test_uniform_lambda_equal_steps(self, vp_linear):
        grid = make_time_grid(vp_linear, 10, "uniform-lambda")
        hs = np.diff([vp_linear.lam(t) for t in grid.times])
        expected = (vp_linear.lambda_end - vp_linear.lambda_start) / 10
        assert np.all(np.abs(hs - expected) < 1e-10)

    def test_uniform_time_values(self, vp_linear):
        grid = make_time_grid(vp_linear, 4, "uniform-time")
        expected = [1.0 - i * 0.999 / 4 for i in range(5)]
        assert np.allclose(grid.times, expected, atol=1e-12)

    @pytest.mark.parametrize("kind", ["vp-linear", "vp-cosine"])
    @pytest.mark.parametrize("skip", ["uniform-lambda", "uniform-time", "quadratic-time"])
    def test_grid_consistency(self, kind, skip):
        sched = NoiseSchedule.from_json({"kind": kind})
        grid = make_time_grid(sched, 17, skip)
        assert np.all(np.diff(grid.times) < 0)
        assert (grid.times[0], grid.times[-1]) == (sched.t_start, sched.t_end)
        scalar = np.array([sched.lam(float(t)) for t in grid.times])
        assert np.all(np.diff(scalar) > 0)
        assert np.max(np.abs(sched._maps(grid.times)[1] - scalar)) < 1e-10  # the plan's lambdas

    def test_zero_steps_rejected(self, vp_linear):
        with pytest.raises(DomainError):
            make_time_grid(vp_linear, 0)

    @pytest.mark.parametrize("M", [2.5, "3", True, None, 3.0], ids=repr)
    def test_non_int_steps_rejected(self, vp_linear, M):
        # 2.5 and "3" raised a bare TypeError; True made a 1-step grid
        with pytest.raises(ValidationError, match="M must be an int"):
            make_time_grid(vp_linear, M)

    @pytest.mark.parametrize("M", [10**400, 10**6 + 1], ids=["10**400", "10**6+1"])
    def test_too_many_steps_rejected(self, vp_linear, M):
        # 10**400 raised numpy's bare ValueError "Maximum allowed size exceeded"
        with pytest.raises(DomainError, match=r"^need 1 <= M <= 1000000 steps, got "):
            make_time_grid(vp_linear, M)

    @pytest.mark.parametrize("sched", [None, "vp-linear", {"kind": "vp-linear"}])
    def test_needs_a_schedule(self, sched):
        # raised a bare AttributeError, e.g. 'NoneType' object has no attribute 't_of_lambda'
        with pytest.raises(ValidationError, match="^schedule must be a NoiseSchedule, got "):
            make_time_grid(sched, 4)

    def test_numpy_int_steps_accepted(self, vp_linear):
        assert make_time_grid(vp_linear, np.int64(3)).num_steps == 3

    def test_keeps_its_own_copy(self, vp_linear):
        # The grid once aliased the caller's arrays and flipped them read-only; the
        # caller could flip them back and change a validated grid.
        times = np.linspace(1.0, 1e-3, 5)
        grid = TimeGrid(times)
        kept = grid.times.copy()
        assert times.flags.writeable
        times[1] = 0.9
        assert np.array_equal(grid.times, kept)
        assert not grid.times.flags.writeable

    @pytest.mark.parametrize("times", [
        1 + 2j,                      # a bare TypeError
        np.array([1.0 + 1j, 0.5]),   # the imaginary parts were dropped with a ComplexWarning
        ["1.0", "0.5"],              # text was converted to numbers
        [True, False],               # a grid [1.0, 0.0]
        [[1.0, 0.5], [0.2]],         # a bare numpy ValueError
    ], ids=["complex", "complex-array", "text", "bool", "ragged"])
    def test_non_real_times_rejected(self, times):
        with pytest.raises(ValidationError, match="grid times is not a numeric array"):
            TimeGrid(times=times)

    def test_unknown_skip_rejected(self, vp_linear):
        with pytest.raises(ValidationError):
            make_time_grid(vp_linear, 4, "geometric")


class TestConstruction:
    def test_from_json(self):
        sched = NoiseSchedule.from_json(
            {"kind": "vp-linear", "beta_min": 0.1, "beta_max": 20.0, "t_start": 1.0, "t_end": 0.001}
        )
        assert sched == NoiseSchedule()
        assert sched.to_json()["kind"] == "vp-linear"

    @pytest.mark.parametrize("sched", [
        NoiseSchedule(beta_min=0.2, beta_max=15, t_start=0.9, t_end=0.002),
        NoiseSchedule(kind="vp-cosine", cosine_s=0.01, t_start=0.99, t_end=0.005),
    ], ids=["vp-linear", "vp-cosine"])
    def test_round_trip(self, sched):
        # to_json writes the fields of the schedule's kind, each as given
        doc = sched.to_json()
        assert NoiseSchedule.from_json(doc) == sched
        assert json.dumps(NoiseSchedule.from_json(doc).to_json()) == json.dumps(doc)

    def test_cosine_default_t_start(self):
        sched = NoiseSchedule.from_json({"kind": "vp-cosine"})
        assert sched.t_start == pytest.approx(0.9946)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSchedule.from_json({"kind": "vp-linear", "gamma": 2.0})
        with pytest.raises(ValidationError):
            NoiseSchedule.from_json({"kind": "edm"})

    @pytest.mark.parametrize("name, fields", [
        ("beta_min", {"kind": "vp-cosine", "t_start": 0.9, "beta_min": "x", "beta_max": None}),
        ("beta_min", {"beta_min": np.array(0.1)}),
        ("beta_max", {"beta_max": [20.0]}),
        ("t_start", {"t_start": True}),
        ("t_end", {"t_end": float("nan")}),
        ("cosine_s", {"kind": "vp-cosine", "t_start": 0.9, "cosine_s": math.inf}),
    ])
    def test_number_fields_type_checked(self, name, fields):
        with pytest.raises(ValidationError, match=f"schedule field '{name}'"):
            NoiseSchedule(**fields)

    def test_numbers_kept_as_given(self):
        # No float conversion, so a config's ints (and numpy scalars) round-trip as written.
        spec = {"kind": "vp-linear", "beta_min": 1, "beta_max": 20, "t_start": 1, "t_end": 0.001}
        sched = NoiseSchedule.from_json(spec)
        assert json.dumps(sched.to_json()) == json.dumps(spec)
        scalar = NoiseSchedule(beta_min=np.float64(0.1))
        assert scalar == NoiseSchedule() and hash(scalar) == hash(NoiseSchedule())

    def test_bad_ranges_rejected(self):
        with pytest.raises(ValidationError):
            NoiseSchedule(t_end=0.0)
        with pytest.raises(ValidationError):
            NoiseSchedule(beta_min=5.0, beta_max=1.0)
        with pytest.raises(ValidationError):
            NoiseSchedule(kind="vp-cosine", t_start=1.0)
        with pytest.raises(ValidationError):
            NoiseSchedule(kind="vp-cosine", t_start=0.9, cosine_s=-0.5)
