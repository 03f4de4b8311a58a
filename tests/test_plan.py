"""The step plan that sample() compiles, against the per-step reference in oracles.

The two differ by round-off only, so the bound on a state scales with what the updates
up to it combined: each update a x + sum_j c_j f_j is off by at most about n u times its
magnitudes (oracles.update_magnitude; u the unit round-off, n its terms), in sample() and
in the reference alike, and those errors carry forward, so the magnitudes add up along
the run.  The widest update has n = 7 terms (x and six outputs: order 5 and the
corrector's node), so a state may differ by 2 * 7 u times the summed magnitudes.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import reference_sample
from unipc import (
    NoiseSchedule,
    SolverConfig,
    SyntheticModel,
    convert_parameterization,
    make_time_grid,
    sample,
)

ROUND_OFF = 2 * 7 * np.finfo(float).eps / 2  # two computations, 7 terms, unit round-off


@st.composite
def runs(draw):
    order = draw(st.integers(1, 5))
    M = draw(st.integers(1, 12))
    schedule = None
    if draw(st.booleans()):
        schedule = "".join(str(draw(st.integers(1, min(i, 5)))) for i in range(1, M + 1))
    config = SolverConfig(
        order=order,
        variant=draw(st.sampled_from(["multistep", "singlestep"])),
        bh=draw(st.sampled_from(["b1", "b2"])),
        prediction=draw(st.sampled_from(["noise", "data"])),
        corrector=draw(st.sampled_from(["off", "standard", "oracle"])),
        varying_coefficients=draw(st.booleans()),
        order_schedule=schedule,
    )
    sched = NoiseSchedule.from_json({"kind": draw(st.sampled_from(["vp-linear", "vp-cosine"]))})
    grid = make_time_grid(sched, M, draw(st.sampled_from(
        ["uniform-lambda", "uniform-time", "quadratic-time"])))
    warm = draw(st.integers(0, min(M - 1, order - 1)))
    kappa = draw(st.floats(0.05, 0.6))
    seed = draw(st.integers(0, 2**16))
    return config, sched, grid, warm, kappa, seed


VP_LINEAR = NoiseSchedule.from_json({"kind": "vp-linear"})


@settings(max_examples=150, deadline=None)
@given(runs())
@example((  # its round-off once read 1.5e-12 of max(1, |x|), past the flat bound this replaced
    SolverConfig(order=5, bh="b1", prediction="data", corrector="oracle",
                 varying_coefficients=True),
    VP_LINEAR, make_time_grid(VP_LINEAR, 12, "uniform-time"), 2, 0.125, 0))
def test_plan_matches_per_step_reference(run):
    config, sched, grid, warm, kappa, seed = run
    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(3)
    warm_start = [x0 * (1.0 + 0.1 * j) for j in range(1, warm + 1)]

    def evaluator():
        model = SyntheticModel.linear_in_x(kappa, 3).evaluator(sched)
        return convert_parameterization(model, sched) if config.prediction == "data" else model

    model = evaluator()
    res = sample(model, sched, grid, config, x0, warm_start=warm_start, trajectory=True)
    ref, ref_nfe, sums = reference_sample(evaluator(), sched, grid, config, x0, warm_start)
    assert res.nfe == ref_nfe == model.eval_count
    assert len(res.trajectory) == len(ref)
    for got, want, size in zip(res.trajectory, ref, sums):
        assert np.max(np.abs(got - want)) <= ROUND_OFF * np.max(size)
