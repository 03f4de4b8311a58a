"""The step plan that sample() compiles, against the oracles: each row against an exact
solve of its moment system, and whole runs against the per-step reference.

A run and the reference differ by round-off only, so the bound on a state scales with what
the updates up to it combined: each update a x + sum_j c_j f_j is off by at most about n u
times its magnitudes (oracles.update_magnitude; u the unit round-off, n its terms), in
sample() and in the reference alike, and those errors carry forward, so the magnitudes add
up along the run.  The widest update has n = MAX_ORDER + 2 terms (x and the outputs at
MAX_ORDER nodes and the corrector's), so a state may differ by 2 n u times the summed
magnitudes.
"""

import itertools
from decimal import Decimal, localcontext

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import exact_row, reference_sample
from unipc import (
    NoiseSchedule,
    SolverConfig,
    SyntheticModel,
    convert_parameterization,
    make_time_grid,
    sample,
    solver,
)
from unipc.coeffs import MAX_ORDER

ROUND_OFF = 2 * (MAX_ORDER + 2) * np.finfo(float).eps / 2  # two computations, n terms, u
ROW_BOUND = 1e-12  # of max|c| a row: the scale of the plan-residuals selftest's gate


def test_every_plan_row_matches_the_exact_row():
    """Every row _layout builds, at every order the cap admits, has c within ROW_BOUND max|c|
    of scale * oracles.exact_row over the float offsets and h that the row is built from.

    The configs keep the standard corrector, so its rows are checked too.  b1/b2 changes
    only the pinned single-offset rows, so varying weights run with b2 alone, and rows that
    come up again (pinned and varying share every wider row) are solved once.
    """
    exact, worst, where = {}, 0.0, None
    for kind, skip, M, variant, prediction, order, (bh, varying) in itertools.product(
            ("vp-linear", "vp-cosine"), ("uniform-lambda", "uniform-time", "quadratic-time"),
            (1, 3, 12), ("multistep", "singlestep"), ("noise", "data"), range(1, MAX_ORDER + 1),
            (("b1", False), ("b2", False), ("b2", True))):
        sched = NoiseSchedule.from_json({"kind": kind})
        config = SolverConfig(order=order, variant=variant, bh=bh, prediction=prediction,
                              varying_coefficients=varying)
        layout = solver._layout(sched, make_time_grid(sched, M, skip), config, 1)
        la, lam, sigma = sched._maps(np.asarray(layout.ts))  # as _layout maps its nodes
        K = layout.rows.shape[1] - 1  # a row is [c in ring slot order, a]
        for index, (row, P, N, low, corr) in enumerate(
                zip(layout.rows, layout.src, layout.dst, layout.low, layout.corrector)):
            J = np.arange(low, N + corr)  # a corrector also reads the node it lands on
            h = lam[N] - lam[P]
            R = (J - P) / (N - P) if variant == "singlestep" else (lam[J] - lam[P]) / h
            pinned = not varying and len(J) == 2
            key = (R.tobytes(), h, prediction, pinned and bh)
            if key not in exact:
                exact[key] = np.array(exact_row(R, h, prediction, bh, pinned))
            scale = -sigma[N] if prediction == "noise" else np.exp(la[N])
            c = row[J % K]
            error = np.max(np.abs(c - scale * exact[key])) / np.max(np.abs(c))
            if error > worst:
                worst, where = error, (config, kind, skip, M, index)
    assert worst <= ROW_BOUND, f"{worst:.3e} of max|c| at {where}"


def test_every_fused_pair_matches_the_exact_composition():
    """Each pair the plan fuses, a standard corrector [c_c, a_c] and the row after it
    [c_p, a_p], is [[c_c, a_c], [c_p + a_p c_c, a_p a_c]]: its first row is the corrector's
    bit for bit, and its second row's c lies within ROW_BOUND max|c| of the same composition
    of oracles.exact_row's rows in decimal arithmetic, at every order the cap admits.

    The pairs are _plan's 2-row blocks, the rows they fuse _layout's; the rows' a are the
    layout's own (each a ratio of alpha or sigma, with no solve).
    """
    worst, where, fused = 0.0, None, 0
    for kind, variant, prediction, order, bh, varying in itertools.product(
            ("vp-linear", "vp-cosine"), ("multistep", "singlestep"), ("noise", "data"),
            range(1, MAX_ORDER + 1), ("b1", "b2"), (False, True)):
        sched = NoiseSchedule.from_json({"kind": kind})
        config = SolverConfig(order=order, variant=variant, bh=bh, prediction=prediction,
                              varying_coefficients=varying)
        args = (sched, make_time_grid(sched, 9, "quadratic-time"), config, 1)
        layout = solver._layout(*args)
        la, lam, sigma = sched._maps(np.asarray(layout.ts))
        K = layout.rows.shape[1] - 1

        def exact(r):  # row r's c in ring slot order, as decimals
            P, N, corr = layout.src[r], layout.dst[r], layout.corrector[r]
            J = np.arange(layout.low[r], N + corr)
            h = lam[N] - lam[P]
            R = (J - P) / (N - P) if variant == "singlestep" else (lam[J] - lam[P]) / h
            u = exact_row(R, h, prediction, bh, not varying and len(J) == 2)
            scale = Decimal(float(-sigma[N] if prediction == "noise" else np.exp(la[N])))
            c = [Decimal(0)] * K
            for slot, value in zip(J % K, u):
                c[slot] = scale * Decimal(value)
            return c

        heads = [r for r in np.flatnonzero(layout.corrector) if r + 1 < layout.bounds[-2]]
        pairs = [block for block, _, _, _ in solver._plan(*args).blocks if block.ndim == 2]
        assert len(heads) == len(pairs)
        for r, pair in zip(heads, pairs):
            assert pair[0].tobytes() == layout.rows[r].tobytes()
            a_p, a_c = layout.rows[r + 1, K], layout.rows[r, K]
            assert pair[1, K] == a_p * a_c
            with localcontext(prec=60):
                want = [p + Decimal(float(a_p)) * c for p, c in zip(exact(r + 1), exact(r))]
            c = pair[1, :K]
            error = max(abs(float(Decimal(float(g)) - w)) for g, w in zip(c, want))
            error /= np.max(np.abs(c))
            if error > worst:
                worst, where = error, (config, kind, r)
        fused += len(heads)
    assert fused > 0
    assert worst <= ROW_BOUND, f"{worst:.3e} of max|c| at {where}"


def test_blocks_apply_the_layout_exactly():
    """_plan's blocks apply _layout's rows bit for bit: every row but the last once, in
    order, and final is the last row.  A 1-row block is its row; a 2-row block is a
    corrector and the row after it, [[c_c, a_c], [c_p + a_p c_c, a_p a_c]].  Each block
    carries its first row's step, ends its step where that row does, and is followed by the
    model call at the node its last row lands on, except after a standard corrector (its
    output is the predictor's) and the run's last row; the plan's nfe counts the initial
    calls and those calls."""
    sched = NoiseSchedule()
    grid = make_time_grid(sched, 9, "quadratic-time")
    for variant, order, corrector, first in itertools.product(
            ("multistep", "singlestep"), range(1, MAX_ORDER + 1), ("off", "standard", "oracle"),
            (1, 3)):
        config = SolverConfig(order=order, variant=variant, corrector=corrector)
        layout = solver._layout(sched, grid, config, first)
        plan = solver._plan(sched, grid, config, first)
        K, ends = layout.rows.shape[1] - 1, set((layout.bounds[1:] - 1).tolist())

        def called(r):  # the node whose model call follows row r, or -1
            skip = r == len(layout.rows) - 1 or corrector == "standard" and layout.corrector[r]
            return -1 if skip else layout.dst[r]

        r, calls = 0, first  # the next row to apply; the calls so far
        for block, step, node, ends_step in plan.blocks:
            assert step == first + np.searchsorted(layout.bounds, r, side="right") - 1
            assert ends_step == (r in ends)
            calls += node >= 0
            if block.ndim == 2:
                assert corrector == "standard" and layout.corrector[r]
                c, p = layout.rows[r], layout.rows[r + 1]
                fused = p[K] * c
                fused[:K] += p[:K]
                assert block.shape == (2, K + 1)
                assert block[0].tobytes() == c.tobytes() and block[1].tobytes() == fused.tobytes()
                assert node == called(r + 1)
                r += 2
                continue
            assert block.tobytes() == layout.rows[r].tobytes() and block.shape == (K + 1,)
            assert node == called(r)
            r += 1
        assert r == len(layout.rows) - 1 and plan.nfe == calls
        assert plan.final.tobytes() == layout.rows[-1].tobytes()
        assert plan.ts == layout.ts and plan.trace == layout.trace


@st.composite
def runs(draw):
    order = draw(st.integers(1, MAX_ORDER))
    M = draw(st.integers(1, 12))
    schedule = None
    if draw(st.booleans()):
        schedule = "".join(str(draw(st.integers(1, min(i, MAX_ORDER)))) for i in range(1, M + 1))
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
@example((  # warm-started singlestep: step 3's corrector fuses with step 4's first interior row
    SolverConfig(order=3, variant="singlestep"),
    VP_LINEAR, make_time_grid(VP_LINEAR, 6, "uniform-time"), 2, 0.3, 1))
@example((  # step 2's order-1 corrector fuses with step 3's wider order-3 predictor
    SolverConfig(order=3, order_schedule="1132"),
    VP_LINEAR, make_time_grid(VP_LINEAR, 4, "uniform-lambda"), 0, 0.4, 2))
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
