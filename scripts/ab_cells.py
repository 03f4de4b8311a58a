#!/usr/bin/env python3
"""In-process A/B timing of two unipc source trees: the benchmark's sample cells, its reference
or the one-step API.

Imports OLD_SRC/unipc and NEW_SRC/unipc in one process as two packages with
distinct names and alternates them, round after round, over the sample()
cells of perfbench's workloads: every config in perfbench/workloads.py's
CONFIGS at M = 10 and 100, on its x-free model under the default schedule.
Each round runs every cell once on each side, with the side that goes first
alternating and one input state for both, so host load falls on both sides
alike; one untimed round first builds each side's plans.

Prints, per cell, the 0.05-quantile over the rounds of each side's
microseconds per step (perfbench's cell statistic, not speed-scaled), their
ratio and the largest relative difference between the two sides' final
states over the rounds, max |new - old| / max(1, max |old|), then per side
the p50 and p90 of those quantiles across the cells.  Exits 1 if any cell's
NFE differs between the sides, or if any final state differs by more than
R max(1, max |old|) with --rtol R (default 0: any differing bit).

With --reference it alternates the two trees' fine-rk4 reference_solution
instead, on the study-rk4 workload's setup (linear-in-x with gain 0.3, dim
4, vp-cosine, over the schedule's whole time range; 12 * steps model calls
a run), one fresh input state per round for both sides.  It prints each
side's 0.05-quantile seconds over the rounds, their ratio and the largest
relative difference between the two sides' references over the rounds,
max |new - old| / max(1, max |old|), and exits 1 if any reference differs
by more than R max(1, max |old|) with --rtol R (default 0: any differing
bit).

With --one-step it alternates the two trees' one-step API instead: correct()
at orders 1..MAX_ORDER with b1/b2, noise/data prediction, the standard and
oracle correctors, pinned and varying weights, on both schedules, and
ddim_step on both schedules, over a linear-in-x model (gain 0.3, dim 4), one
fresh set of buffered outputs and states per round for both sides.  It
prints each side's 0.05-quantile seconds a round and their ratio, and exits
1 if any corrected state, pushed output or evaluation count differs by a bit
between the sides.

Usage:
    python3 scripts/ab_cells.py OLD_SRC NEW_SRC [--dim N] [--rounds N] [--rtol R]
    python3 scripts/ab_cells.py OLD_SRC NEW_SRC --reference [--steps N] [--rounds N] [--rtol R]
    python3 scripts/ab_cells.py OLD_SRC NEW_SRC --one-step [--rounds N]
"""

import argparse
import importlib
import importlib.util
import itertools
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MS = (10, 100)
CELL_Q = 0.05


def load_tree(src: Path, name: str):
    """The unipc package under src, imported as `name` (its imports are relative)."""
    init = Path(src) / "unipc" / "__init__.py"
    if not init.is_file():
        raise SystemExit(f"error: no unipc package under {src}")
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    for stale in [m for m in sys.modules if m == name or m.startswith(name + ".")]:
        del sys.modules[stale]  # a tree loaded under this name before
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def benchmark_cells(pkg):
    """perfbench's CONFIGS and POLY; workloads.py imports `unipc`, so one is provided."""
    sys.modules.setdefault("unipc", pkg)
    sys.modules.setdefault("unipc.cli", importlib.import_module(f"{pkg.__name__}.cli"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        from workloads import CONFIGS, POLY
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return CONFIGS, POLY


def difference(old: np.ndarray, new: np.ndarray, rtol: float) -> tuple[float, bool]:
    """max |new - old| / max(1, max |old|), and whether it is a mismatch: above rtol, or with
    rtol 0 any differing bit (a zero's sign too)."""
    rel = float(np.max(np.abs(new - old)) / max(1.0, np.max(np.abs(old))))
    return rel, not (rel <= rtol if rtol else old.tobytes() == new.tobytes())


class Side:
    """One tree's inputs for every cell: schedule, evaluators, grids and configs."""

    def __init__(self, pkg, configs: dict, poly, dim: int):
        self.pkg = pkg
        self.sched = pkg.NoiseSchedule()
        noise = pkg.SyntheticModel.x_free_poly(list(poly), dim=dim).evaluator(self.sched)
        self.evaluators = {"noise": noise,
                           "data": pkg.convert_parameterization(noise, self.sched)}
        self.grids = {M: pkg.make_time_grid(self.sched, M) for M in MS}
        self.configs = {label: pkg.SolverConfig.from_json(spec) for label, spec in configs.items()}

    def run(self, label: str, M: int, x: np.ndarray):
        """(result, seconds) of one sample() call."""
        config = self.configs[label]
        evaluator = self.evaluators[config.prediction]
        start = time.perf_counter()
        result = self.pkg.sample(evaluator, self.sched, self.grids[M], config, x)
        return result, time.perf_counter() - start


def compare_cells(old, new, dim: int, rounds: int, rtol: float = 0.0) -> list[str]:
    """Alternate the sample() cells and print their timings and final-state differences;
    returns the mismatches: an NFE difference, or a final state off by more than
    rtol max(1, max |old final|)."""
    configs, poly = benchmark_cells(new)
    sides = {"old": Side(old, configs, poly, dim), "new": Side(new, configs, poly, dim)}
    cells = [(label, M) for label in configs for M in MS]
    rng = np.random.default_rng(0)
    us = {(name, cell): [] for name in sides for cell in cells}
    diff = dict.fromkeys(cells, 0.0)  # largest relative final-state difference
    mismatches = []
    for rnd in range(rounds + 1):  # round 0 builds the plans and is not timed
        order = ("old", "new") if rnd % 2 else ("new", "old")
        for label, M in cells:
            x = rng.standard_normal(dim)
            results = {}
            for name in order:
                results[name], seconds = sides[name].run(label, M, x)
                if rnd:
                    us[name, (label, M)].append(seconds / M * 1e6)
            a, b = results["old"], results["new"]
            rel, off = difference(a.final, b.final, rtol)
            diff[label, M] = max(diff[label, M], rel)
            if a.nfe != b.nfe or off:
                mismatches.append(f"{label} M={M} round {rnd}: nfe {a.nfe} vs {b.nfe}, "
                                  f"relative final diff {rel:.3e}")
    cell_us = {key: float(np.quantile(values, CELL_Q)) for key, values in us.items()}
    print(f"{'cell':<26} {'old us/step':>12} {'new us/step':>12} {'new/old':>8} {'rel diff':>10}")
    for label, M in cells:
        o, n = cell_us["old", (label, M)], cell_us["new", (label, M)]
        print(f"{label + f' M={M}':<26} {o:12.3f} {n:12.3f} {n / o:8.3f} "
              f"{diff[label, M]:10.2e}")
    print(f"{rounds} rounds, dim {dim}; per side across cells:")
    for name in sides:
        per_cell = [cell_us[name, cell] for cell in cells]
        print(f"{name:<4} p50 {np.median(per_cell):9.3f} us/step  "
              f"p90 {np.quantile(per_cell, 0.9):9.3f} us/step")
    return mismatches


def compare_reference(old, new, steps: int, rounds: int, rtol: float = 0.0) -> list[str]:
    """Alternate the fine-rk4 references and print their timings and largest difference;
    returns the mismatches: a reference off by more than rtol max(1, max |old|)."""
    sides = {}
    for name, pkg in (("old", old), ("new", new)):
        sched = pkg.NoiseSchedule.from_json({"kind": "vp-cosine"})
        sides[name] = (pkg, pkg.SyntheticModel.linear_in_x(0.3, 4), sched)
    rng = np.random.default_rng(0)
    seconds = {name: [] for name in sides}
    mismatches, diff = [], 0.0
    for rnd in range(rounds):
        order = ("old", "new") if rnd % 2 else ("new", "old")
        x = rng.standard_normal(4)
        results = {}
        for name in order:
            pkg, model, sched = sides[name]
            start = time.perf_counter()
            results[name] = pkg.reference_solution(model, sched, x, sched.t_start, sched.t_end,
                                                   "fine-rk4", steps=steps)
            seconds[name].append(time.perf_counter() - start)
        rel, off = difference(results["old"], results["new"], rtol)
        diff = max(diff, rel)
        if off:
            mismatches.append(f"round {rnd}: relative reference diff {rel:.3e}")
    q = {name: float(np.quantile(values, CELL_Q)) for name, values in seconds.items()}
    print(f"fine-rk4 reference, {steps} steps ({12 * steps} model calls), {rounds} rounds:")
    print(f"old {q['old']:.6f} s  new {q['new']:.6f} s  new/old {q['new'] / q['old']:.3f}  "
          f"rel diff {diff:.2e}")
    return mismatches


ONE_STEP_KINDS = ("vp-linear", "vp-cosine")


def one_step_cases(max_order: int) -> list[tuple]:
    """(schedule kind, order, bh, prediction, corrector, varying) of every correct() case."""
    return list(itertools.product(ONE_STEP_KINDS, range(1, max_order + 1), ("b1", "b2"),
                                  ("noise", "data"), ("standard", "oracle"), (False, True)))


def run_one_step(pkg, cases: list[tuple], inputs: dict) -> tuple[dict, float]:
    """Every case's one-step result under pkg as bytes, and the seconds they took."""
    results, seconds = {}, 0.0
    x, outputs, x_pred = inputs["x"], inputs["outputs"], inputs["x_pred"]
    for kind in ONE_STEP_KINDS:
        sched = pkg.NoiseSchedule.from_json({"kind": kind})
        noise = pkg.SyntheticModel.linear_in_x(0.3, 4).evaluator(sched)
        models = {"noise": noise, "data": pkg.convert_parameterization(noise, sched)}
        t = pkg.make_time_grid(sched, 8, "quadratic-time").times.tolist()
        start = time.perf_counter()
        step = pkg.ddim_step(sched, x, outputs[0], t[0], t[1])
        seconds += time.perf_counter() - start
        results[kind, "ddim_step"] = step.tobytes()
        for case in [c for c in cases if c[0] == kind]:
            _, p, bh, prediction, corrector, varying = case
            config = pkg.SolverConfig(order=p, bh=bh, prediction=prediction,
                                      corrector=corrector, varying_coefficients=varying)
            state = pkg.SolverState(x=x, capacity=p)
            for j in range(p):
                state.push(t[j], outputs[j])
            model = models[prediction]
            start = time.perf_counter()
            res = pkg.correct(sched, state, t[p], x_pred, p, model, config)
            seconds += time.perf_counter() - start
            results[case] = (res.corrected.tobytes(), res.push_output.tobytes(), res.evals)
    return results, seconds


def compare_one_step(old, new, rounds: int) -> list[str]:
    """Alternate the one-step API over every case and print the timings; returns the
    mismatches."""
    max_order = min(old.coeffs.MAX_ORDER, new.coeffs.MAX_ORDER)
    cases = one_step_cases(max_order)
    rng = np.random.default_rng(0)
    seconds = {"old": [], "new": []}
    mismatches = []
    for rnd in range(rounds):
        order = ("old", "new") if rnd % 2 else ("new", "old")
        inputs = {"x": rng.standard_normal(4), "x_pred": rng.standard_normal(4),
                  "outputs": list(rng.standard_normal((max_order, 4)))}
        results = {}
        for name in order:
            results[name], spent = run_one_step(old if name == "old" else new, cases, inputs)
            seconds[name].append(spent)
        for case, got in results["new"].items():
            if got != results["old"][case]:
                mismatches.append(f"{case} round {rnd}")
    q = {name: float(np.quantile(values, CELL_Q)) for name, values in seconds.items()}
    print(f"one-step API, {len(cases)} correct() and {len(ONE_STEP_KINDS)} ddim_step cases, "
          f"{rounds} rounds:")
    print(f"old {q['old']:.6f} s  new {q['new']:.6f} s  new/old {q['new'] / q['old']:.3f}")
    return mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=200)
    parser.add_argument("--reference", action="store_true",
                        help="time the fine-rk4 reference instead of the sample() cells")
    parser.add_argument("--one-step", action="store_true",
                        help="compare correct() and ddim_step instead of the sample() cells")
    parser.add_argument("--steps", type=int, default=20_000,
                        help="fine-rk4 steps of the coarse pass (--reference)")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference a cell's final state or a "
                             "reference may show (default 0: bit for bit)")
    args = parser.parse_args(argv)
    if args.dim < 1 or args.rounds < 1 or args.steps < 1:
        parser.error("--dim, --rounds and --steps must be >= 1")
    if not 0.0 <= args.rtol < float("inf"):
        parser.error("--rtol must be a finite number >= 0")
    old, new = load_tree(args.old_src, "unipc_ab_old"), load_tree(args.new_src, "unipc_ab_new")
    if args.reference and args.one_step:
        parser.error("--reference and --one-step exclude each other")
    if args.reference:
        mismatches = compare_reference(old, new, args.steps, args.rounds, args.rtol)
        what = "references"
    elif args.one_step:
        mismatches = compare_one_step(old, new, args.rounds)
        what = "one-step results"
    else:
        mismatches = compare_cells(old, new, args.dim, args.rounds, args.rtol)
        what = "cell runs"
    for line in mismatches[:10]:
        print(f"mismatch: {line}")
    if mismatches:
        print(f"error: {len(mismatches)} {what} differ between the trees")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
