#!/usr/bin/env python3
"""In-process A/B timing of two unipc source trees: the benchmark's sample cells, its reference
or the one-step API.

Imports OLD_SRC/unipc and NEW_SRC/unipc in one process as two packages with
distinct names and alternates them over a list of cases, round after round:
each round runs every case once on each tree, the tree that goes first
alternating, on one input drawn from one seeded generator for both, so host
load falls on both alike.  Round 0 (which builds sample()'s plans) is not
timed, nor is a case's set-up, such as a pushed SolverState: only the call.

Prints, per case, the 0.05-quantile over the timed rounds of each tree's
microseconds per step (perfbench's cell statistic, not speed-scaled; a
reference or one-step call is one step), their ratio and the largest relative
difference between the trees' arrays, max |new - old| / max(1, max |old|),
then per tree the p50 and p90 of those quantiles across the cases.  Exits 1
if a count (nfe, evals) differs, or an array by more than R max(1, max |old|)
with --rtol R (default 0: any differing bit, a zero's sign too).

  (default)    sample() over perfbench/workloads.py's CONFIGS at M = 10 and 100, on
               its x-free model under the default schedule, at --dim;
  --reference  fine-rk4 reference_solution on the study-rk4 workload's setup
               (linear-in-x, gain 0.3, dim 4, vp-cosine; 12 * --steps model calls);
  --one-step   correct() at orders 1..MAX_ORDER, b1/b2, noise/data, standard/oracle
               corrector, pinned/varying weights, and ddim_step, on both schedules
               over a linear-in-x model (gain 0.3, dim 4).

--dim belongs to the cells and --steps to --reference; another mode refuses them.

Usage:
    python3 scripts/ab_cells.py OLD_SRC NEW_SRC [--dim N] [--rounds N] [--rtol R]
    python3 scripts/ab_cells.py OLD_SRC NEW_SRC --reference [--steps N] [--rounds N] [--rtol R]
    python3 scripts/ab_cells.py OLD_SRC NEW_SRC --one-step [--rounds N] [--rtol R]
"""

import argparse
import importlib
import importlib.util
import itertools
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
MS = (10, 100)
CELL_Q = 0.05
ONE_STEP_KINDS = ("vp-linear", "vp-cosine")


class Case(NamedTuple):
    """One timed call: its label, the steps it takes, its input drawn from the generator,
    and prepare(tree, input), which does the untimed set-up and returns the call to time."""
    label: str
    steps: int
    draw: Callable
    prepare: Callable


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


def compared(result) -> dict:
    """What is compared of a result by name: an array, or a result's counts and arrays."""
    if isinstance(result, np.ndarray):
        return {"result": result}
    return {k: v for k, v in vars(result).items() if isinstance(v, (int, np.ndarray))}


def alternate(trees: dict, cases: list[Case], rounds: int, rtol: float) -> list[str]:
    """Run every case on both trees for rounds timed rounds after an untimed one and print
    each case's timings and largest difference; returns the mismatches: a count that differs,
    or an array off by more than rtol max(1, max |old|), with rtol 0 by any bit."""
    rng = np.random.default_rng(0)
    us = {(name, case.label): [] for name in trees for case in cases}
    diff = {case.label: 0.0 for case in cases}
    mismatches = []
    for rnd in range(rounds + 1):
        order = ("old", "new") if rnd % 2 else ("new", "old")
        for case in cases:
            drawn = case.draw(rng)
            results = {}
            for name in order:
                call = case.prepare(trees[name], drawn)
                start = time.perf_counter()
                result = call()
                seconds = time.perf_counter() - start
                results[name] = compared(result)
                if rnd:
                    us[name, case.label].append(seconds / case.steps * 1e6)
            old, new, offs = results["old"], results["new"], []
            for key, value in old.items():
                if isinstance(value, np.ndarray):
                    rel = float(np.max(np.abs(new[key] - value)) / max(1.0, np.max(np.abs(value))))
                    diff[case.label] = max(diff[case.label], rel)
                    if not (rel <= rtol if rtol else value.tobytes() == new[key].tobytes()):
                        offs.append(f"relative {key} diff {rel:.3e}")
                elif value != new[key]:
                    offs.append(f"{key} {value} vs {new[key]}")
            if offs:
                mismatches.append(f"{case.label} round {rnd}: {', '.join(offs)}")
    case_us = {key: float(np.quantile(values, CELL_Q)) for key, values in us.items()}
    width = max(len(case.label) for case in cases) + 2
    print(f"{'case':<{width}} {'old us/step':>12} {'new us/step':>12} {'new/old':>8} "
          f"{'rel diff':>10}")
    for case in cases:
        o, n = case_us["old", case.label], case_us["new", case.label]
        print(f"{case.label:<{width}} {o:12.3f} {n:12.3f} {n / o:8.3f} {diff[case.label]:10.2e}")
    print(f"per tree across the {len(cases)} cases:")
    for name in trees:
        per_case = [case_us[name, case.label] for case in cases]
        print(f"{name:<4} p50 {np.median(per_case):12.3f} us/step  "
              f"p90 {np.quantile(per_case, 0.9):12.3f} us/step")
    return mismatches


def cell_cases(trees: dict, dim: int) -> tuple[str, str, list[Case]]:
    """The sample() cells, with each tree's schedule, evaluators, grids and configs; like each
    mode, returns its header, what its cases are and the cases."""
    configs, poly = benchmark_cells(trees["new"].pkg)
    for tree in trees.values():
        pkg = tree.pkg
        tree.sched = pkg.NoiseSchedule()
        noise = pkg.SyntheticModel.x_free_poly(list(poly), dim=dim).evaluator(tree.sched)
        tree.evaluators = {"noise": noise,
                           "data": pkg.convert_parameterization(noise, tree.sched)}
        tree.grids = {M: pkg.make_time_grid(tree.sched, M) for M in MS}
        tree.configs = {label: pkg.SolverConfig.from_json(s) for label, s in configs.items()}

    def cell(label: str, M: int) -> Case:
        def prepare(tree, x):
            config = tree.configs[label]
            return lambda: tree.pkg.sample(tree.evaluators[config.prediction], tree.sched,
                                           tree.grids[M], config, x)
        return Case(f"{label} M={M}", M, lambda rng: rng.standard_normal(dim), prepare)

    return (f"sample() cells, dim {dim}", "cell runs",
            [cell(label, M) for label in configs for M in MS])


def reference_cases(trees: dict, steps: int) -> tuple[str, str, list[Case]]:
    """The fine-rk4 reference on the study-rk4 workload's setup."""
    for tree in trees.values():
        tree.sched = tree.pkg.NoiseSchedule.from_json({"kind": "vp-cosine"})
        tree.model = tree.pkg.SyntheticModel.linear_in_x(0.3, 4)

    def prepare(tree, x):
        return lambda: tree.pkg.reference_solution(tree.model, tree.sched, x, tree.sched.t_start,
                                                   tree.sched.t_end, "fine-rk4", steps=steps)
    return (f"fine-rk4 reference, {steps} steps ({12 * steps} model calls)", "references",
            [Case("fine-rk4", 1, lambda rng: rng.standard_normal(4), prepare)])


def one_step_cases(trees: dict) -> tuple[str, str, list[Case]]:
    """correct() over every case and ddim_step, per schedule kind."""
    max_order = min(tree.pkg.coeffs.MAX_ORDER for tree in trees.values())
    for tree in trees.values():
        pkg, tree.kinds = tree.pkg, {}
        for kind in ONE_STEP_KINDS:
            sched = pkg.NoiseSchedule.from_json({"kind": kind})
            noise = pkg.SyntheticModel.linear_in_x(0.3, 4).evaluator(sched)
            tree.kinds[kind] = SimpleNamespace(
                sched=sched, t=pkg.make_time_grid(sched, 8, "quadratic-time").times.tolist(),
                models={"noise": noise, "data": pkg.convert_parameterization(noise, sched)})

    def ddim(kind: str) -> Case:
        def prepare(tree, drawn):
            on = tree.kinds[kind]
            return lambda: tree.pkg.ddim_step(on.sched, drawn[0], drawn[1], on.t[0], on.t[1])
        return Case(f"{kind} ddim_step", 1, lambda rng: rng.standard_normal((2, 4)), prepare)

    def correct(kind, p, bh, prediction, corrector, varying) -> Case:
        def prepare(tree, drawn):  # rows: x, x_pred, then the p buffered outputs
            on, (x, x_pred, *outputs) = tree.kinds[kind], drawn
            config = tree.pkg.SolverConfig(order=p, bh=bh, prediction=prediction,
                                           corrector=corrector, varying_coefficients=varying)
            state = tree.pkg.SolverState(x=x, capacity=p)
            for j in range(p):
                state.push(on.t[j], outputs[j])
            return lambda: tree.pkg.correct(on.sched, state, on.t[p], x_pred, p,
                                            on.models[prediction], config)
        label = f"{kind} p={p} {bh} {prediction} {corrector}{' varying' * varying}"
        return Case(label, 1, lambda rng: rng.standard_normal((p + 2, 4)), prepare)

    corrects = [correct(*c) for c in itertools.product(
        ONE_STEP_KINDS, range(1, max_order + 1), ("b1", "b2"), ("noise", "data"),
        ("standard", "oracle"), (False, True))]
    return (f"one-step API, {len(corrects)} correct() and {len(ONE_STEP_KINDS)} ddim_step "
            "cases", "one-step results", [ddim(kind) for kind in ONE_STEP_KINDS] + corrects)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--dim", type=int, help="state size of the sample() cells (default 4)")
    parser.add_argument("--rounds", type=int, default=200)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--reference", action="store_true",
                      help="time the fine-rk4 reference instead of the sample() cells")
    mode.add_argument("--one-step", action="store_true",
                      help="compare correct() and ddim_step instead of the sample() cells")
    parser.add_argument("--steps", type=int,
                        help="fine-rk4 steps of the coarse pass (--reference; default 20000)")
    parser.add_argument("--rtol", type=float, default=0.0,
                        help="largest relative difference an array may show "
                             "(default 0: bit for bit)")
    args = parser.parse_args(argv)
    if args.dim is not None and (args.reference or args.one_step):
        parser.error("--dim applies to the sample() cells only")
    if args.steps is not None and not args.reference:
        parser.error("--steps applies to --reference only")
    args.dim = 4 if args.dim is None else args.dim
    args.steps = 20_000 if args.steps is None else args.steps
    if args.dim < 1 or args.rounds < 1 or args.steps < 1:
        parser.error("--dim, --rounds and --steps must be >= 1")
    if not 0.0 <= args.rtol < float("inf"):
        parser.error("--rtol must be a finite number >= 0")
    trees = {name: SimpleNamespace(pkg=load_tree(src, f"unipc_ab_{name}"))
             for name, src in (("old", args.old_src), ("new", args.new_src))}
    if args.reference:
        header, what, cases = reference_cases(trees, args.steps)
    elif args.one_step:
        header, what, cases = one_step_cases(trees)
    else:
        header, what, cases = cell_cases(trees, args.dim)
    print(f"{header}, {args.rounds} rounds:")
    mismatches = alternate(trees, cases, args.rounds, args.rtol)
    for line in mismatches[:10]:
        print(f"mismatch: {line}")
    if mismatches:
        print(f"error: {len(mismatches)} {what} differ between the trees")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
