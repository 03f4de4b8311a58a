#!/usr/bin/env python3
"""In-process A/B timing of two unipc source trees over the benchmark's sample cells.

Imports OLD_SRC/unipc and NEW_SRC/unipc in one process as two packages with
distinct names and alternates them, round after round, over the sample()
cells of perfbench's workloads: every config in perfbench/workloads.py's
CONFIGS at M = 10 and 100, on its x-free model under the default schedule.
Each round runs every cell once on each side, with the side that goes first
alternating and one input state for both, so host load falls on both sides
alike; one untimed round first builds each side's plans.

Prints, per cell, the 0.05-quantile over the rounds of each side's
microseconds per step (perfbench's cell statistic, not speed-scaled) and
their ratio, then per side the p50 and p90 of those quantiles across the
cells.  Exits 1 if any cell's final state or NFE differs between the sides.

Usage:
    python3 scripts/ab_cells.py OLD_SRC NEW_SRC [--dim N] [--rounds N]
"""

import argparse
import importlib
import importlib.util
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old_src", type=Path)
    parser.add_argument("new_src", type=Path)
    parser.add_argument("--dim", type=int, default=4)
    parser.add_argument("--rounds", type=int, default=200)
    args = parser.parse_args(argv)
    if args.dim < 1 or args.rounds < 1:
        parser.error("--dim and --rounds must be >= 1")
    old, new = load_tree(args.old_src, "unipc_ab_old"), load_tree(args.new_src, "unipc_ab_new")
    configs, poly = benchmark_cells(new)
    sides = {"old": Side(old, configs, poly, args.dim), "new": Side(new, configs, poly, args.dim)}
    cells = [(label, M) for label in configs for M in MS]
    rng = np.random.default_rng(0)
    us = {(name, cell): [] for name in sides for cell in cells}
    mismatches = []
    for rnd in range(args.rounds + 1):  # round 0 builds the plans and is not timed
        order = ("old", "new") if rnd % 2 else ("new", "old")
        for label, M in cells:
            x = rng.standard_normal(args.dim)
            results = {}
            for name in order:
                results[name], seconds = sides[name].run(label, M, x)
                if rnd:
                    us[name, (label, M)].append(seconds / M * 1e6)
            a, b = results["old"], results["new"]
            if a.nfe != b.nfe or a.final.tobytes() != b.final.tobytes():
                mismatches.append(f"{label} M={M} round {rnd}: nfe {a.nfe} vs {b.nfe}, "
                                  f"max |final diff| {np.max(np.abs(a.final - b.final)):.3e}")
    cell_us = {key: float(np.quantile(values, CELL_Q)) for key, values in us.items()}
    print(f"{'cell':<26} {'old us/step':>12} {'new us/step':>12} {'new/old':>8}")
    for label, M in cells:
        o, n = cell_us["old", (label, M)], cell_us["new", (label, M)]
        print(f"{label + f' M={M}':<26} {o:12.3f} {n:12.3f} {n / o:8.3f}")
    print(f"{args.rounds} rounds, dim {args.dim}; per side across cells:")
    for name in sides:
        per_cell = [cell_us[name, cell] for cell in cells]
        print(f"{name:<4} p50 {np.median(per_cell):9.3f} us/step  "
              f"p90 {np.quantile(per_cell, 0.9):9.3f} us/step")
    for line in mismatches[:10]:
        print(f"mismatch: {line}")
    if mismatches:
        print(f"error: {len(mismatches)} cell runs differ between the trees")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
