#!/usr/bin/env python3
"""Few-step behavior: B(h) variants and custom order schedules.

Compares final-state errors at 5..10 steps for the two B(h) normalizers
and for a handful of per-step order schedules, on a synthetic model with
a fine reference.  Mirrors, at desk scale, the kind of ablations used to
pick few-step sampler settings.

Usage:
    python3 scripts/bh_and_schedules.py [--seed N]
"""

import argparse
import sys

import numpy as np

from unipc import (
    NoiseSchedule,
    SolverConfig,
    SyntheticModel,
    convert_parameterization,
    make_time_grid,
    reference_solution,
    sample,
)

SCHEDULES = {6: ["123321", "123432", "123443", "123455"],
             7: ["1233321", "1223334", "1234321", "1234555"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)

    sched = NoiseSchedule()
    model = SyntheticModel.linear_in_x(0.3, 4)
    x_T = np.random.default_rng(args.seed).standard_normal(4)
    reference = reference_solution(model, sched, x_T, sched.t_start, sched.t_end, "fine-rk4")

    def error_of(config, M):
        evaluator = model.evaluator(sched)
        if config.prediction == "data":
            evaluator = convert_parameterization(evaluator, sched)
        res = sample(evaluator, sched, make_time_grid(sched, M), config, x_T)
        return float(np.max(np.abs(res.final - reference))), res.nfe

    print("== B(h) variants, order 3 with corrector ==")
    print(f"{'M':>3} {'b1 error':>12} {'b2 error':>12}")
    for M in (5, 6, 8, 10):
        errs = [error_of(SolverConfig(order=3, bh=bh), M)[0] for bh in ("b1", "b2")]
        print(f"{M:>3} {errs[0]:>12.3e} {errs[1]:>12.3e}")

    print("\n== order schedules (digits = per-step predictor order) ==")
    for M, schedules in SCHEDULES.items():
        print(f"M = {M}:")
        for digits in schedules:
            config = SolverConfig(order=max(int(d) for d in digits),
                                  corrector="standard", order_schedule=digits)
            err, nfe = error_of(config, M)
            print(f"  {digits:<9} error {err:.3e}  (nfe {nfe})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
