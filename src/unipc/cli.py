"""Command-line interface.

    unipc run --config study.json --out results.csv [--format csv|json]
              [--seed N]
    unipc fit --in results.csv
    unipc selftest

Exit codes: 0 success, 2 validation error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import os
import sys

import numpy as np

from . import coeffs, model, solver
from .errors import (
    DomainError,
    FitError,
    NumericError,
    ReferenceAccuracyError,
    SingularSystemError,
    ValidationError,
    typed,
)
from .schedule import NoiseSchedule, make_time_grid
from .solver import SolverConfig
from .study import CSV_COLUMNS, ConvergenceStudy, emit, fit_order, run_study


def _cmd_run(args) -> int:
    with open(args.config) as fh:
        cfg = typed(json.load(fh), "dict", "study config")
    if args.seed is not None:
        cfg["seed"] = args.seed
    study = ConvergenceStudy.from_json(cfg)
    if not os.path.isdir(os.path.dirname(args.out) or ".") or os.path.isdir(args.out):
        # checked before the study runs, not after
        raise ValidationError(f"--out {args.out!r} is not a file in an existing directory")
    run_study(study)
    emit(study, args.out, fmt=args.format)
    print(f"wrote {len(study.results)} rows to {args.out}")
    for config, fit, reason in study.fits():
        if fit is not None:
            print(
                f"{config.name()} ({config.variant}, {config.bh}, {config.prediction}, "
                f"corrector={config.corrector}): order={fit.slope:.3f} "
                f"r2={fit.r_squared:.5f} n={fit.n_used}"
            )
        else:
            print(f"{config.name()}: unfittable ({reason})")
    return 0


def _cell(row: dict, where: str, column: str, kind: type):
    """row[column] as an int or float; ValidationError naming the row and the column."""
    try:
        return kind(row[column])
    except (TypeError, ValueError):  # TypeError: a short row's missing cell is None
        raise ValidationError(f"{where}, column {column!r}: {row[column]!r} is not "
                              f"{'an int' if kind is int else 'a number'}") from None


def _cmd_fit(args) -> int:
    groups: dict[tuple, list[tuple[int, float]]] = {}  # per solver, its (M, error) points
    with open(args.infile) as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            where = f"{args.infile} line {reader.line_num}"
            key = tuple(row[k] for k in CSV_COLUMNS[:6])
            groups.setdefault(key, []).append(
                (_cell(row, where, "M", int), _cell(row, where, "error", float)))
    if not groups:
        raise ValidationError(f"no data rows in {args.infile}")
    failures = 0
    for key, points in groups.items():
        points.sort(key=lambda point: point[0])
        Ms, errs = zip(*points)
        label = f"{key[0]} ({key[2]}, {key[3]}, {key[4]}, corrector={key[5]})"
        try:
            fit = fit_order(Ms, errs)
            print(f"{label}: order={fit.slope:.3f} intercept={fit.intercept:.3f} "
                  f"r2={fit.r_squared:.5f} n={fit.n_used}")
        except FitError as exc:
            print(f"{label}: unfittable ({exc})")
            failures += 1
    return 3 if failures else 0


# -- selftest ----------------------------------------------------------------


def _simpson(f, a: float, b: float, panels: int) -> float:
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = f(xs)
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum()))


def _selftest_quadrature() -> tuple[bool, str]:
    """varphi_k and psi_k against Simpson quadrature of their integrals, for
    every k a plan row reads (k <= MAX_ORDER + 1), relative to the value."""
    worst = 0.0
    for h in (0.1, 0.5, 1.0, 2.0):
        for k in range(1, coeffs.MAX_ORDER + 2):
            for sign, basis in ((1.0, coeffs.varphi), (-1.0, coeffs.psi)):
                ref = _simpson(lambda r: np.exp(sign * (1.0 - r) * h) * r ** (k - 1), 0.0, 1.0, 10_000)
                ref /= math.factorial(k - 1)
                worst = max(worst, abs(basis(k, h) / ref - 1.0))
    return worst < 1e-12, f"max |basis / quadrature - 1| = {worst:.3e}"


def _plan_row_residual(sched, times, nodes, P: int, N: int, a, c, prediction: str,
                       bh: str) -> tuple[float, float]:
    """Order-condition residual of one plan row, from scalar schedule maps and basis,
    and the drift |w1 - 1/2|/h of its weight if it has one (0 otherwise).

    The update from node P to node N that combines the outputs at `nodes`
    with weights solved exactly must reproduce x_N/x_P for a zero model and
    satisfy sum_j c_j r_j^n = scale * h n! basis_{n+1}(h) for n below the
    number of nodes (r_j the offsets in units of h; scale -sigma_N for noise
    and alpha_N for data prediction).  Each condition's error is taken
    relative to the size of its terms, which reach |r|^n.  With one offset
    r_1 besides 0 the row has the one weight w1 = u_1 r_1 / B(h), which
    stays near the 1/2 that a config without varying coefficients pins it to.
    """
    alpha_p, sigma_p, lam_p = sched.alpha_sigma_lambda(times[P])
    alpha_n, sigma_n, lam_n = sched.alpha_sigma_lambda(times[N])
    h = lam_n - lam_p
    r = np.array([(sched.lam(times[j]) - lam_p) / h for j in nodes])
    if prediction == "noise":
        exact_a, scale, basis = alpha_n / alpha_p, -sigma_n, coeffs.varphi
    else:
        exact_a, scale, basis = sigma_n / sigma_p, alpha_n, coeffs.psi
    u = np.asarray(c) / scale
    residual = abs(a / exact_a - 1.0)
    for n in range(len(nodes)):
        terms = u * r**n
        error = abs(float(np.sum(terms)) - h * math.factorial(n) * basis(n + 1, h))
        residual = max(residual, error / float(np.sum(np.abs(terms))))
    if len(nodes) != 2:
        return residual, 0.0
    return residual, abs(float(np.sum(u * r)) / coeffs.bh_value(bh, h) - 0.5) / h


def _selftest_plan() -> tuple[bool, str]:
    sched, worst, drift, rows = NoiseSchedule(), 0.0, 0.0, 0
    grid = make_time_grid(sched, 12, "quadratic-time")  # step sizes and offsets vary
    for variant, order, bh, prediction in itertools.product(
            solver.VARIANTS, range(1, coeffs.MAX_ORDER + 1), coeffs.BH_KINDS, ("noise", "data")):
        config = SolverConfig(order=order, variant=variant, bh=bh, prediction=prediction,
                              varying_coefficients=True)
        layout = solver._layout(sched, grid, config, 1)
        K = layout.rows.shape[1] - 1  # a row is [c in ring slot order, a]
        for row, P, N, low, corr in zip(layout.rows, *layout[2:6]):  # src, dst, low, corrector
            nodes = range(low, N + corr)  # a corrector also reads the node it lands on
            residual, w1_drift = _plan_row_residual(sched, layout.ts, nodes, P, N, row[K],
                                                    row[np.mod(nodes, K)], prediction, bh)
            worst, drift = max(worst, residual), max(drift, w1_drift)
        rows += len(layout.rows)
    return worst < 1e-12 and drift <= 1.0, (
        f"max relative order-condition residual = {worst:.3e} over {rows} rows, "
        f"|w1 - 1/2|/h <= {drift:.3f}")


def _selftest_roundtrip() -> tuple[bool, str]:
    worst = 0.0
    rng = np.random.default_rng(0)
    for spec in ({"kind": "vp-linear"}, {"kind": "vp-cosine"}):
        sched = NoiseSchedule.from_json(spec)
        ts = list(rng.uniform(sched.t_end, sched.t_start, size=200)) + [sched.t_end, sched.t_start]
        ts += [sched.t_end + 10.0**-k for k in range(2, 14)]
        ts += [sched.t_start - 10.0**-k for k in range(2, 14)]
        for t in ts:
            worst = max(worst, abs(sched.t_of_lambda(sched.lam(float(t))) - float(t)))
    return worst < 1e-10, f"max |t_of_lambda(lambda(t)) - t| = {worst:.3e}"


def _selftest_quantile() -> tuple[bool, str]:
    """The tail selection behind dynamic thresholding against this numpy's np.quantile, bit for bit."""
    rng = np.random.default_rng(0)
    cases = differ = 0
    for n in (4, 1000, 2**18):
        a = np.abs(rng.standard_normal(n))
        for ratio in (0.6, 0.995, 1.0):
            got = model._tail_quantile(a.copy(), ratio, float(a.max()))
            differ += got.hex() != float(np.quantile(a, ratio)).hex()
            cases += 1
    return differ == 0, f"{cases - differ}/{cases} bitwise equal to numpy {np.__version__} np.quantile"


def _cmd_selftest(args) -> int:
    checks = [
        ("basis-vs-quadrature", _selftest_quadrature),
        ("schedule-roundtrip", _selftest_roundtrip),
        ("plan-residuals", _selftest_plan),
        ("threshold-quantile", _selftest_quantile),
    ]
    failed = 0
    for name, fn in checks:
        ok, detail = fn()
        print(f"selftest {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed += 0 if ok else 1
    return 3 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="unipc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a convergence study from a JSON config")
    run.add_argument("--config", required=True)
    run.add_argument("--out", required=True)
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--seed", type=int, default=None)
    run.set_defaults(func=_cmd_run)

    fit = sub.add_parser("fit", help="fit convergence orders from a results CSV")
    fit.add_argument("--in", dest="infile", required=True)
    fit.set_defaults(func=_cmd_fit)

    selftest = sub.add_parser("selftest", help="run coefficient and quadrature cross-checks")
    selftest.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NumericError, ReferenceAccuracyError, FitError, SingularSystemError, OverflowError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
