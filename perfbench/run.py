"""Benchmark of the `unipc` sampler and its convergence-study harness.

    python3 perfbench/run.py --workload sample-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/` there.
`--workload all` runs every workload in turn.  With `--trace 0` the run
prints the end-to-end metrics, with `--trace 1` the per-layer metrics of a
traced run (spans go to perfbench/out/trace-<workload>.jsonl).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

One process, one client, closed loop; BLAS threads are capped at the number
of usable cores.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()  # cold set-up is timed from here

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# study-rk4 first: its peak memory is read from the process's high-water mark.
NAMES = ("study-rk4", "sample-small", "sample-large")
SETUP_REPS = 5
NAN = float("nan")  # a metric with no successful sample
CELL_Q = 0.05  # quantile over the passes that stands for a cell's time
SPAN_BUDGET = 300_000  # spans kept in memory by one traced run
THREADS = str(len(os.sched_getaffinity(0)))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _no_span(name):
    return nullcontext()


def load_program():
    """Import `unipc` from this checkout's src/ and the benchmark's own modules."""
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    src = ROOT / "src"
    if not (src / "unipc" / "__init__.py").is_file():
        raise SystemExit(f"error: no unipc package under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    import unipc

    if src.resolve() not in Path(unipc.__file__).resolve().parents:
        raise SystemExit(f"error: imported unipc from {unipc.__file__}, not from {src}")
    import workloads

    expected = json.loads((HERE / "expected.json").read_text())
    return workloads, expected


def machine(state_bytes: int) -> dict:
    import numpy

    def cache(index: int):
        path = Path(f"/sys/devices/system/cpu/cpu0/cache/index{index}/size")
        return path.read_text().strip() if path.exists() else None

    return {
        "cores": os.cpu_count(), "usable_cores": int(THREADS),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "blas_threads": int(THREADS), "l2_per_core": cache(2), "l3": cache(3),
        "state_bytes": state_bytes,
    }


def _pass_seconds(calls) -> float:
    return sum(c.seconds for c in calls)


def quantile(values, q: float) -> float:
    """Inclusive q-quantile, q in (0, 1)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


# -- set-up -------------------------------------------------------------------------


def cold_setup(name: str, seed: int) -> None:
    """One cold set-up in this fresh process; prints its time for the parent."""
    sys.path.insert(0, str(HERE))
    from speed import SpeedProbe

    with SpeedProbe() as probe:  # started after _T0; the first 50 ms are unsampled
        wl, expected = load_program()
        work = wl.make(name, OUT, expected)
        inputs = work.build(seed)
        elapsed = time.perf_counter() - _T0
        failures = []
        if work.cold_pass:
            calls, _ = work.run_pass(inputs, _no_span)
            elapsed += sum(c.seconds for c in calls)
            failures = [f for c in calls for f in c.failures]
    if work.normalised:
        elapsed *= probe.factor(_T0, time.perf_counter())
    print(json.dumps({"setup_s": elapsed, "failures": failures}))


def setup_times(name: str, seed: int) -> tuple[list, list]:
    """Cold set-up times of SETUP_REPS fresh processes, run one after another,
    and each process's list of failures."""
    times, ops = [], []
    for _ in range(SETUP_REPS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--cold-setup"],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            ops.append([f"cold set-up exited {proc.returncode}: {proc.stderr.strip()[-500:]}"])
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        ops.append(result["failures"])
    return times, ops


# -- untraced run: end-to-end metrics ------------------------------------------------


def end_to_end(work, seed: int, seconds: float):
    from speed import SpeedProbe

    setups, ops = setup_times(work.name, seed)
    inputs = work.build(seed)
    # Warm up where set-up includes a first pass; the study's first pass is long
    # enough not to need it, and it is where the study's peak memory is read.
    warm = work.run_pass(inputs, _no_span)[0] if work.cold_pass else []
    gc.collect()
    window, spans = [], []
    deadline = time.perf_counter() + seconds
    with SpeedProbe() as probe:
        while not window or time.perf_counter() < deadline:
            start = time.perf_counter()
            window.append(work.run_pass(inputs, _no_span)[0])
            spans.append((start, time.perf_counter()))

    def factor(start, end):
        return probe.factor(start, end) if work.normalised else 1.0

    peak = work.peak_memory(inputs)
    probes = work.probe_calls(inputs) if hasattr(work, "probe_calls") else []
    ops += [c.failures for c in warm + [c for calls in window for c in calls] + probes]

    # Each pass runs every cell once.  A cell's time is a low quantile over the
    # passes (nearly the fastest of the three or four studies in a study-rk4
    # run), which passes over bursts of other load that the speed probe does
    # not catch; the percentiles are then taken across the cells.
    runs = [[(sec * factor(*c.steps_span), M) for c in calls for sec, M in c.steps] for calls in window]
    passes = [_pass_seconds(calls) * factor(*span) for calls, span in zip(window, spans)]
    runs = [r for r in runs if r and len(r) == max(map(len, runs), default=0)]
    cells = [(quantile([sec for sec, _ in cell], CELL_Q), cell[0][1]) for cell in zip(*runs)]
    per_step_us = [sec / M * 1e6 for sec, M in cells]
    metrics = {
        "setup_s": (statistics.median(setups) if setups else NAN, "s"),
        "steps_per_s": (sum(M for _, M in cells) / sum(sec for sec, _ in cells) if cells else NAN, "1/s"),
        "step_us.p50": (statistics.median(per_step_us) if cells else NAN, "us"),
        "step_us.p90": (quantile(per_step_us, 0.9) if cells else NAN, "us"),
        "study_s": (quantile(passes, CELL_Q), "s"),
        "peak_mem_mb": (peak / 1e6, "MB"),
    }
    notes = [
        f"set-up runs: {len(setups)} cold processes",
        f"timings: {CELL_Q:g}-quantiles over {len(window)} passes of {len(cells)} sample() runs "
        f"({work.steps_per_pass} steps) each",
        "timings scaled to the reference machine's quiet interpreter speed, by "
        f"{statistics.median(factor(*span) for span in spans):.3f} (median over passes)"
        if work.normalised
        else "timings as measured (memory-bound; not scaled)",
        f"peak_mem_mb base: state of {work.state_bytes} bytes -> "
        f"{peak / work.state_bytes:.1f}x the state",
    ]
    return metrics, notes, ops, work.state_bytes


# -- traced run: per-layer metrics ---------------------------------------------------


def per_layer(work, seed: int, seconds: float):
    from tracing import FORWARD_MAPS, SpanTable, Tracer

    ops = []
    tracer = Tracer()
    plain, traced = [], []
    nfe = steps = divergent = 0
    deadline = time.perf_counter() + seconds
    while not traced or (time.perf_counter() < deadline and len(tracer.spans) < SPAN_BUDGET):
        gc.collect()
        start = time.perf_counter()
        calls, _ = work.run_pass(work.build(seed), _no_span)
        plain.append(time.perf_counter() - start)
        ops += [c.failures for c in calls]
        gc.collect()
        tracer.install()
        try:
            start = time.perf_counter()
            with tracer.span("bench.work"):
                inputs = work.build(seed)
            calls, pass_nfe = work.run_pass(inputs, tracer.span)
            traced.append(time.perf_counter() - start)
        finally:
            tracer.uninstall()
        ops += [c.failures for c in calls]
        nfe += pass_nfe
        steps += sum(M for c in calls for _, M in c.steps)
        divergent += sum(c.divergent for c in calls)

    n = len(traced)
    table = SpanTable(tracer.spans)
    work_ids = table.below("bench.work")

    def ids(names=None, prefix=None, under=None):
        names = {names} if isinstance(names, str) else names
        below = table.below(under) if under else None
        return [i for i in work_ids
                if (names is None or table.name[i] in names)
                and (prefix is None or table.name[i].startswith(prefix))
                and (below is None or i in below)]

    def count(**kw):
        return (len(ids(**kw)) / n, "count")

    def self_s(**kw):
        return (table.total_self(ids(**kw)) / n, "s")

    forward = {f"schedule.{f}" for f in FORWARD_MAPS}
    samples = ids("solver.sample")
    model_in_sample = ids("model.call", under="solver.sample")
    overhead = table.total_duration(samples) - table.total_duration(model_in_sample)
    model_self = table.total_self(model_in_sample)
    metrics = {
        "schedule.calls": count(prefix="schedule."),
        "schedule.self_s": self_s(prefix="schedule."),
        "schedule.t_of_lambda.calls": count(names="schedule.t_of_lambda"),
        "schedule.t_of_lambda.self_s": self_s(names="schedule.t_of_lambda"),
        "schedule.forward.calls": count(names=forward),
        "schedule.forward.self_s": self_s(names=forward),
        "schedule.make_time_grid.calls": count(names="schedule.make_time_grid"),
        "schedule.make_time_grid.self_s": self_s(names="schedule.make_time_grid"),
        "coeffs.calls": count(prefix="coeffs."),
        "coeffs.self_s": self_s(prefix="coeffs."),
        "coeffs.solve_weights.calls": count(names="coeffs.solve_weights"),
        "coeffs.varying_coefficient_matrix.calls": count(names="coeffs.varying_coefficient_matrix"),
        "coeffs.basis.calls": count(names={"coeffs.varphi", "coeffs.psi"}),
        "model.calls": count(names="model.call"),
        "model.self_s": self_s(prefix="model."),
        "model.dynamic_threshold.calls": count(names="model.dynamic_threshold"),
        "model.dynamic_threshold.self_s": self_s(names="model.dynamic_threshold"),
        "solver.self_s": self_s(prefix="solver."),
        "solver.sample.calls": count(names="solver.sample"),
        "solver.predict.calls": count(names="solver.predict"),
        "solver.correct.calls": count(names="solver.correct"),
        "solver.unified_update.calls": count(names="solver.unified_update"),
        "solver.nfe": (nfe / n, "count"),
        "solver.overhead_us_per_step": (overhead / steps * 1e6 if steps else 0.0, "us"),
        "solver.overhead_ratio": (overhead / model_self if model_self else 0.0, "ratio"),
        "study.self_s": self_s(prefix="study."),
        "study.reference_solution.self_s": self_s(names="study.reference_solution"),
        "study.reference_solution.model_calls": count(names="model.call", under="study.reference_solution"),
        "study.sample.calls": count(names="solver.sample", under="study.run_study"),
        "study.sample_s": (table.total_duration(ids("solver.sample", under="study.run_study")) / n, "s"),
        "study.fit_order.self_s": self_s(names="study.fit_order"),
        "study.emit.self_s": self_s(names="study.emit"),
        "study.divergent_rows": (divergent / n, "count"),
        "cli.self_s": self_s(prefix="cli."),
        "trace.overhead_frac": (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio"),
        "trace.spans": (len(tracer.spans) / n, "count"),
    }
    ops.append([] if len(model_in_sample) == nfe else
               [f"model calls inside sample() {len(model_in_sample)} != summed NFE {nfe}"])
    OUT.mkdir(parents=True, exist_ok=True)
    trace_path = OUT / f"trace-{work.name}.jsonl"
    tracer.write_jsonl(trace_path)
    notes = [
        f"traced passes: {n} (metrics are per pass), untraced passes: {len(plain)}",
        f"spans: {len(tracer.spans)} written to {trace_path.relative_to(ROOT)}",
        f"absent entry points: {', '.join(tracer.absent) or 'none'}",
    ]
    return metrics, notes, ops, work.state_bytes


# -- entry point ---------------------------------------------------------------------


def run_one(work, seed: int, seconds: float, trace: bool) -> dict:
    measure = per_layer if trace else end_to_end
    metrics, notes, ops, state_bytes = measure(work, seed, seconds)
    attempted, failed = len(ops), sum(1 for op in ops if op)
    print(f"== {work.name} (seed {seed}, {seconds:g} s, trace {int(trace)})")
    print("machine: " + json.dumps(machine(state_bytes)))
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(f"  fail_frac = {failed}/{attempted} = {failed / attempted:.6g}")
    for failure in [f for op in ops for f in op][:20]:
        print(f"  FAILED: {failure}", file=sys.stderr)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cold-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.cold_setup:
        cold_setup(args.workload, args.seed)
        return 0
    wl, expected = load_program()
    names = NAMES if args.workload == "all" else (args.workload,)
    for name in names:
        result = run_one(wl.make(name, OUT, expected), args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
