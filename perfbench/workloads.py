"""The benchmark's workloads: inputs made from a seed, one pass each, and checks.

Every workload drives the public `unipc` API from this one process, one call
at a time (a closed loop with one client).  A pass runs every cell of the
workload once; the `check` methods return a list of failure messages, empty
when the outputs are correct.

Correct means "as at the commit that recorded `expected.json`" up to the
round-off allowance of 1e-12 relative to the state's magnitude:

- x-free sampling cells are affine in the initial state with one scalar slope
  for every dimension, so the error against `exact_solution_xfree` is
  `a * x + c` with recorded scalars (a, c) that hold for any seed and size;
- dynamic thresholding is not affine, so its cells are checked on a fixed
  probe input per state size instead, and on seeded inputs for NFE and
  finiteness only;
- the linear-in-x study is linear in x_T, so each CSV row's max-abs error is
  a recorded constant times max|x_T|, and every other column but `seconds`
  must match exactly.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import resource
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import unipc
import unipc.cli

TOL = 1e-12
POLY = (0.3, -1.2, 0.5)  # x-free degree-2 model, the README's example
PROBE_SEED = 20230209

# label -> solver config as the study JSON spells it
CONFIGS = {
    "unipc-3": {"order": 3},
    "unip-2": {"order": 2, "corrector": "off"},
    "unipc-5-b1": {"order": 5, "bh": "b1"},
    "unipc-3-singlestep": {"order": 3, "variant": "singlestep"},
    "unipc-3-data-th": {"order": 3, "prediction": "data",
                        "thresholding": {"ratio": 0.995, "floor": 1.0}},
    "unipc_v-3": {"order": 3, "varying_coefficients": True},
    "unipc-2-oracle": {"order": 2, "corrector": "oracle"},
}

# The solver list shipped in configs/order_study.json, kept here so that the
# workload stays fixed if that example changes.
STUDY_SOLVERS = [
    {"order": 1, "corrector": "off"},
    {"order": 2, "corrector": "off"},
    {"order": 1, "corrector": "standard"},
    {"order": 2, "corrector": "standard"},
    {"order": 2, "corrector": "standard", "varying_coefficients": True},
]
STUDY_STEP_COUNTS = [10, 20, 40, 80, 160, 320]


def expected_nfe(spec: dict, M: int) -> int:
    """Model calls `sample()` promises: M multistep, 2M-1 oracle, more singlestep."""
    p = spec.get("order", 3)
    per_step = 2 if spec.get("corrector") == "oracle" else 1
    interior = 0
    if spec.get("variant") == "singlestep":
        interior = sum(min(p, i) - 1 for i in range(1, M + 1))
    return 1 + interior + per_step * (M - 1)


def _scale(*arrays) -> float:
    return max([1.0] + [float(np.max(np.abs(a))) for a in arrays])


@dataclass
class Call:
    """One timed operation: its wall time, its sampler steps and failed checks."""

    seconds: float
    steps: list  # (seconds, M) of each sample() run inside the operation
    failures: list
    divergent: int = 0
    steps_span: tuple = (0.0, 0.0)  # perf_counter interval that holds the steps


# -- sample() workloads -------------------------------------------------------


class SampleWorkload:
    """`sample()` over a fixed mix of configs and step counts at one state size."""

    cold_pass = True  # set-up includes the first call of every cell

    def __init__(self, name: str, dim: int, labels, Ms, expected: dict, normalised: bool):
        self.name, self.dim, self.labels, self.Ms = name, dim, list(labels), list(Ms)
        self.normalised = normalised  # interpreter-bound: timings scaled by speed.SpeedProbe
        self.expected = expected
        self.cells = [(label, M) for label in self.labels for M in self.Ms]
        self.steps_per_pass = sum(M for _, M in self.cells)
        self.state_bytes = dim * 8

    def build(self, seed: int):
        """Schedule, model, evaluators, grids and the seeded input stream."""
        sched = unipc.NoiseSchedule()
        model = unipc.SyntheticModel.x_free_poly(list(POLY), dim=self.dim)
        noise = model.evaluator(sched)
        evaluators = {"noise": noise, "data": unipc.convert_parameterization(noise, sched)}
        grids = {M: unipc.make_time_grid(sched, M) for M in self.Ms}
        configs = {label: unipc.SolverConfig.from_json(CONFIGS[label]) for label in self.labels}
        return _SampleInputs(sched, model, evaluators, grids, configs, np.random.default_rng(seed))

    def call(self, inputs, label: str, M: int, x: np.ndarray):
        config = inputs.configs[label]
        evaluator = inputs.evaluators[config.prediction]
        start = time.perf_counter()
        result = unipc.sample(evaluator, inputs.sched, inputs.grids[M], config, x)
        return result, time.perf_counter() - start

    def run_pass(self, inputs, span):
        calls, nfe = [], 0
        for label, M in self.cells:
            x = inputs.rng.standard_normal(self.dim)
            start = time.perf_counter()
            try:
                with span("bench.work"):
                    result, seconds = self.call(inputs, label, M, x)
            except unipc.UniPCError as exc:
                seconds = time.perf_counter() - start
                calls.append(Call(seconds, [], [f"{label} M={M}: {exc!r}"]))
                continue
            with span("bench.check"):
                failures = self.check(inputs, label, M, x, result)
            nfe += result.nfe
            calls.append(Call(seconds, [(seconds, M)], failures, steps_span=(start, start + seconds)))
        return calls, nfe

    def check(self, inputs, label, M, x, result) -> list:
        final = np.asarray(result.final)
        want = expected_nfe(CONFIGS[label], M)
        failures = []
        if result.nfe != want:
            failures.append(f"{label} M={M}: nfe {result.nfe} != {want}")
        if final.shape != x.shape or not np.all(np.isfinite(final)):
            return failures + [f"{label} M={M}: final state not finite or misshapen"]
        if "thresholding" in CONFIGS[label]:
            return failures  # not affine; checked on the probe input instead
        err = _error(inputs, M, x, final)
        a, c = self.expected["affine"][label][str(M)]
        off = float(np.max(np.abs(err - (a * x + c))))
        if off > TOL * _scale(x, final):
            failures.append(f"{label} M={M}: error differs from the recorded one by {off:.3e}")
        return failures

    def probe_calls(self, inputs) -> list:
        """Thresholded cells on the fixed probe input, against recorded error stats."""
        x = probe_input(self.dim)
        out = []
        for label, M in self.cells:
            if "thresholding" not in CONFIGS[label]:
                continue
            result, seconds = self.call(inputs, label, M, x)
            failures = self.check(inputs, label, M, x, result)
            if not failures:
                got = error_stats(inputs, M, x, result.final)
                want = self.expected["probe"][f"{label}@{self.dim}"][str(M)]
                scale = _scale(x, result.final)
                off = max(abs(g - w) for g, w in zip(_flat(got), _flat(want)))
                if off > TOL * scale:
                    failures.append(f"{label} M={M} probe: error differs by {off:.3e}")
            out.append(Call(seconds, [(seconds, M)], failures))
        return out

    def peak_memory(self, inputs) -> int:
        """Largest tracemalloc peak of one sample() call, in bytes above its start."""
        worst = 0
        tracemalloc.start()
        try:
            for label, M in self.cells:
                x = inputs.rng.standard_normal(self.dim)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                result, _ = self.call(inputs, label, M, x)
                worst = max(worst, tracemalloc.get_traced_memory()[1] - before)
                del result
        finally:
            tracemalloc.stop()
        return worst


@dataclass
class _SampleInputs:
    sched: object
    model: object
    evaluators: dict
    grids: dict
    configs: dict
    rng: np.random.Generator


def probe_input(dim: int) -> np.ndarray:
    return np.random.default_rng(PROBE_SEED).standard_normal(dim)


def _error(inputs, M: int, x: np.ndarray, final) -> np.ndarray:
    """Final state minus the exact x-free trajectory over the M-step grid."""
    grid = inputs.grids[M]
    return np.asarray(final) - unipc.exact_solution_xfree(inputs.model, inputs.sched, x,
                                                          grid.times[0], grid.times[-1])


def error_stats(inputs, M, x, final) -> dict:
    err = _error(inputs, M, x, final)
    return {"head": err[:4].tolist(), "max_abs": float(np.max(np.abs(err))),
            "rms": float(np.sqrt(np.mean(err**2)))}


def _flat(stats: dict) -> list:
    return list(stats["head"]) + [stats["max_abs"], stats["rms"]]


# -- the fine-RK4 study --------------------------------------------------------


class StudyWorkload:
    """`unipc run` in process on a generated linear-in-x, vp-cosine, fine-rk4 study."""

    name = "study-rk4"
    dim = 4
    cold_pass = False  # set-up is config generation and validation only
    normalised = True

    def __init__(self, out_dir: Path, expected: dict):
        self.out_dir = Path(out_dir)
        self.expected = expected
        self.state_bytes = self.dim * 8
        self.steps_per_pass = len(STUDY_SOLVERS) * sum(STUDY_STEP_COUNTS)

    def build(self, seed: int):
        study_seed = int(np.random.default_rng(seed).integers(2**31))
        config = {
            "model": {"family": "linear-in-x", "kappa": 0.3, "dim": self.dim},
            "schedule": {"kind": "vp-cosine"},
            "solvers": STUDY_SOLVERS,
            "step_counts": STUDY_STEP_COUNTS,
            "error_norm": "max-abs",
            "reference": "fine-rk4",
            "seed": study_seed,
            "skip": "uniform-lambda",
        }
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "study-rk4.json"
        path.write_text(json.dumps(config, indent=1))
        unipc.ConvergenceStudy.from_json(config)  # validate before anything is timed
        x_T = np.random.default_rng(study_seed).standard_normal(self.dim)
        return _StudyInputs(path, self.out_dir / "study-rk4.csv", x_T)

    def run_pass(self, inputs, span):
        inputs.csv_path.unlink(missing_ok=True)
        first = inputs.peak_bytes is None
        rss = _rss_bytes() if first else 0
        sink = io.StringIO()
        with span("bench.work"):
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink):
                code = unipc.cli.main(["run", "--config", str(inputs.config_path),
                                       "--out", str(inputs.csv_path)])
            seconds = time.perf_counter() - start
        if first:
            inputs.peak_bytes = max(0, _max_rss_bytes() - rss)
        with span("bench.check"):
            rows, failures = self.check(inputs, code)
        if failures:
            return [Call(seconds, [], failures)], 0
        steps = [(float(r["seconds"]), int(r["M"])) for r in rows]
        divergent = sum(1 for r in rows if not math.isfinite(float(r["error"])))
        nfe = sum(int(r["nfe"]) for r in rows)
        # The cells run after the reference, at the end of the study; with their
        # grids, fits and output they take about twice their summed seconds.
        end = start + seconds
        span = (end - 2.0 * sum(sec for sec, _ in steps), end)
        return [Call(seconds, steps, failures, divergent, span)], nfe

    @staticmethod
    def peak_memory(inputs) -> int:
        """Resident-set high-water rise over the first study of the process.

        tracemalloc would slow the 240,000-call reference about sevenfold, so
        this workload reads the kernel's high-water mark instead; the first
        study must therefore be the first memory-heavy work of the process.
        """
        return inputs.peak_bytes

    def read_rows(self, inputs) -> list:
        with open(inputs.csv_path, newline="") as fh:
            return list(csv.DictReader(fh))

    def check(self, inputs, code) -> tuple[list, list]:
        if code != 0:
            return [], [f"unipc run exited {code}"]
        rows = self.read_rows(inputs)
        want = self.expected["study_rows"]
        if len(rows) != len(want):
            return rows, [f"{len(rows)} CSV rows, want {len(want)}"]
        failures = []
        x_max = float(np.max(np.abs(inputs.x_T)))
        for row, ref in zip(rows, want):
            fixed = {k: v for k, v in row.items() if k not in ("error", "seconds")}
            if fixed != ref["fixed"]:
                failures.append(f"row {fixed} != {ref['fixed']}")
                continue
            try:
                error, seconds = float(row["error"]), float(row["seconds"])
            except ValueError:
                failures.append(f"row {fixed}: unparsable error or seconds")
                continue
            off = abs(error - ref["error_per_x"] * x_max)
            if not (off <= TOL * max(1.0, x_max)) or not seconds >= 0.0:
                failures.append(f"row {fixed}: error {error!r} is off by {off:.3e}")
        return rows, failures


@dataclass
class _StudyInputs:
    config_path: Path
    csv_path: Path
    x_T: np.ndarray
    peak_bytes: int | None = None


def _rss_bytes() -> int:
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * resource.getpagesize()


def _max_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


# -- registry -------------------------------------------------------------------

SMALL_LABELS = list(CONFIGS)
LARGE_LABELS = ["unipc-3", "unipc-3-data-th", "unip-2", "unipc-2-oracle"]
DIM_LARGE = 2**18


def make(name: str, out_dir: Path, expected: dict, dim: int | None = None):
    """The workload called `name`; `dim` overrides the state size (smoke tests)."""
    if name == "sample-small":
        return SampleWorkload(name, dim or 4, SMALL_LABELS, [10, 100], expected, normalised=True)
    if name == "sample-large":
        return SampleWorkload(name, dim or DIM_LARGE, LARGE_LABELS, [10, 20], expected,
                              normalised=False)
    if name == "study-rk4":
        return StudyWorkload(out_dir, expected)
    raise KeyError(name)

