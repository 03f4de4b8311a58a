"""Smoke tests of the benchmark itself, at tiny sizes and with no timed window.

    python3 -m pytest -q perfbench/test_smoke.py

The study-rk4 test runs the real fine-RK4 study twice (untraced and traced),
about 25 s; the rest take a few seconds together.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

wl, EXPECTED = run.load_program()
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in BENCH["end_to_end"]}
PER_LAYER = {m["name"] for m in BENCH["per_layer"]}


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_sample_small_command_reports_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample-small", "--seed", "3",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", ["sample-small", "sample-large"])
def test_traced_sample_reports_every_per_layer_metric(name):
    work = wl.make(name, run.OUT, EXPECTED, dim=4)
    metrics, _, ops, _ = run.per_layer(work, seed=5, seconds=0)
    assert not any(ops), ops
    assert set(metrics) == PER_LAYER
    assert metrics["model.calls"][0] == metrics["solver.nfe"][0]
    assert metrics["solver.predict.calls"][0] == work.steps_per_pass
    assert metrics["model.dynamic_threshold.calls"][0] > 0


def test_traced_study_counts_reference_model_calls():
    work = wl.make("study-rk4", run.OUT, EXPECTED)
    metrics, _, ops, _ = run.per_layer(work, seed=5, seconds=0)
    assert not any(ops), ops
    assert metrics["study.reference_solution.model_calls"][0] == 240_000
    assert metrics["model.calls"][0] == 240_000 + metrics["solver.nfe"][0]
    assert metrics["study.sample.calls"][0] == 30


def test_checks_flag_wrong_nfe_and_drifted_error():
    work = wl.make("sample-small", run.OUT, EXPECTED)
    inputs = work.build(7)
    x = inputs.rng.standard_normal(work.dim)
    result, _ = work.call(inputs, "unipc-3", 10, x)
    assert work.check(inputs, "unipc-3", 10, x, result) == []
    wrong_nfe = SimpleNamespace(final=result.final, nfe=result.nfe + 1)
    assert "nfe" in work.check(inputs, "unipc-3", 10, x, wrong_nfe)[0]
    drifted = SimpleNamespace(final=result.final * (1 + 1e-9), nfe=result.nfe)
    assert "error differs" in work.check(inputs, "unipc-3", 10, x, drifted)[0]


def test_expected_nfe_contract():
    assert wl.expected_nfe({"order": 3}, 10) == 10
    assert wl.expected_nfe({"order": 2, "corrector": "oracle"}, 10) == 19
    assert wl.expected_nfe({"order": 3, "variant": "singlestep"}, 10) == 27


def test_absent_entry_point_is_reported_not_raised(monkeypatch):
    import tracing

    monkeypatch.setattr(tracing, "ENTRY_POINTS", tracing.ENTRY_POINTS + (
        ("solver", "unipc.solver", "no_such_function", "solver.no_such_function"),
        ("solver", "unipc.solver:NoSuchClass", "step", "solver.no_such_method"),
    ))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["solver.no_such_function", "solver.no_such_method"]
    import unipc

    assert not hasattr(unipc.sample, "__wrapped__")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sample-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
