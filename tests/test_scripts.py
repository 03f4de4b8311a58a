"""The scripts in scripts/ run end to end through the public API."""

import importlib.util
import shutil
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_order_study_fits_every_config_in_both_sweeps(capsys):
    order_study = load("order_study")
    assert order_study.main(["--mode", "both"]) == 0
    printed = capsys.readouterr().out
    assert "unfittable" not in printed
    for mode in ("warmup", "accurate-starts"):
        assert f"== {mode} sweep" in printed
    sweeps = printed.split("== accurate-starts sweep")
    for sweep in sweeps:
        fitted = [line for line in sweep.splitlines()
                  if line.startswith(("unip-", "unipc-", "unipc_v-"))]
        assert len(fitted) == len(order_study.CONFIGS)


def test_ab_cells_runs_one_tree_against_itself(capsys):
    src = str(SCRIPTS.parent / "src")
    assert load("ab_cells").main([src, src, "--rounds", "2"]) == 0
    printed = capsys.readouterr().out
    assert "unipc-3 M=10 " in printed and "unipc-2-oracle M=100" in printed
    assert "mismatch" not in printed
    assert "old  p50" in printed and "new  p50" in printed


def test_ab_cells_fails_when_the_trees_disagree(tmp_path, capsys):
    src = SCRIPTS.parent / "src"
    shutil.copytree(src / "unipc", tmp_path / "unipc", ignore=shutil.ignore_patterns("__pycache__"))
    schedule = tmp_path / "unipc" / "schedule.py"
    text = schedule.read_text()
    assert "beta_max: float = 20.0" in text
    schedule.write_text(text.replace("beta_max: float = 20.0", "beta_max: float = 20.5"))
    assert load("ab_cells").main([str(src), str(tmp_path), "--rounds", "1"]) == 1
    assert "cell runs differ between the trees" in capsys.readouterr().out
