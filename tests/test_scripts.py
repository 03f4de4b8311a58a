"""The scripts in scripts/ run end to end through the public API."""

import importlib.util
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
