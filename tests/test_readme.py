"""The README's Python examples run as written and do what their text says."""

import re
from pathlib import Path

import numpy as np

from unipc import SolverConfig, sample

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", README, flags=re.M | re.S)


def test_three_examples():
    assert len(BLOCKS) == 3


def test_quickstart_and_trajectory():
    ns = {}
    for block in BLOCKS[:2]:  # the trajectory example reuses the quickstart's names
        exec(block, ns)
    assert ns["result"].nfe == 10  # "nfe == 10: corrector is free"
    assert len(ns["path"]) == 11


def test_plug_and_play_recipe_equals_sample():
    ns = {}
    exec(BLOCKS[2], ns)
    sched, grid = ns["sched"], ns["make_time_grid"](ns["sched"], 10)
    model = ns["SyntheticModel"].linear_in_x(0.3, 4).evaluator(sched)
    driver = sample(model, sched, grid, SolverConfig(order=1), np.ones(4))
    assert ns["model"].eval_count == model.eval_count == driver.nfe == 10
    # equal up to round-off, as TestPlugAndPlayCorrector allows
    scale = float(np.max(np.abs(driver.final)))
    assert np.max(np.abs(ns["state"].x - driver.final)) <= 8 * np.finfo(float).eps * scale
