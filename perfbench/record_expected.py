"""Record the outputs the benchmark checks against into perfbench/expected.json.

Run from the repository root on the commit whose outputs are the reference:

    python3 perfbench/record_expected.py

It takes about 15 s: one fine-RK4 study plus a few dim 2^18 samples.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import workloads as wl  # noqa: E402

ALL_MS = (10, 20, 100)


def affine_errors() -> dict:
    """(a, c) with error = a*x + c for every non-thresholded config and M."""
    work = wl.SampleWorkload("record", 4, wl.CONFIGS, ALL_MS, {}, normalised=False)
    inputs = work.build(0)
    out = {}
    for label, spec in wl.CONFIGS.items():
        if "thresholding" in spec:
            continue
        out[label] = {}
        for M in ALL_MS:
            zero, one = np.zeros(4), np.ones(4)
            c = wl.error_stats(inputs, M, zero, work.call(inputs, label, M, zero)[0].final)
            a = wl.error_stats(inputs, M, one, work.call(inputs, label, M, one)[0].final)
            out[label][str(M)] = [a["head"][0] - c["head"][0], c["head"][0]]
    return out


def probe_errors() -> dict:
    out = {}
    for dim, Ms in ((4, ALL_MS), (wl.DIM_LARGE, (10, 20))):
        work = wl.SampleWorkload("record", dim, wl.CONFIGS, Ms, {}, normalised=False)
        inputs = work.build(0)
        x = wl.probe_input(dim)
        for label, spec in wl.CONFIGS.items():
            if "thresholding" in spec:
                out[f"{label}@{dim}"] = {
                    str(M): wl.error_stats(inputs, M, x, work.call(inputs, label, M, x)[0].final)
                    for M in Ms
                }
    return out


def study_rows() -> list:
    work = wl.StudyWorkload(HERE / "out", {"study_rows": []})
    inputs = work.build(0)
    import unipc.cli

    code = unipc.cli.main(["run", "--config", str(inputs.config_path), "--out", str(inputs.csv_path)])
    if code != 0:
        raise SystemExit(f"unipc run exited {code}")
    x_max = float(np.max(np.abs(inputs.x_T)))
    rows = []
    for row in work.read_rows(inputs):
        fixed = {k: v for k, v in row.items() if k not in ("error", "seconds")}
        rows.append({"fixed": fixed, "error_per_x": float(row["error"]) / x_max})
    return rows


def main() -> None:
    expected = {"affine": affine_errors(), "probe": probe_errors(), "study_rows": study_rows()}
    path = HERE / "expected.json"
    path.write_text(json.dumps(expected, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
