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


def test_ab_cells_rtol_forgives_round_off_only(tmp_path, capsys):
    src = SCRIPTS.parent / "src"
    shutil.copytree(src / "unipc", tmp_path / "unipc", ignore=shutil.ignore_patterns("__pycache__"))
    model = tmp_path / "unipc" / "model.py"
    text = model.read_text()
    assert "return _C.dot(_lam(t) ** _P, out)" in text
    # every x-free output one ulp or so larger: the final states move at round-off only
    model.write_text(text.replace("return _C.dot(_lam(t) ** _P, out)",
                                  "return _C.dot(_lam(t) ** _P * (1 + 2.0**-51), out)"))
    ab_cells = load("ab_cells")
    assert ab_cells.main([str(src), str(tmp_path), "--rounds", "1"]) == 1
    printed = capsys.readouterr().out
    assert "cell runs differ between the trees" in printed and "rel diff" in printed
    assert ab_cells.main([str(src), str(tmp_path), "--rounds", "1", "--rtol", "1e-12"]) == 0
    printed = capsys.readouterr().out
    assert "mismatch" not in printed and "rel diff" in printed


def test_ab_cells_reference_mode_runs_one_tree_against_itself(capsys):
    src = str(SCRIPTS.parent / "src")
    assert load("ab_cells").main([src, src, "--reference", "--steps", "1000", "--rounds", "2"]) == 0
    printed = capsys.readouterr().out
    assert "fine-rk4 reference, 1000 steps (12000 model calls), 2 rounds" in printed
    assert "new/old" in printed and "mismatch" not in printed


def test_ab_cells_reference_mode_fails_when_the_trees_disagree(tmp_path, capsys):
    src = SCRIPTS.parent / "src"
    shutil.copytree(src / "unipc", tmp_path / "unipc", ignore=shutil.ignore_patterns("__pycache__"))
    study = tmp_path / "unipc" / "study.py"
    text = study.read_text()
    assert "D4 *= h / 6.0" in text
    study.write_text(text.replace("D4 *= h / 6.0", "D4 *= h / 6.0 * (1 + 1e-15)"))
    assert load("ab_cells").main([str(src), str(tmp_path), "--reference", "--steps", "1000",
                                  "--rounds", "1"]) == 1
    assert "references differ between the trees" in capsys.readouterr().out


def test_ab_cells_reference_mode_rtol_forgives_round_off_only(tmp_path, capsys):
    src = SCRIPTS.parent / "src"
    ab_cells = load("ab_cells")
    reference = ["--reference", "--steps", "1000", "--rounds", "1"]
    for name, scale, forgiven in (("round-off", "2.0**-51", True), ("real", "1e-9", False)):
        tree = tmp_path / name
        shutil.copytree(src / "unipc", tree / "unipc",
                        ignore=shutil.ignore_patterns("__pycache__"))
        study = tree / "unipc" / "study.py"
        text = study.read_text()
        assert "D4 *= h / 6.0" in text
        # every step's increments scaled by 1 + scale: round-off, or a real difference
        study.write_text(text.replace("D4 *= h / 6.0", f"D4 *= h / 6.0 * (1 + {scale})"))
        assert ab_cells.main([str(src), str(tree)] + reference) == 1
        printed = capsys.readouterr().out
        assert "references differ between the trees" in printed and "rel diff" in printed
        assert ab_cells.main([str(src), str(tree), "--rtol", "1e-12"] + reference) == 1 - forgiven
        assert ("mismatch" in capsys.readouterr().out) != forgiven, name


def test_ab_cells_one_step_mode_runs_one_tree_against_itself(capsys):
    src = str(SCRIPTS.parent / "src")
    assert load("ab_cells").main([src, src, "--one-step", "--rounds", "2"]) == 0
    printed = capsys.readouterr().out
    assert "one-step API, 160 correct() and 2 ddim_step cases, 2 rounds" in printed
    assert "new/old" in printed and "mismatch" not in printed


def test_ab_cells_one_step_mode_fails_when_the_trees_disagree(tmp_path, capsys):
    src = SCRIPTS.parent / "src"
    shutil.copytree(src / "unipc", tmp_path / "unipc", ignore=shutil.ignore_patterns("__pycache__"))
    solver = tmp_path / "unipc" / "solver.py"
    text = solver.read_text()
    line = "corrected = row.dot(np.stack(outputs + [f_pred, x]))"
    assert line in text
    # each corrected state off by an ulp or so, and ddim_step as it was
    solver.write_text(text.replace(line, line + " * (1 + 2.0**-52)"))
    assert load("ab_cells").main([str(src), str(tmp_path), "--one-step", "--rounds", "1"]) == 1
    printed = capsys.readouterr().out
    assert "one-step results differ between the trees" in printed
    assert "ddim_step" not in printed.split("mismatch", 1)[1]


def test_bh_and_schedules_runs_every_schedule(capsys):
    bh_and_schedules = load("bh_and_schedules")
    assert bh_and_schedules.main([]) == 0
    printed = capsys.readouterr().out
    for M, schedules in bh_and_schedules.SCHEDULES.items():
        for digits in schedules:
            assert f"  {digits:<9} error " in printed and f"(nfe {M})" in printed
