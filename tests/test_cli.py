import copy
import csv
import itertools
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from unipc.cli import main

CONFIG = {
    "model": {"family": "x-free-poly", "coeffs": [1.5e-4, -6.0e-4, 2.5e-4], "dim": 4},
    "schedule": {"kind": "vp-linear", "beta_min": 0.1, "beta_max": 20.0,
                 "t_start": 1.0, "t_end": 0.001},
    "solvers": [
        {"order": 1, "corrector": "off"},
        {"order": 2, "corrector": "standard"},
    ],
    "step_counts": [10, 20, 40, 80],
    "error_norm": "max-abs",
    "reference": "closed-form",
    "seed": 42,
    "skip": "uniform-lambda",
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def with_field(base, path, value):
    """Deep copy of a study config with the value at a key path replaced."""
    cfg = copy.deepcopy(base)
    target = cfg
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return cfg


def strip_seconds(path):
    lines = open(path, "rb").read().split(b"\n")
    return [b",".join(line.split(b",")[:-1]) for line in lines]


class TestRun:
    def test_writes_csv(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "results.csv")
        assert main(["run", "--config", config_path, "--out", out]) == 0
        rows = list(csv.DictReader(open(out)))
        assert len(rows) == 8
        assert {r["solver"] for r in rows} == {"unip-1", "unipc-2"}
        assert "order=" in capsys.readouterr().out

    def test_determinism_byte_identical(self, config_path, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["run", "--config", config_path, "--out", a, "--seed", "9"]) == 0
        assert main(["run", "--config", config_path, "--out", b, "--seed", "9"]) == 0
        assert strip_seconds(a) == strip_seconds(b)

    def test_json_format(self, config_path, tmp_path):
        out = str(tmp_path / "results.json")
        assert main(["run", "--config", config_path, "--out", out, "--format", "json"]) == 0
        doc = json.load(open(out))
        assert len(doc["results"]) == 8
        assert all("slope" in f for f in doc["fits"])

    def test_bad_config_field_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**CONFIG, "surprise": True}))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_invalid_json_exits_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    def test_nonfinite_fine_rk4_reference_exits_3(self, tmp_path, capsys):
        # A stiff linear model overflows the RK4 reference to NaN; NaN drift must fail the gate.
        cfg = {**CONFIG, "model": {"family": "linear-in-x", "kappa": 1e6, "dim": 1},
               "solvers": [{"order": 1, "corrector": "off"}], "step_counts": [1, 2, 3, 4],
               "reference": "fine-rk4"}
        path = tmp_path / "stiff.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert "not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_nonfinite_closed_form_reference_exits_3(self, tmp_path, capsys):
        # Coefficients near the float limit make the exact reference infinite.
        cfg = {**CONFIG, "model": {"family": "x-free-poly", "coeffs": [1e306, 1e306], "dim": 4}}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "x.csv"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 3
        assert "closed-form reference is not finite" in capsys.readouterr().err
        assert not out.exists()

    def test_overflowing_schedule_exits_3(self, tmp_path, capsys):
        # alpha(t_start) underflows, so e^{-lambda} overflows in the exact reference.
        cfg = {**CONFIG, "schedule": {**CONFIG["schedule"], "beta_max": 2840.0}}
        path = tmp_path / "steep.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_non_object_config_exits_2(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[]")
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv"),
                     "--seed", "1"]) == 2

    @pytest.mark.parametrize("path, value", [
        pytest.param(("solvers", 0, "order"), "3", id="order-str"),
        pytest.param(("solvers", 0, "order"), 3.0, id="order-float"),
        pytest.param(("solvers", 0, "order"), True, id="order-bool"),
        pytest.param(("schedule", "beta_min"), "x", id="beta_min-str"),
        pytest.param(("seed",), -1, id="seed-negative"),
        pytest.param(("seed",), 1.5, id="seed-float"),
        pytest.param(("step_counts",), ["a", 20, 40, 80], id="step_counts-str"),
        pytest.param(("solvers",), 5, id="solvers-int"),
        pytest.param(("solvers", 0, "thresholding"), {"ratio": "x", "floor": 1.0}, id="ratio-str"),
        pytest.param(("solvers", 0, "varying_coefficients"), 1, id="varying-int"),
        pytest.param(("oracle_starts",), "false", id="oracle_starts-str"),
        pytest.param(("model", "coeffs"), [], id="coeffs-empty"),
        pytest.param(("model", "coeffs"), [[1.0, 2.0], [3.0]], id="coeffs-ragged"),
        pytest.param(("model", "dim"), -5, id="dim-negative"),
        pytest.param(("schedule", "t_end"), 5e-324, id="t_end-subnormal"),
        pytest.param(("solvers", 0, "order_schedule"), "\u00b2", id="order_schedule-superscript"),
    ])
    def test_wrong_typed_field_exits_2(self, tmp_path, capsys, path, value):
        base = with_field(CONFIG, ("solvers", 0, "prediction"), "data")  # for thresholding
        config = tmp_path / "typed.json"
        config.write_text(json.dumps(with_field(base, path, value)))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("value", [True, False, "yes"])
    def test_removed_half_a1_field_exits_2(self, tmp_path, capsys, value):
        # varying_coefficients is the one knob for solved weights; half_a1 is not a field
        config = tmp_path / "half_a1.json"
        config.write_text(json.dumps(with_field(CONFIG, ("solvers", 0, "half_a1"), value)))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "unknown solver fields ['half_a1']" in err and "Traceback" not in err

    def test_bad_thresholding_exits_2_before_any_cell(self, tmp_path, monkeypatch):
        import unipc.study

        calls = []
        monkeypatch.setattr(unipc.study, "sample", lambda *a, **k: calls.append(a))
        cfg = copy.deepcopy(CONFIG)
        cfg["solvers"].append({"order": 2, "prediction": "data",
                               "thresholding": {"ratio": 2.0, "floor": 1.0}})
        path = tmp_path / "th.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        assert calls == []

    @pytest.mark.parametrize("th", [{"ratio": 0.9, "floor": 1.0, "flor": 2.0}, {"ratio": 0.9}],
                             ids=["unknown-key", "missing-key"])
    def test_thresholding_keys_exit_2(self, tmp_path, capsys, th):
        cfg = with_field(with_field(CONFIG, ("solvers", 0, "prediction"), "data"),
                         ("solvers", 0, "thresholding"), th)
        path = tmp_path / "th.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "thresholding fields" in err and "Traceback" not in err

    def test_invalid_order_schedule_exits_2(self, config_path, tmp_path):
        cfg = json.loads(open(config_path).read())
        cfg["solvers"] = [{"order": 3, "order_schedule": "331"}]
        path = tmp_path / "sched.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("path,value,message", [
        (("skip",), "uniform-sqrt", "unknown skip kind 'uniform-sqrt'"),
        (("step_counts",), [0, 20, 40, 80], "step counts must be >= 1, got 0"),
        # a schedule fixes M, so a study over four M could never finish
        (("solvers", 1, "order_schedule"), "1222222222", "solver 1 has an order_schedule"),
    ], ids=["skip", "step-count", "order-schedule"])
    def test_study_checked_before_reference(self, tmp_path, capsys, monkeypatch, path, value,
                                            message):
        # each once exited 2 only after the reference was solved
        import unipc.study

        calls = []
        monkeypatch.setattr(unipc.study, "reference_solution", lambda *a, **k: calls.append(a))
        config = tmp_path / "study.json"
        config.write_text(json.dumps(with_field(CONFIG, path, value)))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert calls == []

    @pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["missing-directory", "directory"])
    def test_unwritable_out_exits_2_before_running(self, config_path, tmp_path, capsys,
                                                   monkeypatch, out):
        # the whole study once ran before the write failed
        import unipc.study

        calls = []
        monkeypatch.setattr(unipc.study, "reference_solution", lambda *a, **k: calls.append(a))
        out = tmp_path / out
        assert main(["run", "--config", config_path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and "Traceback" not in err
        assert calls == [] and not (tmp_path / "missing").exists()


# Ints stay small so that a drawn dim or step count cannot allocate much or run long.
JSON_VALUES = st.one_of(
    st.integers(-8, 64),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.text(max_size=6),
    st.none(),
    st.lists(st.one_of(st.integers(-8, 64), st.floats(), st.text(max_size=3)), max_size=5),
    st.dictionaries(st.text(max_size=6), st.one_of(st.integers(-8, 64), st.floats()), max_size=3),
)

# Every schema field of a small closed-form study, as a key path into FUZZ_BASE.
FUZZ_BASE = {**CONFIG, "step_counts": [2, 3, 4, 6],
             "model": {**CONFIG["model"], "dim": 2}, "oracle_starts": False,
             "solvers": [{"order": 2, "variant": "multistep", "bh": "b2", "prediction": "data",
                          "corrector": "standard", "varying_coefficients": False,
                          "order_schedule": None,
                          "thresholding": {"ratio": 0.995, "floor": 1.0}}]}
FUZZ_PATHS = (
    [(key,) for key in FUZZ_BASE]
    + [("model", key) for key in FUZZ_BASE["model"]]
    + [("schedule", key) for key in FUZZ_BASE["schedule"]]
    + [("solvers", 0, key) for key in FUZZ_BASE["solvers"][0]]
    + [("solvers", 0, "thresholding", key) for key in ("ratio", "floor")]
    + [("step_counts", 0)]
)
# Two distinct fields, neither inside the other (say a tiny t_end with M = 1).
FUZZ_PAIRS = [(a, b) for a, b in itertools.combinations(FUZZ_PATHS, 2)
              if a != b[:len(a)] and b != a[:len(b)]]


class TestFuzz:
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(path=st.sampled_from(FUZZ_PATHS), value=JSON_VALUES)
    def test_any_field_value_exits_0_2_or_3(self, tmp_path, path, value):
        config = tmp_path / "fuzz.json"
        config.write_text(json.dumps(with_field(FUZZ_BASE, path, value)))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) in (0, 2, 3)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(paths=st.sampled_from(FUZZ_PAIRS), first=JSON_VALUES, second=JSON_VALUES)
    def test_any_two_field_values_exit_0_2_or_3(self, tmp_path, paths, first, second):
        config = tmp_path / "fuzz2.json"
        cfg = with_field(with_field(FUZZ_BASE, paths[0], first), paths[1], second)
        config.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "x.csv")]) in (0, 2, 3)


class TestFit:
    def test_fit_from_run_output(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "results.csv")
        main(["run", "--config", config_path, "--out", out])
        capsys.readouterr()
        assert main(["fit", "--in", out]) == 0
        printed = capsys.readouterr().out
        assert "unip-1" in printed and "unipc-2" in printed and "order=" in printed

    def test_unfittable_exits_3(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        with open(path, "w") as fh:
            fh.write("solver,order,variant,bh,prediction,corrector,M,nfe,error,seconds\n")
            for M, err in [(10, 5.0), (20, 4.0), (40, 3.0), (80, 2.0)]:
                fh.write(f"unip-1,1,multistep,b2,noise,off,{M},{M},{err},0.1\n")
        assert main(["fit", "--in", str(path)]) == 3
        assert "unfittable" in capsys.readouterr().out

    @pytest.mark.parametrize("M, err, message", [
        ("ten", "0.1", "line 3, column 'M': 'ten' is not an int"),
        ("20", "small", "line 3, column 'error': 'small' is not a number"),
        ("20", None, "line 3, column 'error': None is not a number"),  # a short row
    ], ids=["M-text", "error-text", "short-row"])
    def test_non_numeric_cell_exits_2(self, tmp_path, capsys, M, err, message):
        # int() and float() raised a ValueError traceback and exit 1
        path = tmp_path / "cells.csv"
        row = f"unip-1,1,multistep,b2,noise,off,{M},{M}" + ("" if err is None else f",{err},0.1")
        path.write_text("solver,order,variant,bh,prediction,corrector,M,nfe,error,seconds\n"
                        f"unip-1,1,multistep,b2,noise,off,10,10,0.2,0.1\n{row}\n")
        assert main(["fit", "--in", str(path)]) == 2
        err_text = capsys.readouterr().err
        assert message in err_text and "Traceback" not in err_text

    @pytest.mark.parametrize("command", ["fit", "run"])
    def test_undecodable_file_exits_2(self, tmp_path, capsys, command):
        # a UTF-16 byte-order mark raised UnicodeDecodeError: a traceback and exit 1
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + "solver,M,error\n".encode("utf-16-le"))
        args = ["--in", str(path)] if command == "fit" else [
            "--config", str(path), "--out", str(tmp_path / "x.csv")]
        assert main([command] + args) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_non_positive_step_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "zero.csv"
        with open(path, "w") as fh:
            fh.write("solver,order,variant,bh,prediction,corrector,M,nfe,error,seconds\n")
            for M, err in [(0, 0.1), (-5, 0.01), (20, 0.001)]:
                fh.write(f"unip-1,1,multistep,b2,noise,off,{M},{M},{err},0.1\n")
        assert main(["fit", "--in", str(path)]) == 2
        err_text = capsys.readouterr().err
        assert "step counts must be finite and > 0" in err_text and "Traceback" not in err_text

    def test_empty_csv_exits_2(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("solver,order,variant,bh,prediction,corrector,M,nfe,error,seconds\n")
        assert main(["fit", "--in", str(path)]) == 2


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert main(["selftest"]) == 0
        printed = capsys.readouterr().out
        assert printed.count("PASS") == 4 and "FAIL" not in printed
        assert "selftest plan-residuals: PASS" in printed and "|w1 - 1/2|/h <=" in printed
        assert "over 1320 rows" in printed  # 460 multistep and 860 singlestep rows
        assert "selftest threshold-quantile: PASS" in printed
