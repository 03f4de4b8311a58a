"""Convergence studies: references, sweeps, order fits, CSV/JSON emission.

A study runs a set of solver configs over a grid of step counts M against
one reference solution and fits the empirical convergence order as the
negated least-squares slope of log2(final-state error) versus log2(M).
Points outside the asymptotic window (divergent, above WINDOW_CAP, or at
the round-off floor below WINDOW_FLOOR) are excluded from fits.

The starting state x_T is drawn once per study from numpy's default
PCG64 generator seeded with the study's 64-bit seed, and shared by every
(config, M) cell, so all solvers integrate the same trajectory.  Results
are bitwise deterministic for a fixed seed within this implementation;
across implementations only statistical agreement is promised.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DomainError, FitError, NumericError, ReferenceAccuracyError, ValidationError, typed,
)
from .model import SyntheticModel, exact_solution_xfree
from .schedule import NoiseSchedule, TimeGrid, make_time_grid
from .solver import SolverConfig, sample

ERROR_NORMS = ("max-abs", "rms")
REFERENCE_MODES = ("closed-form", "fine-rk4")

WINDOW_CAP = 1.0
WINDOW_FLOOR = 1e-12

RK4_STEPS = 20_000
#: Steps of the fine-rk4 reference whose schedule coefficients are computed together.
_RK4_BLOCK = 1024
_RK4_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0]) / 6.0


def reference_solution(
    model: SyntheticModel,
    sched: NoiseSchedule,
    x_T: np.ndarray,
    t_start: float,
    t_end: float,
    mode: str = "closed-form",
    steps: int = RK4_STEPS,
) -> np.ndarray:
    """High-accuracy final state used as the study's ground truth.

    closed-form delegates to the exact x-free trajectory; fine-rk4 runs
    classical RK4 on dx/dlambda = sigma^2(lambda) x - sigma(lambda) eps(x, t)
    over `steps` uniform-lambda steps and insists that doubling the step
    count moves the answer by less than 1e-9 relative; the two passes make
    4 model calls a step, 12 * steps in all.  No RK4 coefficient depends on
    x, so each pass walks the lambda grid in blocks of _RK4_BLOCK steps and
    computes a block's node and midpoint times (one t_of_lambda call each)
    and sigma, sigma^2 as whole arrays before it steps through the block.
    """
    if mode not in REFERENCE_MODES:
        raise ValidationError(f"unknown reference mode {mode!r}")
    x_T = np.asarray(x_T, dtype=float)
    if mode == "closed-form":
        exact = exact_solution_xfree(model, sched, x_T, t_start, t_end)
        if not np.all(np.isfinite(exact)):
            raise ReferenceAccuracyError("closed-form reference is not finite")
        return exact
    if not typed(steps, "int", "steps") >= 1:
        raise ValidationError(f"need steps >= 1, got {steps}")
    evaluator = model.evaluator(sched)
    lam_start, lam_end = sched.lam(t_start), sched.lam(t_end)

    def coefficients(lams: np.ndarray) -> tuple[list, list, list]:
        # t, sigma and sigma^2 at lams; sigma^2 = 1/(1 + e^{2 lambda}) for any VP schedule.
        sig = np.sqrt(1.0 / (1.0 + np.exp(2.0 * lams)))
        return sched.t_of_lambda(lams).tolist(), sig.tolist(), (sig * sig).tolist()

    def integrate(n: int) -> np.ndarray:
        dl_nominal = (lam_end - lam_start) / n
        x, K = x_T.copy(), np.empty((4, x_T.size))  # K: the stage slopes of one step
        for j0 in range(0, n, _RK4_BLOCK):
            j1 = min(j0 + _RK4_BLOCK, n)
            lams = np.arange(j0, j1 + 1) * dl_nominal + lam_start  # np.linspace's nodes
            if j1 == n:
                lams[-1] = lam_end
            t, s, s2 = coefficients(lams)
            tm, sm, sm2 = coefficients(0.5 * (lams[:-1] + lams[1:]))
            for j, dl in enumerate(np.diff(lams).tolist()):
                K[0] = s2[j] * x - s[j] * evaluator(x, t[j])
                y = x + 0.5 * dl * K[0]
                K[1] = sm2[j] * y - sm[j] * evaluator(y, tm[j])
                y = x + 0.5 * dl * K[1]
                K[2] = sm2[j] * y - sm[j] * evaluator(y, tm[j])
                y = x + dl * K[2]
                K[3] = s2[j + 1] * y - s[j + 1] * evaluator(y, t[j + 1])
                x = x + dl * (_RK4_WEIGHTS @ K)
        return x

    coarse = integrate(steps)
    if not np.all(np.isfinite(coarse)):
        raise ReferenceAccuracyError(f"fine-rk4 reference is not finite at {steps} steps")
    fine = integrate(2 * steps)
    scale = max(float(np.max(np.abs(fine))), 1e-12)
    drift = float(np.max(np.abs(coarse - fine))) / scale
    if not drift < 1e-9:  # also NaN, when the fine result is not finite
        raise ReferenceAccuracyError(
            f"fine-rk4 not self-consistent: relative drift {drift:.3e} at {steps} steps"
        )
    return fine


@dataclass(frozen=True)
class OrderFit:
    """Least-squares fit of log2(error) against log2(M), slope negated."""

    slope: float
    intercept: float
    r_squared: float
    n_used: int


def fit_order(step_counts, errors) -> OrderFit:
    """Fit the empirical convergence order over the asymptotic window."""
    Ms = np.asarray(step_counts, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if Ms.shape != errs.shape:
        raise DomainError("step_counts and errors must have equal length")
    usable = np.isfinite(errs) & (errs > WINDOW_FLOOR) & (errs < WINDOW_CAP)
    if int(usable.sum()) < 3:
        excluded = [(int(m), float(e)) for m, e in zip(Ms[~usable], errs[~usable])]
        raise FitError(
            f"only {int(usable.sum())} usable points (need >= 3); excluded {excluded}"
        )
    x = np.log2(Ms[usable])
    y = np.log2(errs[usable])
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, intercept), *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ np.array([slope, intercept])
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderFit(slope=float(-slope), intercept=float(intercept), r_squared=r2, n_used=int(usable.sum()))


@dataclass(frozen=True)
class StudyResult:
    config_index: int
    solver: str
    order: int
    variant: str
    bh: str
    prediction: str
    corrector: str
    M: int
    nfe: int
    error: float
    seconds: float


@dataclass
class ConvergenceStudy:
    """One sweep: model x schedule x solver configs x step counts."""

    model: SyntheticModel
    schedule: NoiseSchedule
    solver_configs: list[SolverConfig]
    step_counts: list[int]
    error_norm: str = "max-abs"
    reference: str = "closed-form"
    seed: int = 0
    skip_kind: str = "uniform-lambda"
    oracle_starts: bool = False
    results: list[StudyResult] = field(default_factory=list)

    def __post_init__(self):
        if self.error_norm not in ERROR_NORMS:
            raise ValidationError(f"unknown error norm {self.error_norm!r}")
        if self.reference not in REFERENCE_MODES:
            raise ValidationError(f"unknown reference mode {self.reference!r}")
        if len(self.step_counts) < 4:
            raise ValidationError("need at least 4 step counts for a slope fit")
        if any(b <= a for a, b in zip(self.step_counts, self.step_counts[1:])):
            raise ValidationError("step_counts must be strictly increasing")
        if not self.solver_configs:
            raise ValidationError("need at least one solver config")
        if not self.seed >= 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.oracle_starts and not self.model.closed_form:
            raise ValidationError("oracle starting values need a closed-form model")

    @classmethod
    def from_json(cls, cfg: dict) -> "ConvergenceStudy":
        known = {
            "model", "schedule", "solvers", "step_counts", "error_norm",
            "reference", "seed", "skip", "oracle_starts",
        }
        extra = set(typed(cfg, "dict", "study config")) - known
        if extra:
            raise ValidationError(f"unknown study fields {sorted(extra)}")
        try:
            return cls(
                model=SyntheticModel.from_json(cfg["model"]),
                schedule=NoiseSchedule.from_json(cfg["schedule"]),
                solver_configs=[SolverConfig.from_json(s)
                                for s in typed(cfg["solvers"], "list", "solvers")],
                step_counts=[typed(m, "int", "step count")
                             for m in typed(cfg["step_counts"], "list", "step_counts")],
                error_norm=cfg.get("error_norm", "max-abs"),
                reference=cfg.get("reference", "closed-form"),
                seed=typed(cfg.get("seed", 0), "int", "seed"),
                skip_kind=cfg.get("skip", "uniform-lambda"),
                oracle_starts=typed(cfg.get("oracle_starts", False), "bool", "oracle_starts"),
            )
        except KeyError as exc:
            raise ValidationError(f"study config missing field {exc}") from exc

    def draw_x_T(self) -> np.ndarray:
        return np.random.default_rng(self.seed).standard_normal(self.model.dim)

    def fits(self) -> list[tuple[SolverConfig, OrderFit | None, str | None]]:
        """Per-config order fit (fit, None) or (None, reason) when unfittable."""
        out = []
        for ci, cfg in enumerate(self.solver_configs):
            rows = [r for r in self.results if r.config_index == ci]
            rows.sort(key=lambda r: r.M)
            try:
                fit = fit_order([r.M for r in rows], [r.error for r in rows])
                out.append((cfg, fit, None))
            except (FitError, DomainError) as exc:
                out.append((cfg, None, str(exc)))
        return out


def _error(norm: str, final: np.ndarray, reference: np.ndarray) -> float:
    diff = np.abs(final - reference)
    if norm == "max-abs":
        return float(np.max(diff))
    return float(np.sqrt(np.mean(diff**2)))


def run_study(study: ConvergenceStudy) -> ConvergenceStudy:
    """Populate study.results; solver aborts become divergent (NaN) rows."""
    sched = study.schedule
    x_T = study.draw_x_T()
    reference = reference_solution(
        study.model, sched, x_T, sched.t_start, sched.t_end, mode=study.reference
    )

    def one_cell(ci: int, config: SolverConfig, M: int) -> StudyResult:
        grid = make_time_grid(sched, M, study.skip_kind)
        evaluator = study.model.evaluator(sched)
        if config.prediction == "data":
            from .model import convert_parameterization

            evaluator = convert_parameterization(evaluator, sched)
        warm = None
        if study.oracle_starts and config.order > 1:
            warm = [
                exact_solution_xfree(study.model, sched, x_T, grid.times[0], grid.times[j])
                for j in range(1, config.order)
            ]
        t0 = time.perf_counter()
        try:
            res = sample(evaluator, sched, grid, config, x_T, warm_start=warm)
            err = _error(study.error_norm, res.final, reference)
            nfe = res.nfe
        except NumericError:
            err = float("nan")
            nfe = evaluator.eval_count
        seconds = time.perf_counter() - t0
        return StudyResult(
            config_index=ci, solver=config.name(), order=config.order,
            variant=config.variant, bh=config.bh, prediction=config.prediction,
            corrector=config.corrector, M=M, nfe=nfe, error=err, seconds=seconds,
        )

    study.results = [
        one_cell(ci, config, M)
        for ci, config in enumerate(study.solver_configs)
        for M in study.step_counts
    ]
    return study


# -- emission ----------------------------------------------------------------

CSV_COLUMNS = ("solver", "order", "variant", "bh", "prediction", "corrector",
               "M", "nfe", "error", "seconds")


def emit(study: ConvergenceStudy, path, fmt: str = "csv") -> str:
    """Write results to path as CSV or JSON; returns the path written."""
    path = str(path)
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in study.results:
                writer.writerow([f"{r.seconds:.6f}" if col == "seconds" else getattr(r, col)
                                 for col in CSV_COLUMNS])
        return path
    if fmt != "json":
        raise ValidationError(f"unknown emit format {fmt!r}")
    fits = []
    for cfg, fit, reason in study.fits():
        block = {"solver": cfg.name()}
        if fit is not None:
            block.update(slope=fit.slope, intercept=fit.intercept,
                         r_squared=fit.r_squared, n_used=fit.n_used)
        else:
            block["unfittable"] = reason
        fits.append(block)
    doc = {
        "model": study.model.to_json(),
        "schedule": study.schedule.to_json(),
        "solvers": [c.to_json() for c in study.solver_configs],
        "step_counts": list(study.step_counts),
        "error_norm": study.error_norm,
        "reference": study.reference,
        "seed": study.seed,
        "skip": study.skip_kind,
        "oracle_starts": study.oracle_starts,
        "results": [{col: getattr(r, col) for col in CSV_COLUMNS} for r in study.results],
        "fits": fits,
    }
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, allow_nan=True)
        fh.write("\n")
    return path
