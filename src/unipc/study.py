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
from .model import SyntheticModel, _state, convert_parameterization, exact_solution_xfree
from .schedule import SKIP_KINDS, NoiseSchedule, make_time_grid
from .solver import SolverConfig, sample

ERROR_NORMS = ("max-abs", "rms")
REFERENCE_MODES = ("closed-form", "fine-rk4")

WINDOW_CAP = 1.0
WINDOW_FLOOR = 1e-12

RK4_STEPS = 20_000
#: Steps of the fine-rk4 reference whose stage rows are built together.
_RK4_BLOCK = 1024


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

    x_T must be a 1-d array of length model.dim (else ValidationError) and
    t_start must lie above t_end (else DomainError); both are checked before
    any model call.  closed-form delegates to the exact x-free trajectory;
    fine-rk4 runs classical RK4 on dx/dlambda = sigma^2(lambda) x -
    sigma(lambda) eps(x, t) over `steps` uniform-lambda steps and insists
    that doubling the step count moves the answer by less than 1e-9
    relative; the two passes make 4 model calls a step, 12 * steps in all.

    No RK4 coefficient depends on x, so a pass walks the lambda grid in
    blocks of _RK4_BLOCK steps and builds each block's stage rows with
    whole-array ops, from its node and midpoint times (one t_of_lambda call
    each) and sigma, sigma^2 there.  A pass holds one work array
    W = [x, f0, f1, f2, f3] (the state and the step's four model outputs):
    the model input of stage i = 1, 2, 3 is x + D_i @ W[:i + 1], and the
    step ends with x += D_4 @ W, one gemv and one add a stage.  The rows
    hold increments only, so x enters every sum with coefficient exactly 1;
    a row that folded x in as 1 + delta would round away the low bits of
    delta at every stage, an error that accumulates over the pass.  The
    model is called with reused buffers (the state and one stage-input
    array), so, as with sample(), it must not keep the arrays it is given.
    """
    if mode not in REFERENCE_MODES:
        raise ValidationError(f"unknown reference mode {mode!r}")
    x_T = _state(x_T, model.dim, "x_T")
    if not t_start > t_end:
        raise DomainError(f"need t_end < t_start, got t_start={t_start}, t_end={t_end}")
    if mode == "closed-form":
        exact = exact_solution_xfree(model, sched, x_T, t_start, t_end)
        if not np.all(np.isfinite(exact)):
            raise ReferenceAccuracyError("closed-form reference is not finite")
        return exact
    if not typed(steps, "int", "steps") >= 1:
        raise ValidationError(f"need steps >= 1, got {steps}")
    evaluator = model.evaluator(sched)
    lam_start, lam_end = sched.lam(t_start), sched.lam(t_end)

    def sigmas(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # sigma^2 = 1/(1 + e^{2 lambda}) for any VP schedule
        sig = np.sqrt(1.0 / (1.0 + np.exp(2.0 * lams)))
        return sig, sig * sig

    def stage_rows(lams: np.ndarray, mids: np.ndarray, R: np.ndarray) -> list[np.ndarray]:
        # Fill R (steps, 14) with the block's increment rows, packed stage by stage, and
        # return them as views: D_1..D_3 (steps, 2..4) and the step's D_4 (steps, 5).
        # Stage i's slope is k_i = a (x + D_i @ W) - b f_i in W coordinates (D_0 = 0,
        # a = sigma^2 and b = sigma at the stage's time), and D_{i+1} = c h k_i with
        # c = 1/2, 1/2, 1.
        s, s2 = sigmas(lams)
        sm, sm2 = sigmas(mids)
        h = np.diff(lams)[:, None]
        D = np.split(R, [2, 5, 9], axis=1)
        D4 = D[3]  # sums h/6 (k_0 + 2 k_1 + 2 k_2 + k_3)
        D4[:, 0], D4[:, 1], D4[:, 2:] = s2[:-1], -s[:-1], 0.0  # k_0, at the step's node
        np.multiply(0.5 * h, D4[:, :2], out=D[0])
        for i, c in ((1, 0.5), (2, 1.0)):  # k_1 and k_2, at the midpoint, built in D_{i+1}
            k = D[i]
            np.multiply(sm2[:, None], D[i - 1], out=k[:, :i + 1])
            k[:, 0] += sm2
            k[:, i + 1] = -sm
            D4[:, :i + 2] += 2.0 * k
            k *= c * h
        D4[:, :4] += s2[1:, None] * D[2]  # k_3, at the next node
        D4[:, 0] += s2[1:]
        D4[:, 4] -= s[1:]
        D4 *= h / 6.0
        return D

    def integrate(n: int) -> np.ndarray:
        dl_nominal = (lam_end - lam_start) / n
        W, y = np.empty((5, x_T.size)), np.empty(x_T.size)
        x, f0, f1, f2, f3 = W  # row views: assigning into one is cheaper than into W[i]
        x[...] = x_T
        W1, W2, W3 = W[:2], W[:3], W[:4]
        R = np.empty((min(n, _RK4_BLOCK), 14))  # one block's rows, reused block after block
        for j0 in range(0, n, _RK4_BLOCK):
            j1 = min(j0 + _RK4_BLOCK, n)
            lams = np.arange(j0, j1 + 1) * dl_nominal + lam_start  # np.linspace's nodes
            if j1 == n:
                lams[-1] = lam_end
            mids = 0.5 * (lams[:-1] + lams[1:])
            t, tm = sched.t_of_lambda(lams), sched.t_of_lambda(mids)
            rows = stage_rows(lams, mids, R[:j1 - j0])
            for d1, d2, d3, d4, t0, th, t1 in zip(*rows, t[:-1], tm, t[1:]):
                f0[...] = evaluator(x, t0)
                d1.dot(W1, out=y)
                y += x
                f1[...] = evaluator(y, th)
                d2.dot(W2, out=y)
                y += x
                f2[...] = evaluator(y, th)
                d3.dot(W3, out=y)
                y += x
                f3[...] = evaluator(y, t1)
                d4.dot(W, out=y)
                x += y
        return x.copy()

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
    """Fit the empirical convergence order over the asymptotic window.

    Every step count must be finite and > 0 (DomainError); FitError unless the
    usable points number 3 or more over at least 2 distinct step counts.
    """
    Ms = np.asarray(step_counts, dtype=float)
    errs = np.asarray(errors, dtype=float)
    if Ms.shape != errs.shape:
        raise DomainError("step_counts and errors must have equal length")
    if not (np.isfinite(Ms) & (Ms > 0)).all():
        raise DomainError(f"step counts must be finite and > 0, got {Ms.tolist()}")
    usable = np.isfinite(errs) & (errs > WINDOW_FLOOR) & (errs < WINDOW_CAP)
    if int(usable.sum()) < 3:
        excluded = [(int(m), float(e)) for m, e in zip(Ms[~usable], errs[~usable])]
        raise FitError(
            f"only {int(usable.sum())} usable points (need >= 3); excluded {excluded}"
        )
    if len(set(Ms[usable].tolist())) < 2:
        raise FitError(f"all usable points have M = {Ms[usable][0]:g}; need >= 2 distinct step counts")
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
    """One sweep: model x schedule x solver configs x step counts.

    The fields are checked here, so a study that could not finish fails
    before run_study solves its reference.
    """

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
        for M in self.step_counts:
            if typed(M, "int", "step count") < 1:
                raise ValidationError(f"step counts must be >= 1, got {M}")
        if any(b <= a for a, b in zip(self.step_counts, self.step_counts[1:])):
            raise ValidationError("step_counts must be strictly increasing")
        if not self.solver_configs:
            raise ValidationError("need at least one solver config")
        for i, config in enumerate(self.solver_configs):
            if config.order_schedule is not None:
                raise ValidationError(f"solver {i} has an order_schedule, which fixes M; "
                                      "a study varies M")
        if self.skip_kind not in SKIP_KINDS:
            raise ValidationError(f"unknown skip kind {self.skip_kind!r}")
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
                step_counts=typed(cfg["step_counts"], "list", "step_counts"),
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
