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
import os
import time
from dataclasses import MISSING, asdict, dataclass, field, fields

import numpy as np

from .errors import (
    DomainError, FitError, NumericError, ReferenceAccuracyError, ValidationError, shown, typed,
)
from .model import SyntheticModel, _state, _time, convert_parameterization, exact_solution_xfree
from .schedule import SKIP_KINDS, NoiseSchedule, _floats, make_time_grid
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
    the model input of stage i = 1, 2, 3 is one gemv D_i @ W[:i + 1], whose
    row holds x's coefficient as 1 + delta, and the step ends with
    x += D_4 @ W.  D_4 holds increments only, so x keeps coefficient exactly
    1 from step to step: folded in as 1 + delta, the low bits of delta would
    be rounded away at every step, an error that accumulates over the pass.
    A stage input's rounding of 1 + delta does not accumulate: it reaches x
    only through the stage's slope, scaled by h.  The model is called
    through one bound call per pass with reused buffers (the state and one
    stage-input array) and writes each stage output straight into its row
    of W, so, as with sample(), it must not keep the arrays it is given.
    model must be a SyntheticModel, sched a NoiseSchedule and t_start and t_end
    real numbers (ValidationError).
    """
    typed(model, SyntheticModel, "reference model")
    typed(sched, NoiseSchedule, "schedule")
    typed(mode, REFERENCE_MODES, "reference mode")
    x_T = _state(x_T, model.dim, "x_T")
    t_start, t_end = _time(t_start, "t_start"), _time(t_end, "t_end")
    if not t_start > t_end:
        raise DomainError(f"need t_end < t_start, got t_start={t_start}, t_end={t_end}")
    if mode == "closed-form":
        exact = exact_solution_xfree(model, sched, x_T, t_start, t_end)
        if not np.all(np.isfinite(exact)):
            raise ReferenceAccuracyError("closed-form reference is not finite")
        return exact
    if not typed(steps, "int", "steps") >= 1:
        raise ValidationError(f"need steps >= 1, got {shown(steps, str)}")
    evaluator = model.evaluator(sched)
    lam_start, lam_end = sched.lam(t_start), sched.lam(t_end)

    def sigmas(lams: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # sigma^2 = 1/(1 + e^{2 lambda}) for any VP schedule
        sig = np.sqrt(1.0 / (1.0 + np.exp(2.0 * lams)))
        return sig, sig * sig

    def stage_rows(lams: np.ndarray, mids: np.ndarray, R: np.ndarray) -> list[np.ndarray]:
        # Fill R (steps, 14) with the block's rows, packed stage by stage, and return
        # them as views: D_1..D_3 (steps, 2..4) and the step's D_4 (steps, 5).  Built as
        # increments: stage i's slope is k_i = a (x + D_i @ W) - b f_i in W coordinates
        # (D_0 = 0, a = sigma^2 and b = sigma at the stage's time), and D_{i+1} = c h k_i
        # with c = 1/2, 1/2, 1; then D_1..D_3 take x's 1 (columns 0, 2 and 5 of R).
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
        for Di in D[:3]:
            Di[:, 0] += 1.0
        return D

    def integrate(n: int) -> np.ndarray:
        dl_nominal = (lam_end - lam_start) / n
        W, y = np.empty((5, x_T.size)), np.empty(x_T.size)
        x, f0, f1, f2, f3 = W  # row views: assigning into one is cheaper than into W[i]
        x[...] = x_T
        W1, W2, W3 = W[:2], W[:3], W[:4]
        R = np.empty((min(n, _RK4_BLOCK), 14))  # one block's rows, reused block after block
        call = evaluator.__call__  # bound per pass: a patched __call__ still sees every call
        for j0 in range(0, n, _RK4_BLOCK):
            j1 = min(j0 + _RK4_BLOCK, n)
            lams = np.arange(j0, j1 + 1) * dl_nominal + lam_start  # np.linspace's nodes
            if j1 == n:
                lams[-1] = lam_end
            mids = 0.5 * (lams[:-1] + lams[1:])
            t = sched.t_of_lambda(lams).tolist()  # Python floats: the model's fast path
            tm = sched.t_of_lambda(mids).tolist()
            rows = stage_rows(lams, mids, R[:j1 - j0])
            for d1, d2, d3, d4, t0, th, t1 in zip(*rows, t, tm, t[1:]):
                call(x, t0, f0)
                call(d1.dot(W1, out=y), th, f1)
                call(d2.dot(W2, out=y), th, f2)
                call(d3.dot(W3, out=y), t1, f3)
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

    Entries must be ints or floats, not text, and step counts finite and > 0 (DomainError);
    FitError unless the usable points number 3 or more over at least 2 distinct step counts.  With
    x = log2 M, y = log2 error, dx = x - mean(x) and dy = y - mean(y), the line is the closed form
    slope = sum(dx dy) / sum(dx^2) (> 0 by the distinct counts), intercept = mean(y) - slope mean(x).
    """
    try:
        Ms, errs = _floats(step_counts, "step counts"), _floats(errors, "errors")
    except ValidationError as exc:
        raise DomainError(f"step counts and errors must be numbers: {exc}") from exc
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
    x, y = np.log2(Ms[usable]), np.log2(errs[usable])
    dx, dy = x - x.mean(), y - y.mean()
    slope = float(dx @ dy) / float(dx @ dx)
    intercept = float(y.mean()) - slope * float(x.mean())
    ss_res, ss_tot = float(np.sum((y - (slope * x + intercept)) ** 2)), float(dy @ dy)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return OrderFit(slope=-slope, intercept=intercept, r_squared=r2, n_used=int(usable.sum()))


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


#: Per study field: its JSON key, in the order to_json writes them, and how from_json reads
#: it and to_json writes it (None: as it is).
_JSON_FIELDS = (
    ("model", "model", SyntheticModel.from_json, SyntheticModel.to_json),
    ("schedule", "schedule", NoiseSchedule.from_json, NoiseSchedule.to_json),
    ("solver_configs", "solvers",
     lambda specs: [SolverConfig.from_json(s) for s in typed(specs, "list", "solvers")],
     lambda configs: [c.to_json() for c in configs]),
    ("step_counts", "step_counts", None, list),
    ("error_norm", "error_norm", None, None),
    ("reference", "reference", None, None),
    ("seed", "seed", None, None),
    ("skip_kind", "skip", None, None),
    ("oracle_starts", "oracle_starts", None, None),
)


@dataclass
class ConvergenceStudy:
    """One sweep: model x schedule x solver configs x step counts.

    The fields are checked here, so a study that could not finish fails
    before run_study solves its reference.  Each has its annotated type
    (solver_configs and step_counts are lists), and error_norm, reference and
    skip_kind are among their choices (ValidationError).
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
        typed(self.model, SyntheticModel, "model")
        typed(self.schedule, NoiseSchedule, "schedule")
        typed(self.error_norm, ERROR_NORMS, "error norm")
        typed(self.reference, REFERENCE_MODES, "reference mode")
        typed(self.skip_kind, SKIP_KINDS, "skip kind")
        typed(self.oracle_starts, "bool", "oracle_starts")
        if len(typed(self.step_counts, "list", "step_counts")) < 4:
            raise ValidationError("need at least 4 step counts for a slope fit")
        for M in self.step_counts:
            if typed(M, "int", "step count") < 1:
                raise ValidationError(f"step counts must be >= 1, got {shown(M, str)}")
        if any(b <= a for a, b in zip(self.step_counts, self.step_counts[1:])):
            raise ValidationError("step_counts must be strictly increasing")
        if not typed(self.solver_configs, "list", "solver_configs"):
            raise ValidationError("need at least one solver config")
        for i, config in enumerate(self.solver_configs):
            if typed(config, SolverConfig, f"solver {i}").order_schedule is not None:
                raise ValidationError(f"solver {i} has an order_schedule, which fixes M; "
                                      "a study varies M")
        if not typed(self.seed, "int", "seed") >= 0:
            raise ValidationError(f"seed must be >= 0, got {shown(self.seed, str)}")
        if self.oracle_starts and not self.model.closed_form:
            raise ValidationError("oracle starting values need a closed-form model")

    @classmethod
    def from_json(cls, cfg: dict) -> "ConvergenceStudy":
        """Build from to_json's config, read in its key order; absent fields take their defaults."""
        extra = set(typed(cfg, "dict", "study config")) - {key for _, key, _, _ in _JSON_FIELDS}
        if extra:
            raise ValidationError(f"unknown study fields {sorted(extra)}")
        required = {f.name for f in fields(cls) if f.default is f.default_factory is MISSING}
        given = {}
        for name, key, read, _ in _JSON_FIELDS:
            if key in cfg:
                given[name] = read(cfg[key]) if read else cfg[key]
            elif name in required:
                raise ValidationError(f"study config missing field {key!r}")
        return cls(**given)

    def to_json(self) -> dict:
        """The config from_json reads: every field but results."""
        return {key: write(getattr(self, name)) if write else getattr(self, name)
                for name, key, _, write in _JSON_FIELDS}

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
    """Populate study.results; solver aborts become divergent (NaN) rows.  study must be a
    ConvergenceStudy (ValidationError)."""
    sched = typed(study, ConvergenceStudy, "study").schedule
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
    """Write results to path as CSV, or as JSON: study.to_json() then "results" and "fits"; returns
    the path written.  study must be a ConvergenceStudy, path a str or an os.PathLike and fmt
    "csv" or "json" (ValidationError)."""
    typed(study, ConvergenceStudy, "study")
    path = str(typed(path, str | os.PathLike, "path"))
    if typed(fmt, ("csv", "json"), "emit format") == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in study.results:
                writer.writerow([f"{r.seconds:.6f}" if col == "seconds" else getattr(r, col)
                                 for col in CSV_COLUMNS])
        return path
    doc = {**study.to_json(),
           "results": [{col: getattr(r, col) for col in CSV_COLUMNS} for r in study.results],
           "fits": [{"solver": cfg.name(), **(asdict(fit) if fit else {"unfittable": reason})}
                    for cfg, fit, reason in study.fits()]}
    with open(path, "w", newline="") as fh:
        json.dump(doc, fh, indent=2, allow_nan=True)
        fh.write("\n")
    return path
