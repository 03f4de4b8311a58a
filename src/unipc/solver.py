"""Unified predictor-corrector stepping and the sampling driver.

Every update in this family, predictor or corrector, noise or data
prediction, multistep or singlestep, shares one analytical form.  With
h = lambda_next - lambda_prev and model-output differences

    D_m = f(x at offset r_m) - f(x_prev)        (offsets r_m in units of h)

the noise-prediction update is

    x_next = (alpha_next/alpha_prev) x_prev - sigma_next (e^h - 1) f_prev
             - sigma_next * B(h) * sum_m (w_m / r_m) D_m,

and the data-prediction update is

    x_next = (sigma_next/sigma_prev) x_prev + alpha_next (1 - e^{-h}) f_prev
             + alpha_next * B(h) * sum_m (w_m / r_m) D_m.

A predictor uses only past offsets (r_m < 1); a corrector additionally
uses the current node r_p = 1, lifting the order of accuracy by one.  The
weights w come from coeffs.solve_weights, or, in the varying-coefficients
variant, from the h-independent matrix A = C^{-1}: the correction becomes
sum_n h varphi_{n+1}(h) <column n of A, (D_m/r_m)_m>, i.e. w = A v with
v_n = varphi_{n+1}(h) (psi for data prediction) and B replaced by h.

With one offset and the half_a1 shortcut the weight is pinned to 1/2
instead of solved, which satisfies the accuracy condition for both B
variants independently of h.

The multistep driver follows the warm-up discipline p_i = min(p, i),
pushes the model output evaluated at the *uncorrected* predictor result
into the history buffer, never corrects after the final predictor, and
skips the final unconsumed evaluation, so a run over M steps costs
exactly M model calls with the standard corrector (2M - 1 in oracle mode,
which re-evaluates at each corrected state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import coeffs
from .errors import (
    DomainError,
    InsufficientHistoryError,
    NumericError,
    ValidationError,
    typed,
)
from .model import ModelEvaluator, dynamic_threshold
from .schedule import NoiseSchedule, TimeGrid

VARIANTS = ("multistep", "singlestep")
CORRECTORS = ("off", "standard", "oracle")


@dataclass(frozen=True)
class Thresholding:
    ratio: float = 0.995
    floor: float = 1.0


@dataclass(frozen=True)
class SolverConfig:
    """Sampling configuration; round-trips through JSON with lowercase enums."""

    order: int = 3
    variant: str = "multistep"
    bh: str = "b2"
    prediction: str = "noise"
    corrector: str = "standard"
    varying_coefficients: bool = False
    order_schedule: str | None = None
    thresholding: Thresholding | None = None
    half_a1: bool = True

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.bh not in coeffs.BH_KINDS:
            raise ValidationError(f"unknown bh {self.bh!r}")
        if self.prediction not in ("noise", "data"):
            raise ValidationError(f"unknown prediction {self.prediction!r}")
        if self.corrector not in CORRECTORS:
            raise ValidationError(f"unknown corrector {self.corrector!r}")
        typed(self.varying_coefficients, "bool", "varying_coefficients")
        typed(self.half_a1, "bool", "half_a1")
        limit = coeffs.MAX_VARYING_ORDER if self.varying_coefficients else coeffs.MAX_ORDER
        if not 1 <= typed(self.order, "int", "order") <= limit:
            raise ValidationError(f"order {self.order} outside 1..{limit}")
        if self.order_schedule is not None:
            digits = self.order_schedule
            if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()) or "0" in digits:
                raise ValidationError(
                    f"order schedule must be digits 1-9, got {self.order_schedule!r}"
                )
            worst = max(int(d) for d in self.order_schedule)
            if worst > limit:
                raise ValidationError(f"order schedule entry {worst} exceeds limit {limit}")
        if self.thresholding is not None and self.prediction != "data":
            raise ValidationError("thresholding applies to data prediction only")

    def name(self) -> str:
        base = "unip" if self.corrector == "off" else "unipc"
        if self.varying_coefficients:
            base += "_v"
        return f"{base}-{self.order}"

    def resolved_orders(self, M: int) -> list[int]:
        """Per-step predictor orders: warm-up min(p, i) or the explicit schedule."""
        if M < 1:
            raise ValidationError("grid must have at least one step")
        if self.order_schedule is None:
            return [min(self.order, i) for i in range(1, M + 1)]
        digits = [int(d) for d in self.order_schedule]
        if len(digits) != M:
            raise ValidationError(
                f"order schedule length {len(digits)} does not match M={M}"
            )
        for i, d in enumerate(digits, start=1):
            if d > i:
                raise ValidationError(
                    f"order schedule entry {d} at step {i} exceeds available history "
                    f"(entry i must be <= i)"
                )
        return digits

    def to_json(self) -> dict:
        th = None
        if self.thresholding is not None:
            th = {"ratio": self.thresholding.ratio, "floor": self.thresholding.floor}
        return {
            "order": self.order,
            "variant": self.variant,
            "bh": self.bh,
            "prediction": self.prediction,
            "corrector": self.corrector,
            "varying_coefficients": self.varying_coefficients,
            "order_schedule": self.order_schedule,
            "thresholding": th,
            "half_a1": self.half_a1,
        }

    @classmethod
    def from_json(cls, spec: dict) -> "SolverConfig":
        spec = dict(typed(spec, "dict", "solver config"))
        th = spec.pop("thresholding", None)
        if th is not None:
            th = typed(th, "dict", "thresholding")
            th = Thresholding(ratio=float(typed(th["ratio"], "number", "thresholding ratio")),
                              floor=float(typed(th["floor"], "number", "thresholding floor")))
        known = {
            "order", "variant", "bh", "prediction", "corrector",
            "varying_coefficients", "order_schedule", "half_a1",
        }
        extra = set(spec) - known
        if extra:
            raise ValidationError(f"unknown solver fields {sorted(extra)}")
        return cls(thresholding=th, **spec)


@dataclass
class BufferEntry:
    t: float
    lam: float
    output: np.ndarray


@dataclass
class SolverState:
    """Running iterate plus the history buffer of model outputs."""

    x: np.ndarray
    buffer: list[BufferEntry] = field(default_factory=list)
    step_index: int = 0
    nfe: int = 0
    capacity: int = coeffs.MAX_ORDER

    def push(self, entry: BufferEntry) -> None:
        if self.buffer and not entry.t < self.buffer[-1].t:
            raise ValidationError("buffer timesteps must be strictly decreasing in t")
        self.buffer.append(entry)
        while len(self.buffer) > self.capacity:
            self.buffer.pop(0)


@dataclass(frozen=True)
class StepRecord:
    index: int
    order: int
    t_prev: float
    t_next: float
    used_ts: tuple[float, ...]
    corrected: bool


@dataclass
class SampleResult:
    trajectory: list[np.ndarray]
    nfe: int
    trace: list[StepRecord]

    @property
    def final(self) -> np.ndarray:
        return self.trajectory[-1]


# -- update formulas -------------------------------------------------------


def ddim_step(
    sched: NoiseSchedule, x: np.ndarray, eps_prev: np.ndarray, t_prev: float, t_next: float
) -> np.ndarray:
    """First-order noise-prediction update (standalone DDIM)."""
    la_p, la_n = sched.log_alpha(t_prev), sched.log_alpha(t_next)
    lam_p = la_p - 0.5 * math.log(-math.expm1(2.0 * la_p))
    lam_n = la_n - 0.5 * math.log(-math.expm1(2.0 * la_n))
    sigma_n = math.sqrt(-math.expm1(2.0 * la_n))
    return math.exp(la_n - la_p) * x - sigma_n * math.expm1(lam_n - lam_p) * eps_prev


def _first_order_data(
    sched: NoiseSchedule, x: np.ndarray, x0_prev: np.ndarray, t_prev: float, t_next: float
) -> np.ndarray:
    alpha_n, sigma_n, lam_n = sched.alpha_sigma_lambda(t_next)
    _, sigma_p, lam_p = sched.alpha_sigma_lambda(t_prev)
    return (sigma_n / sigma_p) * x - alpha_n * math.expm1(lam_p - lam_n) * x0_prev


def unified_update(
    sched: NoiseSchedule,
    x: np.ndarray,
    t_prev: float,
    t_next: float,
    f_prev: np.ndarray,
    rs,
    Ds,
    *,
    bh: str = "b2",
    prediction: str = "noise",
    varying: bool = False,
    half_a1: bool = False,
) -> np.ndarray:
    """One predictor/corrector update from explicit offsets and differences.

    rs must be strictly increasing nonzero offsets in units of h; Ds the
    matching model-output differences.  A corrector passes r_p = 1 with the
    difference taken at the target node; a predictor passes offsets < 1
    only.  Empty rs reduces to the first-order update exactly.
    """
    if len(rs) != len(Ds):
        raise DomainError("rs and Ds must have equal length")
    if prediction == "noise":
        base = ddim_step(sched, x, f_prev, t_prev, t_next)
    else:
        base = _first_order_data(sched, x, f_prev, t_prev, t_next)
    if not len(rs):
        return base
    h = sched.lam(t_next) - sched.lam(t_prev)
    p = len(rs)
    if varying:
        vcm = coeffs.varying_coefficient_matrix(p, rs)
        basis = coeffs.varphi if prediction == "noise" else coeffs.psi
        v = np.array([basis(n + 1, h) for n in range(1, p + 1)])
        weights, scale = vcm.A @ v, h
    else:
        system = coeffs.solve_weights(p, h, rs, bh=bh, prediction=prediction, half_a1=half_a1)
        weights, scale = system.weights, coeffs.bh_value(bh, h)
    acc = sum((w / r) * D for w, r, D in zip(weights, rs, Ds))
    if prediction == "noise":
        sigma_n = sched.sigma(t_next)
        return base - sigma_n * scale * acc
    alpha_n = sched.alpha(t_next)
    return base + alpha_n * scale * acc


def _history(
    state: SolverState, lam_prev: float, h: float, p: int
) -> tuple[list[float], list[np.ndarray], list[float]]:
    """Past offsets/differences for a multistep update of order p (ascending r)."""
    if len(state.buffer) < p:
        raise InsufficientHistoryError(
            f"order {p} needs {p} buffered outputs, have {len(state.buffer)}"
        )
    f_prev = state.buffer[-1].output
    rs, Ds, ts = [], [], []
    for m in range(p, 1, -1):  # oldest first -> ascending (negative) r
        entry = state.buffer[-m]
        rs.append((entry.lam - lam_prev) / h)
        Ds.append(entry.output - f_prev)
        ts.append(entry.t)
    return rs, Ds, ts


@dataclass
class PredictResult:
    x_pred: np.ndarray
    rs: list[float]
    Ds: list[np.ndarray]
    used_ts: list[float]
    evals: int


def predict(
    sched: NoiseSchedule,
    state: SolverState,
    t_next: float,
    p: int,
    *,
    variant: str = "multistep",
    model: ModelEvaluator | None = None,
    bh: str = "b2",
    prediction: str = "noise",
    varying: bool = False,
    half_a1: bool = True,
) -> PredictResult:
    """p-th order predictor from the buffered history (multistep) or from
    freshly evaluated interior nodes (singlestep; costs p-1 extra calls)."""
    if not state.buffer:
        raise InsufficientHistoryError("buffer is empty; push the initial model output first")
    t_prev = state.buffer[-1].t
    lam_prev = state.buffer[-1].lam
    h = sched.lam(t_next) - lam_prev
    f_prev = state.buffer[-1].output
    opts = dict(bh=bh, prediction=prediction, varying=varying, half_a1=half_a1)
    if variant == "multistep":
        rs, Ds, ts = _history(state, lam_prev, h, p)
        x_pred = unified_update(sched, state.x, t_prev, t_next, f_prev, rs, Ds, **opts)
        return PredictResult(x_pred, rs, Ds, ts + [t_prev], 0)
    if model is None and p > 1:
        raise ValidationError("singlestep prediction needs the model for interior nodes")
    rs = [m / p for m in range(1, p)]
    Ds: list[np.ndarray] = []
    interior = []
    for m, r in enumerate(rs, start=1):
        s_m = sched.t_of_lambda(lam_prev + r * h)
        sub_rs = [j / m for j in range(1, m)]
        x_m = unified_update(sched, state.x, t_prev, s_m, f_prev, sub_rs, Ds[: m - 1], **opts)
        _guard(x_m, state.step_index + 1)
        f_m = model(x_m, s_m)
        _guard(f_m, state.step_index + 1)
        Ds.append(f_m - f_prev)
        interior.append(s_m)
    x_pred = unified_update(sched, state.x, t_prev, t_next, f_prev, rs, Ds, **opts)
    return PredictResult(x_pred, rs, Ds, interior + [t_prev], len(rs))


@dataclass
class CorrectResult:
    corrected: np.ndarray
    push_output: np.ndarray
    evals: int


def correct(
    sched: NoiseSchedule,
    state: SolverState,
    t_next: float,
    x_pred: np.ndarray,
    p: int,
    model: ModelEvaluator,
    *,
    rs: list[float] | None = None,
    Ds: list[np.ndarray] | None = None,
    bh: str = "b2",
    prediction: str = "noise",
    varying: bool = False,
    half_a1: bool = True,
    oracle: bool = False,
) -> CorrectResult:
    """Refine any p-th order estimate x_pred at t_next (plug-and-play UniC).

    Evaluates the model once at (x_pred, t_next); that output both enters the
    correction difference and is what the caller should buffer for the next
    step, so the corrector adds no model evaluations to a run.  In oracle
    mode the model is re-evaluated at the corrected state (one extra call)
    and that output is returned for buffering instead.

    rs/Ds may carry precomputed past offsets and differences (e.g. from a
    singlestep predictor); by default they are read from the buffer.
    """
    t_prev = state.buffer[-1].t
    lam_prev = state.buffer[-1].lam
    h = sched.lam(t_next) - lam_prev
    f_prev = state.buffer[-1].output
    if rs is None or Ds is None:
        rs, Ds, _ = _history(state, lam_prev, h, p)
    f_pred = model(np.asarray(x_pred, float), t_next)
    _guard(f_pred, state.step_index + 1)
    corrected = unified_update(
        sched, state.x, t_prev, t_next, f_prev,
        list(rs) + [1.0], list(Ds) + [f_pred - f_prev],
        bh=bh, prediction=prediction, varying=varying, half_a1=half_a1,
    )
    evals = 1
    push = f_pred
    if oracle:
        push = model(corrected, t_next)
        _guard(push, state.step_index + 1)
        evals = 2
    return CorrectResult(corrected, push, evals)


def _guard(arr: np.ndarray, step: int) -> None:
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"non-finite value at step {step}", step=step)


# -- driver ----------------------------------------------------------------


def sample(
    model: ModelEvaluator,
    sched: NoiseSchedule,
    grid: TimeGrid,
    config: SolverConfig,
    x_init: np.ndarray,
    *,
    warm_start: list[np.ndarray] | None = None,
) -> SampleResult:
    """Run the full sampling loop from x at t_0 = grid.times[0] down to t_M.

    warm_start optionally supplies already-accurate states for the first k
    grid nodes after t_0 (classic multistep starter injection); the loop then
    begins at step k+1 with a filled history buffer.  Total model calls stay
    at M for corrector in {off, standard} and 2M-1 for oracle (multistep).
    """
    if model.prediction != config.prediction:
        raise ValidationError(
            f"model predicts {model.prediction!r} but config expects {config.prediction!r}"
        )
    times, lambdas = grid.times, grid.lambdas
    M = grid.num_steps
    if abs(lambdas[0] - sched.lam(times[0])) > 1e-8 or abs(lambdas[-1] - sched.lam(times[-1])) > 1e-8:
        raise ValidationError("grid does not belong to this schedule")
    orders = config.resolved_orders(M)

    evalfn = model
    if config.thresholding is not None:
        th = config.thresholding

        def evalfn(x, t, _m=model, _th=th):
            return dynamic_threshold(_m(x, t), _th.ratio, _th.floor)

    x = np.asarray(x_init, dtype=float)
    _guard(x, 0)
    state = SolverState(x=x, capacity=max(orders))
    out0 = evalfn(x, times[0])
    _guard(out0, 0)
    state.push(BufferEntry(times[0], lambdas[0], out0))
    state.nfe = 1
    trajectory = [x.copy()]
    trace: list[StepRecord] = []

    first = 1
    if warm_start:
        if len(warm_start) > M - 1:
            raise ValidationError("warm_start longer than the grid allows")
        for j, xs in enumerate(warm_start, start=1):
            xs = np.asarray(xs, dtype=float)
            _guard(xs, j)
            out = evalfn(xs, times[j])
            _guard(out, j)
            state.push(BufferEntry(times[j], lambdas[j], out))
            state.nfe += 1
            state.x = xs
            trajectory.append(xs.copy())
        first = len(warm_start) + 1

    for i in range(first, M + 1):
        p_i = orders[i - 1]
        t_next = times[i]
        pred = predict(
            sched, state, t_next, p_i,
            variant=config.variant, model=evalfn,
            bh=config.bh, prediction=config.prediction,
            varying=config.varying_coefficients, half_a1=config.half_a1,
        )
        state.nfe += pred.evals
        _guard(pred.x_pred, i)
        used = list(pred.used_ts)
        corrected = False
        if config.corrector != "off" and i < M:
            res = correct(
                sched, state, t_next, pred.x_pred, p_i, evalfn,
                rs=pred.rs, Ds=pred.Ds,
                bh=config.bh, prediction=config.prediction,
                varying=config.varying_coefficients, half_a1=config.half_a1,
                oracle=config.corrector == "oracle",
            )
            state.nfe += res.evals
            _guard(res.corrected, i)
            state.push(BufferEntry(t_next, lambdas[i], res.push_output))
            state.x = res.corrected
            used.append(t_next)
            corrected = True
        else:
            if i < M:
                out = evalfn(pred.x_pred, t_next)
                _guard(out, i)
                state.push(BufferEntry(t_next, lambdas[i], out))
                state.nfe += 1
            state.x = pred.x_pred
        state.step_index = i
        trajectory.append(state.x.copy())
        trace.append(
            StepRecord(i, p_i, times[i - 1], t_next, tuple(used), corrected)
        )

    return SampleResult(trajectory=trajectory, nfe=state.nfe, trace=trace)
