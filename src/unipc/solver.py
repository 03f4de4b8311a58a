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
uses the current node r_p = 1, lifting the order of accuracy by one.

Step plan.  No coefficient depends on x: with the D_m written out, an
update is x_next = a x_prev + sum_j c_j f_j over the model outputs at
consecutive nodes.  When the weights solve their system (coeffs) exactly,
c is the unique solution of sum_j c_j r_j^n = s h n! varphi_{n+1}(h),
n = 0..k, over the k + 1 nodes (r = 0 for x_prev's node; s = -sigma_next;
psi and s = alpha_next for data prediction): B(h) cancels, and the
varying-coefficients weights w = A v, A = C^{-1}, C = diag(1/n!) V(r),
are that same solution.  Only the pinned weight of a single-offset update
(1/2 unless varying_coefficients; accurate for both B) depends on B.

sample() takes the plan for (schedule, grid, config, warm-start length)
from a bounded cache, keyed by the schedule and config (frozen, compared by
value), the warm-start length and the grid times bit for bit.  A miss builds
it for all steps at once (coeffs.basis_table and coeffs.moment_rows on
batches of rows).  A plan is kept from its key's second use on, so repeated
sampling with fixed settings builds it twice in all and a run made once
keeps nothing.  Plans are read-only; each result gets a fresh list of the
frozen StepRecords.  The cache holds at most _CACHE_STEPS = 4,096 plan steps.

_layout alone decides the run layout: per update its row, the node it steps
from and lands on and the nodes it reads.  _plan compiles the rows into the
blocks the run applies and keeps only those, the last row, the node times,
the trace and the call count.  The run holds one zeroed (K + 1, dim) work
array [ring..., x]: the K latest model outputs (node n's in row n % K; K is
the widest row) and the state x its step starts from, and a (2, dim) output
where blocks land.  A row is c in ring slot order (0 in slots it does not
read), then a, so an update is one product with the work array and no
temporary.  No coefficient depends on x, so a standard corrector and the
row after it, which reads the corrector's result as its x, fold into one
2-row block over the same [ring..., x]: one (2, K + 1) @ (K + 1, dim)
product writes x_i and the next model input, so the history is read once
per corrected step.  Any other row is a 1-row block, one gemv.  A block is
(rows, step, node, ends), a pair by its shape, so the run has one loop body
and the plan counts its model calls.  The state a step ends on is copied
into x's row, and the last row writes into a fresh array that the result
owns.  Every state is guarded before the model sees it, and every output
after its call.  Each model call writes its output straight into its ring
slot (ModelEvaluator's out), and thresholding puts |x0| in the output row
the call does not read, so no state-sized temporary is made.
A fused block rounds its second row once more: a standard-corrector run
moves at round-off (a few 1e-15 relative) against applying each row alone.
correct and ddim_step, the one-step API for plugging UniC into another
sampler, build their one row with _coefficients, as _layout does, and apply
it over np.stack(outputs + [x]), x last as in the driver.  They agree with
the driver to round-off, not bit for bit: BLAS rounds by the shape of a
product, so a basis row from a one-row basis_table call (a gemv) has other
bits than in a batch, and a gemv over p + 2 columns others than over the
plan's K + 1 in ring order; and the driver folds a standard corrector into
the update after it.

The multistep plan follows the warm-up discipline p_i = min(p, i), pushes
the model output evaluated at the *uncorrected* predictor result into the
history buffer, never corrects after the final predictor, and skips the
final unconsumed evaluation, so a run over M steps costs exactly M model
calls with the standard corrector (2M - 1 in oracle mode, which
re-evaluates at each corrected state).
"""

from __future__ import annotations

import itertools
import math
import threading
from collections import OrderedDict, namedtuple
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import coeffs
from .errors import (
    DomainError,
    InsufficientHistoryError,
    NumericError,
    ValidationError,
    shown,
    typed,
)
from .model import PREDICTION_KINDS, ModelEvaluator, _state, _threshold, _time
from .schedule import _MAX_STEPS, NoiseSchedule, TimeGrid, _floats

VARIANTS = ("multistep", "singlestep")
CORRECTORS = ("off", "standard", "oracle")


@dataclass(frozen=True)
class Thresholding:
    """Dynamic thresholding of data predictions: ratio in (0.5, 1], finite floor >= 1."""

    ratio: float = 0.995
    floor: float = 1.0

    def __post_init__(self):
        if not 0.5 < typed(self.ratio, "number", "thresholding ratio") <= 1.0:
            raise ValidationError(f"thresholding ratio must lie in (0.5, 1], got {self.ratio}")
        if typed(self.floor, "number", "thresholding floor") < 1.0:
            raise ValidationError(f"thresholding floor must be >= 1, got {self.floor}")


def _check_order(p) -> None:
    """ValidationError unless p is an int (not a bool) in 1..coeffs.MAX_ORDER."""
    if not 1 <= typed(p, "int", "order") <= coeffs.MAX_ORDER:
        raise ValidationError(f"order {shown(p, str)} outside 1..{coeffs.MAX_ORDER}")


def _check_prediction(model: ModelEvaluator, prediction: str) -> None:
    if model.prediction != prediction:
        raise ValidationError(
            f"model predicts {model.prediction!r} but config expects {prediction!r}"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Sampling configuration; round-trips through JSON with lowercase enums.

    order and every order_schedule entry lie in 1..coeffs.MAX_ORDER = 5.
    varying_coefficients selects the paper's step-size-independent weights
    w = C^{-1} v (UniPC_v): every weight solved, named unipc_v-p.  Without it
    the weight of a single-offset update is pinned to 1/2, as in DPM-Solver++(2M).
    """

    order: int = 3
    variant: str = "multistep"
    bh: str = "b2"
    prediction: str = "noise"
    corrector: str = "standard"
    varying_coefficients: bool = False
    order_schedule: str | None = None
    thresholding: Thresholding | None = None

    def __post_init__(self):
        typed(self.variant, VARIANTS, "variant")
        typed(self.bh, coeffs.BH_KINDS, "bh")
        typed(self.prediction, PREDICTION_KINDS, "prediction")
        typed(self.corrector, CORRECTORS, "corrector")
        typed(self.varying_coefficients, "bool", "varying_coefficients")
        _check_order(self.order)
        if self.order_schedule is not None:
            digits = typed(self.order_schedule, str, "order schedule")
            if not (digits.isascii() and digits.isdigit()) or "0" in digits:
                raise ValidationError(
                    f"order schedule must be digits 1-9, got {self.order_schedule!r}"
                )
            worst = max(int(d) for d in self.order_schedule)
            if worst > coeffs.MAX_ORDER:
                raise ValidationError(
                    f"order schedule entry {worst} exceeds limit {coeffs.MAX_ORDER}")
        if self.thresholding is not None:
            typed(self.thresholding, Thresholding, "thresholding")
            if self.prediction != "data":
                raise ValidationError("thresholding applies to data prediction only")

    def name(self) -> str:
        base = "unip" if self.corrector == "off" else "unipc"
        if self.varying_coefficients:
            base += "_v"
        return f"{base}-{self.order}"

    def resolved_orders(self, M: int) -> list[int]:
        """Per-step predictor orders: warm-up min(p, i) or the explicit schedule.  M must be an
        int in 1.._MAX_STEPS (ValidationError)."""
        if not 1 <= typed(M, "int", "M") <= _MAX_STEPS:
            raise ValidationError(f"need 1 <= M <= {_MAX_STEPS} steps, got {shown(M, str)}")
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
        return asdict(self)

    @classmethod
    def from_json(cls, spec: dict) -> "SolverConfig":
        spec = dict(typed(spec, "dict", "solver config"))
        th = spec.pop("thresholding", None)
        if th is not None:
            names = {f.name for f in fields(Thresholding)}
            given = set(typed(th, "dict", "thresholding"))
            extra, missing = sorted(given - names), sorted(names - given)
            if extra or missing:
                raise ValidationError(f"thresholding fields: unknown {extra}, missing {missing}")
            th = Thresholding(**th)
        extra = set(spec) - {f.name for f in fields(cls)}
        if extra:
            raise ValidationError(f"unknown solver fields {sorted(extra)}")
        return cls(thresholding=th, **spec)


BufferEntry = namedtuple("BufferEntry", "t output")  # a model output buffered at time t


@dataclass
class SolverState:
    """Running iterate plus the history buffer of model outputs, at most capacity of them
    (an int >= 1, else ValidationError).  Only push fills buffer and advances step_index, the
    outputs pushed: with t_0's pushed first, it is the step correct() works on."""

    x: np.ndarray
    buffer: list[BufferEntry] = field(default_factory=list, init=False)
    step_index: int = field(default=0, init=False)
    capacity: int = coeffs.MAX_ORDER

    def __post_init__(self):
        if not typed(self.capacity, "int", "capacity") >= 1:
            raise ValidationError(f"capacity must be >= 1, got {shown(self.capacity, str)}")

    def push(self, t: float, output: np.ndarray) -> None:
        """Buffer output, an array of integers or floats kept as a float array, at time t, a finite
        real number kept as a float below the last buffered time (ValidationError); drop the
        oldest entries beyond capacity and advance step_index."""
        t = _time(t, "buffer time")
        if self.buffer and not t < self.buffer[-1].t:
            raise ValidationError("buffer timesteps must be strictly decreasing in t")
        if not math.isfinite(t):
            raise ValidationError(f"buffer time must be finite, got {t}")
        self.buffer.append(BufferEntry(t, _floats(output, "buffered output")))
        del self.buffer[:-self.capacity]
        self.step_index += 1


@dataclass(frozen=True, slots=True)
class StepRecord:
    index: int
    order: int
    t_prev: float
    t_next: float
    used_ts: tuple[float, ...]
    corrected: bool


@dataclass
class SampleResult:
    final: np.ndarray
    nfe: int
    trace: list[StepRecord]
    trajectory: list[np.ndarray] | None = None


# -- coefficient rows ----------------------------------------------------------


def _row_options(config: SolverConfig) -> dict:
    """coeffs.update_rows' options for a config: only varying weights solve a single offset's."""
    return dict(bh=config.bh, prediction=config.prediction,
                half_a1=not config.varying_coefficients)


def _guard(arr: np.ndarray, step: int) -> None:
    # A finite sum of squares (one dot) means finite entries; else only the scan can tell.
    if not math.isfinite(arr.dot(arr)) and not np.isfinite(arr).all():
        raise NumericError(f"non-finite value at step {step}", step=step)


#: The shortest lambda step, relative to max(1, |lambda|) at its ends: 2^20 ulp.  A
#: lambda carries a few ulp of rounding, so a step this long is known to about six
#: digits; make_time_grid's steps stay above 2^36 ulp up to M = 10^5.
_MIN_STEP = 2.0**20 * np.finfo(float).eps


def _check_steps(lam: np.ndarray, what: str) -> None:
    """ValidationError unless each step of lam exceeds _MIN_STEP max(1, |lambda| at its ends),
    so no step of a few ulp gives rows with offsets near 1/ulp."""
    ends = np.maximum(abs(lam[:-1]), abs(lam[1:]))
    if not np.all(np.diff(lam) > _MIN_STEP * np.maximum(ends, 1.0)):
        raise ValidationError(f"{what} do not map to strictly increasing lambdas under this "
                              "schedule, each step above 2^20 ulp of max(1, |lambda|)")


# -- one-step wrappers ------------------------------------------------------------


def ddim_step(sched: NoiseSchedule, x: np.ndarray, eps_prev: np.ndarray, t_prev: float,
              t_next: float) -> np.ndarray:
    """First-order noise-prediction update (standalone DDIM).

    sched must be a NoiseSchedule and t_prev and t_next real numbers
    (ValidationError) with t_next below t_prev (DomainError), and x and eps_prev
    1-d arrays of one length (ValidationError), checked before any arithmetic.
    A non-finite result raises NumericError at step 1.
    """
    typed(sched, NoiseSchedule, "schedule")
    t_prev, t_next = _time(t_prev, "t_prev"), _time(t_next, "t_next")
    if not t_next < t_prev:
        raise DomainError(f"t_next={t_next} is not below t_prev={t_prev}")
    x = _state(x, None, "x")
    eps_prev = _state(eps_prev, x.size, "eps_prev")
    row = _coefficients(sched._maps([t_prev, t_next]), [0], [1], [0], [False], {}, False, 1)[0]
    x_next = row.dot(np.stack([eps_prev, x]))  # x last, as in sample()
    _guard(x_next, 1)
    return x_next


def _history(state: SolverState, p: int) -> list[BufferEntry]:
    if not state.buffer:
        raise InsufficientHistoryError("buffer is empty; push the initial model output first")
    if len(state.buffer) < p:
        raise InsufficientHistoryError(
            f"order {p} needs {p} buffered outputs, have {len(state.buffer)}")
    return state.buffer[-p:]


@dataclass
class CorrectResult:
    corrected: np.ndarray
    push_output: np.ndarray
    evals: int


def correct(sched: NoiseSchedule, state: SolverState, t_next: float, x_pred: np.ndarray,
            p: int, model: ModelEvaluator, config: SolverConfig = SolverConfig()) -> CorrectResult:
    """Refine any p-th order estimate x_pred at t_next (plug-and-play UniC).

    Evaluates the model once at (x_pred, t_next); that output enters the
    correction and is what the caller buffers for the next step,
    state.push(t_next, result.push_output), so the corrector adds no model
    evaluations to a run.  With config.corrector "oracle" the model is
    re-evaluated at the corrected state (one extra call) and that output is
    returned instead.  config's bh, prediction and varying_coefficients
    shape the update as in sample(); config.order, variant and
    order_schedule describe a whole run and are not read: p is this step's
    order.  Checked before the model is called: sched, state and model must be
    a NoiseSchedule, a SolverState and a ModelEvaluator, config a SolverConfig
    with a corrector and no thresholding, p an int in 1..coeffs.MAX_ORDER,
    model must make config.prediction's kind, state.x, x_pred and the p latest
    buffered outputs must be 1-d arrays of length model.dim and t_next a real
    number (ValidationError), t_next must lie below the last buffered time
    (DomainError), and each lambda step over their times and t_next must exceed
    _MIN_STEP max(1, |lambda| at its ends) (ValidationError), as in sample().
    As in sample(), every state is guarded before the model sees it: a
    non-finite x_pred, model output or corrected state raises NumericError
    at step state.step_index.
    """
    typed(sched, NoiseSchedule, "schedule")
    typed(state, SolverState, "state")
    typed(model, ModelEvaluator, "model")
    if typed(config, SolverConfig, "config").corrector == "off" or config.thresholding is not None:
        raise ValidationError(
            f"correct() needs a SolverConfig with a corrector and no thresholding, got {config!r}")
    _check_order(p)
    _check_prediction(model, config.prediction)
    entries = _history(state, p)
    t_next = _time(t_next, "t_next")
    if not t_next < entries[-1].t:
        raise DomainError(f"t_next={t_next} is not below the last buffered t={entries[-1].t}")
    x = _state(state.x, model.dim, "state.x")
    outputs = [_state(e.output, model.dim, f"buffered output at t={e.t}") for e in entries]
    nodes = sched._maps([e.t for e in entries] + [t_next])  # (log alpha, lambda, sigma)
    _check_steps(nodes[1], "buffered times and t_next")
    x_pred, step = _state(x_pred, model.dim, "x_pred"), state.step_index
    _guard(x_pred, step)
    f_pred = push = model(x_pred, t_next)
    _guard(f_pred, step)
    # one row from node p - 1 to p over nodes 0..p, the corrector's own included
    row = _coefficients(nodes, [p - 1], [p], [0], [True], _row_options(config), False, p + 1)[0]
    corrected = row.dot(np.stack(outputs + [f_pred, x]))  # x last, as in sample()
    _guard(corrected, step)
    oracle = config.corrector == "oracle"
    if oracle:
        push = model(corrected, t_next)
        _guard(push, step)
    return CorrectResult(corrected, push, 1 + oracle)


# -- step plan ------------------------------------------------------------------


def _singlestep_times(sched: NoiseSchedule, times: np.ndarray, lam: np.ndarray, p: np.ndarray,
                      first: int) -> np.ndarray:
    """Node times of singlestep steps first..M of orders p, in evaluation order: the grid
    times (lambdas lam), each step's p_i - 1 interior nodes at lambda_{i-1} + (m/p_i) h_i,
    m = 1..p_i - 1, before its grid node."""
    ts = np.empty(first + p.sum())
    on_grid = np.r_[:first, first - 1 + np.cumsum(p)]
    ts[on_grid] = times
    q = p - 1  # interior nodes per step
    m = np.arange(1, q.sum() + 1) - np.repeat(np.cumsum(q) - q, q)
    lam0, h = lam[first - 1:-1], np.diff(lam)[first - 1:]  # each step's start and size
    interior = np.repeat(lam0, q) + (m / np.repeat(p, q)) * np.repeat(h, q)
    ts[np.delete(np.arange(ts.size), on_grid)] = sched.t_of_lambda(interior)
    return ts


#: Rows built together: bounds the build's temporaries (about 0.3 KB a row).
_BATCH = 32


def _coefficients(nodes, src, dst, low, corrector, opts: dict, single: bool, K: int):
    """Rows [c in ring slot order, a], built _BATCH at a time: row r steps from node src[r]
    to dst[r] over the outputs of nodes low[r]..dst[r] - 1 (and dst[r] if corrector[r]),
    with update_rows' options opts, at nominal offsets if single (a singlestep step)."""
    lam, rows = nodes[1], np.zeros((len(src), K + 1))
    for j in range(0, len(src), _BATCH):
        batch = slice(j, j + _BATCH)
        P, N, L = (np.asarray(v[batch], np.intp) for v in (src, dst, low))  # intp indexes faster
        E = N - 1 + corrector[batch]  # the last node a row reads
        J = E[:, None] + np.arange(-int((E - L).max()), 1)  # each row's nodes, oldest first
        if single:
            R = (J - P[:, None]) / (N - P)[:, None]
        else:
            R = (lam[np.maximum(J, 0)] - lam[P][:, None]) / (lam[N] - lam[P])[:, None]
        R[J < L[:, None]] = np.nan  # nodes the row does not use; their c is 0
        rows[batch, K], cb = coeffs.update_rows(nodes, P, N, R, **opts)
        rows[np.arange(j, j + len(J))[:, None], J % K] = cb  # <= K consecutive nodes, distinct slots
    return rows


_Layout = namedtuple("_Layout", "rows ts src dst low corrector bounds trace")
_Plan = namedtuple("_Plan", "blocks final ts trace nfe")


def _layout(sched: NoiseSchedule, grid: TimeGrid, config: SolverConfig, first: int) -> _Layout:
    """Steps first..M of a run as rows, all at once: the one place the run layout is decided.

    rows are the updates in the order the run applies them: per step the
    singlestep interior nodes m = 1..p-1, the predictor, then the corrector if
    the step is corrected.  Row r steps from node src[r] (the state x its step
    starts from) to node dst[r], reads the outputs of nodes low[r]..dst[r] - 1
    (and dst[r] if corrector[r]) and is rows[r] @ [ring, x]: ring holds the K
    latest outputs, node n's in row n % K, with K the widest row, and rows[r]
    is c in that slot order (0 in slots the row does not read), then a.  ts is
    the tuple of node times in evaluation order; step k is rows
    bounds[k]:bounds[k + 1], trace[k] its StepRecord.  Offsets come from the
    node lambdas (multistep: the grid nodes) or at the nominal fractions of a
    singlestep step from node b, which adds interior nodes b + m at
    lambda_b + (m/p) h, then its grid node b + p.  ValidationError unless each
    grid step under sched is longer than _MIN_STEP max(1, |lambda| at its
    ends), so no step of a few ulp gives rows with offsets near 1/ulp.
    """
    nodes = sched._maps(grid.times)  # (log alpha, lambda, sigma) at the grid times
    _check_steps(nodes[1], "grid times")
    M = grid.num_steps
    orders = config.resolved_orders(M)[first - 1:]
    p = np.array(orders)
    corr = (np.arange(first, M + 1) < M) & (config.corrector != "off")
    single = config.variant == "singlestep"
    ts, base = grid.times, np.arange(first - 1, M)  # each step's start node
    if single:
        base = first - 1 + p.cumsum() - p
        ts = _singlestep_times(sched, ts, nodes[1], p, first)
        nodes = sched._maps(ts)
    count = 1 + corr + (p - 1 if single else 0)  # rows per step
    bounds = np.zeros(len(p) + 1, int)  # step k is rows bounds[k]:bounds[k + 1]
    bounds[1:] = count.cumsum()
    last = bounds[1:] - 1  # each step's last row
    src, corrector = base.repeat(count), np.zeros(bounds[-1], bool)
    corrector[last] = corr
    dst = first - 1 + (~corrector).cumsum()  # only correctors reuse a node
    low = src if single else dst - p.repeat(count)
    K = int((dst - low + corrector).max())  # the widest row: more slots would add zero terms
    rows = _coefficients(nodes, src, dst, low, corrector, _row_options(config), single, K)
    ts = tuple(ts.tolist())  # below: a step's used_ts lists the nodes after its start b first
    trace = tuple(StepRecord(i, q, ts[b], ts[n], ts[b + 1:n] + ts[lo:b + 1] + ts[n:n + cr], cr)
                  for i, q, b, n, lo, cr in zip(range(first, M + 1), orders,
                                                *map(memoryview, (base, dst[last], low[last], corr))))
    return _Layout(rows, ts, src, dst, low, corrector, bounds, trace)


def _plan(sched: NoiseSchedule, grid: TimeGrid, config: SolverConfig, first: int) -> _Plan:
    """_layout's rows compiled into the blocks the run applies, every row but the last in
    order, final, the last row (K is final.size - 1), all read-only, and nfe, the run's
    model calls.

    A standard corrector [c_c, a_c] and the row after it [c_p, a_p] (the next
    predictor multistep, the next step's first row singlestep) are one pair
    [[c_c, a_c], [c_p + a_p c_c, a_p a_c]] over the same [ring, x], as the next
    row's x is the corrector's result; a corrector whose next row lies in the
    last step stays a row.  blocks lists (rows, step, node, ends) per block:
    rows is one row of step `step` or, 2-d, a pair whose first row is step
    `step`'s corrector; ends says the first row ends that step; the model call
    at node follows the block's last row (none if -1: after a standard
    corrector, whose output is the predictor's, and after the run's last row).
    """
    rows, ts, _, dst, _, corrector, bounds, trace = _layout(sched, grid, config, first)
    K, last, standard = rows.shape[1] - 1, bounds[1:] - 1, config.corrector == "standard"
    node = np.where(corrector & standard, -1, dst)  # the node whose call follows each row
    node[-1] = -1
    head = np.flatnonzero(corrector) if standard else last[:0]
    head = head[head + 1 < bounds[-2]]  # a pair's first row: its second is not in the last step
    pairs = np.stack([rows[head], rows[head + 1, K:] * rows[head]], axis=1)
    pairs[:, 1, :K] += rows[head + 1, :K]
    node[head] = node[head + 1]
    ends = np.zeros(len(rows), bool)
    ends[last] = True
    starts = np.ones(len(rows), bool)
    starts[head + 1] = starts[-1] = False  # a pair's second row; the last row, applied apart
    step = np.arange(first, first + len(trace)).repeat(np.diff(bounds))
    rows.flags.writeable = pairs.flags.writeable = False
    views = list(rows)  # read-only row views, so the run indexes nothing
    for q, r in enumerate(head.tolist()):
        views[r] = pairs[q]
    node = node[starts]
    blocks = tuple(zip(itertools.compress(views, starts.tolist()),
                       *(v.tolist() for v in (step[starts], node, ends[starts]))))
    return _Plan(blocks, views[-1], ts, trace, first + int((node >= 0).sum()))


# -- plan cache -----------------------------------------------------------------

#: Plan steps the cache holds in all.  A study of the shipped shape (30 plans, 3,150
#: steps) fits whole.  A kept plan with its key, its rows, fused pairs and blocks (a
#: tuple and a row view each) costs 0.41-0.65 KB a step multistep (unip-2 at M = 100
#: to unipc-3 at M = 10), about 1.58 KB a step singlestep (order 5, M = 12) and about
#: 0.90 KB for a one-step plan (tracemalloc over a full cache), so the cache stays
#: under about 6.5 MB, and the set of key hashes seen once under 0.3 MB.
_CACHE_STEPS = 4096
_cache: OrderedDict = OrderedDict()  # key -> read-only plan, least recently used first
_cache_steps = 0  # steps of the plans in _cache
_seen: set[int] = set()  # hashes of keys used once; a key used again keeps its plan
_cache_lock = threading.Lock()


def _cached_plan(sched: NoiseSchedule, grid: TimeGrid, config: SolverConfig, first: int) -> _Plan:
    """_plan(sched, grid, config, first), built once and shared read-only from its second use.

    The key is everything _plan reads: the schedule and config (frozen, compared by
    value), first, and the grid times bit for bit.  A plan is kept when its key is
    asked for again, so a run made once (each cell of a study) costs no memory.
    Least recently used plans are dropped once the cache holds more than
    _CACHE_STEPS steps; a plan larger than that is built per call and not kept.
    """
    global _cache_steps
    key = (sched, config, first, grid.times.tobytes())
    with _cache_lock:
        plan = _cache.get(key)
        if plan is not None:
            _cache.move_to_end(key)
            return plan
        mark = hash(key)  # a collision only keeps a plan one use early
        again = mark in _seen
        if not again:
            if len(_seen) >= _CACHE_STEPS:  # as many keys as the cache can hold plans
                _seen.clear()
            _seen.add(mark)
    plan = _plan(sched, grid, config, first)
    steps = len(plan.trace)
    if again and steps <= _CACHE_STEPS:
        with _cache_lock:
            if key not in _cache:  # another thread may have built it meanwhile
                _cache[key] = plan
                _cache_steps += steps
                while _cache_steps > _CACHE_STEPS:
                    _cache_steps -= len(_cache.popitem(last=False)[1].trace)
    return plan


# -- driver ----------------------------------------------------------------


def _beside(row: np.ndarray, n: int) -> np.ndarray:
    """An empty (n, row.size) float array that starts at row's offset within a 4 KiB page,
    as the next row of one array of 2^k-byte rows would.  Copying a state into a buffer a few
    bytes past it modulo 4 KiB runs up to 1.5x slower (4K aliasing): at dim 2^18 an output
    allocated apart made unip-2 and oracle runs 5-14 % slower.  A row under a page is not
    aligned."""
    size = n * row.size
    if row.nbytes < 4096:
        return np.empty((n, row.size))
    raw = np.empty(size + 512)
    s = (row.ctypes.data - raw.ctypes.data) % 4096 // 8
    return raw[s:s + size].reshape(n, row.size)


def sample(model: ModelEvaluator, sched: NoiseSchedule, grid: TimeGrid, config: SolverConfig,
           x_init: np.ndarray, *, warm_start: list[np.ndarray] | np.ndarray | None = None,
           trajectory: bool = False) -> SampleResult:
    """Run the full sampling loop from x at t_0 = grid.times[0] down to t_M.

    warm_start optionally supplies already-accurate states for the first k
    grid nodes after t_0 (classic multistep starter injection), as a sequence
    of k states or a (k, dim) array; the loop then begins at step k+1 with a
    filled history buffer.  Total model calls stay at M for corrector in
    {off, standard} and 2M-1 for oracle (multistep).
    States are 1-d arrays of length model.dim; x_init and warm_start are
    never written, and the model must not keep the arrays it is given (the
    run reuses them).  trajectory=True also keeps a copy of every grid state.
    Checked before any model call: model, sched, grid and config must be a
    ModelEvaluator, a NoiseSchedule, a TimeGrid and a SolverConfig, warm_start
    None, a list, a tuple or an array and trajectory a bool (ValidationError),
    the grid's times must lie in the schedule's range (DomainError) and map to
    lambdas whose steps exceed _MIN_STEP max(1, |lambda|) under it
    (ValidationError).  Every state
    is guarded before the model sees it: a non-finite state or model output
    raises NumericError naming its step.  The step plan comes from the
    module's bounded plan cache; result.trace is a fresh list each call.
    """
    typed(model, ModelEvaluator, "model")
    typed(sched, NoiseSchedule, "schedule")
    typed(grid, TimeGrid, "grid")
    typed(config, SolverConfig, "config")
    if warm_start is not None:
        typed(warm_start, list | tuple | np.ndarray, "warm_start")
    typed(trajectory, "bool", "trajectory")
    _check_prediction(model, config.prediction)
    x = _state(x_init, model.dim, "x_init")
    warm = [_state(xs, model.dim, f"warm_start[{j}]")
            for j, xs in enumerate(() if warm_start is None else warm_start)]
    if len(warm) >= grid.num_steps:
        raise ValidationError("warm_start longer than the grid allows")
    plan = _cached_plan(sched, grid, config, len(warm) + 1)
    ts, K = plan.ts, plan.final.size - 1
    # [ring: node n's output in row n % K, x], zeroed: a 0 coefficient meets unwritten slots
    work = np.zeros((K + 1, model.dim))
    *slots, x_row = work  # views made once
    out = _beside(x_row, 2)  # where blocks land: never read by an update
    (y, spare), flat = out, out.reshape(-1)
    th = config.thresholding
    # Looked up once per run, so a patched ModelEvaluator.__call__ sees every call; the
    # type's function, not a bound method, so the lookup allocates nothing.
    call = type(model).__call__

    def evaluate(x_at: np.ndarray, node: int, step: int, scratch: np.ndarray) -> None:
        # The model writes its output straight into the slot (its old output is
        # dead), and thresholding then works there, with |x0| in a dead row of out.
        f = call(model, x_at, ts[node], slots[node % K])
        if th is not None:
            _threshold(f, th.ratio, th.floor, scratch)
        _guard(f, step)

    kept = [s.copy() for s in [x] + warm] if trajectory else None
    for n, x in enumerate([x] + warm):
        _guard(x, n)
        evaluate(x, n, n, y)
    x_row[...] = x
    for block, i, node, ends in plan.blocks:
        pair = block.ndim == 2  # x_i into y and the next step's first row into spare
        if pair:
            block.dot(work, out=out)
            if not math.isfinite(flat.dot(flat)):
                _guard(y, i)
                _guard(spare, i + 1)
        else:
            block.dot(work, out=y)
            _guard(y, i)
        if ends:  # every row of a step reads the state it starts from
            x_row[...] = y
            if trajectory:
                kept.append(y.copy())
        if node >= 0:  # on the last row written, with the other as thresholding scratch
            if pair:
                evaluate(spare, node, i + 1, y)
            else:
                evaluate(y, node, i, spare)
    del out, y, spare, flat  # dropped before the final state is allocated
    final = np.empty(model.dim)  # the final state owns its memory, not a row of work
    plan.final.dot(work, out=final)
    _guard(final, plan.trace[-1].index)
    if trajectory:
        kept.append(final.copy())
    return SampleResult(final=final, nfe=plan.nfe, trace=list(plan.trace), trajectory=kept)
