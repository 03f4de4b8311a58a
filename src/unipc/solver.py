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
keeps nothing.  _plan builds every plan in the form the cache shares, with
read-only arrays and tuples, and each result gets a fresh list of the
frozen StepRecords.  The cache holds at most _CACHE_STEPS = 4,096 plan
steps, under about 6.5 MB.

The plan owns the run layout: per update its a and c, the node it steps
from and lands on, the nodes it reads and the model call after it;
the driver is one config-free loop over those rows.  The run holds one
zeroed (K + 2, dim) work array [ring..., x, y]: the K latest model outputs
(node n's in row n % K; K is the widest row), the state x its step starts
from, and y, where updates land.  A plan row is c in ring slot order (0 in
slots it does not read), then a, so an update is one gemv,
row @ work[:K + 1] into work[K + 1], with no temporary; y is copied into
x's row once a step, and the last step writes into a fresh array that the
result owns.  correct and ddim_step, the one-step API for plugging UniC
into another sampler, apply a row [c..., a] over np.stack(outputs + [x]),
x last as in the driver, and build it alone.  They agree with the driver
to round-off, not always bit for bit: BLAS rounds a gemv by row width and
column order, and a solved row's basis series takes as many terms as the
largest h of its plan batch needs.

The multistep plan follows the warm-up discipline p_i = min(p, i), pushes
the model output evaluated at the *uncorrected* predictor result into the
history buffer, never corrects after the final predictor, and skips the
final unconsumed evaluation, so a run over M steps costs exactly M model
calls with the standard corrector (2M - 1 in oracle mode, which
re-evaluates at each corrected state).
"""

from __future__ import annotations

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
    typed,
)
from .model import ModelEvaluator, _state, _threshold
from .schedule import NoiseSchedule, TimeGrid

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


def _check_order(p, varying: bool) -> int:
    """The order cap, MAX_VARYING_ORDER for varying coefficients, else MAX_ORDER;
    ValidationError unless p is an int (not a bool) in 1..cap."""
    limit = coeffs.MAX_VARYING_ORDER if varying else coeffs.MAX_ORDER
    if not 1 <= typed(p, "int", "order") <= limit:
        raise ValidationError(f"order {p} outside 1..{limit}")
    return limit


def _check_prediction(model: ModelEvaluator, prediction: str) -> None:
    if model.prediction != prediction:
        raise ValidationError(
            f"model predicts {model.prediction!r} but config expects {prediction!r}"
        )


@dataclass(frozen=True)
class SolverConfig:
    """Sampling configuration; round-trips through JSON with lowercase enums.

    varying_coefficients selects the paper's step-size-independent weights
    w = C^{-1} v (UniPC_v): every weight solved, orders up to
    MAX_VARYING_ORDER = 5, named unipc_v-p.  Without it the weight of a
    single-offset update is pinned to 1/2, as in DPM-Solver++(2M).
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
        if self.variant not in VARIANTS:
            raise ValidationError(f"unknown variant {self.variant!r}")
        if self.bh not in coeffs.BH_KINDS:
            raise ValidationError(f"unknown bh {self.bh!r}")
        if self.prediction not in ("noise", "data"):
            raise ValidationError(f"unknown prediction {self.prediction!r}")
        if self.corrector not in CORRECTORS:
            raise ValidationError(f"unknown corrector {self.corrector!r}")
        typed(self.varying_coefficients, "bool", "varying_coefficients")
        limit = _check_order(self.order, self.varying_coefficients)
        if self.order_schedule is not None:
            digits = self.order_schedule
            if not (isinstance(digits, str) and digits.isascii() and digits.isdigit()) or "0" in digits:
                raise ValidationError(
                    f"order schedule must be digits 1-9, got {self.order_schedule!r}"
                )
            worst = max(int(d) for d in self.order_schedule)
            if worst > limit:
                raise ValidationError(f"order schedule entry {worst} exceeds limit {limit}")
        if self.thresholding is not None and not isinstance(self.thresholding, Thresholding):
            raise ValidationError(f"thresholding must be a Thresholding, got {self.thresholding!r}")
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
        return asdict(self)

    @classmethod
    def from_json(cls, spec: dict) -> "SolverConfig":
        spec = dict(typed(spec, "dict", "solver config"))
        th = spec.pop("thresholding", None)
        if th is not None:
            th = typed(th, "dict", "thresholding")
            extra, missing = sorted(set(th) - {"ratio", "floor"}), sorted({"ratio", "floor"} - set(th))
            if extra or missing:
                raise ValidationError(f"thresholding fields: unknown {extra}, missing {missing}")
            th = Thresholding(ratio=float(typed(th["ratio"], "number", "thresholding ratio")),
                              floor=float(typed(th["floor"], "number", "thresholding floor")))
        extra = set(spec) - {f.name for f in fields(cls)}
        if extra:
            raise ValidationError(f"unknown solver fields {sorted(extra)}")
        return cls(thresholding=th, **spec)


BufferEntry = namedtuple("BufferEntry", "t output")  # a model output buffered at time t


@dataclass
class SolverState:
    """Running iterate plus the history buffer of model outputs, at most capacity of them
    (an int >= 1, else ValidationError)."""

    x: np.ndarray
    buffer: list[BufferEntry] = field(default_factory=list)
    step_index: int = 0
    capacity: int = coeffs.MAX_ORDER

    def __post_init__(self):
        if not typed(self.capacity, "int", "capacity") >= 1:
            raise ValidationError(f"capacity must be >= 1, got {self.capacity}")

    def push(self, t: float, output: np.ndarray) -> None:
        """Buffer the model output at time t, which must lie below the last buffered time
        (ValidationError), and drop the oldest entries beyond capacity."""
        if self.buffer and not t < self.buffer[-1].t:
            raise ValidationError("buffer timesteps must be strictly decreasing in t")
        self.buffer.append(BufferEntry(t, output))
        del self.buffer[:-self.capacity]


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


# -- one-step wrappers ------------------------------------------------------------


def _update(sched: NoiseSchedule, x: np.ndarray, ts, outputs, opts: dict) -> np.ndarray:
    """The single update from the second-to-last node of ts to its last node, over the
    outputs at its first len(outputs) nodes."""
    nodes = sched._maps(ts)  # (log alpha, lambda, sigma), the one way every update uses
    P, lam = len(ts) - 2, nodes[1]
    R = (lam[:len(outputs)] - lam[P]) / (lam[-1] - lam[P])
    a, c = coeffs.update_rows(nodes, [P], [P + 1], R[None, :], **opts)
    return np.dot(np.append(c[0], a), np.stack(outputs + [x]))  # x last, as in sample()


def ddim_step(sched: NoiseSchedule, x: np.ndarray, eps_prev: np.ndarray, t_prev: float,
              t_next: float) -> np.ndarray:
    """First-order noise-prediction update (standalone DDIM).

    x and eps_prev must be 1-d arrays of one length (ValidationError otherwise),
    and t_next must lie below t_prev (DomainError), checked before any arithmetic.
    """
    if not t_next < t_prev:
        raise DomainError(f"t_next={t_next} is not below t_prev={t_prev}")
    x = _state(x, None, "x")
    eps_prev = _state(eps_prev, x.size, "eps_prev")
    return _update(sched, x, [t_prev, t_next], [eps_prev], {})


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
    order.  Checked before the model is called: config must be a SolverConfig
    with a corrector and no thresholding, p an int in 1..MAX_ORDER
    (1..MAX_VARYING_ORDER with varying coefficients), model must make
    config.prediction's kind, and state.x, x_pred and the p latest buffered
    outputs must be 1-d arrays of length model.dim (ValidationError), and
    t_next must lie below the last buffered time (DomainError).
    """
    if (not isinstance(config, SolverConfig) or config.corrector == "off"
            or config.thresholding is not None):
        raise ValidationError(
            f"correct() needs a SolverConfig with a corrector and no thresholding, got {config!r}")
    _check_order(p, config.varying_coefficients)
    _check_prediction(model, config.prediction)
    entries = _history(state, p)
    if not t_next < entries[-1].t:
        raise DomainError(f"t_next={t_next} is not below the last buffered t={entries[-1].t}")
    x = _state(state.x, model.dim, "state.x")
    outputs = [_state(e.output, model.dim, f"buffered output at t={e.t}") for e in entries]
    f_pred = model(_state(x_pred, model.dim, "x_pred"), t_next)
    _guard(f_pred, state.step_index + 1)
    corrected = _update(sched, x, [e.t for e in entries] + [t_next], outputs + [f_pred],
                        _row_options(config))
    oracle = config.corrector == "oracle"
    push = model(corrected, t_next) if oracle else f_pred
    _guard(push, state.step_index + 1)
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


def _coefficients(nodes, src, dst, low, corrector, config: SolverConfig, K: int):
    """The rows that _plan lays out, [c in ring slot order, a], built _BATCH rows at a time."""
    lam, single, opts = nodes[1], config.variant == "singlestep", _row_options(config)
    rows = np.zeros((len(src), K + 1))
    for j in range(0, len(src), _BATCH):
        batch = slice(j, j + _BATCH)
        P, N, L = (v[batch].astype(np.intp) for v in (src, dst, low))  # intp indexes faster
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


#: The shortest lambda step, relative to max(1, |lambda|) at its ends: 2^20 ulp.  A
#: lambda carries a few ulp of rounding, so a step this long is known to about six
#: digits; make_time_grid's steps stay above 2^36 ulp up to M = 10^5.
_MIN_STEP = 2.0**20 * np.finfo(float).eps

_Plan = namedtuple("_Plan", "rows ts src dst low corrector call bounds trace")


def _plan(sched: NoiseSchedule, grid: TimeGrid, config: SolverConfig, first: int) -> _Plan:
    """Compile steps first..M of a run into its updates, for all steps at once.

    The plan is the one owner of the run layout.  Its rows are the updates in
    the order the run applies them: per step the singlestep interior nodes
    m = 1..p-1, the predictor, then the corrector if the step is corrected.
    Row r steps from node src[r] (the state x its step starts from) to node
    dst[r], reads the outputs of nodes low[r]..dst[r] - 1 (and dst[r] if
    corrector[r]) and is rows[r] @ [ring, x]: ring holds the K latest outputs,
    node n's in row n % K, with K the widest row, and rows[r] is c in that
    slot order (0 in slots the row does not read), then a.  call[r]
    is the node whose model call follows the row, at its result, or -1 (a
    standard corrector, the run's last row).  ts holds the node times in
    evaluation order; step k is rows bounds[k]:bounds[k + 1], trace[k] its
    StepRecord.

    Rows take their offsets from the node lambdas (multistep: the grid nodes)
    or at the nominal fractions of a singlestep step from node b, which adds
    interior nodes b + m at lambda_b + (m/p) h, then its grid node b + p.
    The grid's lambdas come from sched; ValidationError unless each step is
    longer than _MIN_STEP max(1, |lambda| at its ends), so no step of a few ulp
    gives rows with offsets near 1/ulp.  The plan is returned in the form the plan cache shares: its
    arrays read-only, ts and trace tuples.
    """
    nodes = sched._maps(grid.times)  # (log alpha, lambda, sigma) at the grid times
    lam = nodes[1]
    ends = np.maximum(abs(lam[:-1]), abs(lam[1:]))
    if not np.all(np.diff(lam) > _MIN_STEP * np.maximum(ends, 1.0)):
        raise ValidationError("grid times do not map to strictly increasing lambdas under this "
                              "schedule, each step above 2^20 ulp of max(1, |lambda|)")
    M = grid.num_steps
    orders = config.resolved_orders(M)[first - 1:]
    p = np.array(orders, np.int32)  # node numbers are int32: the plan keeps several per row
    corr = (np.arange(first, M + 1) < M) & (config.corrector != "off")
    single = config.variant == "singlestep"
    ts, base = grid.times, np.arange(first - 1, M, dtype=np.int32)  # each step's start node
    if single:
        base = first - 1 + p.cumsum(dtype=np.int32) - p
        ts = _singlestep_times(sched, ts, nodes[1], p, first)
        nodes = sched._maps(ts)
    count = 1 + corr + (p - 1 if single else 0)  # rows per step
    bounds = np.zeros(len(p) + 1, int)  # step k is rows bounds[k]:bounds[k + 1]
    bounds[1:] = count.cumsum()
    last = bounds[1:] - 1  # each step's last row
    src, corrector = base.repeat(count), np.zeros(bounds[-1], bool)
    corrector[last] = corr
    dst = first - 1 + (~corrector).cumsum(dtype=np.int32)  # only correctors reuse a node
    low = src if single else dst - p.repeat(count)
    K = int((dst - low + corrector).max())  # the widest row: more slots would add zero terms
    rows = _coefficients(nodes, src, dst, low, corrector, config, K)  # temporaries die here
    call = np.where(corrector, -1, dst) if config.corrector == "standard" else dst.copy()
    call[-1] = -1
    ts = tuple(ts.tolist())  # below: a step's used_ts lists the nodes after its start b first
    trace = tuple(StepRecord(i, q, ts[b], ts[n], ts[b + 1:n] + ts[lo:b + 1] + ts[n:n + cr], cr)
                  for i, q, b, n, lo, cr in zip(range(first, M + 1), orders,
                                                *map(memoryview, (base, dst[last], low[last], corr))))
    for arr in (rows, src, dst, low, corrector, call, bounds):
        arr.flags.writeable = False
    return _Plan(rows, ts, src, dst, low, corrector, call, bounds, trace)


# -- plan cache -----------------------------------------------------------------

#: Plan steps the cache holds in all.  A study of the shipped shape (30 plans, 3,150
#: steps) fits whole.  A kept plan with its key costs 0.24-0.49 KB a step multistep,
#: at most about 1.53 KB a step (singlestep order 9) and about 1.46 KB for a one-step
#: plan (tracemalloc over a full cache), so the cache stays under about 6.5 MB, and
#: the set of key hashes seen once under 0.3 MB.
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


def sample(model: ModelEvaluator, sched: NoiseSchedule, grid: TimeGrid, config: SolverConfig,
           x_init: np.ndarray, *, warm_start: list[np.ndarray] | None = None,
           trajectory: bool = False) -> SampleResult:
    """Run the full sampling loop from x at t_0 = grid.times[0] down to t_M.

    warm_start optionally supplies already-accurate states for the first k
    grid nodes after t_0 (classic multistep starter injection); the loop then
    begins at step k+1 with a filled history buffer.  Total model calls stay
    at M for corrector in {off, standard} and 2M-1 for oracle (multistep).
    States are 1-d arrays of length model.dim; x_init and warm_start are
    never written, and the model must not keep the arrays it is given (the
    run reuses them).  trajectory=True also keeps a copy of every grid state.
    The grid's times must lie in the schedule's range (DomainError) and map to
    lambdas whose steps exceed _MIN_STEP max(1, |lambda|) under it
    (ValidationError), checked before any model call.  The step plan comes from the module's bounded plan cache;
    result.trace is a fresh list each call.
    """
    _check_prediction(model, config.prediction)
    x = _state(x_init, model.dim, "x_init")
    warm = [_state(xs, model.dim, f"warm_start[{j}]") for j, xs in enumerate(warm_start or [])]
    if len(warm) >= grid.num_steps:
        raise ValidationError("warm_start longer than the grid allows")
    plan = _cached_plan(sched, grid, config, len(warm) + 1)
    rows, K = plan.rows, plan.rows.shape[1] - 1
    # memoryviews index to Python scalars, cheaper per row than numpy's
    corrector, call, bounds = map(memoryview, (plan.corrector, plan.call, plan.bounds))
    # [ring: node n's output in row n % K, x, y], zeroed: a 0 coefficient meets unwritten slots
    work = np.zeros((K + 2, model.dim))
    F, y = work[:K + 1], work[K + 1]  # an update reads F and writes y, so they never overlap
    th, nfe = config.thresholding, 0

    def evaluate(x_at: np.ndarray, node: int, step: int) -> None:
        # Straight into the slot (its old output is dead), so the model's array
        # is freed before thresholding, which then works in the slot.
        nonlocal nfe
        out = work[node % K]
        out[...] = model(x_at, plan.ts[node])
        nfe += 1
        if th is not None:
            _threshold(out, th.ratio, th.floor)
        _guard(out, step)

    kept = [s.copy() for s in [x] + warm] if trajectory else None
    for n, x in enumerate([x] + warm):
        _guard(x, n)
        evaluate(x, n, n)
    work[K] = x
    for k, rec in enumerate(plan.trace):
        i = rec.index
        if k:
            work[K] = y  # one copy a step: every row of a step reads the state it starts from
        if k == len(plan.trace) - 1:
            y = np.empty(model.dim)  # the final state owns its memory, not a row of work
        for r in range(bounds[k], bounds[k + 1]):
            rows[r].dot(F, out=y)
            if not corrector[r]:
                _guard(y, i)
            if call[r] >= 0:
                evaluate(y, call[r], i)
            if corrector[r]:  # an oracle corrector's call comes first
                _guard(y, i)
        if trajectory:
            kept.append(y.copy())
    return SampleResult(final=y, nfe=nfe, trace=list(plan.trace), trajectory=kept)
