"""Model-evaluation contract, synthetic analytic models, and thresholding.

States are flat 1-d float64 arrays; the solver math is dimension-wise so no
richer shape is needed.  A ModelEvaluator wraps any callable (x, t) -> state
together with its parameterization kind ("noise" predicts the noise
component eps, "data" predicts the clean signal x0) and an invocation
counter used for NFE accounting, and rejects a result of any other shape
or one that does not hold integers or floats.  The two parameterizations are linked by

    x = alpha_t * x0_pred + sigma_t * eps_pred.

Synthetic families:

  x-free-poly:  eps(x, t) = sum_k c_k lambda_t^k per dimension, independent
                of x.  The sampling ODE then has a closed-form trajectory
                (exact_solution_xfree), giving a machine-precision oracle.
  linear-in-x:  eps(x, t) = kappa * x, Lipschitz in x, integrated by a fine
                reference solver instead.

A SyntheticModel keeps its coefficients as one read-only float64 array of
shape (dim, K), built once; the evaluators and the exact solution use it as
it is.

Dynamic thresholding (Imagen, by way of DPM-Solver++) needs the ratio
quantile of |x0| with ratio > 1/2, so only two order statistics of the
upper tail matter: ranks lo and lo + 1 (ascending) with lo = floor(vi),
vi = (n - 1) ratio.  A threshold tau taken from a strided subsample keeps
the candidates |x0| >= tau; these are the largest entries, so when there
are at least n - lo of them both ranks lie among them and only the
candidates are partitioned, at their shifted ranks.  Otherwise the whole
|x0| buffer is partitioned.  The two values are then interpolated as
numpy's "linear" quantile does, so the result is bit for bit
np.quantile(|x0|, ratio); an input with a NaN or an infinity takes
np.quantile itself.  Clipping and scaling then run in place.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError, ValidationError, typed
from .schedule import NoiseSchedule

PREDICTION_KINDS = ("noise", "data")
MODEL_FAMILIES = ("x-free-poly", "linear-in-x")
_F64 = np.dtype(float)  # a state's dtype: an ndarray of it needs no conversion


def _floats(value, what: str) -> np.ndarray:
    """value as a float64 array: ValidationError unless it holds integers or floats
    (not complex numbers, bools, strings or objects)."""
    try:
        arr = np.asarray(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{what} is not a numeric array: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise ValidationError(f"{what} is not a numeric array of integers or floats, "
                              f"got dtype {arr.dtype}")
    return arr.astype(float, copy=False)


def _check_dim(dim) -> int:
    """ValidationError unless dim is an int (not a bool) >= 1."""
    if not typed(dim, "int", "model dim") >= 1:
        raise ValidationError(f"model dim must be >= 1, got {dim}")
    return dim


def _state(value, dim: int | None, what: str) -> np.ndarray:
    """value as a float array: ValidationError unless it holds integers or floats and
    is 1-d, of length dim if one is given."""
    x = _floats(value, what)
    if x.ndim != 1 or dim is not None and x.size != dim:
        length = "" if dim is None else f" of length {dim}"
        raise ValidationError(f"{what} must be a 1-d array{length}, got shape {x.shape}")
    return x


class ModelEvaluator:
    """Deterministic, reentrant model callable with NFE accounting.

    fn must be callable and dim an int >= 1 (ValidationError)."""

    def __init__(self, fn: Callable[[np.ndarray, float], np.ndarray], prediction: str, dim: int):
        if prediction not in PREDICTION_KINDS:
            raise ValidationError(f"unknown prediction kind {prediction!r}")
        if not callable(fn):
            raise ValidationError(f"model function must be callable, got {fn!r}")
        self._fn = fn
        self.prediction = prediction
        self.dim = int(_check_dim(dim))
        self._shape = (self.dim,)
        self._count = 0
        self._lock = threading.Lock()

    def __call__(self, x: np.ndarray, t: float) -> np.ndarray:
        """fn(x, t) as a float array, which must be a state: the call is counted, then
        ValidationError unless x and the result hold integers or floats and the result
        has shape (dim,).  A float64 ndarray passes as it is."""
        with self._lock:
            self._count += 1
        if type(x) is not np.ndarray or x.dtype is not _F64:
            x = _floats(x, "model input")
        f = self._fn(x, float(t))
        if type(f) is not np.ndarray or f.dtype is not _F64:
            f = _floats(f, "model output")
        if f.shape != self._shape:
            raise ValidationError(f"model output must have shape ({self.dim},), got {f.shape}")
        return f

    @property
    def eval_count(self) -> int:
        return self._count


@dataclass(frozen=True, eq=False)
class SyntheticModel:
    """Analytic model spec; instantiate a callable via .evaluator().

    coeffs is one read-only, C-contiguous float64 (dim, K) array: row i holds
    the polynomial of dimension i (x-free-poly) or its gain (linear-in-x,
    K = 1).  The model keeps its own copy, so it stays immutable and compares
    by value.
    """

    family: str
    dim: int
    coeffs: np.ndarray

    def __post_init__(self):
        if self.family not in MODEL_FAMILIES:
            raise ValidationError(f"unknown model family {self.family!r}")
        _check_dim(self.dim)
        coeffs = np.array(self.coeffs, dtype=float, order="C")
        if coeffs.ndim != 2 or coeffs.shape[0] != self.dim:
            raise ValidationError("need one coefficient row per dimension")
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)

    def __eq__(self, other):
        if not isinstance(other, SyntheticModel):
            return NotImplemented
        return ((self.family, self.dim) == (other.family, other.dim)
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        return hash((self.family, self.dim))

    @property
    def closed_form(self) -> bool:
        """Whether an exact trajectory is available (x-independent model)."""
        return self.family == "x-free-poly"

    @property
    def degree(self) -> int:
        return self.coeffs.shape[1] - 1

    @staticmethod
    def _numbers(values) -> np.ndarray:
        """Coefficients as a float array; ValidationError unless non-empty, numeric and finite."""
        try:
            arr = _floats(values, "coefficients")
            ok = arr.size > 0 and bool(np.isfinite(arr).all())
        except ValidationError:  # ragged nesting, or not integers or floats
            ok = False
        if not ok:
            raise ValidationError(f"coefficients must be finite numbers, got {values!r}")
        return arr

    @classmethod
    def x_free_poly(cls, coeffs, dim: int) -> "SyntheticModel":
        arr = cls._numbers(coeffs)
        _check_dim(dim)
        if arr.ndim < 2:  # one polynomial for every dimension
            arr = np.broadcast_to(arr, (dim, arr.size))
        return cls(family="x-free-poly", dim=dim, coeffs=arr)

    @classmethod
    def linear_in_x(cls, kappa, dim: int) -> "SyntheticModel":
        arr = cls._numbers(kappa)
        _check_dim(dim)
        if arr.ndim == 0:
            arr = np.broadcast_to(arr, (dim,))
        if arr.ndim != 1 or arr.shape[0] != dim:
            raise ValidationError("linear-in-x takes a single gain per dimension")
        return cls(family="linear-in-x", dim=dim, coeffs=arr[:, None])

    @classmethod
    def from_json(cls, spec: dict) -> "SyntheticModel":
        """Build from e.g. {"family": "x-free-poly", "coeffs": [0.3, -1.2, 0.5], "dim": 4}."""
        spec = typed(spec, "dict", "model")
        family = spec.get("family")
        dim = _check_dim(spec.get("dim", 1))
        if family == "x-free-poly":
            build, names = cls.x_free_poly, ["coeffs"]
        elif family == "linear-in-x":
            build, names = cls.linear_in_x, ["kappa", "coeffs"]  # its gains, by either name
        else:
            raise ValidationError(f"unknown model family {family!r}")
        extra = sorted(set(spec) - {"family", "dim", *names})
        if extra:
            raise ValidationError(f"unknown {family} model fields {extra}")
        given = [name for name in names if name in spec]
        if not given:
            raise ValidationError(f"{family} model missing field {names[0]!r}")
        if len(given) > 1:
            raise ValidationError(f"{family} model takes {given[0]!r} or {given[1]!r}, not both")
        return build(spec[given[0]], dim)

    def to_json(self) -> dict:
        if self.family == "x-free-poly":
            return {"family": self.family, "coeffs": self.coeffs.tolist(), "dim": self.dim}
        return {"family": self.family, "kappa": self.coeffs[:, 0].tolist(), "dim": self.dim}

    def evaluator(self, sched: NoiseSchedule | None = None) -> ModelEvaluator:
        """Noise-prediction evaluator; x-free-poly needs the schedule for lambda(t)."""
        if self.family == "x-free-poly":
            if sched is None:
                raise ValidationError("x-free-poly evaluator needs a schedule")

            def fn(x, t, _C=self.coeffs, _P=np.arange(self.coeffs.shape[1]), _lam=sched.lam):
                return _C.dot(_lam(t) ** _P)

            return ModelEvaluator(fn, "noise", self.dim)

        def fn(x, t, _g=self.coeffs[:, 0]):
            return _g * x

        return ModelEvaluator(fn, "noise", self.dim)


def exact_solution_xfree(
    model: SyntheticModel,
    sched: NoiseSchedule,
    x_s: np.ndarray,
    s: float,
    t: float,
) -> np.ndarray:
    """Exact trajectory value x_t given x_s for an x-free polynomial model.

    x_t = (alpha_t/alpha_s) x_s - alpha_t * integral_{lambda_s}^{lambda_t}
    e^{-lambda} eps(lambda) dlambda, with the integral evaluated through the
    closed-form antiderivative of lambda^k e^{-lambda}:

        integral lambda^k e^{-lambda} dlambda = -e^{-lambda} sum_{j<=k} (k!/j!) lambda^j.

    x_s must be a 1-d array of length model.dim (ValidationError).
    """
    if model.family != "x-free-poly":
        raise DomainError("exact solution requires an x-free polynomial model")
    x_s = _state(x_s, model.dim, "x_s")
    la_s, la_t = sched.log_alpha(s), sched.log_alpha(t)
    lam_s, lam_t = sched.lam(s), sched.lam(t)
    if not lam_t > lam_s:
        raise DomainError(f"need t < s in time (lambda increasing), got s={s}, t={t}")

    def antideriv(k: int, lam: float) -> float:
        acc = sum(math.factorial(k) / math.factorial(j) * lam**j for j in range(k + 1))
        return -math.exp(-lam) * acc

    C = model.coeffs
    deltas = np.array([antideriv(k, lam_t) - antideriv(k, lam_s) for k in range(C.shape[1])])
    integral = C @ deltas
    alpha_t = math.exp(la_t)
    return math.exp(la_t - la_s) * x_s - alpha_t * integral


def convert_parameterization(m: ModelEvaluator, sched: NoiseSchedule) -> ModelEvaluator:
    """Wrap a noise model as a data model (or the inverse), one call per call.

    Outputs satisfy x = alpha_t * x0 + sigma_t * eps identically.
    """
    to_data = m.prediction == "noise"

    def fn(x, t):
        # (x - a f) / b with (a, b) = (sigma, alpha) to data, (alpha, sigma) to noise, as
        # (f * -a + x) / b: bitwise the same (u - v == u + (-v)) with one state-sized
        # temporary; the wrapped model's array is never written.
        alpha, sig, _ = sched.alpha_sigma_lambda(t)
        a, b = (sig, alpha) if to_data else (alpha, sig)
        y = m(x, t) * -a
        y += x
        y /= b
        return y

    return ModelEvaluator(fn, "data" if to_data else "noise", m.dim)


def dynamic_threshold(x0: np.ndarray, ratio: float = 0.995, floor: float = 1.0) -> np.ndarray:
    """Quantile-clip a data prediction: s = max(floor, ratio-quantile of |x0|),
    then clip to [-s, s] and divide by s.

    Returns a new array; x0 is not written.  The quantile is numpy's
    "linear" one, bit for bit, found by an exact selection of the two upper
    order statistics it interpolates (see the module docstring).  ratio must
    be a number in (0.5, 1] and floor a finite number >= 1 (DomainError).
    """
    x = np.array(x0, dtype=float)
    if x.size == 0:
        raise DomainError("cannot threshold an empty vector")
    if not 0.5 < _real(ratio, "ratio") <= 1.0:
        raise DomainError(f"ratio must lie in (0.5, 1], got {ratio}")
    if not 1.0 <= _real(floor, "floor") < math.inf:
        raise DomainError(f"floor must be a finite number >= 1, got {floor}")
    _threshold(x, float(ratio), float(floor))
    return x


def _real(value, what: str):
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return value
    raise DomainError(f"{what} must be a number, got {value!r}")


def _threshold(x: np.ndarray, ratio: float, floor: float) -> None:
    """dynamic_threshold written into the float array x; arguments already checked."""
    a = np.abs(x).ravel()
    top = float(a.max())
    q = _tail_quantile(a, ratio, top) if math.isfinite(top) else float(np.quantile(a, ratio))
    s = max(floor, q)
    x.clip(-s, s, out=x)
    x /= s


#: Stride of the tail selection's subsample, and the subsample entries it keeps beyond twice the need.
_STRIDE, _SLACK = 64, 8


def _tail_candidates(a: np.ndarray, need: int) -> np.ndarray:
    """Entries of a that include its `need` largest: those >= tau, tau taken from the
    strided subsample a[::_STRIDE], if at least `need` pass (entries below tau are
    below every one kept); otherwise a itself."""
    sub = a[::_STRIDE]
    j = 2 * (need // _STRIDE) + _SLACK  # subsample entries kept: about 2 need + 512 of a
    if j < sub.size:
        tau = np.partition(sub, sub.size - j)[sub.size - j]
        kept = a[a >= tau]
        if kept.size >= need:
            return kept
    return a


def _tail_quantile(a: np.ndarray, q: float, top: float) -> float:
    """float(np.quantile(a, q)) for finite a, q in (0.5, 1] and top = a.max(); a is reordered."""
    n = a.size
    vi = (n - 1) * q
    if vi >= n - 1:  # numpy takes the last entry
        return top
    lo = math.floor(vi)
    c = _tail_candidates(a, n - lo)
    k = lo - (n - c.size)  # ranks lo, lo + 1 of a are k, k + 1 of c
    c.partition((k, k + 1))
    below, above = float(c[k]), float(c[k + 1])
    gamma, diff = vi - lo, above - below
    # numpy's _lerp: from the upper end when gamma >= 1/2
    return above - diff * (1 - gamma) if gamma >= 0.5 else below + diff * gamma
