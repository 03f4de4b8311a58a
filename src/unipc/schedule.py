"""Variance-preserving noise schedules and time discretizations.

A schedule defines the forward-process marginal q(x_t | x_0) =
N(alpha_t x_0, sigma_t^2 I) on continuous time t in [t_end, t_start],
with alpha_t^2 + sigma_t^2 = 1.  The half log-SNR

    lambda_t = log(alpha_t / sigma_t)

is strictly decreasing in t and is the integration variable used by the
solvers; every schedule therefore exposes both lambda(t) and its inverse
t_of_lambda.  t_end is clipped away from 0 because lambda diverges there.

The forward maps (log_alpha, alpha, sigma, lam, alpha_sigma_lambda) take one
time and run once per model call, so they stay on Python floats and the math
module, behind log_alpha's one range check and clamp.  t_of_lambda takes a
number or an array of lambdas through one numpy implementation, so a grid, a
plan or a reference inverts all its nodes in one call; _maps is the array
form of the forward maps for the same callers.

Two families are provided:

  vp-linear: log alpha_t = -t^2 (beta_max - beta_min)/4 - t beta_min/2,
             with a closed-form inverse for t_of_lambda.
  vp-cosine: log alpha_t = log cos(pi/2 (t+s)/(1+s)) - log cos(pi/2 s/(1+s)),
             with the closed-form inverse
             t = 2(1+s)/pi acos(alpha cos(pi s/(2(1+s)))) - s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, ValidationError, typed

SCHEDULE_KINDS = ("vp-linear", "vp-cosine")
SKIP_KINDS = ("uniform-lambda", "uniform-time", "quadratic-time")
_NUMBER_FIELDS = ("beta_min", "beta_max", "cosine_s", "t_start", "t_end")

# Slack for range checks: round-tripped times may land a few ulp outside.
_EDGE_TOL = 1e-9


def _check_range(x: np.ndarray, lo: float, hi: float, name: str, what: str) -> None:
    """DomainError, naming the first offender, unless every element of x lies in
    [lo, hi] up to _EDGE_TOL (NaN never does)."""
    inside = (x >= lo - _EDGE_TOL) & (x <= hi + _EDGE_TOL)
    if not inside.all():
        raise DomainError(f"{name}={float(x[~inside][0])} outside {what} range [{lo}, {hi}]")


@dataclass(frozen=True)
class NoiseSchedule:
    """Immutable VP noise schedule over [t_end, t_start].

    Every field but kind must be a finite real number (not a bool), kept as
    given, so a schedule is a hashable value that can key sample()'s plan cache.
    """

    kind: str = "vp-linear"
    beta_min: float = 0.1
    beta_max: float = 20.0
    cosine_s: float = 0.008
    t_start: float = 1.0
    t_end: float = 1e-3

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ValidationError(f"unknown schedule kind {self.kind!r}")
        for name in _NUMBER_FIELDS:
            typed(getattr(self, name), "number", f"schedule field {name!r}")
        if not 0.0 < self.t_end < self.t_start:
            raise ValidationError("need 0 < t_end < t_start")
        if self.kind == "vp-linear" and not 0.0 < self.beta_min < self.beta_max:
            raise ValidationError("need 0 < beta_min < beta_max")
        if self.kind == "vp-cosine" and self.t_start >= 1.0:
            raise ValidationError("vp-cosine needs t_start < 1 (alpha vanishes at t=1)")
        if self.kind == "vp-cosine" and not self.cosine_s >= 0.0:
            raise ValidationError("vp-cosine needs cosine_s >= 0")
        try:
            usable = -math.inf < self.lambda_start < self.lambda_end < math.inf
        except (ValueError, OverflowError):  # sigma or alpha underflows to 0 at an end
            usable = False
        if not usable:
            raise ValidationError(f"no finite lambda range on [{self.t_end}, {self.t_start}]")

    @classmethod
    def from_json(cls, spec: dict) -> "NoiseSchedule":
        """Build from a JSON-style dict, e.g. {"kind": "vp-linear", "beta_min": 0.1, ...}."""
        spec = dict(typed(spec, "dict", "schedule"))
        kind = spec.pop("kind", "vp-linear")
        if kind == "vp-cosine":
            spec.setdefault("t_start", 0.9946)
        extra = set(spec) - set(_NUMBER_FIELDS)
        if extra:
            raise ValidationError(f"unknown schedule fields {sorted(extra)}")
        spec["cosine_s"] = spec.pop("cosine_s", 0.008)
        return cls(kind=kind, **spec)

    def to_json(self) -> dict:
        if self.kind == "vp-linear":
            return {
                "kind": self.kind,
                "beta_min": self.beta_min,
                "beta_max": self.beta_max,
                "t_start": self.t_start,
                "t_end": self.t_end,
            }
        return {
            "kind": self.kind,
            "cosine_s": self.cosine_s,
            "t_start": self.t_start,
            "t_end": self.t_end,
        }

    # -- forward-process coefficients ------------------------------------

    def log_alpha(self, t: float) -> float:
        """log alpha_t; DomainError unless t is in [t_end, t_start] up to _EDGE_TOL, then clamped."""
        t = float(t)
        if not self.t_end - _EDGE_TOL <= t <= self.t_start + _EDGE_TOL:
            raise DomainError(f"t={t} outside usable range [{self.t_end}, {self.t_start}]")
        if t < self.t_end:
            t = self.t_end
        elif t > self.t_start:
            t = self.t_start
        if self.kind == "vp-linear":
            return -0.25 * t * t * (self.beta_max - self.beta_min) - 0.5 * t * self.beta_min
        s = self.cosine_s
        return math.log(math.cos(0.5 * math.pi * (t + s) / (1.0 + s))) - math.log(
            math.cos(0.5 * math.pi * s / (1.0 + s))
        )

    def alpha(self, t: float) -> float:
        return math.exp(self.log_alpha(t))

    def sigma(self, t: float) -> float:
        # sigma^2 = 1 - alpha^2, via expm1 to keep precision near alpha ~ 1
        return math.sqrt(-math.expm1(2.0 * self.log_alpha(t)))

    def lam(self, t: float) -> float:
        """Half log-SNR lambda_t = log(alpha_t / sigma_t)."""
        la = self.log_alpha(t)
        return la - 0.5 * math.log(-math.expm1(2.0 * la))

    def alpha_sigma_lambda(self, t: float) -> tuple[float, float, float]:
        la = self.log_alpha(t)
        sig2 = -math.expm1(2.0 * la)
        return math.exp(la), math.sqrt(sig2), la - 0.5 * math.log(sig2)

    @cached_property
    def lambda_start(self) -> float:
        return self.lam(self.t_start)

    @cached_property
    def lambda_end(self) -> float:
        return self.lam(self.t_end)

    # -- inverse map -----------------------------------------------------

    def t_of_lambda(self, lam):
        """Invert lambda(t) in closed form from log alpha = -1/2 log(1 + e^{-2 lam}).

        lam is a number (a float comes back) or an array (an array of times
        of its shape comes back), element by element through the same numpy
        code.  Every element must lie in [lambda_start, lambda_end] up to
        _EDGE_TOL, else DomainError (NaN included); the two ends map to
        t_start and t_end exactly.  vp-linear takes the positive root of its
        quadratic in t; vp-cosine takes
        t = 2(1+s)/pi acos(alpha cos(pi s/(2(1+s)))) - s.
        """
        lam = np.asarray(lam, dtype=float)
        lo, hi = self.lambda_start, self.lambda_end
        _check_range(lam, lo, hi, "lambda", "achievable")
        log1p = np.logaddexp(-2.0 * lam, 0.0)  # log(1 + e^{-2 lam}) = -2 log alpha
        if self.kind == "vp-linear":
            # Solve (db/4) t^2 + (beta_min/2) t + log_alpha = 0 for the positive root,
            # rationalized for stability.
            db = self.beta_max - self.beta_min
            tmp = 2.0 * db * log1p
            t = tmp / ((np.sqrt(self.beta_min**2 + tmp) + self.beta_min) * db)
        else:
            s = self.cosine_s
            alpha = np.exp(-0.5 * log1p)
            t = 2.0 * (1.0 + s) / math.pi * np.arccos(alpha * math.cos(0.5 * math.pi * s / (1.0 + s))) - s
        # Exact endpoints: lambda(t_end) must map back to t_end itself.
        t = np.where(lam >= hi, self.t_end, np.where(lam <= lo, self.t_start, t))
        return float(t) if t.ndim == 0 else t

    def _maps(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(log alpha, lambda, sigma) at each of an array of times, as arrays.

        The array form of log_alpha, lam and sigma, with log_alpha's range
        check and clamp on every element.  vp-linear's log alpha is arithmetic
        alone and equals log_alpha's bit for bit; numpy's log, cos and expm1
        may differ from the math module's in the last place.
        """
        t = np.asarray(t, dtype=float)
        _check_range(t, self.t_end, self.t_start, "t", "usable")
        t = np.clip(t, self.t_end, self.t_start)
        if self.kind == "vp-linear":
            la = -0.25 * t * t * (self.beta_max - self.beta_min) - 0.5 * t * self.beta_min
        else:
            s = self.cosine_s
            la = np.log(np.cos(0.5 * math.pi * (t + s) / (1.0 + s))) - math.log(
                math.cos(0.5 * math.pi * s / (1.0 + s))
            )
        sig2 = -np.expm1(2.0 * la)
        return la, la - 0.5 * np.log(sig2), np.sqrt(sig2)


@dataclass(frozen=True)
class TimeGrid:
    """Strictly decreasing times t_0 > ... > t_M, kept as a read-only copy.

    A grid is its times alone: the schedule a run samples under maps them to
    lambda, so the same grid serves any schedule whose range holds its times.
    """

    times: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float)  # own copy, so a caller cannot change it
        if times.ndim != 1 or len(times) < 2:
            raise ValidationError("grid times must be a 1-d array of at least 2 times")
        if not np.all(np.diff(times) < 0):
            raise ValidationError("grid times must be strictly decreasing")
        times.setflags(write=False)
        object.__setattr__(self, "times", times)

    @property
    def num_steps(self) -> int:
        return len(self.times) - 1


def make_time_grid(sched: NoiseSchedule, M: int, skip_kind: str = "uniform-lambda") -> TimeGrid:
    """Discretize [t_end, t_start] into M steps (M+1 nodes), descending in t.

    M must be an int (not a bool; ValidationError) >= 1 (DomainError).
    """
    if typed(M, "int", "M") < 1:
        raise DomainError(f"need M >= 1 steps, got {M}")
    if skip_kind not in SKIP_KINDS:
        raise ValidationError(f"unknown skip kind {skip_kind!r}")
    if skip_kind == "uniform-lambda":
        return TimeGrid(sched.t_of_lambda(np.linspace(sched.lambda_start, sched.lambda_end, M + 1)))
    if skip_kind == "uniform-time":
        return TimeGrid(np.linspace(sched.t_start, sched.t_end, M + 1))
    # quadratic-time: uniform in sqrt(t)
    roots = np.linspace(math.sqrt(sched.t_start), math.sqrt(sched.t_end), M + 1)
    times = roots**2
    times[0], times[-1] = sched.t_start, sched.t_end
    return TimeGrid(times)
