"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own evaluation paths: quadrature
rules are composed directly from function samples, so agreement with the
package is a genuine cross-check rather than a tautology.
"""

import math
from fractions import Fraction

import numpy as np


def simpson(f, a: float, b: float, panels: int) -> float:
    """Composite Simpson rule with the given number of panels."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.array([f(x) for x in xs])
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum()))


def simpson_vec(f, a: float, b: float, panels: int) -> float:
    """Simpson rule for integrands that accept a full numpy array."""
    xs = np.linspace(a, b, 2 * panels + 1)
    ys = np.asarray(f(xs))
    h = (b - a) / (2 * panels)
    return float(h / 3.0 * (ys[0] + ys[-1] + 4.0 * ys[1::2].sum() + 2.0 * ys[2:-1:2].sum()))


def trapezoid(f, a: float, b: float, panels: int) -> float:
    xs = np.linspace(a, b, panels + 1)
    ys = np.asarray(f(xs))
    return float(np.trapezoid(ys, xs))


def varphi_integrand(k: int, h: float):
    return lambda r: math.exp((1.0 - r) * h) * r ** (k - 1) / math.factorial(k - 1)


def psi_integrand(k: int, h: float):
    return lambda r: math.exp((r - 1.0) * h) * r ** (k - 1) / math.factorial(k - 1)


def basis_exact(h: float, kmax: int, sign: int) -> list[float]:
    """varphi_k(h) (sign +1) or psi_k(h) (sign -1) for k = 0..kmax, correctly rounded.

    The series sum_j (sign h)^j / (j+kmax)! is summed in exact rationals until
    what it leaves out is below 1e-40 even after the downward recursion
    basis_k = 1/k! + sign h basis_{k+1} (exact in rationals) multiplies it by
    h^kmax; only the final conversion to float rounds.
    """
    terms, bound = 0, max(1.0, h) ** kmax
    while bound > 1e-40:
        terms += 1
        bound *= h / terms
    x = sign * Fraction(h)
    acc = Fraction(1)
    for j in range(terms, 0, -1):  # Horner: 1 + x/(kmax+1) (1 + x/(kmax+2) (1 + ...))
        acc = 1 + acc * x / (kmax + j)
    values = [acc / math.factorial(kmax)]
    for k in range(kmax - 1, -1, -1):
        values.append(Fraction(1, math.factorial(k)) + x * values[-1])
    return [float(v) for v in reversed(values)]


def dynamic_threshold_reference(x0, ratio: float = 0.995, floor: float = 1.0) -> np.ndarray:
    """Dynamic thresholding through np.quantile on a copy of |x0|, then clip and divide."""
    x0 = np.asarray(x0, dtype=float)
    s = max(floor, float(np.quantile(np.abs(x0), ratio)))
    return np.clip(x0, -s, s) / s


def xfree_eps(C, lam: float) -> np.ndarray:
    """The x-free polynomial model's output at lambda: C @ (lam ** np.arange(K)), C (dim, K)."""
    return C @ (lam ** np.arange(C.shape[1]))


def log_alpha_reference(sched, t: float) -> float:
    """log alpha_t with the range check and the min(max(...)) clamp written out."""
    t = float(t)
    if not sched.t_end - 1e-9 <= t <= sched.t_start + 1e-9:
        raise ValueError(f"t={t} outside [{sched.t_end}, {sched.t_start}]")
    t = min(max(t, sched.t_end), sched.t_start)
    if sched.kind == "vp-linear":
        return -0.25 * t * t * (sched.beta_max - sched.beta_min) - 0.5 * t * sched.beta_min
    s = sched.cosine_s
    return math.log(math.cos(0.5 * math.pi * (t + s) / (1.0 + s))) - math.log(
        math.cos(0.5 * math.pi * s / (1.0 + s)))


def fitted_slope(hs, errors) -> float:
    """Least-squares slope of log2(error) vs log2(h)."""
    x = np.log2(np.asarray(hs, dtype=float))
    y = np.log2(np.asarray(errors, dtype=float))
    A = np.vstack([x, np.ones_like(x)]).T
    (slope, _), *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(slope)


# -- reference sampler ---------------------------------------------------------
#
# The per-step predictor-corrector formulas written out one step at a time, as
# a check on the step plan that unipc.solver compiles: offset and difference
# lists, the basis by its series, one Vandermonde solve per update (or the
# inverse A = C^{-1} for varying coefficients), and the same warm-up and
# buffering rules.  It uses the schedule's scalar maps and nothing else from
# the package.


def basis_series(k: int, h: float, sign: float) -> float:
    """varphi_k(h) (sign +1) or psi_k(h) (sign -1): sum_j (sign h)^j / (j+k)!, summed exactly."""
    return math.fsum((sign * h) ** j / math.factorial(j + k) for j in range(80))


def update_magnitude(a, x, coefficients, outputs):
    """|a||x| + sum_j (|c_j| + max_i |c_i|)|f_j| for an update a x + sum_j c_j f_j.

    The max_i |c_i| term stands for the error of the coefficients themselves: two ways
    of solving the moment system agree to a few ulps of the largest coefficient, not of
    each one (a small one comes out of cancellation).
    """
    wide = max(map(abs, coefficients))
    return abs(a) * np.abs(x) + sum((abs(c) + wide) * np.abs(f)
                                    for c, f in zip(coefficients, outputs))


def reference_update(sched, config, x, t_prev, t_next, f_prev, rs, Ds):
    """One noise- or data-prediction update from offsets rs and differences Ds, and its
    update_magnitude over x and the outputs it reads (f_prev and f_prev + D_m)."""
    la_p, la_n = sched.log_alpha(t_prev), sched.log_alpha(t_next)
    h = sched.lam(t_next) - sched.lam(t_prev)
    noise = config.prediction == "noise"
    if noise:
        a, first = math.exp(la_n - la_p), -sched.sigma(t_next) * math.expm1(h)
    else:
        a, first = sched.sigma(t_next) / sched.sigma(t_prev), -sched.alpha(t_next) * math.expm1(-h)
    out = a * x + first * f_prev
    if not rs:
        return out, update_magnitude(a, x, [first], [f_prev])
    k, sign = len(rs), 1.0 if noise else -1.0
    if config.varying_coefficients:
        C = np.array([[r ** (n - 1) / math.factorial(n) for r in rs] for n in range(1, k + 1)])
        v = np.array([basis_series(n + 1, h, sign) for n in range(1, k + 1)])
        w, B = np.linalg.inv(C) @ v, h
    else:
        B = h if config.bh == "b1" else math.expm1(h)
        if k == 1:
            w = np.array([0.5])
        else:
            V = np.array([[r ** (n - 1) for r in rs] for n in range(1, k + 1)])
            rhs = np.array([math.factorial(n) * basis_series(n + 1, h, sign) * h / B
                            for n in range(1, k + 1)])
            w = np.linalg.solve(V, rhs)
    acc = sum((wm / r) * D for wm, r, D in zip(w, rs, Ds))
    scale = -sched.sigma(t_next) * B if noise else sched.alpha(t_next) * B
    cs = [scale * wm / r for wm, r in zip(w, rs)]  # the coefficients on f_prev + D_m
    return out + scale * acc, update_magnitude(
        a, x, [first - sum(cs)] + cs, [f_prev] + [f_prev + D for D in Ds])


def reference_sample(model, sched, grid, config, x_init, warm_start=()):
    """Trajectory and model-call count of a run, one update at a time, and per state the
    magnitudes that the updates up to it combined (reference_update), summed along the run
    (0 for the given states)."""
    times = [float(t) for t in grid.times]
    M = len(times) - 1
    if config.order_schedule is None:
        orders = [min(config.order, i) for i in range(1, M + 1)]
    else:
        orders = [int(d) for d in config.order_schedule]
    x = np.asarray(x_init, dtype=float)
    buffer = [(times[0], model(x, times[0]))]  # (t, output), oldest first
    traj, nfe, total = [x], 1, np.zeros(x.shape)
    for j, xs in enumerate(warm_start, start=1):
        x = np.asarray(xs, dtype=float)
        buffer.append((times[j], model(x, times[j])))
        traj.append(x)
        nfe += 1
    sums = [total] * len(traj)
    for i in range(len(warm_start) + 1, M + 1):
        p, t_prev, t_next = orders[i - 1], times[i - 1], times[i]
        f_prev = buffer[-1][1]
        lam_prev = sched.lam(t_prev)
        h = sched.lam(t_next) - lam_prev
        if config.variant == "multistep":
            past = buffer[-p:-1]
            rs = [(sched.lam(t) - lam_prev) / h for t, _ in past]
            Ds = [f - f_prev for _, f in past]
        else:
            rs, Ds = [], []
            for m in range(1, p):
                s_m = sched.t_of_lambda(lam_prev + (m / p) * h)
                x_m, size = reference_update(sched, config, x, t_prev, s_m, f_prev,
                                             [j / m for j in range(1, m)], Ds)
                total = total + size
                Ds = Ds + [model(x_m, s_m) - f_prev]
                rs.append(m / p)
                nfe += 1
        x_pred, size = reference_update(sched, config, x, t_prev, t_next, f_prev, rs, Ds)
        total = total + size
        if i == M:
            x = x_pred
        else:
            f_pred = model(x_pred, t_next)
            nfe += 1
            push = f_pred
            if config.corrector != "off":
                x_pred, size = reference_update(sched, config, x, t_prev, t_next, f_prev,
                                                rs + [1.0], Ds + [f_pred - f_prev])
                total = total + size
                if config.corrector == "oracle":
                    push = model(x_pred, t_next)
                    nfe += 1
            buffer.append((t_next, push))
            x = x_pred
        traj.append(x)
        sums.append(total)
    return traj, nfe, sums


# -- fine RK4 ------------------------------------------------------------------


def rk4_reference(model, sched, x_T, t_start, t_end, steps: int) -> np.ndarray:
    """Classical RK4 on dx/dlambda = sigma^2 x - sigma eps(x, t) over `steps` uniform-lambda
    steps, one stage at a time: each stage inverts its own time through the scalar
    t_of_lambda and takes sigma = sqrt(1/(1 + e^{2 lambda})) from the math module."""

    def rhs(x, lam, t):
        sig = math.sqrt(1.0 / (1.0 + math.exp(2.0 * lam)))
        return sig * sig * x - sig * model(x, t)

    lams = np.linspace(sched.lam(t_start), sched.lam(t_end), steps + 1)
    ts = [sched.t_of_lambda(l) for l in lams]
    x = np.array(x_T, dtype=float)
    for j in range(steps):
        l0, l1 = lams[j], lams[j + 1]
        dl = l1 - l0
        lm = 0.5 * (l0 + l1)
        tm = sched.t_of_lambda(lm)
        k1 = rhs(x, l0, ts[j])
        k2 = rhs(x + 0.5 * dl * k1, lm, tm)
        k3 = rhs(x + 0.5 * dl * k2, lm, tm)
        k4 = rhs(x + dl * k3, l1, ts[j + 1])
        x = x + (dl / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return x
