"""Exponential-integrator basis functions and predictor-corrector update coefficients.

Basis functions (scalar, h > 0):

    varphi_k(h) = integral_0^1 e^{(1-r) h} r^{k-1}/(k-1)! dr     (k >= 1)
    psi_k(h)    = integral_0^1 e^{(r-1) h} r^{k-1}/(k-1)! dr

with varphi_0 = e^h, psi_0 = e^{-h}.  Both satisfy one-term recursions
(varphi_{n+1} = (varphi_n - 1/n!)/h and psi_{n+1} = (1/n! - psi_n)/h) and
the everywhere-convergent series

    varphi_k(h) = sum_{j>=0} h^j / (j+k)!,    psi_k(h) = sum_{j>=0} (-h)^j / (j+k)!,

and, for psi, the positive-term form

    psi_k(h) = e^{-h} sum_{j>=0} h^j / (j! (k-1)! (j+k))     (k >= 1).

Each step up a recursion divides by h, which multiplies the error carried
from level k by about (k+1)/h where h is small, so the recursion is stable
only where h >= k + 1.  basis_table is the one evaluator: it takes the
recursion from h >= RECURSION_FROM, where that holds at every level up to
MAX_BASIS_K, and below it the two series, whose terms are all positive,
summed to as many terms as the largest step size of the call needs.

Update coefficients: an update with step size h from node P combines the
model outputs F_m at offsets r_0 < ... < r_k (in units of h, r = 0 for
node P) with coefficients u that solve the moment conditions

    sum_m u_m r_m^n = h n! varphi_{n+1}(h),     n = 0..k

(psi for data prediction), a plain Vandermonde system whose conditioning
depends only on the spacing of r.  On the differences D_m = F_m - F_P the
same update reads sum_m (w_m B(h) / r_m) D_m over the k nonzero offsets,
with the paper's weights w solving sum_m (r_m h)^{n-1} w_m B(h) =
h^n n! varphi_{n+1}(h), n = 1..k.  So B(h) cancels from u, and the
varying-coefficients weights w = C^{-1} v give the same u.  Only update_rows'
half_a1 (a single offset's weight pinned to 1/2) depends on B.

basis_table and moment_rows evaluate the basis and solve these systems for
many step sizes at once, update_rows turns them into the rows of a step
plan, and varphi and psi are one-element calls into basis_table.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, SingularSystemError, shown, typed

MAX_BASIS_K = 12
#: The one order cap: singlestep rows of order 6 already miss 1e-12 max|c| of an exact solve.
MAX_ORDER = 5

#: From this h on the upward recursion is stable at every level k <= MAX_BASIS_K.
RECURSION_FROM = MAX_BASIS_K + 1.0

BH_KINDS = ("b1", "b2")

_FACTORIALS = np.array([float(math.factorial(n)) for n in range(MAX_BASIS_K + 1)])
_INV_FACTORIALS = 1.0 / _FACTORIALS

#: Series coefficients, row j and column k: varphi_k(h) = sum_j h^j c_jk and
#: psi_k(h) = e^{-h} sum_j h^j d_jk, with psi_0 = e^{-h} (d_j0 = [j = 0]) and
#: varphi_0 = e^h set apart.  Either sum loses less than h^n/n! of itself
#: after n terms; _SERIES_REACH[n - 1] is the h up to which that is <= 1e-17,
#: and 64 terms reach h ~ 13.4 > RECURSION_FROM.
_SERIES_TERMS = 64
_VARPHI_SERIES = np.array([[1.0 / math.factorial(j + k) for k in range(MAX_BASIS_K + 1)]
                           for j in range(_SERIES_TERMS)])
_PSI_SERIES = np.array([[1.0 / (math.factorial(j) * math.factorial(k - 1) * (j + k)) if k
                          else float(j == 0) for k in range(MAX_BASIS_K + 1)]
                         for j in range(_SERIES_TERMS)])
_SERIES_REACH = np.array([(1e-17 * math.factorial(n)) ** (1.0 / n) for n in range(1, _SERIES_TERMS + 1)])


def bh_value(bh: str, h):
    """Normalizer B(h): b1 -> h, b2 -> e^h - 1 (elementwise for arrays).

    DomainError for an unknown bh; ValidationError unless h is an integer or float array
    or a real number that a float can hold."""
    typed(bh, BH_KINDS, "B(h) variant", DomainError)
    if not (isinstance(h, np.ndarray) and h.dtype.kind in "iuf"):
        typed(h, "real", "h")
    return h if bh == "b1" else np.expm1(h)


def varphi(k: int, h: float) -> float:
    """varphi_k(h); varphi_0 = e^h.  h must be a real number (ValidationError), finite
    and > 0 (DomainError)."""
    return float(basis_table(typed(h, "real", "h"), k)[k])


def psi(k: int, h: float) -> float:
    """psi_k(h); psi_0 = e^{-h}.  h must be a real number (ValidationError), finite
    and > 0 (DomainError)."""
    return float(basis_table(typed(h, "real", "h"), k, "data")[k])


def basis_table(hs, kmax: int, prediction: str = "noise") -> np.ndarray:
    """varphi_k(h) (noise) or psi_k(h) (data) for k = 0..kmax at every h of hs.

    Returns an (len(hs), kmax + 1) array, or a (kmax + 1,) one for a scalar h;
    DomainError unless kmax is an int (not a bool) in 0..MAX_BASIS_K and every h is finite
    and > 0.
    Below RECURSION_FROM each row is the series, one matmul of the powers h^j
    by the coefficient table; from there on the one-term recursion runs over
    those step sizes at once.
    """
    if not 0 <= typed(kmax, "int", "basis index k", DomainError) <= MAX_BASIS_K:
        raise DomainError(f"basis index k={shown(kmax, str)} outside supported range "
                          f"0..{MAX_BASIS_K}")
    hs = np.asarray(hs, dtype=float)
    if not np.all((hs > 0.0) & (hs < np.inf)):  # also NaN
        raise DomainError(f"need finite h > 0, got {hs.tolist()}")
    h = hs.reshape(-1)
    noise = prediction == "noise"
    small = h < RECURSION_FROM
    if small.all():
        out = _by_series(h, kmax, noise)
    else:
        out = np.empty((h.size, kmax + 1))
        out[small] = _by_series(h[small], kmax, noise)
        out[~small] = _by_recursion(h[~small], kmax, 1.0 if noise else -1.0)
    return out.reshape(hs.shape + (kmax + 1,))


def _by_series(hs: np.ndarray, kmax: int, noise: bool) -> np.ndarray:
    terms = 1 + int(np.searchsorted(_SERIES_REACH, hs.max(initial=0.0)))
    table = _VARPHI_SERIES if noise else _PSI_SERIES
    out = np.vander(hs, terms, increasing=True) @ table[:terms, :kmax + 1]
    if noise:
        out[:, 0] = np.exp(hs)
    else:
        out *= np.exp(-hs)[:, None]
    return out


def _by_recursion(hs: np.ndarray, kmax: int, sign: float) -> np.ndarray:
    out = np.empty((kmax + 1, hs.size))
    out[0] = np.exp(sign * hs)
    for n in range(kmax):
        out[n + 1] = sign * (out[n] - _INV_FACTORIALS[n]) / hs
    return out.T


def moment_rows(table: np.ndarray, hs, R) -> np.ndarray:
    """Solve sum_m u_m R[j, m]^n = h_j n! basis_{n+1}(h_j), n = 0..k, for each row j.

    R[j] holds k + 1 distinct offsets, one of them 0 for the node the step
    starts from; table is basis_table(hs, kmax) with kmax > k.  u_m are the
    coefficients on the model outputs at those offsets of an update whose
    weights solve their system exactly (see the module docstring): on D_m
    they are w_m B(h) / r_m, so B(h) cancels and u is the same for both
    variants.

    All rows are solved together by the Bjorck-Pereyra algorithm for
    Vandermonde systems (Golub & Van Loan, Algorithm 4.6.2): O(k^2) array
    operations on (n, k+1) arrays, so no (n, k+1, k+1) matrix is formed.
    """
    r = np.asarray(R, dtype=float).T  # one node per row: the slices below are cheap
    k = len(r) - 1
    u = (table[:, 1:k + 2] * np.asarray(hs, dtype=float)[:, None] * _FACTORIALS[:k + 1]).T
    for j in range(k):
        u[j + 1:] -= r[j] * u[j:-1]
    for j in range(k - 1, -1, -1):
        u[j + 1:] /= r[j + 1:] - r[:k - j]
        u[j:-1] -= u[j + 1:]
    return u.T


def update_rows(nodes, P, N, R: np.ndarray, bh: str = "b2", prediction: str = "noise",
                half_a1: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of a batch of predictor/corrector updates, x_next = a x + c @ F.

    nodes holds (log alpha, lambda, sigma) per node; row j steps from node
    P[j] to node N[j] and combines the model outputs F at the offsets R[j]
    (units of h, in node order, one 0 for node P[j] and NaN in leading
    columns it does not use, where c is 0).  The weights are solved exactly
    (moment_rows), except that half_a1 pins the weight of a single offset
    to 1/2.
    """
    la, lam, sigma = nodes
    h = lam[N] - lam[P]
    if prediction == "noise":  # first: the first-order coefficient h varphi_1(h), over scale
        a, scale, first = np.exp(la[N] - la[P]), -sigma[N], np.expm1(h)
    else:
        a, scale, first = sigma[N] / sigma[P], np.exp(la[N]), -np.expm1(-h)
    if (R[:, 1:] <= R[:, :-1]).any():
        raise SingularSystemError("offsets must be distinct and increasing along each update")
    width = R.shape[1]
    k = width - 1 - np.isnan(R).sum(axis=1)  # weights per row
    c = np.zeros(R.shape)
    for kk in set(k.tolist()):
        sel = k == kk
        Rk, hk = R[sel, width - kk - 1:], h[sel]
        if kk == 0:
            u = first[sel, None]
        elif kk == 1 and half_a1:
            u1 = 0.5 * bh_value(bh, hk) / Rk.sum(axis=1)  # the one nonzero offset
            u = np.where(Rk == 0.0, (first[sel] - u1)[:, None], u1[:, None])
        else:
            u = moment_rows(basis_table(hk, kk + 1, prediction), hk, Rk)
        c[sel, width - kk - 1:] = scale[sel, None] * u
    return a, c
