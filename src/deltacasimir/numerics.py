"""Quadrature and summation engines for the semi-infinite integrals.

Three families of computation recur in this package and each gets a
dedicated engine:

* smooth integrands on [0, inf) with exponential decay
  (``integrate_smooth_semi_infinite``),
* integrands that oscillate like cos(omega*q)/q at large q
  (``integrate_oscillatory_tail``), handled by adaptive quadrature up to a
  switch point and half-period panels plus nonlinear sequence acceleration
  beyond it, with an independent cosine-integral closed form as a
  consistency cross-check,
* exponentially convergent series (``sum_exponential_series``).

Every engine returns a :class:`QuadratureEstimate`; failure to converge is
reported through the ``converged`` flag, never by silent truncation or an
exception.  All engines are deterministic: identical inputs give
bit-identical results on one platform.

``import deltacasimir`` does not load scipy: ``scipy.special`` supplies only
the cosine integral of the tail cross-check, and :func:`sici` imports it on
the first canonical force (or :func:`cosine_integral`) call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "QuadratureEstimate",
    "OscillatorySpec",
    "integrate_smooth_semi_infinite",
    "integrate_oscillatory_tail",
    "cosine_integral",
    "sum_exponential_series",
    "bose_factor",
    "thermal_weight",
]


@dataclass(frozen=True)
class QuadratureEstimate:
    """Value of an integral or sum together with honesty metadata.

    ``converged`` is only set when ``abs_error_estimate`` came in at or
    below the tolerance the caller requested.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    converged: bool


@dataclass(frozen=True)
class OscillatorySpec:
    """Shape parameters of a cos(omega*q)/q style tail.

    ``angular_rate`` is omega (2*d for the force integrands),
    ``switch_point`` is where half-period panel handling begins and must
    cover at least one full oscillation period 2*pi/omega.
    """

    angular_rate: float
    switch_point: float
    max_half_periods: int = 20000

    def __post_init__(self):
        if not (math.isfinite(self.angular_rate) and self.angular_rate > 0):
            raise DomainError(f"angular_rate must be positive, got {self.angular_rate!r}")
        if not (math.isfinite(self.switch_point) and self.switch_point > 0):
            raise DomainError(f"switch_point must be positive, got {self.switch_point!r}")
        if self.switch_point < 2.0 * math.pi / self.angular_rate:
            raise DomainError(
                "switch_point must cover one full oscillation period "
                f"2*pi/angular_rate = {2.0 * math.pi / self.angular_rate:g}"
            )
        if self.max_half_periods < 8:
            raise DomainError("max_half_periods must be at least 8")

    @classmethod
    def for_rate(cls, angular_rate: float, min_switch: float = 10.0,
                 max_half_periods: int = 20000) -> "OscillatorySpec":
        """Default spec: switch at max(min_switch, 4*pi/angular_rate)."""
        if not (math.isfinite(angular_rate) and angular_rate > 0):
            raise DomainError(f"angular_rate must be positive, got {angular_rate!r}")
        q0 = max(min_switch, 4.0 * math.pi / angular_rate)
        return cls(angular_rate, q0, max_half_periods)


# 15-point Kronrod nodes on [-1, 1]; the embedded 7-point Gauss rule sits on
# the odd indices.
_GK_NODES = np.array([
    -0.9914553711208126392068546975263285,
    -0.9491079123427585245261896840478513,
    -0.8648644233597690727897127886409262,
    -0.7415311855993944398638647732807884,
    -0.5860872354676911302941448382587296,
    -0.4058451513773971669066064120769615,
    -0.2077849550078984676006894037732449,
    0.0,
    0.2077849550078984676006894037732449,
    0.4058451513773971669066064120769615,
    0.5860872354676911302941448382587296,
    0.7415311855993944398638647732807884,
    0.8648644233597690727897127886409262,
    0.9491079123427585245261896840478513,
    0.9914553711208126392068546975263285,
])
_GK_WK = np.array([
    0.0229353220105292249637320080589695,
    0.0630920926299785532907006631892042,
    0.1047900103222501838398763225415180,
    0.1406532597155259187451895905102379,
    0.1690047266392679028265834265985503,
    0.1903505780647854099132564024210137,
    0.2044329400752988924141619992346491,
    0.2094821410847278280129991748917143,
    0.2044329400752988924141619992346491,
    0.1903505780647854099132564024210137,
    0.1690047266392679028265834265985503,
    0.1406532597155259187451895905102379,
    0.1047900103222501838398763225415180,
    0.0630920926299785532907006631892042,
    0.0229353220105292249637320080589695,
])
_GK_WG = np.array([
    0.1294849661688696932706114326790820,
    0.2797053914892766679014677714237796,
    0.3818300505051189449503697754889751,
    0.4179591836734693877551020408163265,
    0.3818300505051189449503697754889751,
    0.2797053914892766679014677714237796,
    0.1294849661688696932706114326790820,
])

_EPS_FLOOR = 1e-16
_MAX_EVALS = 8_000_000
# panels per integrand call; bounds each call's temporaries at about 1 MB
_GK_CHUNK = 8192


def sici(x):
    """scipy.special.sici(x) = (Si(x), Ci(x)).  scipy.special is imported on
    the first call rather than with this module: it is the costliest import
    of the package, and only the oscillatory-tail cross-check needs it."""
    from scipy.special import sici as _sici

    return _sici(x)


def _gk_apply(f, lo, hi):
    """Gauss-Kronrod 15 on many panels at once.

    ``f`` must accept a 1-D ndarray.  Returns (values, error estimates,
    evaluation count); the per-panel error estimate is |K15 - G7| plus a
    rounding floor, which overestimates the true K15 error on smooth panels.
    """
    lo = np.asarray(lo, float)
    hi = np.asarray(hi, float)
    n = lo.size
    vals = np.empty(n)
    errs = np.empty(n)
    for i0 in range(0, n, _GK_CHUNK):
        sl = slice(i0, min(i0 + _GK_CHUNK, n))
        a, b = lo[sl], hi[sl]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * _GK_NODES[None, :]
        y = np.asarray(f(x.ravel()), float).reshape(x.shape)
        ik = half * (y @ _GK_WK)
        ig = half * (y[:, 1::2] @ _GK_WG)
        vals[sl] = ik
        errs[sl] = np.abs(ik - ig) + _EPS_FLOOR * half * np.abs(y).sum(axis=1)
    return vals, errs, 15 * n


def _adaptive_gk(f, edges, tol, max_evals=_MAX_EVALS, max_rounds=48):
    """Adaptive bisection driven by the per-panel GK15 estimates.

    Each round splits every panel whose error exceeds its share of the
    budget, so narrow features (the kernel's cavity resonances) get resolved
    locally.  Returns (value, error, evaluations, converged).
    """
    edges = np.asarray(edges, float)
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    vals, errs, evals = _gk_apply(f, lo, hi)
    for _ in range(max_rounds):
        total_err = float(errs.sum())
        if total_err <= tol or evals >= max_evals:
            break
        share = tol / (2.0 * lo.size)
        mask = errs > share
        if not mask.any():
            break
        la, ha = lo[mask], hi[mask]
        mid = 0.5 * (la + ha)
        clo = np.concatenate([la, mid])
        chi = np.concatenate([mid, ha])
        cvals, cerrs, ne = _gk_apply(f, clo, chi)
        evals += ne
        keep = ~mask
        lo = np.concatenate([lo[keep], clo])
        hi = np.concatenate([hi[keep], chi])
        vals = np.concatenate([vals[keep], cvals])
        errs = np.concatenate([errs[keep], cerrs])
    order = np.argsort(lo, kind="stable")
    value = float(vals[order].sum())
    err = float(errs.sum())
    return value, err, evals, err <= tol


def integrate_smooth_semi_infinite(f, decay_scale, tol, *,
                                   max_blocks: int = 80,
                                   max_evals: int = _MAX_EVALS) -> QuadratureEstimate:
    """Integrate a smooth exponentially decaying f over [0, inf).

    Parameters
    ----------
    f : callable
        Vectorized integrand, |f(x)| <= M*exp(-x/decay_scale) for large x.
    decay_scale : float
        Positive decay length; blocks of width 7*decay_scale are integrated
        adaptively until the running block is negligible.
    tol : float
        Absolute tolerance.  The geometric remainder bound from the last two
        blocks is folded into the reported error estimate.
    max_blocks, max_evals : int
        Hard caps; hitting either reports converged=False, never a silently
        truncated value.
    """
    if not (math.isfinite(decay_scale) and decay_scale > 0):
        raise DomainError(f"decay_scale must be positive, got {decay_scale!r}")
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive, got {tol!r}")
    w = 7.0 * decay_scale
    value = 0.0
    err = 0.0
    evals = 0
    all_ok = True
    prev = None
    converged = False
    for j in range(max_blocks):
        a = j * w
        btol = tol * max(0.5 ** (j + 3), 1.0 / 256.0)
        v, e, ne, ok = _adaptive_gk(f, np.linspace(a, a + w, 9), btol,
                                    max_evals=max(1, max_evals - evals))
        value += v
        err += e
        evals += ne
        all_ok &= ok
        if prev is not None and abs(v) <= 0.1 * tol:
            r = 0.0 if prev == 0.0 else min(abs(v) / abs(prev), 0.9)
            err += abs(v) * r / (1.0 - r)
            converged = all_ok and err <= tol
            break
        prev = abs(v)
    return QuadratureEstimate(value, err, evals, converged)


def _wynn_epsilon(sums):
    """Wynn's epsilon extrapolation of a sequence of partial sums.

    Returns (best estimate, change between the last two even-column
    estimates).  Stops early on degenerate (zero) denominators, which simply
    means the sequence already converged.
    """
    cols_prev2 = [0.0] * (len(sums) + 1)
    cols_prev = list(sums)
    best = [sums[-1]]
    k = 1
    while len(cols_prev) >= 2:
        cur = []
        for j in range(len(cols_prev) - 1):
            denom = cols_prev[j + 1] - cols_prev[j]
            if denom == 0.0 or not math.isfinite(denom):
                cur = None
                break
            cur.append(cols_prev2[j + 1] + 1.0 / denom)
        if cur is None or not cur:
            break
        if k % 2 == 0:
            best.append(cur[-1])
        cols_prev2 = cols_prev
        cols_prev = cur
        k += 1
    if len(best) >= 2:
        return best[-1], abs(best[-1] - best[-2])
    delta = abs(sums[-1] - sums[-2]) if len(sums) > 1 else math.inf
    return best[-1], delta


def integrate_oscillatory_tail(f, spec: OscillatorySpec, tol, *,
                               max_evals: int = _MAX_EVALS) -> QuadratureEstimate:
    """Integrate f over [0, inf) when f ~ A*cos(omega*q)/q + O(1/q^2) at large q.

    The head [0, Q] is done by adaptive panels seeded at half the
    oscillation half-period.  Beyond Q the integral is summed over panels
    between consecutive zeros of cos(omega*q); the alternating partial sums
    are extrapolated with Wynn's epsilon algorithm evaluated on a trailing
    window, and the drift between the estimates at N and N/2 panels supplies
    the error estimate (the plain epsilon increment is overoptimistic for
    the non-alternating 1/q^2 component).

    Independently, A and the sin coefficient are fitted from tail samples
    and the leading closed form -A*Ci(omega*Q) + B*(pi/2 - Si(omega*Q)) is
    compared against the accelerated tail; disagreement beyond the combined
    error estimates clears ``converged``.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive, got {tol!r}")
    omega = spec.angular_rate
    q0 = spec.switch_point
    half = math.pi / omega

    wseed = min(0.5 * half, q0 / 8.0)
    nseed = min(int(math.ceil(q0 / wseed)), 300000)
    head_v, head_e, head_n, head_ok = _adaptive_gk(f, np.linspace(0.0, q0, nseed + 1),
                                                   0.5 * tol, max_evals=max_evals)
    evals = head_n

    # stub panel up to the first zero of cos(omega q) strictly beyond Q
    m0 = math.ceil(omega * q0 / math.pi - 0.5)
    z0 = (m0 + 0.5) * math.pi / omega
    while z0 <= q0:
        z0 += half
    stub_v, stub_e, stub_n, stub_ok = _adaptive_gk(f, np.array([q0, z0]), 0.125 * tol,
                                                   max_evals=max(1, max_evals - evals))
    evals += stub_n

    tail_tol = 0.25 * tol
    sums: list[float] = []
    ests: list[tuple[int, float]] = []
    total = 0.0
    perr = 0.0
    best_est = None
    best_err = math.inf
    tail_ok = False
    prev_batch_abs = None
    n_done = 0
    batch = 64
    while n_done < spec.max_half_periods and evals < max_evals:
        nb = min(batch, spec.max_half_periods - n_done)
        edges = z0 + (n_done + np.arange(nb + 1)) * half
        v, e, ne = _gk_apply(f, edges[:-1], edges[1:])
        evals += ne
        run = total + np.cumsum(v)
        sums.extend(run.tolist())
        total = float(run[-1])
        perr += float(e.sum())
        n_done += nb

        batch_abs = float(np.abs(v).sum())
        if (prev_batch_abs is not None and batch_abs <= 0.125 * tail_tol
                and batch_abs <= prev_batch_abs):
            # dead tail (exponential decay, or identically zero): plain sum
            r = 0.0 if prev_batch_abs == 0.0 else min(batch_abs / prev_batch_abs, 0.9)
            rem = batch_abs * r / (1.0 - r)
            if perr + rem <= tail_tol:
                best_est, best_err, tail_ok = total, perr + rem, True
                break
        prev_batch_abs = batch_abs

        est, delta = _wynn_epsilon(sums[-40:])
        halves = [e2 for (n2, e2) in ests if n2 <= n_done // 2]
        ests.append((n_done, est))
        if halves:
            cand = abs(est - halves[-1]) + delta + perr
            if cand < best_err:
                best_est, best_err = est, cand
            if cand <= tail_tol:
                tail_ok = True
                break
    if best_est is None:
        best_est = total
        best_err = perr + (abs(sums[-1] - sums[-2]) if len(sums) > 1 else math.inf)

    # independent consistency check of the accelerated tail against the
    # cosine-integral closed form for the fitted leading oscillation
    nfit = 48
    qs = q0 + (np.arange(nfit) + 0.5) * (4.0 * half / nfit)
    gq = np.asarray(f(qs), float) * qs
    evals += nfit
    basis = np.column_stack([np.cos(omega * qs), np.sin(omega * qs)])
    coef, *_ = np.linalg.lstsq(basis, gq, rcond=None)
    resid = gq - basis @ coef
    c2 = float(np.max(np.abs(resid) * qs))
    si_q, ci_q = sici(omega * q0)
    closed = -coef[0] * ci_q + coef[1] * (0.5 * math.pi - si_q)
    closed_err = c2 / q0 + 1e-13 * (1.0 + abs(coef[0]) + abs(coef[1]))
    tail_total = stub_v + best_est
    slack = 3.0 * (best_err + stub_e + closed_err) + 1e-12 * (1.0 + abs(tail_total) + abs(closed))
    consistent = abs(tail_total - closed) <= slack

    value = head_v + stub_v + best_est
    err = head_e + stub_e + best_err
    converged = head_ok and stub_ok and tail_ok and consistent and err <= tol
    return QuadratureEstimate(value, err, evals, converged)


def cosine_integral(x: float) -> float:
    """Ci(x) = -integral_x^inf cos(t)/t dt for x > 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x > 0):
        raise DomainError(f"cosine_integral requires x > 0, got {x!r}")
    return float(sici(x)[1])


def sum_exponential_series(term, n_start: int = 1, tol: float = 1e-12,
                           max_terms: int = 10_000_000) -> QuadratureEstimate:
    """Sum term(n) for n >= n_start assuming eventual geometric decay.

    Terms are added until the geometric remainder bound
    |t_n| * r/(1 - r), with r the last observed ratio (capped at 0.95),
    drops below ``tol`` on two consecutive terms.  ``evaluations`` records
    the truncation index; exceeding ``max_terms`` reports non-convergence.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be positive, got {tol!r}")
    total = 0.0
    sum_abs = 0.0
    prev = None
    consec = 0
    rem = math.inf
    n = n_start
    evals = 0
    while evals < max_terms:
        t = float(term(n))
        evals += 1
        total += t
        sum_abs += abs(t)
        if prev is not None:
            if abs(t) == 0.0:
                rem = 0.0
                consec += 1
            elif abs(t) < prev:
                r = min(abs(t) / prev, 0.95)
                rem = abs(t) * r / (1.0 - r)
                consec = consec + 1 if rem + _EPS_FLOOR * sum_abs <= tol else 0
            else:
                rem = math.inf
                consec = 0
            if consec >= 2:
                err = rem + _EPS_FLOOR * sum_abs
                return QuadratureEstimate(total, err, evals, err <= tol)
        prev = abs(t)
        n += 1
    err = rem if math.isfinite(rem) else abs(prev if prev is not None else 0.0)
    return QuadratureEstimate(total, err + _EPS_FLOOR * sum_abs, evals, False)


def bose_factor(q, That):
    """Thermal occupancy boost 1/(1 - exp(-q/That)) for q > 0, That > 0.

    Evaluated through expm1 so the q/That -> 0 Laurent behavior
    That/q + 1/2 + O(q/That) comes out to full relative precision.
    Accepts scalars or arrays.
    """
    q_arr = np.asarray(q, float)
    if not np.all(np.isfinite(q_arr)) or not np.all(q_arr > 0):
        raise DomainError("bose_factor requires q > 0")
    if not (math.isfinite(That) and That > 0):
        raise DomainError(f"bose_factor requires That > 0, got {That!r}")
    out = 1.0 / (-np.expm1(-q_arr / That))
    return float(out) if np.isscalar(q) or getattr(q, "ndim", 1) == 0 else out


def thermal_weight(q, That):
    """(q/(2 That))^2 * csch(q/(2 That))^2, the entropy-kernel weight.

    Computed as b^2 with b = 2u e^{-u} / (1 - e^{-2u}), u = q/(2 That):
    smooth -> 1 as u -> 0, decays like 4 u^2 e^{-2u} for large u, and
    underflows to exactly 0 (never NaN) once e^{-u} is subnormal.
    Accepts scalars or arrays.
    """
    q_arr = np.asarray(q, float)
    if not np.all(np.isfinite(q_arr)) or not np.all(q_arr > 0):
        raise DomainError("thermal_weight requires q > 0")
    if not (math.isfinite(That) and That > 0):
        raise DomainError(f"thermal_weight requires That > 0, got {That!r}")
    u = q_arr / (2.0 * That)
    b = 2.0 * u * np.exp(-u) / (-np.expm1(-2.0 * u))
    out = b * b
    return float(out) if np.isscalar(q) or getattr(q, "ndim", 1) == 0 else out


def _thermal_weight_raw(q, That):
    """thermal_weight on an array that may contain q = 0 (limit 1)."""
    q = np.asarray(q, float)
    u = q / (2.0 * That)
    out = np.ones_like(u)
    m = u > 0
    out[m] = 2.0 * u[m] * np.exp(-u[m]) / (-np.expm1(-2.0 * u[m]))
    return out * out
