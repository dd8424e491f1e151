"""Quadrature and summation engines for the semi-infinite integrals.

Three families of computation recur in this package and each gets a
dedicated engine:

* smooth integrands on [0, inf) with exponential decay
  (``integrate_smooth_semi_infinite``), handled by one adaptive integral
  after the substitution x = L s/(1-s) onto [0, 1),
* integrands that oscillate like cos(omega*q)/q at large q
  (``integrate_oscillatory_tail``), handled by adaptive quadrature up to a
  switch point; beyond it, along the line Re q = Q when the caller gives
  an analytic continuation, else by half-period panels plus nonlinear
  sequence acceleration with an independent cosine-integral closed form
  as a consistency cross-check,
* exponentially convergent series (``sum_exponential_series``).

Every engine returns a :class:`QuadratureEstimate`; failure to converge is
reported through the ``converged`` flag, never by silent truncation or an
exception.  All engines are deterministic: identical inputs give
bit-identical results on one platform.

The package needs numpy only: the sine and cosine integrals of the
half-period tail's cross-check are computed here (:func:`sici`).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_real

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

    ``angular_rate`` is omega (2*d for the force integrands).
    ``switch_point`` Q ends the real-axis head and starts the tail: the
    half-period panels, or the line Re q = Q when the integral has a
    continuation.  It must cover at least one full oscillation period
    2*pi/omega, over which the continuation's agreement check or the
    cosine-integral check samples the integrand.  Both are
    stored as given, like ``DimensionlessPoint``'s fields: a float32 rate
    keeps the canonical force's float32 fault until ROADMAP item 2 makes
    the point coerce its coordinates.
    """

    angular_rate: float
    switch_point: float

    def __post_init__(self):
        omega = require_real("angular_rate", self.angular_rate)
        if require_real("switch_point", self.switch_point) < 2.0 * math.pi / omega:
            raise DomainError(
                "switch_point must cover one full oscillation period "
                f"2*pi/angular_rate = {2.0 * math.pi / omega:g}"
            )


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
_EULER_GAMMA = 0.57721566490153286061
# panels per integrand call: 256 x 15 nodes make 30 KiB float64 temporaries,
# which stay in cache and sit below glibc's 128 KiB mmap and trim thresholds,
# so the integrands' buffers are reused from the heap instead of being mapped,
# faulted in and unmapped again on every call
_GK_CHUNK = 256
# caps on the work of one engine call; hitting one reports converged=False
_MAX_EVALS = 8_000_000      # integrand evaluations of one integral
_MAX_ROUNDS = 48            # bisection rounds of one adaptive integral
_MAX_HALF_PERIODS = 20000   # half-period panels of an oscillatory tail
_MAX_TERMS = 10_000_000     # terms of one exponential series
# a smooth semi-infinite integral maps x = L s/(1-s) with L = 4 decay
# lengths, and its integrand is zero past 200 decay lengths
_MAP_LENGTHS = 4.0
_DECAY_CUT = 200.0
# |f - Re h| allowed between an oscillatory integrand and its continuation,
# relative to 1 + max|f|
_AGREEMENT = 1e-12


def sici(x):
    """(Si(x), Ci(x)) for a float x > 0.

    For x <= 2, the power series of Si and of Ci - gamma - ln x, whose n-th
    terms x^n/(n n!) are below 1e-19 by n = 25.  Beyond 2, the continued
    fraction e^{ix} E1(ix) = 1/(1+ix - 1^2/(3+ix - 2^2/(5+ix - ...))),
    with E1(ix) = -Ci(x) + i (Si(x) - pi/2), evaluated bottom-up from depth
    8 + 200/x; forward (modified Lentz) evaluation of the same ~100 levels
    drifts by up to 2.7e-15 just above x = 2.  Against 40-digit mpmath on
    [1e-3, 1e5] the absolute error is at most 5e-16 for Si, and for Ci
    wherever |Ci| < 1, its zeros included.
    """
    if x <= 2.0:
        si = ci = 0.0
        fact = 1.0   # x^n / n!
        for n in range(1, 26):
            fact *= x / n
            term = fact / n if n % 4 < 2 else -fact / n
            if n % 2:
                si += term
            else:
                ci += term
        return si, ci + math.log(x) + _EULER_GAMMA
    z = complex(1.0, x)
    f = 0j
    for j in range(8 + math.ceil(200.0 / x), 0, -1):
        f = -(j * j) / (z + 2 * j + f)
    e1 = complex(math.cos(x), -math.sin(x)) / (z + f)
    return 0.5 * math.pi + e1.imag, -e1.real


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
    # the weighted sums are BLAS dot products whose rounding depends on a
    # panel's place in its block (dgemv sums rows in groups of 4, and a
    # one-row block takes the plain dot path), so a lone last panel joins
    # the block before it: then every block size that is a multiple of 4
    # gives the same bits
    i0 = 0
    for i1 in [*range(_GK_CHUNK, n - 1, _GK_CHUNK), n]:
        sl = slice(i0, i1)
        i0 = i1
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


def _adaptive_gk(f, edges, tol, max_evals=_MAX_EVALS):
    """Adaptive bisection driven by the per-panel GK15 estimates.

    Each round splits every panel whose error exceeds its share of the
    budget, so narrow features (the kernel's cavity resonances) get resolved
    locally.  No round starts that would take the evaluations past
    ``max_evals``; seed panels that alone would pass it are not evaluated
    (value 0, error inf).  Returns (value, error, evaluations, converged).
    """
    edges = np.asarray(edges, float)
    if 15 * (edges.size - 1) > max_evals:
        return 0.0, math.inf, 0, False
    lo = edges[:-1].copy()
    hi = edges[1:].copy()
    vals, errs, evals = _gk_apply(f, lo, hi)
    for _ in range(_MAX_ROUNDS):
        total_err = float(errs.sum())
        if total_err <= tol:
            break
        share = tol / (2.0 * lo.size)
        mask = errs > share
        n_split = int(np.count_nonzero(mask))
        # a round evaluates two halves of every split panel
        if not n_split or evals + 30 * n_split > max_evals:
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


def integrate_smooth_semi_infinite(f, decay_scale, tol) -> QuadratureEstimate:
    """Integrate a smooth exponentially decaying f over [0, inf).

    Parameters
    ----------
    f : callable
        Vectorized integrand, |f(x)| <= M*exp(-x/decay_scale) for large x.
    decay_scale : float
        Positive decay length.  The substitution x = L s/(1-s) with
        L = 4*decay_scale maps [0, inf) onto [0, 1), where f(x) L/(1-s)^2
        is smooth and vanishes at s = 1 with all its derivatives: one
        adaptive integral from 8 equal seed panels covers it.  f is not
        evaluated beyond x_c = 200 decay lengths, where e^{-200} < 1e-86
        has made it zero.
    tol : float
        Absolute tolerance.  x_c times the largest |f| seen on
        [x_c/2, x_c) is added to the error estimate: it is zero for all
        practical purposes when f decays as promised, and it keeps an
        integrand that does not decay from converging to its truncation.

    Running out of bisection rounds or evaluations (``_MAX_EVALS``)
    reports converged=False, never a silently truncated value.
    """
    decay_scale, tol = require_real("decay_scale", decay_scale), require_real("tol", tol)
    return _smooth_mapped(f, decay_scale, tol, _MAX_EVALS)


def _smooth_mapped(f, decay_scale, tol, max_evals):
    """``integrate_smooth_semi_infinite`` on a budget of ``max_evals``
    integrand evaluations."""
    decay_scale = float(decay_scale)
    scale = _MAP_LENGTHS * decay_scale
    x_cut = _DECAY_CUT * decay_scale
    s_cut = _DECAY_CUT / (_DECAY_CUT + _MAP_LENGTHS)   # x(s_cut) = x_cut
    witness = 0.0

    def g(s):
        nonlocal witness
        out = np.zeros(s.shape)
        m = s < s_cut
        sm = s[m]
        jac = scale / (1.0 - sm)
        x = jac * sm
        fx = np.asarray(f(x), float)
        out[m] = fx * (jac / (1.0 - sm))
        far = x >= 0.5 * x_cut
        if far.any():
            witness = max(witness, x_cut * float(np.max(np.abs(fx[far]))))
        return out

    v, e, n, ok = _adaptive_gk(g, np.linspace(0.0, 1.0, 9), tol, max_evals=max_evals)
    err = e + witness
    return QuadratureEstimate(v, err, n, ok and err <= tol)


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


def integrate_oscillatory_tail(f, spec: OscillatorySpec, tol,
                               continuation=None) -> QuadratureEstimate:
    """Integrate f over [0, inf) when f ~ A*cos(omega*q)/q + O(1/q^2) at large q.

    The head [0, Q] is done by adaptive panels seeded at half the
    oscillation half-period.

    With a ``continuation`` h, the tail [Q, inf) is taken on a rotated
    contour.  h must accept a complex ndarray, be analytic on the quarter
    plane Re q >= Q, Im q >= 0, have Re h = f on the real axis, and decay
    like e^{-omega Im q} (the force integrands' h is analytic there because
    |x| < 1 and the Bose poles lie on Re q = 0; see ``forces``, and
    ``thermo`` for the entropy density's).  Then
    int_Q^inf f dq = -int_0^inf Im h(Q + it) dt exactly (the arc at
    infinity vanishes), an exponentially decaying integral done by
    ``integrate_smooth_semi_infinite``'s mapped adaptive integral with
    decay scale 1/omega.  An agreement check replaces the cosine-integral
    check below: |f - Re h| <= 1e-12 (1 + max|f|) at 48 points over one period
    beyond Q, or ``converged`` is cleared.  It catches a real integrand
    that is not Re h, such as one computed in a truncated or lower
    precision type.  Head, check and tail share one ``_MAX_EVALS``.

    Without one, the tail is summed over panels between consecutive zeros
    of cos(omega*q); the alternating partial sums are extrapolated with
    Wynn's epsilon algorithm evaluated on a trailing window, and the drift
    between the estimates at N and N/2 panels supplies the error estimate
    (the plain epsilon increment is overoptimistic for the non-alternating
    1/q^2 component).  Independently, A and the sin coefficient are fitted
    from tail samples and the leading closed form
    -A*Ci(omega*Q) + B*(pi/2 - Si(omega*Q)) is compared against the
    accelerated tail; disagreement beyond the combined error estimates
    clears ``converged``.
    """
    tol = require_real("tol", tol)
    omega = spec.angular_rate
    q0 = spec.switch_point
    half = math.pi / omega

    wseed = min(0.5 * half, q0 / 8.0)
    nseed = min(int(math.ceil(q0 / wseed)), 300000)
    head_edges = np.linspace(0.0, q0, nseed + 1)
    if continuation is not None:
        return _rotated_tail(f, continuation, omega, q0, head_edges, tol)
    head_v, head_e, head_n, head_ok = _adaptive_gk(f, head_edges, 0.5 * tol)
    evals = head_n

    # stub panel up to the first zero of cos(omega q) strictly beyond Q
    m0 = math.ceil(omega * q0 / math.pi - 0.5)
    z0 = (m0 + 0.5) * math.pi / omega
    while z0 <= q0:
        z0 += half
    stub_v, stub_e, stub_n, stub_ok = _adaptive_gk(f, np.array([q0, z0]), 0.125 * tol,
                                                   max_evals=_MAX_EVALS - evals)
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
    while n_done < _MAX_HALF_PERIODS and evals < _MAX_EVALS:
        nb = min(batch, _MAX_HALF_PERIODS - n_done)
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


def _rotated_tail(f, h, omega, q0, head_edges, tol):
    """``integrate_oscillatory_tail`` with a continuation h of f."""
    nchk = 48
    qs = q0 + (np.arange(nchk) + 0.5) * (2.0 * math.pi / omega / nchk)
    fq = np.asarray(f(qs), float)
    mismatch = float(np.max(np.abs(fq - np.real(h(qs + 0j)))))
    agree = mismatch <= _AGREEMENT * (1.0 + float(np.max(np.abs(fq))))
    evals = 2 * nchk
    head_v, head_e, head_n, head_ok = _adaptive_gk(f, head_edges, 0.5 * tol,
                                                   max_evals=_MAX_EVALS - evals)
    evals += head_n
    # int_Q^inf h dq = i int_0^inf h(Q + it) dt, whose real part is the tail
    tail = _smooth_mapped(lambda t: -np.imag(h(q0 + 1j * np.asarray(t, float))),
                          1.0 / omega, 0.5 * tol, _MAX_EVALS - evals)
    value = head_v + tail.value
    err = head_e + tail.abs_error_estimate
    converged = agree and head_ok and tail.converged and err <= tol
    return QuadratureEstimate(value, err, evals + tail.evaluations, converged)


def cosine_integral(x: float) -> float:
    """Ci(x) = -integral_x^inf cos(t)/t dt for real x > 0 of any type but bool.

    Evaluated in float64 by :func:`sici`: the power series up to x = 2, the
    continued fraction of E1(ix) beyond; absolute error at most 5e-16
    wherever |Ci| < 1.
    """
    return sici(require_real("x", x))[1]


def sum_exponential_series(term, tol: float = 1e-12) -> QuadratureEstimate:
    """Sum term(n) for n >= 1 assuming eventual geometric decay.

    Terms are added until the geometric remainder bound
    |t_n| * r/(1 - r), with r the last observed ratio, plus the rounding
    floor ``_EPS_FLOOR * sum|t_n|`` drops below ``tol`` on two consecutive
    terms.  ``evaluations`` records the truncation index.  Non-convergence
    is reported once the remainder is below a floor that alone exceeds
    ``tol``, or after ``_MAX_TERMS`` terms.
    """
    tol = require_real("tol", tol)
    total = 0.0
    sum_abs = 0.0
    prev = None
    consec = 0
    rem = math.inf
    n = 1
    evals = 0
    while evals < _MAX_TERMS:
        t = float(term(n))
        evals += 1
        total += t
        sum_abs += abs(t)
        if prev is not None:
            if abs(t) == 0.0:
                rem = 0.0
                consec += 1
            elif abs(t) < prev:
                r = abs(t) / prev
                rem = abs(t) * r / (1.0 - r)
                floor = _EPS_FLOOR * sum_abs
                if rem <= floor and floor > tol:
                    # more terms cannot bring the estimate below tol
                    return QuadratureEstimate(total, rem + floor, evals, False)
                consec = consec + 1 if rem + floor <= tol else 0
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


def _positive_q(q):
    """q > 0 as a float array: a scalar goes through ``require_real``, an
    array is checked elementwise."""
    if np.ndim(q) == 0:
        return np.asarray(require_real("q", q))
    q = np.asarray(q, float)
    if not np.all(np.isfinite(q)) or not np.all(q > 0):
        raise DomainError("q must be finite and > 0 everywhere")
    return q


def bose_factor(q, That):
    """Thermal occupancy boost 1/(1 - exp(-q/That)) for q > 0, That > 0.

    Evaluated through expm1 so the q/That -> 0 Laurent behavior
    That/q + 1/2 + O(q/That) comes out to full relative precision.
    Accepts scalars or arrays.
    """
    q_arr, That = _positive_q(q), require_real("That", That)
    out = 1.0 / (-np.expm1(-q_arr / That))
    return float(out) if q_arr.ndim == 0 else out


def thermal_weight(q, That):
    """(q/(2 That))^2 * csch(q/(2 That))^2, the entropy-kernel weight.

    Computed as b^2 with b = 2u e^{-u} / (1 - e^{-2u}), u = q/(2 That):
    smooth -> 1 as u -> 0, decays like 4 u^2 e^{-2u} for large u, and
    underflows to exactly 0 (never NaN) once e^{-u} is subnormal.
    Accepts scalars or arrays.
    """
    out = _thermal_weight_raw(_positive_q(q), require_real("That", That))
    return float(out) if np.ndim(out) == 0 else out


def _thermal_weight_raw(q, That):
    """thermal_weight on an array that may contain q = 0 (limit 1)."""
    q = np.asarray(q, float)
    u = np.atleast_1d(q / (2.0 * That))
    b = 2.0 * u
    e = np.negative(u)
    b *= np.exp(e, out=e)
    np.multiply(u, -2.0, out=e)
    np.negative(np.expm1(e, out=e), out=e)
    out = np.divide(b, e, out=np.ones_like(u), where=u > 0)
    out *= out
    return out if q.ndim else out[0]
