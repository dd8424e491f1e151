"""Quadrature and summation engines for the semi-infinite integrals.

Three families of computation recur in this package and each gets a
dedicated engine:

* smooth integrands on [0, inf) with exponential decay
  (``integrate_smooth_semi_infinite``), handled by one adaptive integral
  after the substitution x = L s/(1-s) onto [0, 1),
* integrands that oscillate like cos(omega*q)/q at large q
  (``integrate_oscillatory_tail``), integrated on the real axis up to a
  switch point Q and, beyond it, along the line Re q = Q with the
  caller's analytic continuation of the integrand, mapped as above: both
  stretches are one adaptive integral, whose seed pass also checks the
  continuation against the integrand,
* series with a geometric majorant |t_n| <= K r^n
  (``sum_exponential_series``), summed to a term count it fixes in advance.

The integrals share one Gauss-Kronrod 15 engine: ``_gk_apply`` evaluates
many panels per integrand call, and ``_refine`` bisects the panels whose
error is above their share of the tolerance; ``_adaptive_gk`` is a seed
pass followed by ``_refine``.

Every engine returns a :class:`QuadratureEstimate`; failure to converge is
reported through the ``converged`` flag, never by silent truncation or an
exception.  All engines are deterministic: identical inputs give
bit-identical results on one platform.

The package needs numpy only: the sine and cosine integrals behind
:func:`cosine_integral` are computed here (:func:`sici`).
"""
from __future__ import annotations

import itertools
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
    ``switch_point`` Q ends the real-axis head and starts the tail on the
    line Re q = Q.  It must cover at least one full oscillation period
    2*pi/omega, over which the continuation's agreement check samples the
    integrand.  Both are stored as given, like ``DimensionlessPoint``'s
    fields: a float32 rate keeps the canonical force's float32 fault until
    ROADMAP item 2 makes the point coerce its coordinates.
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
# columns: the K15 weights, and K15 minus G7, whose nodes are the odd ones
_GK_W = np.stack([_GK_WK, _GK_WK], axis=1)
_GK_W[1::2, 1] -= _GK_WG

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
_MAX_TERMS = 10_000_000     # terms of one exponential series
_SERIES_BLOCK = 2 ** 16     # terms per numpy block of a series
# a smooth semi-infinite integral maps x = L s/(1-s) with L = 4 decay
# lengths onto 8 equal seed panels of [0, 1), and its integrand is zero past
# 200 decay lengths
_MAP_LENGTHS = 4.0
_MAP_EDGES = np.linspace(0.0, 1.0, 9)
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
    """Gauss-Kronrod 15 on the panels [lo, hi], float arrays, at once.

    ``f`` must accept a 1-D ndarray.  Returns (values, error estimates,
    evaluation count); the per-panel error estimate is |K15 - G7| plus a
    rounding floor, which overestimates the true K15 error on smooth panels.
    """
    n = lo.size
    vals = np.empty(n)
    errs = np.empty(n)
    # one dgemm per block gives K15 and K15 - G7 together; its sums do not
    # depend on a panel's place in its block unless the block is one row,
    # which takes the plain dot path, so a lone last panel joins the block
    # before it: then every block size gives the same bits
    i0 = 0
    for i1 in [*range(_GK_CHUNK, n - 1, _GK_CHUNK), n]:
        sl = slice(i0, i1)
        i0 = i1
        a, b = lo[sl], hi[sl]
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        x = mid[:, None] + half[:, None] * _GK_NODES
        y = np.asarray(f(x.ravel()), float).reshape(x.shape)
        kd = y @ _GK_W
        vals[sl] = half * kd[:, 0]
        errs[sl] = half * (np.abs(kd[:, 1]) + _EPS_FLOOR * np.abs(y).sum(axis=1))
    return vals, errs, 15 * n


def _adaptive_gk(f, edges, tol, max_evals=_MAX_EVALS):
    """Adaptive GK15 on the panels between consecutive ``edges``.

    One seed pass over the panels, then ``_refine``.  Seed panels that alone
    would take the evaluations past ``max_evals`` are not evaluated (value
    0, error inf).  Returns (value, error, evaluations, converged).
    """
    edges = np.asarray(edges, float)
    if 15 * (edges.size - 1) > max_evals:
        return 0.0, math.inf, 0, False
    lo, hi = edges[:-1], edges[1:]
    return _refine(f, lo, hi, *_gk_apply(f, lo, hi), tol, max_evals)


def _refine(f, lo, hi, vals, errs, evals, tol, max_evals):
    """Bisection rounds on the panels [lo, hi] whose GK15 values and errors
    are ``vals`` and ``errs``, after ``evals`` evaluations.

    Each round splits every panel whose error exceeds its share
    tol/(2 n) of the budget and evaluates only the two halves of each, so
    narrow features (the kernel's cavity resonances) get resolved locally.
    No round starts that would take the evaluations past ``max_evals``.
    The value is summed in panel order.  Returns (value, error,
    evaluations, converged).
    """
    err = float(errs.sum())
    for _ in range(_MAX_ROUNDS):
        if err <= tol:
            break
        split = errs > tol / (2.0 * lo.size)
        n_split = int(np.count_nonzero(split))
        # a round evaluates two halves of every split panel
        if not n_split or evals + 30 * n_split > max_evals:
            break
        keep = ~split
        a, b = lo[split], hi[split]
        mid = 0.5 * (a + b)
        lo = np.concatenate([lo[keep], a, mid])
        hi = np.concatenate([hi[keep], mid, b])
        cvals, cerrs, ne = _gk_apply(f, lo[-2 * n_split:], hi[-2 * n_split:])
        evals += ne
        vals = np.concatenate([vals[keep], cvals])
        errs = np.concatenate([errs[keep], cerrs])
        err = float(errs.sum())
    value = float(vals[np.argsort(lo, kind="stable")].sum())
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
    g, witness = _mapped_integrand(f, decay_scale)
    v, e, n, ok = _adaptive_gk(g, _MAP_EDGES, tol, _MAX_EVALS)
    err = e + witness()
    return QuadratureEstimate(v, err, n, ok and err <= tol)


def _mapped_integrand(f, decay_scale):
    """(g, witness): g(s) = f(x) dx/ds with x = L s/(1-s), L = 4 decay
    lengths, which maps [0, inf) onto [0, 1).  g is 0 from x_c = 200 decay
    lengths on, where f is not evaluated; witness() is x_c times the largest
    |f| seen so far on [x_c/2, x_c)."""
    scale = _MAP_LENGTHS * decay_scale
    x_cut = _DECAY_CUT * decay_scale
    s_cut = _DECAY_CUT / (_DECAY_CUT + _MAP_LENGTHS)   # x(s_cut) = x_cut
    far_max = 0.0

    def g(s):
        nonlocal far_max
        out = np.zeros(s.shape)
        m = s < s_cut
        sm = s[m]
        jac = scale / (1.0 - sm)
        x = jac * sm
        fx = np.asarray(f(x), float)
        out[m] = fx * (jac / (1.0 - sm))
        far = x >= 0.5 * x_cut
        if far.any():
            far_max = max(far_max, float(np.abs(fx[far]).max()))
        return out

    return g, lambda: x_cut * far_max


# unused by the engines: the benchmark's tracer binds it, and a test's Ci(10) oracle uses it
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
                               continuation, head_seeds=()) -> QuadratureEstimate:
    """Integrate f over [0, inf) when f ~ A*cos(omega*q)/q + O(1/q^2) at large q.

    The head [0, Q] is seeded at half the oscillation half-period, or Q/8
    where that is narrower.  The points of ``head_seeds`` that lie in
    (0, Q) become extra seed edges: the callers put them around the cavity
    resonances below Q, far narrower than a seed panel at large d, and the
    canonical force also where its Bose weight departs from q, a feature
    far narrower than a seed panel at low temperature.

    The tail [Q, inf) is taken on a rotated contour with the
    ``continuation`` h.  h must accept a complex ndarray, be analytic on
    the quarter plane Re q >= Q, Im q >= 0, have Re h = f on the real axis,
    and decay like e^{-omega Im q} (the force integrands' h is analytic
    there because |x| < 1 and the Bose poles lie on Re q = 0; see
    ``forces``, and ``thermo`` for the entropy density's).  Then
    int_Q^inf f dq = -int_0^inf Im h(Q + it) dt exactly (the arc at
    infinity vanishes): an exponentially decaying integral, mapped onto
    s in [0, 1) as in ``integrate_smooth_semi_infinite`` with decay scale
    1/omega, truncation witness included.

    Head and tail are one adaptive integral: the tail's 8 seed panels sit on
    x = Q + s in [Q, Q+1) after the head's edges, and one integrand calls f
    on the head's nodes and -Im h on the tail's, each only when it has any.
    ``converged`` needs the joint error estimate of all the panels, plus the
    tail's truncation witness, to be at most tol, so bisection spends the
    budget wherever the estimate asks for it rather than half on each side.

    The agreement check rides on the seed pass: f and h are also taken at
    48 points over one period beyond Q, appended to that pass's calls, and
    |f - Re h| <= 1e-12 (1 + max|f|) there or ``converged`` is cleared.
    It catches a real integrand that is not Re h, such as one computed in a
    truncated or lower precision type.  After a failed check the panels are
    refined only to max(tol, Q * mismatch + tol/2), not tol: refining
    further cannot make f better known than that.  The tail then integrates
    h, which is not the continuation of f, and nothing bounds the
    difference: the error estimate is inf, as for a panel
    ``_adaptive_gk`` did not evaluate.  All passes share one
    ``_MAX_EVALS``.
    """
    tol = require_real("tol", tol)
    omega = float(spec.angular_rate)
    q0 = float(spec.switch_point)
    h = continuation

    wseed = min(0.5 * math.pi / omega, q0 / 8.0)
    nseed = min(int(math.ceil(q0 / wseed)), 300000)
    seeds = np.asarray(head_seeds, float)
    # a seed on an edge makes a zero-width panel: value 0, error 0, never split
    edges = np.sort(np.concatenate([np.linspace(0.0, q0, nseed + 1),
                                    seeds[(seeds > 0.0) & (seeds < q0)]]))
    edges = np.concatenate([edges, q0 + _MAP_EDGES[1:]])
    nchk = 48
    q_chk = q0 + (np.arange(nchk) + 0.5) * (2.0 * math.pi / omega / nchk)
    chk = []    # [f(q_chk), h(q_chk)], taken by the integrand's first call

    def on_line(t):   # -Im h(Q + it); the first call also takes h(q_chk)
        if len(chk) == 1:
            hz = h(np.concatenate([q0 + 1j * t, q_chk + 0j]))
            chk.append(hz[t.size:])
            return -np.imag(hz[:t.size])
        return -np.imag(h(q0 + 1j * t))

    tail, witness = _mapped_integrand(on_line, 1.0 / omega)

    def g(x):
        # f on the head's nodes, the mapped tail on the rest; the first call
        # also takes f and h at q_chk, whether or not it has nodes of each
        first = not chk
        head = x < q0
        out = np.empty(x.shape)
        if first or head.any():
            qh = x[head]
            fx = np.asarray(f(np.concatenate([qh, q_chk]) if first else qh), float)
            if first:
                chk.append(fx[qh.size:])
            out[head] = fx[:qh.size]
        if first or not head.all():
            out[~head] = tail(x[~head] - q0)
        return out

    evals = 15 * (edges.size - 1) + 2 * nchk
    if evals > _MAX_EVALS:
        return QuadratureEstimate(0.0, math.inf, 0, False)
    lo, hi = edges[:-1], edges[1:]
    vals, errs, _ = _gk_apply(g, lo, hi)
    fq, hq = chk
    mismatch = float(np.abs(fq - hq.real).max())
    agree = mismatch <= _AGREEMENT * (1.0 + float(np.abs(fq).max()))
    target = tol if agree else max(tol, q0 * mismatch + 0.5 * tol)
    value, err, evals, ok = _refine(g, lo, hi, vals, errs, evals, target, _MAX_EVALS)
    err = err + witness() if agree else math.inf
    return QuadratureEstimate(value, err, evals, agree and ok and err <= tol)


def cosine_integral(x: float) -> float:
    """Ci(x) = -integral_x^inf cos(t)/t dt for real x > 0 of any type but bool.

    Evaluated in float64 by :func:`sici`: the power series up to x = 2, the
    continued fraction of E1(ix) beyond; absolute error at most 5e-16
    wherever |Ci| < 1.
    """
    return sici(require_real("x", x))[1]


def sum_exponential_series(terms, scale, ratio, tol: float = 1e-12) -> QuadratureEstimate:
    """Sum terms(n), n >= 1, given |terms(n)| <= scale * ratio**n.

    ``terms`` maps a float array of indices to the terms.  N, fixed before
    any term is evaluated, is the least count whose remainder bound
    scale * ratio**(N+1)/(1 - ratio) is at most tol/1000.  The N terms are
    evaluated in blocks of 2^16 and summed exactly by one ``math.fsum``;
    the estimate adds ``_EPS_FLOOR * sum|t_n|`` to that bound.  Past
    ``_MAX_TERMS`` terms, or for ratio >= 1 (estimate inf), converged=False.
    """
    tol = require_real("tol", tol)
    scale = require_real("scale", scale, inclusive=True)
    ratio = require_real("ratio", ratio, inclusive=True)
    if ratio >= 1.0:
        n_terms = math.inf
    elif ratio == 0.0 or scale == 0.0:
        n_terms = 1
    else:   # in logs, so that neither tol/1000 nor the bound underflows
        log_rem = math.log(tol) - math.log(1e3) - math.log(scale) + math.log1p(-ratio)
        n_terms = max(1, math.ceil(log_rem / math.log(ratio)) - 1)
    n = min(n_terms, _MAX_TERMS)
    sum_abs = 0.0

    def blocks():
        nonlocal sum_abs
        for n0 in range(1, n + 1, _SERIES_BLOCK):
            t = terms(np.arange(n0, min(n0 + _SERIES_BLOCK, n + 1), dtype=float))
            sum_abs += float(np.abs(t).sum())
            yield t.tolist()

    total = math.fsum(itertools.chain.from_iterable(blocks()))
    rem = scale * ratio ** (n + 1) / (1.0 - ratio) if ratio < 1.0 else math.inf
    err = rem + _EPS_FLOOR * sum_abs
    return QuadratureEstimate(total, err, n, n_terms <= _MAX_TERMS and err <= tol)


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
