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
error is above their share of the tolerance.  ``_refine`` is one loop over
several integrals at once: each panel carries the index of its integral,
its segment, and each integral keeps its own tolerance share, stopping
test, ``_MAX_EVALS`` and ``_MAX_ROUNDS`` caps and panel-order sums, so an
integral gets the same bits alone or in a batch.  ``_gk_segments`` is a
seed pass followed by ``_refine``, and ``_oscillatory_segments`` builds the
oscillatory integrals' panels, integrand and agreement checks around it;
``_adaptive_gk`` and ``integrate_oscillatory_tail`` are their batches of
one.  The entropy densities of one outer round are one batch, whose
bookkeeping takes a fixed number of array operations per pass, but for
one numpy (pairwise) sum per integral, the sum a lone call takes.

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
# where an oscillatory integrand is checked against its continuation: 48
# points spread over the period beyond Q, at (k + 1/2)/48 of it
_CHECK_POINTS = np.arange(48) + 0.5


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


def _gk_apply(f, lo, hi, seg):
    """Gauss-Kronrod 15 on the panels [lo, hi], float arrays, at once.

    ``f`` is called as f(x, s) on a 1-D ndarray of nodes x: s is ``seg``
    when that is one segment index (an int) for all panels, and each node's
    index when seg is an array of the panels' indices.  Returns (values,
    error estimates, evaluation count); the per-panel error estimate is
    |K15 - G7| plus a rounding floor, which overestimates the true K15
    error on smooth panels.
    """
    n = lo.size
    out = []   # (values, errors) of each block, joined when there are several
    # one dgemm per block gives K15 and K15 - G7 together; its sums do not
    # depend on a panel's place in its block unless the block is one row,
    # which takes the plain dot path, so a lone last panel joins the block
    # before it: then every block size gives the same bits
    for i0, i1 in itertools.pairwise([0, *range(_GK_CHUNK, n - 1, _GK_CHUNK), n]):
        a, b = lo[i0:i1], hi[i0:i1]
        half = 0.5 * (b - a)
        x = np.multiply.outer(half, _GK_NODES)
        x += (0.5 * (a + b))[:, None]
        s = seg if isinstance(seg, int) else np.repeat(seg[i0:i1], 15)
        y = np.asarray(f(x.ravel(), s), float).reshape(x.shape)
        kd = y @ _GK_W
        out.append((half * kd[:, 0],
                    half * (np.abs(kd[:, 1]) + _EPS_FLOOR * np.abs(y).sum(axis=1))))
    vals, errs = out[0] if len(out) == 1 else map(np.concatenate, zip(*out))
    return vals, errs, 15 * n


def _adaptive_gk(f, edges, tol, max_evals=None):
    """Adaptive GK15 of one integral on the panels between consecutive
    ``edges``: ``_gk_segments`` with the one segment 0, so f is called as
    f(x, 0).  Returns (value, error, evaluations, converged)."""
    v, e, n, ok = _gk_segments(f, np.asarray(edges, float), 0, [tol], max_evals)
    return float(v[0]), float(e[0]), n[0], bool(ok[0])


def _gk_segments(f, edges, seg, tol, max_evals=None, checks=0):
    """Adaptive GK15 of several integrals at once: one seed pass and one
    ``_refine`` loop for all of them.

    Integral s runs over the panels between consecutive ``edges`` whose
    ``seg`` is s (at least two edges each, sorted within a segment,
    segments 0, 1, ... in order; seg is the int 0 for a single integral)
    to the absolute tolerance tol[s], or to the tolerances ``tol()``
    returns after the seed pass when tol is callable; f(x, s) gets the
    segment index of the nodes (see ``_gk_apply``).  An integral whose
    seed panels and ``checks`` extra points alone would take it past
    ``max_evals`` (default ``_MAX_EVALS``) evaluations is not evaluated:
    value 0, error inf, 0 evaluations.  Returns lists (value, error,
    evaluations, converged), one entry per integral.
    """
    max_evals = _MAX_EVALS if max_evals is None else max_evals
    lo, hi = edges[:-1], edges[1:]
    if isinstance(seg, int):
        counts = [lo.size]
    else:   # the panels between two edges of one segment
        same = seg[1:] == seg[:-1]
        lo, hi, seg = lo[same], hi[same], seg[1:][same]
        counts = np.bincount(seg).tolist()
    evals = [15 * c + checks for c in counts]
    fits = [e <= max_evals for e in evals]
    if not all(fits):
        keep = np.repeat(fits, counts)
        lo, hi = lo[keep], hi[keep]
        if not lo.size:
            return [0.0] * len(fits), [math.inf] * len(fits), [0] * len(fits), fits
        seg = seg[keep]
        counts = [c * ok for c, ok in zip(counts, fits)]
        evals = [e * ok for e, ok in zip(evals, fits)]
    vals, errs, _ = _gk_apply(f, lo, hi, seg)
    value, err, evals, ok = _refine(f, lo, hi, seg, counts, vals, errs, evals,
                                    tol() if callable(tol) else tol, max_evals)
    for i, fit in enumerate(fits):
        if not fit:
            err[i], ok[i] = math.inf, False
    return value, err, evals, ok


def _seed_edges(stop, n, extra, extra_seg, ends=np.zeros(1)):
    """Seed edges of several integrals: integral s gets the n[s] points
    i * (stop[s]/n[s]) of np.linspace(0, stop[s], n[s] + 1), bit for bit,
    the points stop[s] + ``ends`` (0 gives linspace's last point), and the
    points of ``extra`` whose ``extra_seg`` is s, sorted; ``stop`` and
    ``n`` are lists or 1-D arrays.  Returns (edges, seg); for a single
    integral seg is the int 0, and extra_seg is not read.  A point on a
    grid edge makes a zero-width panel: value 0, error 0, never split."""
    if len(n) == 1:   # np.sort, not np.unique: the first np.unique call imports numpy.ma
        return np.sort(np.concatenate([np.arange(n[0]) * (stop[0] / n[0]), stop[0] + ends,
                                       extra])), 0
    stop, n = np.asarray(stop), np.asarray(n)
    seg = np.arange(n.size).repeat(n)
    i = np.arange(seg.size) - (n.cumsum() - n)[seg]
    edges = np.concatenate([i * (stop / n)[seg], np.add.outer(stop, ends).ravel(), extra])
    seg = np.concatenate([seg, np.arange(n.size).repeat(ends.size), extra_seg])
    # complex numbers sort by real part, then by imaginary part
    z = np.sort(seg + 1j * edges, kind="stable")
    return z.imag, z.real.astype(int)


def _refine(f, lo, hi, seg, counts, vals, errs, evals, tol, max_evals):
    """Bisection rounds on the panels [lo, hi] of several integrals, whose
    GK15 values and errors are ``vals`` and ``errs``; ``seg`` gives each
    panel's integral (non-decreasing; the int 0 for a single integral), and
    integral s has counts[s] panels, has spent evals[s] evaluations and
    asks for tol[s] (lists; counts and evals are updated in place).

    Each round splits every panel whose error exceeds its share
    tol[s]/(2 counts[s]) of its integral's budget and evaluates the two
    halves of all of them in one ``_gk_apply`` pass, so narrow features
    (the kernel's cavity resonances) get resolved locally.  An integral
    stops for good when its error sum is at most its tol, when it has no
    panel to split, or when a round would take its evaluations past
    ``max_evals``; no integral gets more than ``_MAX_ROUNDS`` rounds.  Its
    panels keep the order a lone integral gives them (kept panels, then
    left halves, then right halves: one stable sort by integral), and its
    error and value are numpy sums over its panels alone, the value in
    panel order: an integral gets the same bits in any batch.  Returns
    lists (value, error, evaluations, converged).
    """
    one = isinstance(seg, int)
    bounds = [0, *itertools.accumulate(counts)]
    err = [np.add.reduce(errs[i:j]) for i, j in zip(bounds, bounds[1:])]
    # a panel of integral s is split when its error is above share[s]; inf
    # once the integral is done
    share = [t / (2.0 * c) if e > t else math.inf for e, t, c in zip(err, tol, counts)]
    for _ in range(_MAX_ROUNDS):
        if min(share) == math.inf:
            break
        if one:
            split = errs > share[0]
            n_split = [int(np.count_nonzero(split))]
        else:
            split = errs > np.repeat(share, counts)
            n_split = np.bincount(seg[split], minlength=len(counts)).tolist()
        over = False
        for i, k in enumerate(n_split):
            # a round evaluates two halves of every split panel
            if k and evals[i] + 30 * k <= max_evals:
                evals[i] += 30 * k
            elif share[i] != math.inf:   # nothing to split, or no budget for it
                share[i] = math.inf
                over |= k > 0
                n_split[i] = 0
        if not any(n_split):
            break
        if over:
            split &= np.repeat([k > 0 for k in n_split], counts)
        keep = ~split
        a, b = lo[split], hi[split]
        mid = 0.5 * (a + b)
        lo = np.concatenate([lo[keep], a, mid])
        hi = np.concatenate([hi[keep], mid, b])
        s = seg if one else np.concatenate([seg[split]] * 2)
        cvals, cerrs, _ = _gk_apply(f, lo[-2 * a.size:], hi[-2 * a.size:], s)
        vals = np.concatenate([vals[keep], cvals])
        errs = np.concatenate([errs[keep], cerrs])
        if not one:   # each integral's kept, left and right panels in turn
            seg = np.concatenate([seg[keep], s])
            order = seg.argsort(kind="stable")
            lo, hi, vals, errs, seg = lo[order], hi[order], vals[order], errs[order], seg[order]
        for i, k in enumerate(n_split):
            counts[i] += k
            bounds[i + 1] = bounds[i] + counts[i]
            if k:
                err[i] = np.add.reduce(errs[bounds[i]:bounds[i + 1]])
                share[i] = tol[i] / (2.0 * counts[i]) if err[i] > tol[i] else math.inf
    # complex numbers sort by real part, then by imaginary part
    ordered = vals[lo.argsort(kind="stable") if one else np.argsort(seg + 1j * lo, kind="stable")]
    value = [np.add.reduce(ordered[i:j]) for i, j in zip(bounds, bounds[1:])]
    return value, err, evals, [e <= t for e, t in zip(err, tol)]


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
    g, witness = _mapped_integrand(lambda x, _: f(x), [decay_scale])
    v, e, n, ok = _adaptive_gk(g, _MAP_EDGES, tol, _MAX_EVALS)
    err = e + witness()[0]
    return QuadratureEstimate(v, err, n, ok and err <= tol)


def _mapped_integrand(f, decay_scale):
    """(g, witness): g(s, seg) = f(x, seg) dx/ds with x = L s/(1-s),
    L = 4 decay lengths decay_scale[seg] (a list, one per segment), which
    maps [0, inf) onto [0, 1); seg is the segment index of the points, one
    int or one per point (see ``_gk_apply``).  g is 0 from x_c = 200 decay
    lengths on, where f is not evaluated; witness() is the list, per
    segment, of x_c times the largest |f| seen so far on [x_c/2, x_c)."""
    decay = np.array(decay_scale)
    s_cut = _DECAY_CUT / (_DECAY_CUT + _MAP_LENGTHS)   # x(s_cut) = x_cut
    far_max = np.zeros(decay.size)

    def g(s, seg):
        m = s < s_cut
        cut = not m.all()
        if cut:
            s, seg = s[m], _subset(seg, m)
        rest, dec = 1.0 - s, decay[seg]
        jac = _MAP_LENGTHS * dec / rest
        x = jac * s
        fx = np.asarray(f(x, seg), float)
        far = x >= 0.5 * (_DECAY_CUT * dec)
        if far.any():
            if isinstance(seg, int):
                far_max[seg] = max(far_max[seg], np.abs(fx[far]).max())
            else:
                np.maximum.at(far_max, seg[far], np.abs(fx[far]))
        jac /= rest
        jac *= fx
        if not cut:
            return jac
        out = np.zeros(m.shape)
        out[m] = jac
        return out

    return g, lambda: (_DECAY_CUT * decay * far_max).tolist()


def _subset(seg, mask):
    """The segment indices of the points selected by ``mask``: seg[mask],
    or seg itself when it is one index for all points."""
    return seg if isinstance(seg, int) else seg[mask]


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
    ``_MAX_EVALS``.  This is ``_oscillatory_segments`` with one integral.
    """
    tol = require_real("tol", tol)
    seeds = np.asarray(head_seeds, float)
    v, e, n, ok = _oscillatory_segments(
        lambda q, _: f(q), lambda z, _: continuation(z), [float(spec.angular_rate)],
        [float(spec.switch_point)], tol, seeds, 0)
    return QuadratureEstimate(float(v[0]), float(e[0]), n[0], bool(ok[0]))


def _oscillatory_segments(f, h, omega, q0, tol, seeds, seeds_seg):
    """``integrate_oscillatory_tail`` of several integrals at once: integral
    s has angular rate omega[s] and switch point q0[s] (lists), the head
    seeds seeds[seeds_seg == s] (seeds_seg is the int 0 for a single
    integral) and the tolerance tol; f(q, s) and h(z, s) get the segment
    index of the points (see ``_gk_apply``).  The integrals share one seed
    pass and one ``_refine`` loop, and each keeps its own agreement check,
    refinement target, witness and ``_MAX_EVALS``.  Returns lists (value,
    error, evaluations, converged).
    """
    m = len(q0)
    nseed = [min(int(math.ceil(q / min(0.5 * math.pi / w, q / 8.0))), 300000)
             for w, q in zip(omega, q0)]
    q0a = np.array(q0)
    inside = (seeds > 0.0) & (seeds < q0a[seeds_seg])
    # the tail's 8 seed panels on x = Q + s in [Q, Q+1) follow the head's edges
    edges, seg = _seed_edges(q0, nseed, seeds[inside], _subset(seeds_seg, inside), _MAP_EDGES)
    period = [2.0 * math.pi / w / _CHECK_POINTS.size for w in omega]
    q_chk = (q0a[:, None] + np.multiply.outer(period, _CHECK_POINTS)).ravel()
    chk = []    # [f(q_chk), h(q_chk)], taken by the integrand's first call
    chk_seg = np.arange(m).repeat(_CHECK_POINTS.size)

    def with_checks(s):   # the segment indices of some points, then of q_chk
        return s if isinstance(s, int) else np.concatenate([s, chk_seg])

    def on_line(t, s):   # -Im h(Q + it); the first call also takes h(q_chk)
        z = q0a[s] + 1j * t
        if len(chk) == 1:
            hz = h(np.concatenate([z, q_chk + 0j]), with_checks(s))
            chk.append(hz[t.size:])
            return -np.imag(hz[:t.size])
        return -np.imag(h(z, s))

    tail, witness = _mapped_integrand(on_line, [1.0 / w for w in omega])

    def g(x, s):
        # f on the head's nodes (x - Q < 0 just where x < Q), the mapped tail
        # on the rest, and no masks for a later call with one kind of node;
        # the first call also takes f and h at q_chk, whether or not it has
        # nodes of each
        t = x - q0a[s]
        head = t < 0.0
        k = int(np.count_nonzero(head))
        if chk and k in (0, x.size):
            return tail(t, s) if not k else np.asarray(f(x, s), float)
        out = np.empty(x.shape)
        qh, sh = x[head], _subset(s, head)
        if chk:
            out[head] = f(qh, sh)
        else:
            fx = np.asarray(f(np.concatenate([qh, q_chk]), with_checks(sh)), float)
            out[head] = fx[:k]
            chk.append(fx[k:])
        on = ~head
        out[on] = tail(t[on], _subset(s, on))
        return out

    agree = [False] * m

    def target():
        # the check: |f - Re h| within 1e-12 (1 + max|f|) at q_chk; after a
        # failed one, refining beyond Q * mismatch + tol/2 is wasted
        fq = chk[0].reshape(m, -1)
        mismatch = np.abs(fq - chk[1].reshape(m, -1).real).max(axis=1).tolist()
        agree[:] = [x <= _AGREEMENT * (1.0 + y)
                    for x, y in zip(mismatch, np.abs(fq).max(axis=1).tolist())]
        return [tol if a else max(tol, q * x + 0.5 * tol) for a, q, x in zip(agree, q0, mismatch)]

    value, err, evals, ok = _gk_segments(g, edges, seg, target, _MAX_EVALS, 2 * _CHECK_POINTS.size)
    for i, w in enumerate(witness()):
        err[i] = err[i] + w if agree[i] else math.inf
        ok[i] = agree[i] and ok[i] and err[i] <= tol
    return value, err, evals, ok


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
    v = np.atleast_1d(q / (-2.0 * That))   # -u; negating and doubling are exact
    b = np.exp(v)
    v += v                                  # -2u
    b *= v                                  # -2u e^{-u}
    np.expm1(v, out=v)                      # -(1 - e^{-2u}): the signs cancel in b/v
    out = np.divide(b, v, out=b) if v.all() else np.divide(b, v, out=np.ones_like(v), where=v < 0)
    out *= out
    return out if q.ndim else out[0]
