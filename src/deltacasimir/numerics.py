"""Quadrature and summation engines for the semi-infinite integrals.

Three families of computation recur in this package and each gets a
dedicated engine:

* smooth integrands on [0, inf) with exponential decay
  (``integrate_smooth_semi_infinite``), handled by one adaptive integral
  after the substitution x = L s/(1-s) onto [0, 1),
* integrands f that oscillate like cos(omega q)/q at large q and are
  Re h on the real axis, h analytic in the open first quadrant, where it
  decays like e^{-omega Im q} (``integrate_oscillatory_tail``): taken along
  the ray q = t e^{i pi/4}, where the integrand is smooth and decays
  exponentially, as one adaptive integral on octave panels, whose seed
  pass also checks the continuation against f,
* series with a geometric majorant |t_n| <= K r^n
  (``sum_exponential_series``), summed to a term count it fixes in advance.

The integrals share one Gauss-Kronrod 15 engine: ``_gk_apply`` evaluates
many panels per integrand call, and ``_refine`` bisects the panels whose
error is above their share of the tolerance.  ``_refine`` is one loop over
several integrals at once: each panel carries the index of its integral,
its segment, and each integral keeps its own tolerance share, stopping
test, ``_MAX_EVALS`` and ``_MAX_ROUNDS`` caps and panel-order sums, so an
integral gets the same bits alone or in a batch.  ``_gk_segments`` is a
seed pass followed by ``_refine``; the entropy densities of one call, each
a smooth integral along the same ray, are one batch of it: a fixed number
of array operations per pass, and one numpy sum per integral.
``_adaptive_gk`` is one integral of it, and ``integrate_oscillatory_tail``
another, in plain floats.

Every engine returns a :class:`QuadratureEstimate`, which sets its
``converged`` flag from its own estimate and tolerance: failure to converge
is an estimate above tol, never a silent truncation or an exception.  All
engines are deterministic: identical inputs give bit-identical results on
one platform.  The engines take the finite floats their callers checked
and check none; ``QuadratureEstimate``, a public class, checks its tol.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import require_real
from .scattering import MAX_Q

# the engines below are private: forces and thermo call them, and the
# benchmark's tracer wraps them by name there
__all__ = ["QuadratureEstimate"]


@dataclass(frozen=True)
class QuadratureEstimate:
    """Value of an integral or sum together with honesty metadata.

    ``tol`` is the tolerance the caller asked for, and ``converged`` is
    set here, never passed: abs_error_estimate <= tol, a bool (a bool array
    for an array estimate).  Every failure is an infinite estimate: an
    estimate above tol is not accurate enough, and inf bounds nothing.
    """

    value: float
    abs_error_estimate: float
    evaluations: int
    tol: float
    converged: bool = field(init=False)

    def __post_init__(self):
        tol, e = require_real("tol", self.tol), self.abs_error_estimate
        if isinstance(e, float):   # np.float64 too, whose comparison gives an np.bool_
            ok = bool(e <= tol)
        else:
            ok = np.asarray(e) <= tol
            ok = ok if ok.ndim else ok.item()
        object.__setattr__(self, "converged", ok)


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
# panels per integrand call: 256 x 15 nodes make 30 KiB float64 temporaries,
# which stay in cache and below glibc's 128 KiB mmap and trim thresholds, so
# they are reused from the heap, not mapped and unmapped on every call
_GK_CHUNK = 256
# caps on the work of one engine call; hitting one reports converged=False.
# The seed pass always runs: _MAX_EVALS refuses the bisection rounds past it
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
_S_CUT = _DECAY_CUT / (_DECAY_CUT + _MAP_LENGTHS)   # x(_S_CUT) = 200 decay lengths
# the canonical integrals run along the ray q = t e^{i phi}, phi = pi/4:
# _RAY_COS is cos(pi/4) = sin(pi/4), _RAY its unit step and _TWO_I_RAY = 2i
# _RAY, so that 2iqd = (t d) _TWO_I_RAY; a ray at exactly pi/4, whatever the
# rounding
_RAY_COS = math.sqrt(0.5)
_RAY = complex(_RAY_COS, _RAY_COS)
_TWO_I_RAY = 2j * _RAY
# |f - Re h| allowed between an oscillatory integrand and its continuation,
# relative to 1 + max|f|
_AGREEMENT = 1e-12
# where an oscillatory integrand is checked against its continuation: 48
# points spread over its first period, at (k + 1/2)/48 of it
_CHECK_POINTS = np.arange(48) + 0.5


def _retired(*args):
    """No engine computes the sine and cosine integrals or Wynn's epsilon
    any more: only ``perfbench/tracer.py`` binds ``sici`` and
    ``_wynn_epsilon``, as spans that read 0, until ROADMAP item 1a retires
    them."""
    raise NotImplementedError("sici and _wynn_epsilon are retired")


sici = _wynn_epsilon = _retired


def _gk_apply(f, lo, hi, seg):
    """Gauss-Kronrod 15 on the panels [lo, hi], float arrays, at once.

    ``f`` is called as f(x, s) on a 1-D ndarray of nodes x: s is ``seg``
    when that is one segment index (an int) for all panels, and each node's
    index when seg is an array of the panels' indices.  Returns (values,
    error estimates, floors) at 15 evaluations a panel.  A panel's floor is
    1e-16 sum|f| over its nodes, a rounding that no bisection lowers, and
    its error estimate is h (|K15 - G7| + floor), h its half width, which
    overestimates the true K15 error on smooth panels.
    """
    if lo.size <= _GK_CHUNK + 1:
        return _gk_block(f, lo, hi, seg)
    # one dgemm per block gives K15 and K15 - G7 together; its sums do not
    # depend on a panel's place in its block unless the block is one row,
    # which takes the plain dot path, so a lone last panel joins the block
    # before it: then every block size gives the same bits
    out = [_gk_block(f, lo[i0:i1], hi[i0:i1], seg if isinstance(seg, int) else seg[i0:i1])
           for i0, i1 in itertools.pairwise([0, *range(_GK_CHUNK, lo.size - 1, _GK_CHUNK),
                                             lo.size])]
    return tuple(map(np.concatenate, zip(*out)))


def _gk_block(f, lo, hi, seg):
    """``_gk_apply`` in one integrand call."""
    half, x = _gk_nodes(lo, hi)
    s = seg if isinstance(seg, int) else np.repeat(seg, 15)
    y = np.asarray(f(x.ravel(), s), float).reshape(x.shape)
    kd = y @ _GK_W
    floor = _EPS_FLOOR * np.abs(y).sum(axis=1)
    return half * kd[:, 0], half * (np.abs(kd[:, 1]) + floor), floor


def _gk_nodes(lo, hi):
    """The half widths of the panels [lo, hi] and their 15 nodes, a row each."""
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(half, _GK_NODES)
    x += (0.5 * (lo + hi))[:, None]
    return half, x


def _adaptive_gk(f, edges, tol, rounds=None):
    """Adaptive GK15 of one integral on the panels between consecutive
    ``edges``: ``_gk_segments`` with the one segment 0, so f is called as
    f(x, 0).  ``rounds``, when given, is called after the seed pass: where
    it gives False no bisection round follows.  Returns (value, error,
    evaluations, error <= tol)."""
    v, e, n = _gk_segments(f, np.asarray(edges, float), 0,
                           lambda: [tol if rounds is None or rounds() else math.inf])
    return float(v[0]), float(e[0]), n[0], bool(e[0] <= tol)


def _gk_segments(f, edges, seg, tol, checks=None):
    """Adaptive GK15 of several integrals at once: one seed pass and one
    ``_refine`` loop for all of them.

    Integral s runs over the panels between consecutive ``edges`` whose
    ``seg`` is s (at least two edges each, sorted within a segment,
    segments 0, 1, ... in order; seg is the int 0 for a single integral)
    to the absolute tolerance tol[s], or to the tolerances ``tol()``
    returns after the seed pass when tol is callable; f(x, s) gets the
    segment index of the nodes (see ``_gk_apply``).  Every seed panel is
    evaluated; ``_refine`` counts that pass and checks[s] extra points (none
    without ``checks``), and alone holds integral s to ``_MAX_EVALS``.
    Returns lists (value, error, evaluations), one per integral.
    """
    lo, hi = edges[:-1], edges[1:]
    if isinstance(seg, int):
        counts = [lo.size]
    else:   # the panels between two edges of one segment
        same = seg[1:] == seg[:-1]
        lo, hi, seg = lo[same], hi[same], seg[1:][same]
        counts = np.bincount(seg).tolist()
    evals = [15 * c + k for c, k in zip(counts, checks or itertools.repeat(0))]
    return _refine(f, lo, hi, seg, counts, *_gk_apply(f, lo, hi, seg), evals,
                   tol() if callable(tol) else tol)


def _refine(f, lo, hi, seg, counts, vals, errs, floors, evals, tol):
    """Bisection rounds on the panels [lo, hi] of several integrals, whose
    GK15 values, errors and floors (as ``_gk_apply`` returns them) are
    ``vals``, ``errs`` and ``floors``; ``seg`` gives each panel's integral
    (non-decreasing; the int 0 for a single integral), and integral s has
    counts[s] panels, has spent evals[s] evaluations and asks for tol[s]
    (lists; counts and evals are updated in place).

    Each round splits every panel whose error exceeds its share
    tol[s]/(2 counts[s]) of its integral's budget and evaluates the two
    halves of all of them in one ``_gk_apply`` pass, so narrow features
    (the kernel's cavity resonances) get resolved locally.  An integral
    stops for good when its error sum is at most its tol, when it has no
    panel to split, or when a round would take its evaluations past
    ``_MAX_EVALS``; no integral gets more than ``_MAX_ROUNDS`` rounds.  Its
    panels keep the order a lone integral gives them (kept panels, then
    left halves, then right halves: one stable sort by integral), and its
    error and value are numpy sums over its panels alone, the value in
    panel order: an integral gets the same bits in any batch.  Returns
    lists (value, error, evaluations).

    The rounding floors of an integral's panels (half their width times
    their floor) are a part of its error that no bisection lowers, as in
    QUADPACK's roundoff test (ier = 2; Piessens et al., 1983).  Where that
    floor sum is above tol[s], tol[s] cannot be met, and the integral is
    refined only to twice the floor sum: it stops with its error above
    tol[s].  The sum is taken only for an integral still above its tol,
    after the seed pass and after each round that splits its panels.
    """
    one, seeded = isinstance(seg, int), lo.size
    bounds = [0, *itertools.accumulate(counts)]
    err = [np.add.reduce(errs[i:j]) for i, j in zip(bounds, bounds[1:])]

    def share_of(i):
        # a panel of integral i is split when its error is above this share
        # of its tol, or of twice its floor sum where that sum is above tol;
        # inf once the integral is done
        i0, i1 = bounds[i], bounds[i + 1]
        floor = float(np.add.reduce(0.5 * (hi[i0:i1] - lo[i0:i1]) * floors[i0:i1]))
        target = 2.0 * floor if floor > tol[i] else tol[i]
        return target / (2.0 * counts[i]) if err[i] > target else math.inf

    share = [share_of(i) if e > t else math.inf for i, (e, t) in enumerate(zip(err, tol))]
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
            if k and evals[i] + 30 * k <= _MAX_EVALS:
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
        cvals, cerrs, cfloors = _gk_apply(f, lo[-2 * a.size:], hi[-2 * a.size:], s)
        vals = np.concatenate([vals[keep], cvals])
        errs = np.concatenate([errs[keep], cerrs])
        floors = np.concatenate([floors[keep], cfloors])
        if not one:   # each integral's kept, left and right panels in turn
            seg = np.concatenate([seg[keep], s])
            order = seg.argsort(kind="stable")
            lo, hi, vals, errs, floors, seg = (lo[order], hi[order], vals[order], errs[order],
                                               floors[order], seg[order])
        for i, k in enumerate(n_split):
            counts[i] += k
            bounds[i + 1] = bounds[i] + counts[i]
            if k:
                err[i] = np.add.reduce(errs[bounds[i]:bounds[i + 1]])
                share[i] = share_of(i) if err[i] > tol[i] else math.inf
    if lo.size > seeded:   # else the seed panels are in order already
        # complex numbers sort by real part, then by imaginary part
        vals = vals[lo.argsort(kind="stable") if one else
                    np.argsort(seg + 1j * lo, kind="stable")]
    value = [np.add.reduce(vals[i:j]) for i, j in zip(bounds, bounds[1:])]
    return value, err, evals


def integrate_smooth_semi_infinite(f, decay_scale, tol) -> QuadratureEstimate:
    """Integrate a smooth vectorized f over [0, inf) to the absolute
    tolerance tol, given |f(x)| <= M*exp(-x/decay_scale) at large x.

    The substitution x = L s/(1-s), L = 4*decay_scale, maps [0, inf) onto
    [0, 1), where f(x) L/(1-s)^2 is smooth and vanishes at s = 1 with all
    its derivatives: one adaptive integral from 8 equal seed panels covers
    it.  f is not evaluated beyond x_c = 200 decay lengths, where
    e^{-200} < 1e-86 has made it zero; x_c times the largest |f| seen on
    [x_c/2, x_c) is added to the error estimate, which keeps an integrand
    that does not decay from converging to its truncation.  Running out of
    bisection rounds or evaluations (``_MAX_EVALS``) leaves the estimate
    above tol, never a silently truncated value.
    """
    far = [0.0]
    v, e, n, _ = _adaptive_gk(_mapped_integrand(lambda x, _: f(x), decay_scale, far),
                              _MAP_EDGES, tol)
    return QuadratureEstimate(v, e + _DECAY_CUT * decay_scale * far[0], n, tol)


def _mapped_integrand(f, decay, far):
    """g(s, seg) = f(x, seg) dx/ds with x = L s/(1-s), L = 4 decay lengths
    ``decay``, which maps [0, inf) onto [0, 1); seg is the segment index,
    the int 0.  g is 0 from x_c = 200 decay lengths on, where f is not
    evaluated, and far[0] keeps the largest |f| seen on [x_c/2, x_c), which
    x_c times is the witness of the truncation."""
    def g(s, seg):
        m = s < _S_CUT
        cut = np.count_nonzero(m) < s.size
        if cut:
            s = s[m]
        rest = 1.0 - s
        jac = _MAP_LENGTHS * decay / rest
        x = jac * s
        fx = np.asarray(f(x, seg), float)
        big = x >= 0.5 * (_DECAY_CUT * decay)
        if np.count_nonzero(big):
            far[0] = max(far[0], float(np.abs(fx[big]).max()))
        jac /= rest
        jac *= fx
        if not cut:
            return jac
        out = np.zeros(m.shape)
        out[m] = jac
        return out

    return g


def integrate_oscillatory_tail(f, h, omega, scale, tol, tail) -> QuadratureEstimate:
    """Integrate f over [0, inf) when f ~ A cos(omega q)/q + O(1/q^2) at large
    q, along the ray q = t e^{i phi}, phi = pi/4.

    h is f's continuation: Re h = f on the real axis, h analytic in the open
    first quadrant and decaying there like e^{-omega Im q}.  Then (the arc
    at infinity vanishes)

        int_0^inf f dq = Re int_0^inf e^{i phi} h(t e^{i phi}) dt + Re(i phi R),

    with R the residue of a pole of h at q = 0.  This engine returns the ray
    integral, and the caller adds the arc term i phi R.  Along the ray h
    decays like e^{-omega t sin phi} and varies on the scale of the period,
    not of any feature next to the real axis.  ``scale`` is the first
    scale s on which h varies: the integral takes one GK15 panel on
    [0, 2s] and one per octave from 2s to hi = min(45/(omega sin phi),
    ``MAX_Q``), where the exponential has decayed by e^{-45} (``MAX_Q``
    keeps the caller's q^2 finite).  ``tail(hi)`` bounds int_hi^inf |h| dt,
    the part dropped, which is added to the error estimate; the panels get
    the rest of tol, or only their seed pass where the bound alone is tol
    or more, which cannot converge.  f(q) and h(z) take 1-D float and
    complex ndarrays.

    The seed pass also takes f and h at 48 points of the first period
    [0, 2 pi/omega] on the real axis; unless |f - Re h| <= 1e-12 (1 +
    max|f|) there, h is not f's continuation, the error is inf and no
    bisection round follows.
    """
    lo, hi = 2.0 * scale, min(45.0 / (omega * _RAY_COS), MAX_Q)
    # in log2: hi/lo overflows at a subnormal scale
    octaves = math.log2(hi) - math.log2(lo)
    n = math.ceil(octaves)
    edges = np.exp2(math.log2(lo) + np.arange(-1.0, n + 1.0) * (octaves / n))
    edges[0] = 0.0
    bound = tail(float(edges[-1]))
    q_chk = 2.0 * math.pi / omega / _CHECK_POINTS.size * _CHECK_POINTS
    chk = []    # h(q_chk), taken by the integrand's first call

    def g(t, _):   # Re e^{i phi} h(t e^{i phi}), with e^{i phi} = (1 + i) cos(phi)
        if chk:
            hz = h(t * _RAY)
        else:
            hz = h(np.concatenate([t * _RAY, q_chk]))
            chk.append(hz[t.size:].real)
            hz = hz[:t.size]
        return (hz.real - hz.imag) * _RAY_COS

    agree = [False]

    def target():
        fq = np.asarray(f(q_chk), float)
        agree[0] = float(np.abs(fq - chk[0]).max()) <= _AGREEMENT * (1.0 + float(np.abs(fq).max()))
        return [tol - bound if agree[0] and bound < tol else math.inf]

    value, err, evals = _gk_segments(g, edges, 0, target, [2 * _CHECK_POINTS.size])
    err = err[0] + bound if agree[0] else math.inf
    return QuadratureEstimate(float(value[0]), float(err), evals[0], tol)


def sum_exponential_series(terms, scale, ratio, tol: float = 1e-12) -> QuadratureEstimate:
    """Sum terms(n), n >= 1, given |terms(n)| <= scale * ratio**n.

    ``terms`` maps a float array of indices to the terms.  N, fixed before
    any term is evaluated, is the least count whose remainder bound
    scale * ratio**(N+1)/(1 - ratio) is at most tol/1000.  The N terms are
    evaluated in blocks of 2^16 and summed exactly by one ``math.fsum``;
    the estimate adds ``_EPS_FLOOR * sum|t_n|`` to that bound.  N is at
    most ``_MAX_TERMS``, with that N's bound; for ratio >= 1 it is inf.
    Where that bound is above tol the series cannot converge, and no term
    is evaluated: the estimate is inf, the value 0 and the count 0.
    """
    if ratio >= 1.0:
        n_terms = math.inf
    elif ratio == 0.0 or scale == 0.0:
        n_terms = 1
    else:   # in logs, so that neither tol/1000 nor the bound underflows
        log_rem = math.log(tol) - math.log(1e3) - math.log(scale) + math.log1p(-ratio)
        n_terms = max(1, math.ceil(log_rem / math.log(ratio)) - 1)
    n = min(n_terms, _MAX_TERMS)
    rem = scale * ratio ** (n + 1) / (1.0 - ratio) if ratio < 1.0 else math.inf
    if rem > tol:
        return QuadratureEstimate(0.0, math.inf, 0, tol)
    sum_abs = 0.0

    def blocks():
        nonlocal sum_abs
        for n0 in range(1, n + 1, _SERIES_BLOCK):
            t = terms(np.arange(n0, min(n0 + _SERIES_BLOCK, n + 1), dtype=float))
            sum_abs += float(np.abs(t).sum())
            yield t.tolist()

    total = math.fsum(itertools.chain.from_iterable(blocks()))
    return QuadratureEstimate(total, rem + _EPS_FLOOR * sum_abs, n, tol)


def _thermal_weight_raw(q, That):
    """(q/(2 That))^2 csch(q/(2 That))^2, the entropy-kernel weight, on a
    real array that may contain q = 0 (limit 1), or on a complex one, where
    it is the weight's continuation.

    Computed as (u/sinh u)^2, u = q/(2 That), one sinh and one divide:
    smooth -> 1 as u -> 0 and decays like 4 u^2 e^{-2u} for large u.  It is
    1 where Re u <= 5e-151, where it is 1 to the last bit (u/sinh u is 0/0
    at u = 0, and a complex u/sinh u overflows at a subnormal u), and
    exactly 0 (never NaN) where Re u >= 710, past which sinh overflows: the
    weight underflowed to 0 from Re u ~ 380 on a real q.
    """
    u = np.atleast_1d(q / (2.0 * That))
    re = u.real
    inside = re > 5e-151
    inside &= re < 710.0
    if inside.all():
        w = np.sinh(u)
        np.divide(u, w, out=w)
    else:
        w = np.divide(u, np.sinh(u, where=inside, out=np.ones_like(u)),
                      out=(re <= 5e-151).astype(u.dtype), where=inside)
    w *= w
    return w if np.ndim(q) else w[0]
