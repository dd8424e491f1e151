"""Quadrature and summation engines for the semi-infinite integrals.

Three families of computation recur in this package and each gets a
dedicated engine:

* smooth integrands on [0, inf) with exponential decay
  (``integrate_smooth_semi_infinite``), handled by one adaptive integral
  after the substitution x = L s/(1-s) onto [0, 1),
* integrands that oscillate like cos(omega*q)/q at large q
  (``integrate_oscillatory_tail``), integrated on the real axis up to a
  switch point Q and, beyond it, along the line Re q = Q with the
  caller's analytic continuation of the integrand, mapped as above onto
  the negative half-line, so that each node's sign says which stretch it
  is on and the tail's variable is exact: both stretches are one adaptive
  integral, whose seed pass also checks the continuation against the
  integrand,
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
``_adaptive_gk`` is one integral of the first; ``integrate_oscillatory_tail``,
one of the second, takes its plain-float lone path, whose 8 tail seed panels
sort first and take their nodes from a layout fixed at import.  An integral of
``_oscillatory_segments`` may have no tail (a real-axis entropy density), so
the densities of one outer round, of both kinds, are one batch: a fixed
number of array operations per pass, and one numpy sum per integral.

Every engine returns a :class:`QuadratureEstimate`, which sets its
``converged`` flag from its own estimate and tolerance: failure to converge
is an estimate above tol, never a silent truncation or an exception.  All
engines are deterministic: identical inputs give bit-identical results on
one platform.  The engines take the finite floats their callers checked
and check none; ``QuadratureEstimate``, a public class, checks its tol.

The package needs numpy only: the sine and cosine integrals are computed
here (:func:`sici`).
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import require_real

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
_EULER_GAMMA = 0.57721566490153286061
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
_TAIL_EDGES = -_MAP_EDGES[1:]   # an oscillatory tail's seed edges on x = -t, but 0
_DECAY_CUT = 200.0
_S_CUT = _DECAY_CUT / (_DECAY_CUT + _MAP_LENGTHS)   # x(_S_CUT) = 200 decay lengths
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
    error estimates) at 15 evaluations a panel; the per-panel error
    estimate is |K15 - G7| plus a rounding floor, which overestimates the
    true K15 error on smooth panels.
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
    return half * kd[:, 0], half * (np.abs(kd[:, 1]) + _EPS_FLOOR * np.abs(y).sum(axis=1))


def _gk_nodes(lo, hi):
    """The half widths of the panels [lo, hi] and their 15 nodes, a row each."""
    half = 0.5 * (hi - lo)
    x = np.multiply.outer(half, _GK_NODES)
    x += (0.5 * (lo + hi))[:, None]
    return half, x


# a lone oscillatory integral's seed panels are sorted, so its 8 tail panels on
# x = -t, t in [0, 1), come first, with the same nodes in every integral.  t
# falls along them: the _TAIL_CUT nodes past _S_CUT come first, and the map
# takes the others, t = _TAIL_S with 1 - t = _TAIL_REST
_TAIL_T = -_gk_nodes(_TAIL_EDGES[::-1], np.append(_TAIL_EDGES[-2::-1], 0.0))[1].ravel()
_TAIL_CUT = int(np.count_nonzero(_TAIL_T >= _S_CUT))
_TAIL_S = _TAIL_T[_TAIL_CUT:]
_TAIL_REST = 1.0 - _TAIL_S


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
    vals, errs = _gk_apply(f, lo, hi, seg)
    return _refine(f, lo, hi, seg, counts, vals, errs, evals, tol() if callable(tol) else tol)


def _seed_edges(stop, n, extra, extra_seg):
    """Seed edges of several integrals: integral s gets the n[s] + 1 points
    of np.linspace(0, stop[s], n[s] + 1), bit for bit (i * (stop[s]/n[s]),
    then stop[s]), and the points of ``extra`` whose ``extra_seg`` is s,
    sorted; ``stop`` and ``n`` are lists or 1-D arrays.  Returns
    (edges, seg); for a single integral seg is the int 0, and extra_seg is
    not read.  A point on a grid edge makes a zero-width panel: value 0,
    error 0, never split."""
    if len(n) == 1:   # np.sort, not np.unique: the first np.unique call imports numpy.ma
        return np.sort(np.concatenate([np.arange(n[0]) * (stop[0] / n[0]), stop, extra])), 0
    stop, n = np.asarray(stop), np.asarray(n)
    seg = np.arange(n.size).repeat(n)
    i = np.arange(seg.size) - (n.cumsum() - n)[seg]
    edges = np.concatenate([i * (stop / n)[seg], stop, extra])
    seg = np.concatenate([seg, np.arange(n.size), extra_seg])
    # complex numbers sort by real part, then by imaginary part
    z = np.sort(seg + 1j * edges, kind="stable")
    return z.imag, z.real.astype(int)


def _refine(f, lo, hi, seg, counts, vals, errs, evals, tol):
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
    ``_MAX_EVALS``; no integral gets more than ``_MAX_ROUNDS`` rounds.  Its
    panels keep the order a lone integral gives them (kept panels, then
    left halves, then right halves: one stable sort by integral), and its
    error and value are numpy sums over its panels alone, the value in
    panel order: an integral gets the same bits in any batch.  Returns
    lists (value, error, evaluations).
    """
    one, seeded = isinstance(seg, int), lo.size
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
        cvals, cerrs = _gk_apply(f, lo[-2 * a.size:], hi[-2 * a.size:], s)
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
    v, e, n, _ = _adaptive_gk(_mapped_integrand(lambda x, _: f(x), [decay_scale], far),
                              _MAP_EDGES, tol)
    return QuadratureEstimate(v, e + _DECAY_CUT * decay_scale * far[0], n, tol)


def _mapped_integrand(f, decay, far):
    """g(s, seg) = f(x, seg) dx/ds with x = L s/(1-s), L = 4 decay lengths
    decay[seg], which maps [0, inf) onto [0, 1); seg is the segment index of
    the points, one int or one per point (see ``_gk_apply``).  g is 0 from
    x_c = 200 decay lengths on, where f is not evaluated, and far[seg] keeps
    the largest |f| seen on [x_c/2, x_c), which x_c times is the witness
    of the truncation; decay and far are lists for an int seg.  g(s, seg,
    rest) takes points s below _S_CUT with rest = 1 - s, and no mask."""
    def g(s, seg, rest=None):
        cut = False
        if rest is None:
            m = s < _S_CUT
            cut = np.count_nonzero(m) < s.size
            if cut:
                s, seg = s[m], _subset(seg, m)
            rest = 1.0 - s
        dec = decay[seg]
        jac = _MAP_LENGTHS * dec / rest
        x = jac * s
        fx = np.asarray(f(x, seg), float)
        big = x >= 0.5 * (_DECAY_CUT * dec)
        if np.count_nonzero(big):
            if isinstance(seg, int):
                far[seg] = max(far[seg], float(np.abs(fx[big]).max()))
            else:
                np.maximum.at(far, seg[big], np.abs(fx[big]))
        jac /= rest
        jac *= fx
        if not cut:
            return jac
        out = np.zeros(m.shape)
        out[m] = jac
        return out

    return g


def _subset(seg, mask):
    """The segment indices of the points selected by ``mask``: seg[mask],
    or seg itself when it is one index for all points."""
    return seg if isinstance(seg, int) else seg[mask]


# unused by the engines; the benchmark's tracer and a test's Ci(10) oracle use it
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


def integrate_oscillatory_tail(f, h, omega, switch_point, tol,
                               head_seeds=()) -> QuadratureEstimate:
    """Integrate f over [0, inf) when f ~ A*cos(omega*q)/q + O(1/q^2) at large q.

    The head [0, Q], Q = ``switch_point``, is taken on the real axis and the
    tail [Q, inf) along Re q = Q, with the continuation h: it must accept a
    complex ndarray, be analytic on the quarter plane Re q >= Q, Im q >= 0,
    have Re h = f on the real axis and decay like e^{-omega Im q}.  Q must
    cover one period 2 pi/omega, over which the continuation is checked
    against f; its caller's ``contour_switch`` does, and nothing here
    checks it.  The head's 8 equal seed panels resolve a head of at most
    two periods, as ``contour_switch``'s is; bisection takes a longer one.
    f(q, s) and h(z, s) take the segment index s, always 0, as in
    ``_oscillatory_segments``, of which this is one integral.  The points
    of ``head_seeds`` in (0, Q) become extra seed edges of the head: the
    callers put them around features far narrower than a seed panel.
    """
    seeds = np.asarray(head_seeds, float).ravel()
    v, e, n = _oscillatory_segments(f, h, [omega], [switch_point], [tol], seeds, 0, [None])
    return QuadratureEstimate(float(v[0]), float(e[0]), n[0], tol)


def _oscillatory_segments(f, h, omega, stop, tol, seeds, seeds_seg, width):
    """``integrate_oscillatory_tail`` of several integrals at once: integral
    s has angular rate omega[s], switch point Q = stop[s], tolerance tol[s]
    (lists) and head seeds seeds[seeds_seg == s]; f(q, s) and h(z, s) get
    the segment index of the points (see ``_gk_apply``).  The head gets 8
    equal seed panels, Q/8 wide, besides its seeds.  The tail
    int_Q^inf f dq = -int_0^inf Im h(Q + ix) dx (the arc at infinity
    vanishes) is mapped as in ``integrate_smooth_semi_infinite`` with decay
    scale 1/omega, witness included, onto 8 seed panels on x = -t, t in
    [0, 1), which share the head's edge 0: a node is the tail's just where
    x < 0, and t = -x is exact.  The error is the joint error of head and
    tail plus the witness.  The seed pass also takes f and h at 48 points
    over the period beyond Q; unless |f - Re h| <= 1e-12 (1 + max|f|)
    there, the error is inf (nothing bounds the tail of h against f's) and
    the panels are refined only to max(tol, Q * mismatch + tol/2).

    width[s] (a list) is None for an integral with a tail; a number makes
    integral s tail-less: the real-axis integral of f over [0, stop[s]],
    seeded width[s] apart (stop[s]/8 where that is narrower), with no tail
    edges, agreement points or witness, and h never sees it.  The integrals
    share one seed pass and one ``_refine`` loop, and each keeps its own
    check, refinement target, witness and ``_MAX_EVALS``.  A lone tailed
    integral (seeds_seg the int 0) pays for one: plain floats check it and
    hold its witness.  Returns lists (value, error, evaluations), as
    ``_gk_segments`` does.
    """
    one = isinstance(seeds_seg, int) and width[0] is None
    if one:   # plain floats, which the lists' index 0 reads
        q0 = stop[0]
        edges, seg = _seed_edges(stop, [8], np.concatenate(
            [seeds[(seeds > 0.0) & (seeds < q0)], _TAIL_EDGES]), 0)
        q_chk = q0 + 2.0 * math.pi / omega[0] / _CHECK_POINTS.size * _CHECK_POINTS
        decay, far, agree = [1.0 / omega[0]], [0.0], [False]
    else:
        tails = np.array([i for i, x in enumerate(width) if x is None], int)
        nseed = [8 if x is None else math.ceil(q / min(x, q / 8.0)) for q, x in zip(stop, width)]
        stop = np.array(stop)   # on_line takes each node's Q from it
        inside = (seeds > 0.0) & (seeds < stop[seeds_seg])
        # a tail's 8 seed panels on x = -t, t in [0, 1), end at its head's edge 0
        seeds = np.concatenate([seeds[inside], np.tile(_TAIL_EDGES, tails.size)])
        if not isinstance(seeds_seg, int):
            seeds_seg = np.concatenate([seeds_seg[inside], tails.repeat(_TAIL_EDGES.size)])
        edges, seg = _seed_edges(stop, nseed, seeds, seeds_seg)
        if not tails.size:   # no tail, no check: the integrand is f itself
            return _gk_segments(f, edges, seg, tol)
        period = [2.0 * math.pi / omega[i] / _CHECK_POINTS.size for i in tails.tolist()]
        q_chk = (stop[tails, None] + np.multiply.outer(period, _CHECK_POINTS)).ravel()
        chk_seg = tails.repeat(_CHECK_POINTS.size)
        decay, far = 1.0 / np.array(omega), np.zeros(stop.size)
        agree, mismatch = [x is not None for x in width], [0.0] * stop.size
    chk = []    # [f(q_chk), h(q_chk)], taken by the integrand's first call

    def on_line(t, s):   # -Im h(Q + it); the first call also takes h(q_chk)
        z = stop[s] + 1j * t
        if len(chk) == 1:
            hz = h(np.concatenate([z, q_chk]), s if one else np.concatenate([s, chk_seg]))
            chk.append(hz[t.size:])
            return -hz[:t.size].imag
        return -h(z, s).imag

    line = _mapped_integrand(on_line, decay, far)

    def g(x, s):
        # f on the head's nodes (x > 0), the mapped tail at t = -x on the
        # rest, and no masks for a call with one kind of node once the first
        # call has taken f and h at q_chk, with or without nodes of each
        if one and not chk:
            # the seed pass's first block (_GK_CHUNK >= 8 panels): the tail's
            # nodes are _TAIL_T, and the head's follow them
            k = x.size - _TAIL_T.size
            fx = np.asarray(f(np.concatenate([x[_TAIL_T.size:], q_chk]), s), float)
            chk.append(fx[k:])
            return np.concatenate([np.zeros(_TAIL_CUT), line(_TAIL_S, s, _TAIL_REST), fx[:k]])
        head = x > 0.0
        k = int(np.count_nonzero(head))
        if chk and k in (0, x.size):
            return np.asarray(f(x, s), float) if k else line(-x, s)
        out = np.empty(x.shape)
        sh = _subset(s, head)
        if chk:
            out[head] = f(x[head], sh)
        else:
            fx = np.asarray(f(np.concatenate([x[head], q_chk]), sh if one else
                              np.concatenate([sh, chk_seg])), float)
            out[head] = fx[:k]
            chk.append(fx[k:])
        tail = ~head
        out[tail] = line(-x[tail], _subset(s, tail))
        return out

    def target():
        # the check: |f - Re h| within 1e-12 (1 + max|f|) at q_chk; after a
        # failed one, refining beyond Q * mismatch + tol/2 is wasted
        if one:
            x = float(np.abs(chk[0] - chk[1].real).max())
            agree[0] = x <= _AGREEMENT * (1.0 + float(np.abs(chk[0]).max()))
            return tol if agree[0] else [max(tol[0], stop[0] * x + 0.5 * tol[0])]
        fq = chk[0].reshape(tails.size, -1)
        off = np.abs(fq - chk[1].reshape(fq.shape).real).max(axis=1).tolist()
        for i, x, y in zip(tails.tolist(), off, np.abs(fq).max(axis=1).tolist()):
            agree[i], mismatch[i] = x <= _AGREEMENT * (1.0 + y), x
        return [t if a else max(t, q * x + 0.5 * t)
                for a, q, x, t in zip(agree, stop, mismatch, tol)]

    checks = [2 * _CHECK_POINTS.size if x is None else 0 for x in width]
    value, err, evals = _gk_segments(g, edges, seg, target, checks)
    wit = [_DECAY_CUT * decay[0] * far[0]] if one else (_DECAY_CUT * decay * far).tolist()
    return value, [e + w if a else math.inf for e, w, a in zip(err, wit, agree)], evals


def sum_exponential_series(terms, scale, ratio, tol: float = 1e-12) -> QuadratureEstimate:
    """Sum terms(n), n >= 1, given |terms(n)| <= scale * ratio**n.

    ``terms`` maps a float array of indices to the terms.  N, fixed before
    any term is evaluated, is the least count whose remainder bound
    scale * ratio**(N+1)/(1 - ratio) is at most tol/1000.  The N terms are
    evaluated in blocks of 2^16 and summed exactly by one ``math.fsum``;
    the estimate adds ``_EPS_FLOOR * sum|t_n|`` to that bound.  N is at
    most ``_MAX_TERMS``, with that N's bound; for ratio >= 1 it is inf.
    """
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
    return QuadratureEstimate(total, rem + _EPS_FLOOR * sum_abs, n, tol)


def _thermal_weight_raw(q, That):
    """(q/(2 That))^2 csch(q/(2 That))^2, the entropy-kernel weight, on a
    real array that may contain q = 0 (limit 1), or on a complex one, where
    it is the weight's continuation.

    Computed as b^2 with b = 2u e^{-u} / (1 - e^{-2u}), u = q/(2 That):
    smooth -> 1 as u -> 0, decays like 4 u^2 e^{-2u} for large u, and
    underflows to exactly 0 (never NaN) once e^{-u} is subnormal.
    """
    v = np.atleast_1d(q / (-2.0 * That))   # -u; negating and doubling are exact
    b = np.exp(v)
    v += v                                  # -2u
    np.multiply(v, b, out=b)                # -2u e^{-u}, -2u first: numpy's complex
                                            # product depends on operand order
    np.expm1(v, out=v)                      # -(1 - e^{-2u}): the signs cancel in b/v
    out = np.divide(b, v, out=b) if v.all() else np.divide(b, v, out=np.ones_like(v), where=v < 0)
    out *= out
    return out if np.ndim(q) else out[0]
