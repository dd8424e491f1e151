"""Casimir entropy by both routes, and the entropy-density integrand.

The canonical entropy comes from the Maxwell relation: with the entropy
pinned to zero at infinite separation,

    S(d, That) = int_d^Lambda ddt  s(dt, That),
    s(dt, That) = (1/2pi) int_0^inf dq (q/2That)^2 csch^2(q/2That)
                                   [1 - 8q^2(1+2q^2)/W(q, dt)]

where s = -dF/dThat is the entropy density in separation.  The q-integral
is taken along the ray q = t e^{i pi/4}, where its integrand is smooth at
every d and That (``entropy_density_canonical``).  The distance integral
diverges logarithmically (s -> 1/(4 dt) at large dt), so every entropy
value carries its infrared cutoff Lambda as mandatory metadata.

The Lifshitz entropy has the closed Matsubara form

    S_L = -(1/2) log[2 pi That (d+2)/Lambda] - 1/2                (zero mode)
          - sum_{n>=1} log[1 - e^{-4 pi n That d}/(1+4 pi n That)^2]
          - sum_{n>=1} 4 pi n That (4 pi n That d + d + 2) /
                       {(4 pi n That+1) [(4 pi n That+1)^2 e^{4 pi n That d} - 1]}

With the zero-mode line kept it diverges to +inf as That -> 0; with it
dropped the remainder is negative at moderate separations.  Either way it
conflicts with the third law, which is the point of computing both routes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_real, require_real_array
from .forces import DEFAULT_CUTOFF_LAMBDA, LIFSHITZ_TOL, _ROUNDING, _matsubara, _require_that, \
    _zero_mode_log
from .model import DimensionlessPoint, Result
from .numerics import (
    _RAY,
    _RAY_COS,
    _TWO_I_RAY,
    QuadratureEstimate,
    _adaptive_gk,
    _gk_segments,
    _thermal_weight_raw,
    sum_exponential_series,
)
# flux_deficit is not called here; the benchmark's tracer patches it by this name
from .scattering import MAX_Q, flux_deficit

__all__ = [
    "ENTROPY_TOL",
    "ENTROPY_INNER_TOL",
    "EntropyDensity",
    "entropy_density_canonical",
    "entropy_canonical",
    "entropy_lifshitz",
]

ENTROPY_TOL = 1e-6
ENTROPY_INNER_TOL = 1e-8
# the engine integrates the ray integrand over K, K = 2^64, to
# (tol - bound)/K, and K times its value and error are the density's:
# scaling by a power of 2 is exact, so the bits are those without K.
# Without it a That near 1e-309 overflowed: 1/(2 That), and at the first,
# subnormal, nodes |pi h| ~ 1/(4t) and the integrand ~ 1/(That (d+2)).  The
# integrand takes K q for q and forms -K N and the weight of K q at K That:
# |e^{2iqd} w| <= 2 and K |N| >= 4 K t sin(pi/4) keep |pi h/K| below 1e303
# at every t > 0, and K^2 MAX_Q^2 stays finite
_SCALE = 2.0 ** 64


@dataclass(frozen=True)
class EntropyDensity:
    """-dF/dThat at separation dtilde: the integrand of the distance integral.

    ``evaluations`` counts the integrand evaluations spent on this separation.
    For an array of separations, ``value``, ``dtilde`` and ``evaluations``
    are arrays (see ``entropy_density_canonical``)."""

    value: float
    dtilde: float
    That: float
    estimate: QuadratureEstimate
    evaluations: int


def _ray_seeds(d, that):
    """(edges, seg, bounds) of the density's ray integrals at the separations
    d, a 1-D array: segment seg[j] of ``numerics._gk_segments`` for each
    edge.  Each gets the head panel [0, 2s], then one panel per octave from
    2s to hi, with s = min(1/d, 1/2, That) and hi = min(45/(2 d sin phi),
    45 That/cos phi, ``MAX_Q``), where e^{2iqd} or the weight has decayed
    by e^{-45} (MAX_Q keeps 4q^2 finite), and a bound on int_hi^inf |h| dt.
    One GK15 panel takes the head: the pole -i/(2pi (d+2) q) of h is
    purely imaginary on the ray, so Re e^{i phi} h is regular at t = 0,
    and it first varies on the scale s, that of e^{2iqd}, of N and of the
    weight: a scan over the whole (d, That) box finds no converged density
    off its oracles by more than its estimate.

    The bound: |N| >= |2iq - 1|^2 - |e^{2iqd}| >= 4t (sin phi + t),
    |e^{2iqd}| = e^{-bt}, b = 2d sin phi, and |w| <= W(t) = |u|^2/sinh^2(Re u),
    u = q/(2 That), which for t >= hi is at most W(hi) and at most
    W(hi) (t/hi)^2 e^{-(t - hi) cos phi/That}, since sinh(a + x) >= sinh(a) e^x.
    Integrating (1/pi) W(t) e^{-bt}/(4t (sin phi + t)) with each of the three
    ways to drop a factor of t/(sin phi + t) gives the three terms of the min,
    in y = 1/(k hi), k = cos phi/That + b.  y > 1 only where hi = MAX_Q,
    where the first term is the least, so y is clipped at 1 and y^2 cannot
    overflow.  Every quotient is formed so that
    nothing overflows at any float d or That: 1/d is taken past d = 2, and
    45/(2 d sin phi) past d = 1e-75, below which it is above MAX_Q.
    """
    lo = 2.0 * np.minimum(1.0 / np.maximum(d, 2.0), that)
    hi = np.minimum(22.5 / _RAY_COS / np.maximum(d, 1e-75), min(45.0 * that / _RAY_COS, MAX_Q))
    ratio = hi / lo
    n = np.ceil(np.log2(ratio)).astype(int)
    m = n + 2                                       # edges of each separation
    start = m.cumsum() - m
    seg = np.arange(d.size).repeat(m)
    k = np.arange(seg.size) - (start + 1)[seg]      # -1, 0, ..., n
    edges = lo[seg] * ratio[seg] ** (k / n[seg])
    edges[start] = 0.0
    # Re u at hi; a/sinh a is 1 to the last bit below 1e-300, and 0/0 at 0
    a = np.maximum(_RAY_COS * hi / (2.0 * that), 1e-300)
    w_hi = 2.0 * (a / np.sinh(a)) ** 2
    bh = (2.0 * _RAY_COS) * (d * hi)                # b hi
    y = np.minimum(1.0 / (_RAY_COS * hi / that + bh), 1.0)
    bound = w_hi * np.exp(-bh) / (4.0 * math.pi) * np.minimum(y / hi, (y + y * y) / _RAY_COS)
    return edges, seg, bound


def entropy_density_canonical(dtilde, That: float,
                              tol: float = ENTROPY_INNER_TOL) -> EntropyDensity:
    """Entropy density in separation at (dtilde, That).

    ``dtilde`` is a number, or a 1-D array of separations whose q-integrals
    are all taken in one call of ``numerics._gk_segments`` and so in one
    adaptive loop, each with its own tolerance, stopping test and caps:
    every element gets the bits its scalar call gives.  For an array,
    ``value``, ``dtilde``, ``evaluations`` and the estimate's ``value``,
    ``abs_error_estimate`` and ``converged`` are arrays over it: each element
    of ``evaluations`` is its scalar call's ``estimate.evaluations``, and the
    estimate's ``evaluations`` is their total, an int.

    The density is (1/2pi) int_0^inf w flux_deficit dq, w = (u/sinh u)^2,
    u = q/(2 That), and the flux deficit is -2 Re[x/(1-x)] with
    x = e^{2iqd}/(2iq-1)^2 (as in the force; see ``forces``).  So the
    integrand is Re h with

        h = -(1/pi) w e^{2iqd}/N,    N = -expm1(2iqd) - 4iq - 4q^2,

    analytic in the open first quadrant, where |x| < 1 and the poles of w,
    q = 2 pi i n That, are not; at q = 0 it has the pole -i/(2pi (d+2) q).
    Along the ray q = t e^{i phi}, phi = pi/4, the density is

        Re int_0^inf e^{i phi} h(t e^{i phi}) dt + phi/(2pi (d+2)),

    the last term from the small arc around q = 0 (the arc at infinity
    vanishes).  The cavity resonances, just below the real axis, are
    q sin phi off the ray, and e^{2iqd} and w decay along it at every d and
    That, so the integrand is smooth: its panels (``_ray_seeds``) need no
    edges at the dips and no real-axis cut-off.  The one expm1 gives both
    N and e^{2iqd} = expm1 + 1, and the weight (u/sinh u)^2 is one sinh
    and a divide (``numerics._thermal_weight_raw``).  The integral stops
    at hi, where both have decayed by e^{-45}; the bound on what it drops
    is added to the error estimate, and the panels get the rest of tol, or
    only their seed pass where the bound alone is tol or more, which
    cannot converge.

    The exact density is -(1/2) dS_L/dd, with S_L the Lifshitz entropy with
    its zero mode kept (see the README).  The tests use that identity, and
    the same integral on rays at pi/8 and 3pi/8 by Gauss-Legendre, as this
    function's oracles.  That > 0 has the forces' domain: a That whose
    1/(8 pi That) overflows is a DomainError.
    """
    d = require_real_array("dtilde", dtilde)
    scalar, d = d.ndim == 0, np.atleast_1d(d)
    if d.ndim != 1 or not d.size:
        raise DomainError(f"dtilde must be a number or a non-empty 1-D array, got {dtilde!r}")
    That, tol = _require_that(require_real("That", That)), require_real("tol", tol)
    edges, seg, bounds = _ray_seeds(d, That)

    def f(t, s):   # Re e^{i phi} h(t e^{i phi}), with e^{i phi}/pi = (1 + i) cos(phi)/pi
        kq = t * (_RAY * _SCALE)
        x = np.expm1((t * d[s]) * _TWO_I_RAY)
        den = kq + 1j * _SCALE
        den *= kq
        den *= 4.0 / _SCALE
        den += x * _SCALE                       # -K N
        x += 1.0                                # e^{2iqd}
        x *= _thermal_weight_raw(kq, That * _SCALE)
        x /= den                                # pi h/K
        return (x.real - x.imag) * (_RAY_COS / math.pi)

    # inf: the seed pass only, where the bound alone is tol or more
    v, e, n = _gk_segments(f, edges, seg if d.size > 1 else 0,
                           [(tol - b) / _SCALE if b < tol else math.inf for b in bounds.tolist()])
    # phi/(2pi (d+2)) = 1/(8 (d+2)) at phi = pi/4
    value = np.array(v) * _SCALE + 0.125 / (d + 2.0)
    err, evals = np.array(e) * _SCALE + bounds, np.array(n)
    if scalar:
        est = QuadratureEstimate(float(value[0]), float(err[0]), int(evals[0]), tol)
        return EntropyDensity(est.value, float(d[0]), That, est, est.evaluations)
    est = QuadratureEstimate(value, err, int(evals.sum()), tol)
    return EntropyDensity(value, d, That, est, evals)


def entropy_canonical(point: DimensionlessPoint,
                      cutoff_lambda: float = DEFAULT_CUTOFF_LAMBDA,
                      tol: float = ENTROPY_TOL) -> Result:
    """Canonical entropy: distance integral of the density from d to Lambda.

    The outer integral runs in log distance, where dt times the density is
    smooth and tends to 1/4, so it starts from one GK15 panel on
    [log d, log Lambda] and the adaptive bisection splits only where that
    panel's error asks for it: every outer node costs a full density.  A
    thermal length d_T = 1/(2 pi That) inside (d, Lambda) is one more seed
    edge: there e^{-4 pi That dt} = e^{-2}, and dt s turns from the third-law
    ~That dt to 1/4, a knee that one panel took two bisection rounds for.  Each
    round of the outer integral makes one ``entropy_density_canonical``
    call with the separations of all its nodes, whose q-integrals share
    one adaptive loop.  Each inner density is asked for
    inner_tol = min(ENTROPY_INNER_TOL, tol/(4 (Lambda - d))), and
    (Lambda - d) * inner_tol is charged to the reported estimate, which is
    inf once a density did not converge; after a seed pass with such a
    density the outer integral takes no bisection round.

    The flux deficit is at most 1 and (1/2pi) int_0^inf (u/sinh u)^2 dq =
    pi That/6 (u = q/2That), so at every temperature

        S(d, That) <= (pi That/6) (Lambda - d).

    For That*Lambda << 1 only q << 1/Lambda contributes, where the deficit
    is 1 - 2/(x+2)^2, and the entropy vanishes linearly (third law):

        S -> (pi That/6) [(Lambda - d) - 2 (1/(d+2) - 1/(Lambda+2))].

    The linear regime ends near That ~ 1/Lambda; at Lambda = 100, d = 1,
    S(That = 0.01) is already only 0.79 of the linear value.  d and That
    are read as floats: an np.int64 or np.float32 That gives the float bits.
    """
    d, that = float(point.d), _require_that(require_real("That", point.That))
    tol = require_real("tol", tol)
    cutoff_lambda = require_real("cutoff_lambda", cutoff_lambda, low=d)
    inner_tol = min(ENTROPY_INNER_TOL, 0.25 * tol / (cutoff_lambda - d))

    inner_evals, inner_all_ok = [0], [True]

    def g(ts, _):
        # one density call per outer round: every node's separation at once
        dts = np.array([math.exp(t) for t in ts.tolist()])
        dens = entropy_density_canonical(dts, that, inner_tol)
        inner_evals[0] += dens.estimate.evaluations
        inner_all_ok[0] &= bool(dens.estimate.converged.all())
        return dens.value * dts

    edges = [math.log(d), math.log(cutoff_lambda)]
    d_thermal = 0.5 / (math.pi * that)
    if d < d_thermal < cutoff_lambda:
        edges.insert(1, math.log(d_thermal))
    # no bisection round once a density has failed: the estimate is inf
    v, e, _, _ = _adaptive_gk(g, edges, 0.75 * tol, lambda: inner_all_ok[0])
    err = e + (cutoff_lambda - d) * inner_tol if inner_all_ok[0] else math.inf
    return Result("canonical", point, QuadratureEstimate(v, err, inner_evals[0], tol),
                  cutoff_lambda)


def entropy_lifshitz(point: DimensionlessPoint,
                     cutoff_lambda: float = DEFAULT_CUTOFF_LAMBDA,
                     include_zero_mode: bool = True,
                     tol: float = LIFSHITZ_TOL) -> Result:
    """Lifshitz entropy from the closed Matsubara form (see module docstring).

    ``include_zero_mode`` keeps or drops the cutoff-dependent first line;
    the two choices expose the two horns of the third-law dilemma.  A value
    that is not finite (2 pi That (d+2)/Lambda is inf or 0) has the estimate inf.
    """
    d, that = float(point.d), _require_that(require_real("That", point.That))
    cutoff_lambda = require_real("cutoff_lambda", cutoff_lambda)
    tol = require_real("tol", tol, low=5e-324)   # each series takes tol/2 > 0
    c = 4.0 * math.pi * that

    def log_terms(n):
        return np.log1p(_matsubara(c, d, n)[1])

    def slope_terms(n):
        a, g = _matsubara(c, d, n)
        return a * ((1.0 + a) * d + 2.0) * g / (1.0 + a)

    s1 = sum_exponential_series(log_terms, 0.5 / c, math.exp(-c * d), 0.5 * tol)
    s2 = sum_exponential_series(slope_terms, 0.5 * (d + 2.0), math.exp(-c * d), 0.5 * tol)
    value = s1.value - s2.value
    scale = abs(value)                      # of the rounding term, as in forces
    if include_zero_mode:
        half_log = 0.5 * _zero_mode_log(that, d, cutoff_lambda)
        value += -half_log - 0.5
        scale += abs(half_log) + 1.0        # the 0.5, and the rounding of the log's argument
    method = "lifshitz" if include_zero_mode else "lifshitz_no_zero_mode"
    err = s1.abs_error_estimate + s2.abs_error_estimate + _ROUNDING * scale \
        if math.isfinite(value) else math.inf
    return Result(method, point,
                  QuadratureEstimate(value, err, s1.evaluations + s2.evaluations, tol),
                  cutoff_lambda)

