"""Casimir entropy by both routes, and the entropy-density integrand.

The canonical entropy comes from the Maxwell relation: with the entropy
pinned to zero at infinite separation,

    S(d, That) = int_d^Lambda ddt  s(dt, That),
    s(dt, That) = (1/2pi) int_0^inf dq (q/2That)^2 csch^2(q/2That)
                                   [1 - 8q^2(1+2q^2)/W(q, dt)]

where s = -dF/dThat is the entropy density in separation.  The distance
integral diverges logarithmically (s -> 1/(4 dt) at large dt), so every
entropy value carries its infrared cutoff Lambda as mandatory metadata.

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
from .forces import DEFAULT_CUTOFF_LAMBDA, LIFSHITZ_TOL, _ROUNDING, _matsubara, _mode_sum, \
    _require_that, _zero_mode_log
from .model import DimensionlessPoint, Result
from .numerics import (
    QuadratureEstimate,
    _adaptive_gk,
    _oscillatory_segments,
    _thermal_weight_raw,
    sum_exponential_series,
)
# flux_deficit is not called here; the benchmark's tracer patches it by this name
from .scattering import _FINE_SEED_D, RESOLVED_D, contour_switch, flux_deficit, resonance_edges

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
# the density's q-integral leaves the real axis at ``contour_switch`` when its
# cut-off q_max spans more periods pi/dtilde than this
_ROTATE_PERIODS = 16


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


def _thermal_cutoff(That, tol):
    """(q_max, tail_bound): the density's q cut-off at (That, tol) and the
    bound on the integral it drops."""
    # |flux_deficit| <= 1/(2 q^2) for q > 0 (it is -2 Re[x/(1-x)] with
    # |x| = 1/(1+4q^2)) and int_{q_c}^inf tw dq <= 8 That e^{-2u}(u^2+u+1),
    # q_c = 2 That u, so (1/2pi) times the tail beyond q_c is at most
    # tail_bound(u) = e^{-2u}(u^2+u+1) / (2pi That u^2)
    for k in range(1, 41):
        u = 0.5 * k
        tail_bound = math.exp(-2.0 * u) * (u * u + u + 1.0) / (2.0 * math.pi * That * u * u)
        if tail_bound <= 1e-3 * tol:
            break
    return 2.0 * That * u, tail_bound


def entropy_density_canonical(dtilde, That: float,
                              tol: float = ENTROPY_INNER_TOL) -> EntropyDensity:
    """Entropy density in separation at (dtilde, That).

    ``dtilde`` is a number, or a 1-D array of separations whose q-integrals,
    of both kinds below (rotated, real axis), are all taken in one call of
    ``numerics._oscillatory_segments`` and so in one adaptive loop, each
    with its own tolerance, stopping test and caps: every element gets the
    bits its scalar call gives.  For an array, ``value``, ``dtilde``,
    ``evaluations`` and the estimate's ``value``, ``abs_error_estimate``
    and ``converged`` are arrays over it: each element of ``evaluations``
    is its scalar call's ``estimate.evaluations``, and the estimate's
    ``evaluations`` is their total, an int.

    The csch^2 weight decays like 4 u^2 e^{-2u} (u = q/2That), so the
    integral stops at q_max = 2 That u, with u the smallest multiple of 0.5
    (at most 20) whose truncation bound is below tol/1000.  The kernel
    oscillates with period pi/dtilde.

    Below q ~ 1 each period holds a cavity dip near q_m = m pi/(dtilde+2),
    ~2 q_m^2/(dtilde+2) wide; every real-axis stretch gets the graded seed
    edges of ``scattering.resonance_edges`` around those narrower than
    0.4 pi/(dtilde+2), so the seed pass resolves them: from half a width
    out below ``scattering._FINE_SEED_D``, and growing by 4x, not by the
    lone force's 2x, since a batch pays per evaluation.  Past
    ``scattering.RESOLVED_D`` the first dip is below float64's resolution:
    a member's estimate is inf, and it gets its seed pass only.

    When q_max spans more than 16 periods, the head [0, Q],
    Q = ``contour_switch(dtilde)``, is integrated on the real axis and the
    rest along Re q = Q, as the canonical force's tail (``forces._mode_sum``
    with the weight (u/sinh u)^2), and no truncation bound is needed.
    Otherwise [0, q_max] is integrated on the real axis, a tail-less
    integral of the same loop on panels one period wide (narrower only
    where 2.5 That or q_max/8 is);
    the truncation bound is added to its error estimate, and its panels
    get the rest of tol, or only their seed pass where the bound alone is
    tol or more (That <~ 3e-10 at tol 2.5e-9), which cannot converge.

    The exact density is -(1/2) dS_L/dd, with S_L the Lifshitz entropy with
    its zero mode kept (see the README).  The tests use that identity as
    the oracle for this function on d in [0.01, 200], That in [0.001, 3].
    """
    d = require_real_array("dtilde", dtilde)
    scalar, d = d.ndim == 0, np.atleast_1d(d)
    if d.ndim != 1 or not d.size:
        raise DomainError(f"dtilde must be a number or a non-empty 1-D array, got {dtilde!r}")
    That, tol = require_real("That", That), require_real("tol", tol)
    q_max, tail_bound = _thermal_cutoff(That, tol)
    # q_max/(pi/d) periods, with no pi/d to overflow at a subnormal dtilde
    rotated = (d * q_max > _ROTATE_PERIODS * math.pi).tolist()
    # a rotated q-integral's head ends at Q; a real-axis one runs to q_max
    # on panels a period wide (or 2.5 That) and leaves tail_bound of tol
    stop = [contour_switch(x) if r else q_max for x, r in zip(d.tolist(), rotated)]
    width = [None if r else min(math.pi / x, 2.5 * That) for x, r in zip(d.tolist(), rotated)]
    seeds, owner = resonance_edges(d, stop, np.where(d < _FINE_SEED_D, 0.5, 1.0), 4.0)

    def w(q):   # (u/sinh u)^2, for real q and for complex q on the tail
        return _thermal_weight_raw(q, That)

    f, h = _mode_sum(0.5 / math.pi, w, w, d)
    # inf: the seed pass only, where the truncation bound alone is tol or more
    # or where the first dip is not resolved (past RESOLVED_D)
    real_tol = tol - tail_bound if tail_bound < tol else math.inf
    v, e, n = _oscillatory_segments(f, h, (2.0 * d).tolist(), stop, [
        math.inf if x > RESOLVED_D else tol if r else real_tol
        for x, r in zip(d.tolist(), rotated)], seeds, owner, width)
    err = np.array(e) + np.where(rotated, 0.0, tail_bound)
    err[d > RESOLVED_D] = math.inf   # the first dip is not resolved
    value, evals = np.array(v, float), np.array(n)
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
    d, that = float(point.d), require_real("That", point.That)
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

