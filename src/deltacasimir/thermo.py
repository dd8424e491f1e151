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

from .errors import DomainError, require_real
from .forces import DEFAULT_CUTOFF_LAMBDA, LIFSHITZ_TOL
from .model import DimensionlessPoint
from .numerics import (
    OscillatorySpec,
    QuadratureEstimate,
    _adaptive_gk,
    _thermal_weight_raw,
    integrate_oscillatory_tail,
    sum_exponential_series,
)
from .scattering import flux_deficit

__all__ = [
    "ENTROPY_TOL",
    "ENTROPY_INNER_TOL",
    "EntropyValue",
    "EntropyDensity",
    "entropy_density_canonical",
    "entropy_canonical",
    "entropy_lifshitz",
    "entropy_lifshitz_temperature_slope",
]

ENTROPY_TOL = 1e-6
ENTROPY_INNER_TOL = 1e-8
# the density's q-integral leaves the real axis at one period pi/dtilde when
# its cut-off q_max spans more periods than this
_ROTATE_PERIODS = 16


@dataclass(frozen=True)
class EntropyValue:
    """Dimensionless Casimir entropy (k_B = 1) at infrared cutoff Lambda."""

    value: float
    method: str
    point: DimensionlessPoint
    cutoff_lambda: float
    estimate: QuadratureEstimate


@dataclass(frozen=True)
class EntropyDensity:
    """-dF/dThat at separation dtilde: the integrand of the distance integral."""

    value: float
    dtilde: float
    That: float
    estimate: QuadratureEstimate


def _density_continuation(dtilde, That):
    """h(q) = -(u/sinh u)^2 x/(pi (1-x)), u = q/(2 That) and
    x = e^{2iq dtilde}/(2iq-1)^2, for complex q: the density's integrand is
    Re h on the real axis.  The weight is (2u e^{-u}/(1 - e^{-2u}))^2, the
    expm1 form of ``_thermal_weight_raw``."""
    def h(q):
        u = q / (2.0 * That)
        b = 2.0 * u * np.exp(-u) / -np.expm1(-2.0 * u)
        x = np.exp(2j * dtilde * q) / (2j * q - 1.0) ** 2
        return -b * b * x / (math.pi * (1.0 - x))

    return h


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


def entropy_density_canonical(dtilde: float, That: float,
                              tol: float = ENTROPY_INNER_TOL) -> EntropyDensity:
    """Entropy density in separation at (dtilde, That).

    The csch^2 weight decays like 4 u^2 e^{-2u} (u = q/2That), so the
    integral stops at q_max = 2 That u, with u the smallest multiple of 0.5
    (at most 20) whose truncation bound is below tol/1000.  The kernel
    oscillates with period pi/dtilde.

    When q_max spans more than 16 periods, [0, pi/dtilde] is integrated on
    the real axis and the rest along Re q = pi/dtilde by
    ``integrate_oscillatory_tail`` with the continuation
    ``_density_continuation``, exactly as the canonical force's tail: the
    integrand is -(1/pi) (u/sinh u)^2 Re[x/(1-x)] with |x| < 1 for
    Im q >= 0, and the csch^2 poles lie on Re q = 0.  The contour passes
    above every cavity resonance beyond pi/dtilde, and no truncation
    bound is needed.

    Otherwise [0, q_max] is integrated on the real axis: panels are seeded
    one period wide (narrower only where 2.5 That or q_max/8 is) and
    refined adaptively.  Below q ~ 1 each period holds a cavity resonance,
    at sin(dtilde q) + 2q cos(dtilde q) = 0, near q_m = m pi/(dtilde+2): a
    dip of width ~ 2 q_m^2/(dtilde+2), far narrower than its seed panel at
    large dtilde.  Extra seed edges at q_m +- 4 q_m^2/(dtilde+2) give each
    dip a panel of its own.  The truncation bound is added to the error
    estimate, and the panels get the rest of tol.

    The exact density is -(1/2) dS_L/dd, with S_L the Lifshitz entropy with
    its zero mode kept (see the README).  The tests use that identity as
    the oracle for this function on d in [0.01, 200], That in [0.001, 3].
    """
    dtilde, That = require_real("dtilde", dtilde), require_real("That", That)
    tol = require_real("tol", tol)
    q_max, tail_bound = _thermal_cutoff(That, tol)
    period = math.pi / dtilde
    inv_2pi = 0.5 / math.pi

    def f(q):
        q = np.asarray(q, float)
        return inv_2pi * _thermal_weight_raw(q, That) * flux_deficit(q, dtilde)

    if q_max > _ROTATE_PERIODS * period:
        est = integrate_oscillatory_tail(f, OscillatorySpec(2.0 * dtilde, period), tol,
                                         continuation=_density_continuation(dtilde, That))
        return EntropyDensity(value=est.value, dtilde=dtilde, That=That, estimate=est)

    w = min(period, 2.5 * That, q_max / 8.0)
    n = min(int(math.ceil(q_max / w)), 300000)
    q_m = np.arange(1.0, min(1.0, q_max) * (dtilde + 2.0) / math.pi) * (math.pi / (dtilde + 2.0))
    half_width = 4.0 * q_m * q_m / (dtilde + 2.0)
    dips = np.concatenate([q_m - half_width, q_m + half_width])
    # np.sort, not np.unique: the first np.unique call imports numpy.ma (13 ms)
    edges = np.sort(np.concatenate([np.linspace(0.0, q_max, n + 1),
                                    dips[(dips > 0.0) & (dips < q_max)]]))
    v, e, ne, ok = _adaptive_gk(f, edges, tol - tail_bound)
    err = e + tail_bound
    est = QuadratureEstimate(v, err, ne, ok and err <= tol)
    return EntropyDensity(value=v, dtilde=dtilde, That=That, estimate=est)


def entropy_canonical(point: DimensionlessPoint,
                      cutoff_lambda: float = DEFAULT_CUTOFF_LAMBDA,
                      tol: float = ENTROPY_TOL) -> EntropyValue:
    """Canonical entropy: distance integral of the density from d to Lambda.

    The outer integral runs in log distance, where dt times the density is
    smooth and tends to 1/4, so it starts from one GK15 panel on
    [log d, log Lambda] and the adaptive bisection splits only where that
    panel's error asks for it: every outer node costs a full density.  Each
    inner density is asked for inner_tol = min(ENTROPY_INNER_TOL,
    tol/(4 (Lambda - d))), and (Lambda - d) * inner_tol is charged to the
    reported estimate.

    The flux deficit is at most 1 and (1/2pi) int_0^inf (u/sinh u)^2 dq =
    pi That/6 (u = q/2That), so at every temperature

        S(d, That) <= (pi That/6) (Lambda - d).

    For That*Lambda << 1 only q << 1/Lambda contributes, where the deficit
    is 1 - 2/(x+2)^2, and the entropy vanishes linearly (third law):

        S -> (pi That/6) [(Lambda - d) - 2 (1/(d+2) - 1/(Lambda+2))].

    The linear regime ends near That ~ 1/Lambda; at Lambda = 100, d = 1,
    S(That = 0.01) is already only 0.79 of the linear value.
    """
    # The one type test outside require_real: a That that is no int or float
    # (np.int64, np.float32) stays refused until ROADMAP item 2's single
    # q-integral makes this entropy cheap.  On the nested quadrature, accepting
    # it turns two fail-fast entropy_grid points into real work (+21% wall_s).
    if not isinstance(point.That, (int, float)):
        raise DomainError(f"That must be an int or float here, got {point.That!r}")
    d, that = float(point.d), require_real("That", point.That)
    tol = require_real("tol", tol)
    cutoff_lambda = require_real("cutoff_lambda", cutoff_lambda, low=d)
    inner_tol = min(ENTROPY_INNER_TOL, 0.25 * tol / (cutoff_lambda - d))

    inner_evals = [0]
    inner_all_ok = [True]

    def g(ts):
        ts = np.atleast_1d(np.asarray(ts, float))
        out = np.empty(ts.shape)
        for i, t in enumerate(ts):
            dt = math.exp(t)
            dens = entropy_density_canonical(dt, that, inner_tol)
            inner_evals[0] += dens.estimate.evaluations
            inner_all_ok[0] &= dens.estimate.converged
            out[i] = dens.value * dt
        return out

    edges = [math.log(d), math.log(cutoff_lambda)]
    v, e, n_outer, ok = _adaptive_gk(g, edges, 0.75 * tol)
    err = e + (cutoff_lambda - d) * inner_tol
    evals = inner_evals[0]
    converged = ok and inner_all_ok[0] and err <= tol
    est = QuadratureEstimate(v, err, evals, converged)
    return EntropyValue(v, "canonical", point, cutoff_lambda, est)


def entropy_lifshitz(point: DimensionlessPoint,
                     cutoff_lambda: float = DEFAULT_CUTOFF_LAMBDA,
                     include_zero_mode: bool = True,
                     tol: float = LIFSHITZ_TOL) -> EntropyValue:
    """Lifshitz entropy from the closed Matsubara form (see module docstring).

    ``include_zero_mode`` keeps or drops the cutoff-dependent first line;
    the two choices expose the two horns of the third-law dilemma.
    """
    d, that = float(point.d), require_real("That", point.That)
    cutoff_lambda = require_real("cutoff_lambda", cutoff_lambda)
    tol = require_real("tol", tol)
    c = 4.0 * math.pi * that

    def log_term(n):
        return -math.log1p(-math.exp(-c * n * d) / (1.0 + c * n) ** 2)

    def slope_term(n):
        # multiplied through by e^{-x} so nothing overflows at large n
        e = math.exp(-c * n * d)
        return c * n * (c * n * d + d + 2.0) * e / ((c * n + 1.0) * ((c * n + 1.0) ** 2 - e))

    # the error estimate is the sum of the two series' estimates
    s1 = sum_exponential_series(log_term, 0.5 * tol)
    s2 = sum_exponential_series(slope_term, 0.5 * tol)
    value = s1.value - s2.value
    if include_zero_mode:
        value += -0.5 * math.log(2.0 * math.pi * that * (d + 2.0) / cutoff_lambda) - 0.5
    method = "lifshitz" if include_zero_mode else "lifshitz_no_zero_mode"
    err = s1.abs_error_estimate + s2.abs_error_estimate
    est = QuadratureEstimate(value, err, s1.evaluations + s2.evaluations,
                             s1.converged and s2.converged)
    return EntropyValue(value, method, point, cutoff_lambda, est)


def entropy_lifshitz_temperature_slope(point: DimensionlessPoint,
                                       cutoff_lambda: float = DEFAULT_CUTOFF_LAMBDA,
                                       delta: float = 1e-3,
                                       include_zero_mode: bool = True,
                                       tol: float = LIFSHITZ_TOL) -> float:
    """Central finite difference of the Lifshitz entropy in That.

    In the long-distance regime (d >> 2) with the zero mode kept, this
    approaches -1/(2 That): entropy dropping with rising temperature.
    """
    delta, that = require_real("delta", delta), float(point.That)
    if that - delta <= 0:
        raise DomainError("delta must be smaller than That")
    up = entropy_lifshitz(DimensionlessPoint(point.d, that + delta),
                          cutoff_lambda, include_zero_mode, tol)
    dn = entropy_lifshitz(DimensionlessPoint(point.d, that - delta),
                          cutoff_lambda, include_zero_mode, tol)
    return (up.value - dn.value) / (2.0 * delta)
