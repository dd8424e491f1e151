"""Casimir force and free energy of the barrier pair, by both routes.

Canonical route: the force is a real-frequency mode sum,

    F(d, That) = -(1/2pi) int_0^inf dq q/(1 - e^{-q/That}) [1 - 8q^2(1+2q^2)/W(q,d)]

(the bracket is ``scattering.flux_deficit``; the Bose factor drops to 1 at
That = 0).  The integrand oscillates like cos(2dq)/(2q) at large q and has
a narrow cavity resonance near each q_m = m pi/(d+2), ~2 q_m^2/(d+2) wide.
It is Re h on the real axis, with

    h = w e^{2iqd}/(pi N),    N = -expm1(2iqd) - 4iq - 4q^2,

and w = q/(1 - e^{-q/That}) (w = q at That = 0).  h is analytic in the open
first quadrant, where |e^{2iqd}| < 1 and the Bose poles q = 2 pi i n That
are not, and decays there like e^{-2d Im q}; at q = 0 it has the pole
i That/(2pi (d+2) q).  So along the ray q = t e^{i phi}, phi = pi/4,

    F = Re int_0^inf e^{i phi} h(t e^{i phi}) dt - phi That/(2pi (d+2)),

the last term from the small arc around q = 0.  This is still the
real-frequency mode sum, deformed: the ray crosses no Bose pole.  The
resonances, poles just below the real axis, lie t sin phi off the ray, so
the integrand is smooth and decays exponentially at every d and That, and
``integrate_oscillatory_tail`` takes it on octave panels, with a bound on
the part past the ray's end.  Its seed pass checks h against the real
integrand w flux_deficit on the first period: a real Bose weight that is
not Re h (a Python-int That truncates it today, and an np.float32 That
computes it in float32) fails the check, and the estimate is inf, as it is
for a value that is not finite.

Lifshitz route: at That = 0 the imaginary-axis form

    F(d) = -(1/4pi) int_0^inf dz z / (e^{dz} (1+z)^2 - 1)

decays exponentially; at That > 0 it becomes the Matsubara sum

    F(d, That) = -[ sum_{n>=1} 4 pi n That^2 / (e^{4 pi n That d}(1+4 pi n That)^2 - 1)
                    + That/(2(d+2)) ]

whose zero-frequency part That/(2(d+2)) is cutoff independent even though
the regularized free energy

    Fcal(d, That) = That sum_{n>=1} log[1 - e^{-4 pi n That d}/(1+4 pi n That)^2]
                    + (That/2) log[2 pi That (d+2)/Lambda]

diverges logarithmically as the infrared cutoff Lambda grows.

``casimir_force`` is the force's one input check: it reads d as a float and
checks tol.  d has one domain for both routes, pi/MAX_Q (~3.1e-76) <= d with
2d finite (d <~ 9e307); outside it either route is a DomainError naming d.
Below it the canonical ray would end at MAX_Q before its exponential
decays, and the Lifshitz force would read 0 with converged=True; above it
the canonical rate 2d overflows, and the Matsubara force would drop its
zero mode to -0 with converged=True.

All values are dimensionless: forces in units hbar gamma^2/v^3, free energy
in units hbar gamma/v.  Negative force means attraction.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, require_real
from .model import DimensionlessPoint, Result
from .numerics import (
    _RAY_COS,
    QuadratureEstimate,
    integrate_oscillatory_tail,
    integrate_smooth_semi_infinite,
    sum_exponential_series,
)
from .scattering import MAX_Q, flux_deficit

__all__ = [
    "FORCE_TOL",
    "LIFSHITZ_TOL",
    "DEFAULT_CUTOFF_LAMBDA",
    "free_energy_lifshitz",
    "casimir_force",
]

FORCE_TOL = 1e-10
LIFSHITZ_TOL = 1e-12          # default of the Matsubara free energy and entropy
DEFAULT_CUTOFF_LAMBDA = 100.0

METHODS = ("canonical", "lifshitz")
# h's numerator and denominator are taken times K = 2^64, which keeps their
# bits (a power of 2 scales exactly) but keeps the complex division from
# overflowing where both are subnormal, at the first ray nodes past d ~ 1e305
_SCALE = 2.0 ** 64
# the rounding of a Matsubara value formed from its series (whose estimates
# hold their own) and its zero mode: 2 eps per unit of the magnitudes added,
# the zero mode's own rounding included
_ROUNDING = 2.0 ** -51


def _require_that(that):
    """The float That >= 0, or a DomainError if its 1/(8 pi That) overflows."""
    if that and 0.5 / (4.0 * math.pi * that) == math.inf:
        raise DomainError(f"That must be 0 or have a finite 1/(8 pi That), got That={that!r}")
    return that


def _zero_mode_log(that, d, cutoff_lambda):
    """log[2 pi That (d+2)/Lambda]: -inf where the argument underflows to 0."""
    x = 2.0 * math.pi * that * (d + 2.0) / cutoff_lambda
    return math.log(x) if x else -math.inf


def _canonical_force(d, that, tol):
    """The mode sum along the ray, plus its arc term (see the module
    docstring).  The ray's first scale is s = min(1/max(d, 2), That), That
    left out at That = 0, where e^{2iqd}, N or the Bose weight first vary.
    Past its end hi, with b = 2d sin phi and c = That/cos phi,
    |N| >= |2iq - 1|^2 - e^{-bt} >= 4t (sin phi + t) + (1 - e^{-b hi}) and
    |w| <= t + c (x/(1 - e^{-x}) <= 1 + x), so int_hi^inf |h| dt is at most
    e^{-b hi}/(pi b) [1/(4 (sin phi + hi)) + c/(4 hi (sin phi + hi) + 1 - e^{-b hi})].
    h and the bound read That as a float, and the real integrand that the
    check compares with h takes That as given.  A value that is not finite
    has the estimate inf."""
    t = float(that)
    if t > 0:
        def w(q):   # -> That at q = 0, in That's type (an int That truncates)
            return np.divide(q, -np.expm1(-q / that), out=np.full(q.shape, that),
                             where=q > 0, casting="unsafe")
    else:
        w = np.asarray   # w = q, the very array

    def f(q):
        return (-0.5 / math.pi) * w(q) * flux_deficit(q, d)

    def h(z):   # w E/(pi N) = -w E/(pi (expm1(2iqd) + 4q (q + i))), in place
        x = z * (2j * d)
        e = np.exp(x)
        np.expm1(x, out=x)
        n = z + 1j
        n *= z
        n *= 4.0
        x += n                                  # -N
        if t > 0:                               # w = -q/expm1(-q/That)
            x *= np.expm1(z / -t)
            x *= math.pi * _SCALE
        else:
            x *= -math.pi * _SCALE
        e *= z
        e *= _SCALE
        e /= x
        return e

    b = 2.0 * d * _RAY_COS

    def tail(hi):
        gap = -math.expm1(-b * hi)
        return math.exp(-b * hi) / (math.pi * b) * (
            0.25 / (_RAY_COS + hi) + t / _RAY_COS / (4.0 * hi * (_RAY_COS + hi) + gap))

    scale = min(1.0 / max(d, 2.0), t or math.inf)
    est = integrate_oscillatory_tail(f, h, 2.0 * d, scale, tol, tail)
    # phi That/(2pi (d+2)) = That/(8 (d+2)) at phi = pi/4
    value = est.value - 0.125 * t / (d + 2.0)
    err = est.abs_error_estimate if math.isfinite(value) else math.inf
    return QuadratureEstimate(value, err, est.evaluations, est.tol)


def _matsubara(c, d, n):
    """(a, g = y/(1-y)) at indices n: a = c n, y = e^{-ad}/(1+a)^2, 1 - y by expm1.
    (1+a)^2 - e^{-ad} >= a(2+a) gives g <= e^{-ad}/(a(2+a)), each series'
    majorant; log(1-y) = -log1p(g) keeps its digits at every y.  a is 0 where
    g underflows to 0 (a suffix of n), so That a and a((1+a)d+2), inf from
    That ~ 3.8e153 and 3e153, never make a NaN term as inf * 0."""
    a = c * n
    log_y = -d * a - 2.0 * np.log1p(a)
    g = np.exp(log_y) / -np.expm1(log_y)
    if not g[-1]:   # when g[0] is 0 too, g is all 0 and serves as a
        a = np.where(g > 0.0, a, 0.0) if g[0] else g
    return a, g


def _lifshitz_force(d, that, tol):
    """The imaginary-axis integral at That = 0, the Matsubara sum with its
    zero mode -That/(2(d+2)) above."""
    if that == 0.0:
        c = -0.25 / math.pi

        def g(z):
            z = np.asarray(z, float)
            # e^{dz}(1+z)^2 - 1 written via expm1 so the z -> 0 endpoint is regular
            den = np.expm1(d * z) * (1.0 + z) ** 2 + z * (2.0 + z)
            return c * np.divide(z, den, out=np.full(z.shape, 1.0 / (d + 2.0)), where=z > 0)

        return integrate_smooth_semi_infinite(g, 1.0 / d, tol)
    c = 4.0 * math.pi * that

    def terms(n):
        a, g = _matsubara(c, d, n)
        return that * a * g

    s = sum_exponential_series(terms, 0.5 * that, math.exp(-c * d), tol)
    value = -s.value + -that / (2.0 * (d + 2.0))
    # -s and the zero mode share a sign: |value| is the sum of their magnitudes
    return QuadratureEstimate(value, s.abs_error_estimate + _ROUNDING * abs(value),
                              s.evaluations, s.tol)


def free_energy_lifshitz(point: DimensionlessPoint,
                         cutoff_lambda: float = DEFAULT_CUTOFF_LAMBDA,
                         tol: float = LIFSHITZ_TOL) -> Result:
    """Regularized free energy; shifts by -(That/2) log(L2/L1) under a
    cutoff change and diverges like -(That/2) log(Lambda) as Lambda -> inf.
    d and That are read as floats, as in the Matsubara force; the estimate
    of a value that is not finite (2 pi That (d+2)/Lambda is inf or 0) is inf."""
    d, that = float(point.d), _require_that(require_real("That", point.That))
    cutoff_lambda = require_real("cutoff_lambda", cutoff_lambda)
    tol = require_real("tol", tol)
    c = 4.0 * math.pi * that

    def terms(n):
        return -that * np.log1p(_matsubara(c, d, n)[1])

    s = sum_exponential_series(terms, 0.5 * that / c, math.exp(-c * d), tol)
    log_term = 0.5 * that * _zero_mode_log(that, d, cutoff_lambda)
    value = s.value + log_term
    # the That term: the few eps by which the log's argument rounds are an
    # absolute error of the log
    err = s.abs_error_estimate + _ROUNDING * (abs(value) + abs(log_term) + that) \
        if math.isfinite(value) else math.inf
    return Result("lifshitz", point, QuadratureEstimate(value, err, s.evaluations, s.tol),
                  cutoff_lambda)


def casimir_force(point: DimensionlessPoint, method: str, tol: float = FORCE_TOL) -> Result:
    """The force at ``point`` by the canonical mode sum or the Lifshitz
    route; That = 0 takes the zero-temperature forms (the weight q, the
    imaginary-axis integral).  A d outside its domain (see the module
    docstring), or a That > 0 whose 1/(8 pi That) overflows (That <~
    2.2e-310), is a DomainError for both routes.  The canonical route takes
    That as given (see the module docstring on an int or float32 That)."""
    d, that, tol = float(point.d), _require_that(float(point.That)), require_real("tol", tol)
    if math.pi / d > MAX_Q or 2.0 * d == math.inf:
        raise DomainError(f"the force needs pi/MAX_Q = {math.pi / MAX_Q:.3g} <= d "
                          f"with 2d finite, got d={d!r}")
    if method == "canonical":
        est = _canonical_force(d, point.That, tol)
    elif method == "lifshitz":
        est = _lifshitz_force(d, that, tol)
    else:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    return Result(method, point, est)
