"""Casimir force and free energy of the barrier pair, by both routes.

Canonical route: the force is a real-frequency mode sum,

    F(d, That) = -(1/2pi) int_0^inf dq q/(1 - e^{-q/That}) [1 - 8q^2(1+2q^2)/W(q,d)]

(the bracket is ``scattering.flux_deficit``; the Bose factor drops to 1 at
That = 0).  The integrand oscillates like cos(2dq)/(2q) at large q, so it
goes through ``integrate_oscillatory_tail`` with angular rate 2d.  It is
``_mode_sum`` with the weight w = q/(1 - e^{-q/That}), whose poles
q = 2 pi i n That lie on Re q = 0, so its continuation h decays like
e^{-2d Im q} on Re q > 0.  The engine integrates the head [0, Q] on the
real axis and the tail along Re q = Q, which is exact; the force is still
the real-frequency mode sum.  The head spans at
least one period, Q = max(pi/d, 1.5 pi/(d+2)): for d >= 4 the line
Re q = Q then passes midway between the first two cavity resonances,
near q_m = m pi/(d+2), instead of close to the first one.  The resonances
in the head, each ~2 q_m^2/(d+2) wide, get graded seed edges
(``scattering.resonance_edges``) if narrower than 0.4 pi/(d+2), so the
seed pass resolves them; the wider ones need no extra edges.  Past d =
``scattering.RESOLVED_D`` float64 cannot resolve the first one, and nothing
bounds the force's error: its estimate is inf.  At That > 0 the Bose weight
differs from q only for q below ~10 That, so the head also gets seed edges
at That 2^k, k = -1..5: without them, at That <~ 3e-4, that region lies
inside the first seed panel, below its first node, and the thermal part is
dropped with converged=True.  A real integrand that is not Re h (a
Python-int That truncates the force's real Bose weight today, and an
np.float32 That computes it in float32) fails the engine's agreement check,
and its estimate is inf too.

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

All values are dimensionless: forces in units hbar gamma^2/v^3, free energy
in units hbar gamma/v.  Negative force means attraction.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, require_real
from .model import DimensionlessPoint, Result
from .numerics import (
    QuadratureEstimate,
    integrate_oscillatory_tail,
    integrate_smooth_semi_infinite,
    sum_exponential_series,
)
from .scattering import MAX_Q, RESOLVED_D, contour_switch, flux_deficit, resonance_edges

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
# the rounding of a Matsubara value formed from its series (whose estimates
# hold their own) and its zero mode: 2 eps per unit of the magnitudes added,
# the zero mode's own rounding included
_ROUNDING = 2.0 ** -51
# the canonical force's head has seed edges at That times these, 2^k for k = -1..5
_BOSE_SEEDS = 2.0 ** np.arange(-1.0, 6.0)


def _mode_sum(c, weight, h_weight, d):
    """The canonical mode sum's integrand f and its continuation h at the
    separations ``d`` (a list or an array, indexed by the segment index s
    of ``numerics._gk_apply``):

        f(q, s) = c w(q) flux_deficit(q, d[s]),    w = weight(q) for real q.

    The flux deficit is -2 Re[x/(1-x)] with x = e^{2iqd}/(2iq-1)^2, so f is
    Re h on the real axis with

        h(q, s) = -2c w(q) x/(1-x),    w = h_weight(q) for complex q.

    For Re q > 0 and Im q >= 0, |x| < 1: where w is analytic there, h is,
    and it decays like e^{-2d Im q}, so a tail along Re q = Q is exact.
    The force has c = -1/(2 pi) and the Bose-weighted q, the entropy
    density c = 1/(2 pi) and (u/sinh u)^2, u = q/(2 That).
    """
    k = -0.5 / c   # 1/(-2c), exactly +-pi for c = -+1/(2 pi): h = +-w x/(pi (1-x))

    def f(q, s):
        return c * weight(q) * flux_deficit(q, d[s])

    def h(q, s):
        x = np.exp(2j * d[s] * q) / (2j * q - 1.0) ** 2
        return h_weight(q) * x / (k * (1.0 - x))

    return f, h


def _canonical_force(d, that, tol):
    """The mode sum with the Bose-weighted q, w = q at That = 0, its tail
    along Re q = ``contour_switch(d)`` and its head seeded as the module
    docstring says.  Below d = pi/MAX_Q (~3.1e-76) the head's nodes lie
    where the flux deficit's 4q^4 overflows and the deficit reads 0, so such
    a d is a DomainError, as a q above MAX_Q is for the scalar kernel."""
    q0 = contour_switch(d)
    if q0 > MAX_Q:
        raise DomainError(f"the canonical force needs d >= pi/MAX_Q = {math.pi / MAX_Q:.3g}, "
                          f"got d={d!r}")
    seeds = resonance_edges([d], [q0])[0]
    if that > 0:
        seeds = np.concatenate([seeds, that * _BOSE_SEEDS])

        def w(q):   # -> That at q = 0, in That's type (an int That truncates)
            return np.divide(q, -np.expm1(-q / that), out=np.full(q.shape, that),
                             where=q > 0, casting="unsafe")

        def h_w(z):
            return z / -np.expm1(-z / that)
    else:
        w = h_w = np.asarray   # w = q, the very array
    f, h = _mode_sum(-0.5 / math.pi, w, h_w, [d])
    est = integrate_oscillatory_tail(f, h, 2.0 * d, q0, tol, seeds)
    if d > RESOLVED_D:   # the first dip is not resolved: nothing bounds the error
        return QuadratureEstimate(est.value, math.inf, est.evaluations, est.tol)
    return est


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


def _lifshitz_force(point, tol):
    """The imaginary-axis integral at That = 0, the Matsubara sum with its
    zero mode -That/(2(d+2)) above; d and That are read as floats, so a
    float32 or integer point gives its float twin's bits."""
    if point.That == 0.0:
        d = require_real("d", point.d)
        c = -0.25 / math.pi

        def g(z):
            z = np.asarray(z, float)
            # e^{dz}(1+z)^2 - 1 written via expm1 so the z -> 0 endpoint is regular
            den = np.expm1(d * z) * (1.0 + z) ** 2 + z * (2.0 + z)
            return c * np.divide(z, den, out=np.full(z.shape, 1.0 / (d + 2.0)), where=z > 0)

        return integrate_smooth_semi_infinite(g, 1.0 / d, tol)
    d, that = float(point.d), require_real("That", point.That)
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
    d and That are read as floats, as in the Matsubara force; the
    estimate of a value that is not finite (2 pi That (d+2) overflows) is inf."""
    d, that = float(point.d), require_real("That", point.That)
    cutoff_lambda = require_real("cutoff_lambda", cutoff_lambda)
    c = 4.0 * math.pi * that

    def terms(n):
        return -that * np.log1p(_matsubara(c, d, n)[1])

    s = sum_exponential_series(terms, 0.5 * that / c, math.exp(-c * d), tol)
    log_term = 0.5 * that * math.log(2.0 * math.pi * that * (d + 2.0) / cutoff_lambda)
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
    imaginary-axis integral).  The canonical route reads d as a float at
    That = 0 and takes d and That as given above it (see the module
    docstring on an int or float32 That)."""
    if method == "canonical":
        if point.That == 0.0:
            est = _canonical_force(require_real("d", point.d), 0.0, tol)
        else:
            est = _canonical_force(point.d, point.That, tol)
    elif method == "lifshitz":
        est = _lifshitz_force(point, tol)
    else:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    return Result(method, point, est)
