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
(``scattering.resonance_edges``; from half a width out, grown by 2x, below
d = 300 and That (d+2) = 500) if narrower than 0.4 pi/(d+2), so the seed
pass resolves them and most forces take no bisection round; the wider ones
need no extra edges.
Past d = ``scattering.RESOLVED_D`` float64 cannot resolve the first one,
and nothing bounds the force's error: its estimate is inf, as it is for a
value that is not finite.  At That > 0 the Bose weight
differs from q only for q below ~10 That, so the head also gets seed edges
at That 2^k, k = -1..5: without them, at That <~ 3e-4, that region lies
inside the first seed panel, below its first node, and the thermal part is
dropped with converged=True.  At That = 0 with Q > 8 the head gets the
edges 2^k: else q ~ 1, where the integrand turns into its cos(2dq)/(2q)
decay, lies inside the first seed panel, which K15 and G7 then
under-resolve alike, and a loose tol was met with converged=True far off.
A real integrand that is not Re h (a Python-int That truncates the force's
real Bose weight today, and an np.float32 That computes it in float32)
fails the engine's agreement check, and its estimate is inf too.

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
Below it the canonical head's flux deficit would read 0 (its 4q^4
overflows), and the Lifshitz force would read 0 with converged=True; above
it the canonical rate 2d overflows, and the Matsubara force would drop its
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
    QuadratureEstimate,
    integrate_oscillatory_tail,
    integrate_smooth_semi_infinite,
    sum_exponential_series,
)
from .scattering import _FINE_SEED_D, MAX_Q, RESOLVED_D, contour_switch, flux_deficit, \
    resonance_edges

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
# the canonical force's head has seed edges at That times these, 2^k for
# k = -1..5, or at these at That = 0 when Q > 8
_BOSE_SEEDS = 2.0 ** np.arange(-1.0, 6.0)
# from this That (d+2) on, the canonical force keeps a dip's seed edges at
# its width, growing by 4x, as from d = _FINE_SEED_D on.  Its Bose weight is
# ~That at the first dip, where rounding a panel's midpoint shifts the panel
# by up to half an ulp of q: an error of ~3e-18 That (d+2) that K15 and G7
# share.  Finer seeds let the estimate fall below it (at tol 1e-13 and
# That = 10, 4 of 300 forces on d in [4, 300) missed, from That (d+2) =
# 1.7e3); below 500 none of 4,950 forces did, at tol down to 1e-13
_FINE_SEED_HEAT = 500.0


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
    """The mode sum with the Bose-weighted q, w = q at That = 0, its tail
    along Re q = ``contour_switch(d)`` and its head seeded as the module
    docstring says: below d = ``_FINE_SEED_D`` and That (d+2) =
    ``_FINE_SEED_HEAT`` the resonance edges start at half a width and grow
    by 2x, since a lone force pays ~50 us of call overhead per GK pass
    however few panels it refines.  A value that is not finite, or past
    ``RESOLVED_D``, has the estimate inf."""
    q0 = contour_switch(d)
    fine = d < _FINE_SEED_D and that * (d + 2.0) < _FINE_SEED_HEAT
    seeds = resonance_edges([d], [q0], [0.5 if fine else 1.0], 2.0 if fine else 4.0)[0]
    if that > 0:
        seeds = np.concatenate([seeds, that * _BOSE_SEEDS])

        def w(q):   # -> That at q = 0, in That's type (an int That truncates)
            return np.divide(q, -np.expm1(-q / that), out=np.full(q.shape, that),
                             where=q > 0, casting="unsafe")

        def h_w(z):
            return z / -np.expm1(-z / that)
    else:
        if q0 > 8.0:   # q ~ 1 would lie inside the first seed panel, [0, Q/8]
            seeds = np.concatenate([seeds, _BOSE_SEEDS])
        w = h_w = np.asarray   # w = q, the very array
    f, h = _mode_sum(-0.5 / math.pi, w, h_w, [d])
    est = integrate_oscillatory_tail(f, h, 2.0 * d, q0, tol, seeds)
    # past RESOLVED_D the first dip is not resolved, and nothing bounds the
    # error; a value that is not finite (the Bose weight's q/That overflows
    # at That <~ 1e-307) has no error to bound
    if d > RESOLVED_D or not math.isfinite(est.value):
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
