"""Exact half-Lifshitz oracles for the canonical entropy, its density and
the force, the 4x4 boundary-matching solve that checks the closed-form
scattering amplitudes, the fingerprint of the host that the exact pins
(golden hashes, byte and bit digests) were recorded on, and ``lone_tail``,
which runs the ray engine on the tests' integrands with the bound on their
dropped part.

The flux deficit is -2 Re[x/(1-x)] with x = e^{2iqd}/(2iq-1)^2, analytic in
the upper half q-plane.  Splitting the canonical weight q(1+n) into
(q/2) coth(q/2That) + q/2 rotates the coth half onto the Matsubara sum, so

    s_can(d, That)     = -(1/2) dS_L/dd (d, That)
    S_can(d, That; L)  = (1/2) [S_L(d, That) - S_L(L, That)]

with S_L the Lifshitz entropy with its zero mode kept (the cutoff of the
zero mode cancels).  With c = 4 pi That, a = c n and y = e^{-ad}/(1+a)^2,

    S_L = -(1/2) log[2 pi That (d+2)/L] - 1/2
          + sum_n { -log(1-y) - a((1+a)d+2) y / [(1+a)(1-y)] }
    s_can = 1/(4(d+2))
          + sum_n { a y/(1-y) - a^2 ((1+a)d+2) y / [2(1+a)(1-y)^2] }.

Everything is float64: the terms are formed with expm1/log1p so 1-y keeps
its digits at small a, log(1-y) comes from whichever of y and 1-y holds
more digits, and the terms are summed exactly with math.fsum, block by
block.
The series needs about 60/(c d) terms.  At small That*d its partial sums
grow to O(1/That) and cancel down to an O(That) density, so each term's
rounding shows:
against an 80-bit extended-precision sum of the same series (itself within
3e-18 of mpmath), the float64 density is off by up to 0.8 eps sum|terms|
(9.7e-16 at d = 0.0186, That = 0.001) where the program is within 1e-18.
``density_identity`` therefore also returns a rounding allowance,
2 eps (sum|terms| + 1/(4(d+2))), and so do the two Lifshitz series,
``entropy_lifshitz_series`` and ``force_lifshitz_series``.

The same rotation gives the canonical force,

    F_can(d, That) = (1/2) [F(d, 0) + F_L(d, That)],

with the zero-temperature force F(d, 0) = -(1/4pi) int_0^inf z y/(1-y) dz,
y = e^{-dz}/(1+z)^2, and the Matsubara force
F_L = -[That sum_n a y/(1-y) + That/(2(d+2))] at a = 4 pi n That.  The
integral is done by 30-point Gauss-Legendre on log-spaced panels out to
z = 45/d, the series like the entropy's; both have terms of one sign, so
float64 keeps all but a few ulp of the sum.  ``force_zero_t_mpmath`` takes
the same integral with mpmath at 30 digits, for the small d where the
Gauss-Legendre panels are not checked.  ``force_cold`` adds the thermal
part's low-temperature series to F(d, 0), for That (d+2) <= 0.05, where the
Matsubara series would need ~60/(4 pi That d) terms; ``density_cold`` is
the density's series, on the same Taylor coefficients of the flux deficit.
``density_ray`` takes the density along a ray into the first quadrant, by
Gauss-Legendre on geometric panels, at any d and That and at an angle of
the caller's choice, ``force_ray`` the force, That = 0 included, and
``entropy_ray`` the entropy, whose distance integral is closed on the ray.
"""
import cmath
import ctypes
import math
from pathlib import Path

import numpy as np

from deltacasimir.numerics import _RAY_COS, integrate_oscillatory_tail
from deltacasimir.scattering import ScatteringCoefficients

_GL_X, _GL_W = np.polynomial.legendre.leggauss(30)
# terms per block of a Matsubara series: 2^18 make 2 MiB arrays and 8 MiB
# lists, so memory stays bounded at small That*d, where a series needs
# 60/(4 pi That d) terms (4.8e7 at d = 0.001, That = 1e-4)
_BLOCK = 2 ** 18


def _series(d, that, term):
    """(sum, sum of |terms|) of term(a, y, 1-y, (1+a)d+2) over n = 1, 2, ...

    The terms are formed in blocks of ``_BLOCK``.  A block's fsum s and the
    fsum r of its terms and -s carry the block's exact sum to within
    eps^2 |s|, so the total is as exactly rounded as one fsum of all the
    terms: blocking adds no rounding allowance.
    """
    c = 4.0 * math.pi * that
    stop = math.ceil(60.0 / (c * d)) + 10.0
    parts, sum_abs = [], 0.0
    for n0 in np.arange(1.0, stop, _BLOCK):
        a = c * np.arange(n0, min(n0 + _BLOCK, stop))
        log_y = -a * d - 2.0 * np.log1p(a)
        y = np.exp(log_y)
        one_minus_y = -np.expm1(log_y)
        t = term(a, y, one_minus_y, (1.0 + a) * d + 2.0)
        sum_abs += float(np.abs(t).sum())
        t = t.tolist()
        s = math.fsum(t)
        parts += [s, math.fsum(t + [-s])]
    return math.fsum(parts), sum_abs


def _log1m(y, omy):
    """log(1-y) from 1-y where y > 1/2 and from y below: log(omy) alone
    loses up to eps per term where y is small, 3e-13 of the entropy's sum
    at (d, That) = (0.01, 0.001)."""
    return np.where(y > 0.5, np.log(omy), np.log1p(-y))


def entropy_lifshitz_series(d, that, cutoff_lambda):
    """Lifshitz entropy with the zero mode kept, summed directly.

    Returns (value, rounding): the allowance for value's float64 rounding,
    2 eps (sum|log terms| + sum|slope terms| + |value|).
    """
    logs, logs_abs = _series(d, that, lambda a, y, omy, p: -_log1m(y, omy))
    slopes, slopes_abs = _series(d, that, lambda a, y, omy, p: a * p * y / ((1.0 + a) * omy))
    zero_mode = -0.5 * math.log(2.0 * math.pi * that * (d + 2.0) / cutoff_lambda) - 0.5
    value = zero_mode + (logs - slopes)
    return value, 2.0 * np.finfo(float).eps * (logs_abs + slopes_abs + abs(value))


def density_identity(d, that):
    """-(1/2) dS_L/dd: the exact canonical entropy density at (d, That).

    Returns (value, rounding): the allowance for value's float64 rounding is
    at least 2.5x every error measured against the extended-precision sum.
    """
    def term(a, y, omy, p):
        g = y / omy
        return a * g - a * a * p * g / (2.0 * (1.0 + a) * omy)

    total, total_abs = _series(d, that, term)
    head = 0.25 / (d + 2.0)
    rounding = 2.0 * np.finfo(float).eps * (total_abs + head)
    return head + total, rounding


def density_ray(d, that, phi):
    """The canonical entropy density at (d, That) from the ray q = t e^{i phi},
    0 < phi < pi/2: Re int_0^inf e^{i phi} h(t e^{i phi}) dt + phi/(2 pi (d+2)).

    h = (1/pi) w E/(4q(q+i) + E - 1), E = e^{2iqd} = expm1(2iqd) + 1, is the
    continuation of (1/2pi) w flux_deficit, w = (u/sinh u)^2, u = q/(2 That),
    analytic in the open first quadrant; its pole -i/(2pi(d+2)q) at q = 0 gives
    the small arc's term.  30-point Gauss-Legendre on [0, a], a = min(1/d,
    1/2, That)/64, then on panels a factor sqrt 2 wide out to 50 decay
    lengths of e^{2iqd} or of w along the ray, whichever ends first, so any
    two angles give two independent quadratures of one number.

    Returns (value, rounding): 2 eps (int |h| dt + the arc term), which covers
    the rounding of Re h next to its O(1/t) imaginary part near t = 0.
    """
    c, s = math.cos(phi), math.sin(phi)
    a = min(1.0 / max(d, 2.0), that) / 64.0
    hi = min(25.0 / (d * s), 50.0 * that / c, 1e76)
    edges = np.concatenate([[0.0], a * 2.0 ** (np.arange(math.ceil(2.0 * math.log2(hi / a)) + 1)
                                              / 2.0)])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_X).ravel()
    q = t * cmath.exp(1j * phi)
    u = q / (2.0 * that)
    e = np.expm1(2j * q * d)
    h = cmath.exp(1j * phi) / math.pi * (u / np.sinh(u)) ** 2 * (e + 1.0) / (4.0 * q * (q + 1j) + e)
    weights = (half[:, None] * _GL_W).ravel()
    arc = phi / (2.0 * math.pi * (d + 2.0))
    value = math.fsum((weights * h.real).tolist()) + arc
    return value, 2.0 * np.finfo(float).eps * (float(weights @ np.abs(h)) + arc)


def force_ray(d, that, phi):
    """The canonical force at (d, That) from the ray q = t e^{i phi},
    0 < phi < pi/2: Re int_0^inf e^{i phi} h(t e^{i phi}) dt - phi That/(2 pi (d+2)).

    h = w E/(pi N), E = e^{2iqd} and N = -expm1(2iqd) - 4iq - 4q^2, is the
    continuation of -(1/2pi) w flux_deficit with the Bose-weighted
    w = q/(1 - e^{-q/That}) (w = q at That = 0), analytic in the open first
    quadrant, where the Bose poles 2 pi i n That are not; its pole
    i That/(2pi(d+2)q) at q = 0 gives the small arc's term.  30-point Gauss-Legendre on [0, a],
    a = min(1/d, 1/2, That)/64 (That left out at That = 0), then on panels a
    factor sqrt 2 wide out to 50 decay lengths of E along the ray (w grows
    like q, and 1/N decays like 1/q^2), so any two angles give two
    independent quadratures of one number.

    E is taken by exp, not as expm1 + 1: where |E| is below eps, expm1 + 1
    keeps only its absolute rounding, and w does not decay to hide it (at
    d = 100 and That = 0 that was 1.6e-14 of the force).  Returns (value,
    rounding): 2 eps (int |h| dt + |the arc term|), which covers the
    rounding of Re h next to its O(That/t) imaginary part near t = 0.
    """
    a = min(1.0 / max(d, 2.0), that or math.inf) / 64.0
    hi = min(25.0 / (d * math.sin(phi)), 1e76)
    edges = np.concatenate([[0.0], a * 2.0 ** (np.arange(math.ceil(2.0 * math.log2(hi / a)) + 1)
                                              / 2.0)])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_X).ravel()
    q = t * cmath.exp(1j * phi)
    w = q / -np.expm1(-q / that) if that else q
    h = cmath.exp(1j * phi) / math.pi * w * np.exp(2j * q * d) \
        / (-np.expm1(2j * q * d) - 4.0 * q * (q + 1j))
    weights = (half[:, None] * _GL_W).ravel()
    arc = -phi * that / (2.0 * math.pi * (d + 2.0))
    value = math.fsum((weights * h.real).tolist()) + arc
    return value, 2.0 * np.finfo(float).eps * (float(weights @ np.abs(h)) + abs(arc))


def entropy_ray(d, that, cutoff_lambda, phi):
    """The canonical entropy at (d, That) with cutoff Lambda from the ray
    q = t e^{i phi}, 0 < phi < pi/2:
    Re int_0^inf e^{i phi} h(t e^{i phi}) dt + phi log((Lambda+2)/(d+2))/(2 pi).

    The distance integral of the density's continuation is closed,
    int_d^Lambda x_t/(1-x_t) dt = log(N_d/N_Lambda)/(2iq) with x_t =
    e^{2iqt}/(2iq-1)^2 and N_t = (2iq-1)^2 (1-x_t) = -expm1(2iqt) - 4iq - 4q^2,
    so h = (i/2pi) w log(N_d/N_Lambda)/q, w = (u/sinh u)^2, u = q/(2 That):
    the principal log, since both factors of (1-x_d)/(1-x_Lambda) lie in the
    right half-plane, taken as log1p((N_d - N_Lambda)/N_Lambda) where the
    ratio is near 1, which keeps its digits there.  Its pole
    (i/2pi) log((d+2)/(Lambda+2))/q at q = 0 gives the small arc's term.  30-point Gauss-Legendre on [0, a],
    a = min(1/max(Lambda, 2), That)/64 (N_Lambda first varies on 1/Lambda),
    then on panels a factor sqrt 2 wide out to 50 decay lengths of e^{2iqd}
    or of w along the ray, whichever ends first, as in ``density_ray``.

    Returns (value, rounding): 2 eps (int |h| dt + the arc term), which covers
    the rounding of Re h next to its O(1/t) imaginary part near t = 0.
    """
    c, s = math.cos(phi), math.sin(phi)
    a = min(1.0 / max(cutoff_lambda, 2.0), that) / 64.0
    hi = min(25.0 / (d * s), 50.0 * that / c, 1e76)
    edges = np.concatenate([[0.0], a * 2.0 ** (np.arange(math.ceil(2.0 * math.log2(hi / a)) + 1)
                                              / 2.0)])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    t = (mid[:, None] + half[:, None] * _GL_X).ravel()
    q = t * cmath.exp(1j * phi)
    u = q / (2.0 * that)
    m_d, m_lambda = np.expm1(2j * q * d), np.expm1(2j * q * cutoff_lambda)
    n_d, n_lambda = -m_d - 4.0 * q * (q + 1j), -m_lambda - 4.0 * q * (q + 1j)
    # near 1 the ratio is 1 + (N_d - N_Lambda)/N_Lambda, N_d - N_Lambda =
    # E_Lambda - E_d: from expm1 while E_d is near 1, else from exp, whose
    # relative rounding holds where E is below eps
    diff = np.where(np.abs(m_d) < 0.5, m_lambda - m_d,
                    np.exp(2j * q * cutoff_lambda) - np.exp(2j * q * d)) / n_lambda
    log = np.where(np.abs(diff) < 0.5, np.log1p(diff), np.log(n_d / n_lambda))
    h = cmath.exp(1j * phi) * 1j / (2.0 * math.pi) * (u / np.sinh(u)) ** 2 * log / q
    weights = (half[:, None] * _GL_W).ravel()
    # log((Lambda+2)/(d+2)), whose ratio rounds to eps of 1 where Lambda - d is small
    arc = phi * math.log1p((cutoff_lambda - d) / (d + 2.0)) / (2.0 * math.pi)
    value = math.fsum((weights * h.real).tolist()) + arc
    return value, 2.0 * np.finfo(float).eps * (float(weights @ np.abs(h)) + arc)


def entropy_identity(d, that, cutoff_lambda):
    """(1/2)[S_L(d) - S_L(Lambda)]: the exact canonical entropy with cutoff Lambda.

    Returns (value, rounding): half the two series' allowances, which also
    covers the rounding of their difference.
    """
    near, near_rounding = entropy_lifshitz_series(d, that, cutoff_lambda)
    far, far_rounding = entropy_lifshitz_series(cutoff_lambda, that, cutoff_lambda)
    return 0.5 * (near - far), 0.5 * (near_rounding + far_rounding)


def force_lifshitz_zero_t(d):
    """F(d, 0) = -(1/4pi) int_0^inf z/(e^{dz}(1+z)^2 - 1) dz."""
    edges = np.concatenate([[0.0], np.geomspace(1e-3 * min(1.0, 1.0 / d), 45.0 / d, 160)])
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    z = (mid[:, None] + half[:, None] * _GL_X).ravel()
    log_y = -d * z - 2.0 * np.log1p(z)
    terms = (half[:, None] * _GL_W).ravel() * z * np.exp(log_y) / -np.expm1(log_y)
    return -math.fsum(terms) / (4.0 * math.pi)


def force_zero_t_mpmath(d):
    """F(d, 0) by mpmath at 30 digits, rounded to a float: the integral of
    ``force_lifshitz_zero_t``, broken at each decade below 1/d (a third of
    a decade gives the same digits) and at 1/d, 10/d and 100/d."""
    import mpmath
    with mpmath.workdps(30):
        dm = mpmath.mpf(d)
        edges = [0, 1] + [mpmath.mpf(10) ** k for k in range(1, 12) if 10 ** k < 1 / d]
        return float(-mpmath.quad(lambda z: z / (mpmath.exp(dm * z) * (1 + z) ** 2 - 1),
                                  edges + [1 / dm, 10 / dm, 100 / dm, mpmath.inf])
                     / (4 * mpmath.pi))


def force_lifshitz_series(d, that):
    """F_L(d, That), the Matsubara force with its zero mode.

    Returns (value, rounding): the allowance for value's float64 rounding,
    2 eps (That sum|terms| + |value|).
    """
    total, total_abs = _series(d, that, lambda a, y, omy, p: a * y / omy)
    value = -(that * total + that / (2.0 * (d + 2.0)))
    return value, 2.0 * np.finfo(float).eps * (that * total_abs + abs(value))


def force_identity(d, that):
    """(1/2)[F(d, 0) + F_L(d, That)]: the exact canonical force; F(d, 0) at That = 0."""
    zero_t = force_lifshitz_zero_t(d)
    if that == 0.0:
        return zero_t
    return 0.5 * (zero_t + force_lifshitz_series(d, that)[0])


def _cold_moments(d, that, terms):
    """(1/2pi) (2k+1)! zeta(2k+2) D_2k(d) That^{2k+2} for k < terms, as
    mpmath numbers; the caller sets 40 digits.

    The flux deficit is even in q and analytic near 0 in the form
    (b^2 - 2)/(b^2 + 4q^2), b = d sinc(dq) + 2 cos(dq); D_2k are its q = 0
    Taylor coefficients, from ``mpmath.taylor``, and the Bose weight's
    moments are int_0^inf q^{2k+1}/(e^{q/That} - 1) dq =
    (2k+1)! zeta(2k+2) That^{2k+2}.  The cold series built on them are
    asymptotic, their smallest term about e^{-pi/(That (d+2))}.
    """
    import mpmath
    dm, t = mpmath.mpf(d), mpmath.mpf(that)

    def deficit(q):
        b = dm * mpmath.sinc(dm * q) + 2 * mpmath.cos(dm * q)
        return (b * b - 2) / (b * b + 4 * q * q)

    coefficients = mpmath.taylor(deficit, 0, 2 * terms - 2)[::2]
    return [mpmath.factorial(2 * k + 1) * mpmath.zeta(2 * k + 2) * c * t ** (2 * k + 2)
            / (2 * mpmath.pi) for k, c in enumerate(coefficients)]


def force_cold(d, that, terms=7):
    """F(d, 0) - (1/2pi) sum_{k<terms} (2k+1)! zeta(2k+2) D_2k(d) That^{2k+2}:
    the canonical force's cold series (``_cold_moments``), valid for
    That (d+2) <= 0.05.  F(d, 0) is ``force_lifshitz_zero_t``.
    """
    import mpmath
    with mpmath.workdps(40):
        thermal = float(-mpmath.fsum(_cold_moments(d, that, terms)))
    return force_lifshitz_zero_t(d) + thermal


def density_cold(d, that, terms=7):
    """(1/2pi) sum_{k<terms} (2k+2)! zeta(2k+2) D_2k(d) That^{2k+1}: the
    canonical entropy density's cold series: the weight (u/sinh u)^2,
    u = q/(2 That), has the moments int_0^inf q^{2k} (u/sinh u)^2 dq =
    (2k+2)! zeta(2k+2) That^{2k+1}, so each term is (2k+2)/That times one
    of ``_cold_moments``.

    Returns (value, last): the size of the last kept term, which a point
    must hold below 1e-16 of the value for the series to serve as an
    oracle there; That (d+2) <= 0.05 alone does not make it so.
    """
    import mpmath
    with mpmath.workdps(40):
        series = [2 * (k + 1) * m / that for k, m in enumerate(_cold_moments(d, that, terms))]
        return float(mpmath.fsum(series)), float(abs(series[-1]))


def coefficients_linear_solve(q, d):
    """B, C, D, G at float q > 0, d > 0 from the 4x4 boundary-matching
    system, with no closed form.

    The unknowns are matched by continuity of phi and the unit jump of phi'
    at the barriers x = -d/2 and x = +d/2, for a unit wave e^{iqx} incoming
    from the left.  For real q > 0 the system is regular.
    """
    p = cmath.exp(0.5j * q * d)
    iq = 1j * q
    # unknowns [B, C, D, G]
    a = np.array([
        [p,            -1.0 / p,  -p,        0.0],        # phi continuous at -d/2
        [iq * p - p,   iq / p,    -iq * p,   0.0],        # phi' jump at -d/2
        [0.0,          p,         1.0 / p,   -p],         # phi continuous at +d/2
        [0.0,          -iq * p,   iq / p,    iq * p - p], # phi' jump at +d/2
    ], dtype=complex)
    rhs = np.array([-1.0 / p, (1.0 + iq) / p, 0.0, 0.0], dtype=complex)
    x = np.linalg.solve(a, rhs)
    assert np.all(np.isfinite(x.view(float))), (q, d)
    return ScatteringCoefficients(B=complex(x[0]), C=complex(x[1]),
                                  D=complex(x[2]), G=complex(x[3]))


# the host the exact pins were recorded on: another host may move their
# last bits (ROADMAP item 13)
RECORDED_HOST = "AVX512_SKX True, OpenBLAS SkylakeX"


def host_fingerprint():
    """Whether numpy dispatches its AVX512_SKX loops on this host, and
    OpenBLAS's core name, in the form of ``RECORDED_HOST``: the two choices
    that move a value's last bits.  The core name is "unknown" where numpy
    ships no scipy-openblas library."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:   # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    core = "unknown"
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        name = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        name.argtypes, name.restype = [], ctypes.c_char_p
        core = name().decode()
    return f"AVX512_SKX {__cpu_features__['AVX512_SKX']}, OpenBLAS {core}"


def lone_tail(f, h, omega, scale, tol):
    """``numerics.integrate_oscillatory_tail`` of f and its continuation h,
    which must satisfy |h(q)| <= e^{-omega Im q} on the ray past its end hi:
    the part dropped, int_hi^inf |h| dt, is then at most
    e^{-omega hi sin phi}/(omega sin phi), the bound passed to the engine."""
    rate = omega * _RAY_COS
    return integrate_oscillatory_tail(f, h, omega, scale, tol,
                                      lambda hi: math.exp(-rate * hi) / rate)
