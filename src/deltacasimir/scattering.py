"""Single-mode scattering on two identical delta barriers a distance d apart.

For a unit right-moving wave the piecewise mode is e^{iqx} + B e^{-iqx} on
the left, C e^{iqx} + D e^{-iqx} between the barriers, G e^{iqx} on the
right (dimensionless units: phi continuous, phi' jumps by phi at each
barrier).  With den = (2q+i)^2 + e^{2iqd} the closed forms are

    C = 2q(2q+i)/den            D = -2iq e^{iqd}/den
    G = 4q^2/den                B = -2i (sin(qd) + 2q cos(qd))/den

Probability-flow continuity gives |B|^2+|G|^2 = 1 and |D|^2+|G|^2 = |C|^2,
so the force kernel K = |C|^2 + |D|^2 - 1 can be written with a single real
denominator:

    K = 8q^2(1+2q^2)/W - 1,
    W = |1 - e^{2idq}(1+2iq)^2|^2 = 4(sin(dq) + 2q cos(dq))^2 + 16 q^4.

The factored form of W is a rearrangement of the expanded trigonometric
form 1 + (1+4q^2)^2 - 2(1-4q^2)cos(2dq) + 8q sin(2dq) that stays accurate
as q -> 0, where all the individually O(1) terms cancel to O(q^2).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_real

__all__ = [
    "ScatteringCoefficients",
    "coefficients_closed_form",
    "kernel",
    "flux_deficit",
]

# the largest q of the scalar functions below: 4q^4 in the kernel overflows
# from q ~ 8e76, (2q+i)^2 in the closed form from q ~ 6.7e153
MAX_Q = 1e76


@dataclass(frozen=True)
class ScatteringCoefficients:
    """Complex amplitudes of one scattering mode."""

    B: complex
    C: complex
    D: complex
    G: complex


def coefficients_closed_form(q: float, d: float) -> ScatteringCoefficients:
    """Closed-form B, C, D, G at 0 < q <= MAX_Q, d > 0 and a finite 2 q d.

    No intermediate exceeds ~q^2, which stays in range up to MAX_Q.
    """
    q, d = _arguments(q, d)
    qd = q * d
    den = (2.0 * q + 1j) ** 2 + cmath.exp(2j * qd)
    c = 2.0 * q * (2.0 * q + 1j) / den
    dk = -2j * q * cmath.exp(1j * qd) / den
    g = 4.0 * q * q / den
    b = -2j * (math.sin(qd) + 2.0 * q * math.cos(qd)) / den
    return ScatteringCoefficients(B=b, C=c, D=dk, G=g)


def _arguments(q, d, inclusive=False):
    """(q, d) as floats: q real, above 0 (at or above it when ``inclusive``)
    and at most MAX_Q; d above 0; the phase 2 q d finite (sin(inf) is NaN)."""
    q, d = require_real("q", q, inclusive=inclusive), require_real("d", d)
    if q > MAX_Q:
        raise DomainError(f"q must be at most {MAX_Q!r}, got {q!r}")
    if not math.isfinite(2.0 * q * d):
        raise DomainError(f"the phase 2 q d must be finite, got q={q!r}, d={d!r}")
    return q, d


def flux_deficit(q, d):
    """1 - |C|^2 - |D|^2 = -K, vectorized over q (q >= 0 allowed).

    This is the quantity weighted by the occupancy factors in every force
    and entropy integrand.  It is N/W with

        N = 4 sin^2(dq) + 8q sin(2dq) + 8q^2 cos(2dq)
        W = 4 a^2 + 16 q^4,    a = sin(dq) + 2q cos(dq),

    and since 4a^2 = 4 sin^2 + 16q sin cos + 16q^2 cos^2, N = 4a^2 - 8q^2:

        flux_deficit = (a^2 - 2q^2) / (a^2 + 4q^4).

    The denominator has no cancellation, and the numerator cancels only
    where the deficit itself crosses 0; the q -> 0 limit is
    1 - 2/(d+2)^2.  The terms are accumulated in place, the powers of 2
    scaled exactly: 4q^4 is (2q^2)^2.  ``d`` is a scalar of any real
    type, read as a float, or an array of q's shape that gives each q its
    own separation.
    """
    q = np.asarray(q, float)
    scalar = q.ndim == 0
    if scalar:
        q = q.reshape(1)
    per_q = bool(getattr(d, "ndim", 0))
    d = d if per_q else float(d)
    c = q * d
    a = np.sin(c)
    np.cos(c, out=c)
    q2 = q + q
    c *= q2
    a += c                                  # sin(dq) + 2q cos(dq)
    a *= a
    q2 *= q
    w = q2 * q2
    w += a                                  # a^2 + 4q^4
    a -= q2                                 # a^2 - 2q^2
    big = bool(q.min(initial=math.inf) > 1e-130) or q > 1e-130   # True when no q ~ 0
    if big is True:
        out = a
    elif per_q:   # one separation per q: its limit where q ~ 0
        out = np.empty(q.shape)
        out[~big] = _deficit_at_zero(d[~big])
    else:
        out = np.full(q.shape, _deficit_at_zero(d))
    np.divide(a, w, out=out, where=big)
    return float(out[0]) if scalar else out


def _deficit_at_zero(d):
    """The q -> 0 limit of the flux deficit, 1 - 2/(d+2)^2 (1.0 past
    d = 1e150, where d*d overflows)."""
    d = np.minimum(d, 1e150)
    return (d * d + 4.0 * d + 2.0) / ((d + 2.0) * (d + 2.0))


def kernel(q: float, d: float) -> float:
    """Force kernel K(q, d) = |C|^2 + |D|^2 - 1 >= -1 for 0 <= q <= MAX_Q and
    a finite phase 2 q d; q = 0 returns the long-wavelength limit 2/(d+2)^2 - 1."""
    q, d = _arguments(q, d, inclusive=True)
    return -flux_deficit(q, d)
