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

from .errors import SingularSystemError, require_real

__all__ = [
    "ScatteringCoefficients",
    "KernelValue",
    "coefficients_closed_form",
    "coefficients_linear_solve",
    "kernel",
    "flux_deficit",
]


@dataclass(frozen=True)
class ScatteringCoefficients:
    """Complex amplitudes of one scattering mode."""

    B: complex
    C: complex
    D: complex
    G: complex

    @property
    def unitarity_residual(self) -> float:
        """|B|^2 + |G|^2 - 1 (zero in exact arithmetic)."""
        return abs(self.B) ** 2 + abs(self.G) ** 2 - 1.0

    @property
    def flux_residual(self) -> float:
        """|D|^2 + |G|^2 - |C|^2 (zero in exact arithmetic)."""
        return abs(self.D) ** 2 + abs(self.G) ** 2 - abs(self.C) ** 2


@dataclass(frozen=True)
class KernelValue:
    """Force kernel K = |C|^2 + |D|^2 - 1 at one (q, d); K >= -1 always."""

    value: float
    q: float
    d: float


def coefficients_closed_form(q: float, d: float) -> ScatteringCoefficients:
    """Closed-form B, C, D, G at wavenumber q > 0, separation d > 0.

    No intermediate exceeds ~q^2, so the evaluation stays in range for
    q up to 1e8 and far beyond.
    """
    q, d = require_real("q", q), require_real("d", d)
    qd = q * d
    den = (2.0 * q + 1j) ** 2 + cmath.exp(2j * qd)
    c = 2.0 * q * (2.0 * q + 1j) / den
    dk = -2j * q * cmath.exp(1j * qd) / den
    g = 4.0 * q * q / den
    b = -2j * (math.sin(qd) + 2.0 * q * math.cos(qd)) / den
    return ScatteringCoefficients(B=b, C=c, D=dk, G=g)


def coefficients_linear_solve(q: float, d: float) -> ScatteringCoefficients:
    """B, C, D, G from the 4x4 boundary-matching system, no closed form.

    Unknowns are matched by continuity of phi and the unit jump of phi' at
    the barriers x = -d/2 and x = +d/2, for a unit wave e^{iqx} incoming
    from the left.
    """
    q, d = require_real("q", q), require_real("d", d)
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
    try:
        x = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"matching system singular at q={q!r}, d={d!r}") from exc
    if not np.all(np.isfinite(x.view(float))):
        raise SingularSystemError(f"matching system ill-conditioned at q={q!r}, d={d!r}")
    return ScatteringCoefficients(B=complex(x[0]), C=complex(x[1]),
                                  D=complex(x[2]), G=complex(x[3]))


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
    1 - 2/(d+2)^2.  The terms are accumulated in place.
    """
    q_in = q
    q = np.atleast_1d(np.asarray(q, float))
    c = q * d
    a = np.sin(c)
    np.cos(c, out=c)
    c *= q
    c *= 2.0
    a += c                                  # sin(dq) + 2q cos(dq)
    a *= a
    qq = q * q
    w = qq * qq
    w *= 4.0
    w += a                                  # a^2 + 4q^4
    qq *= 2.0
    a -= qq                                 # a^2 - 2q^2
    out = np.full(q.shape, (d * d + 4.0 * d + 2.0) / ((d + 2.0) * (d + 2.0)))
    np.divide(a, w, out=out, where=q > 1e-130)
    if np.isscalar(q_in) or getattr(q_in, "ndim", 1) == 0:
        return float(out[0])
    return out


def resonance_edges(d, q_hi):
    """Quadrature seed edges that bracket the cavity resonances below min(1, q_hi).

    Below q ~ 1 the flux deficit has a sharp resonance in every period, at
    sin(dq) + 2q cos(dq) = 0, near q_m = m pi/(d+2) with width
    gamma_m = 2 q_m^2/(d+2).  Each gets the edges q_m +- gamma_m 4^k for
    k = 0, 1, ... while gamma_m 4^k < 0.4 pi/(d+2): panels that grow by 4x
    away from the resonance, so an adaptive integral resolves it in its
    seed pass instead of bisecting toward it from a period-wide panel.
    Only resonances narrower than 0.4 pi/(d+2) get edges, which is
    q_m < sqrt(0.2 pi) ~ 0.79 at any d.  The wider ones need none: a seed
    panel at most one period pi/d wide spans only a few of their widths,
    and the seed pass resolves them as it does any smooth bump.
    Returns an unsorted float array (empty when no resonance qualifies).
    """
    d = float(d)
    step = math.pi / (d + 2.0)
    q_m = step * np.arange(1.0, min(1.0, q_hi) / step)
    gamma = 2.0 * q_m * q_m / (d + 2.0)
    cap = 0.4 * step
    edges = [np.empty(0)]
    # gamma grows with m, so the resonances still graded form a prefix
    while n := int(np.count_nonzero(gamma < cap)):
        q_m, gamma = q_m[:n], gamma[:n]
        edges += [q_m - gamma, q_m + gamma]
        gamma = 4.0 * gamma
    return np.concatenate(edges)


def contour_switch(d):
    """Q = max(pi/d, 1.5 pi/(d+2)), where a contour tail leaves the real axis.

    Q covers at least one period pi/d of the flux deficit, and for d >= 4
    it lies midway between the first two resonances, pi/(d+2) and
    2 pi/(d+2): the line Re q = Q then keeps clear of both poles just below
    the real axis, where pi/d lies within ~2 pi/d^2 of the first one.
    """
    d = float(d)
    return max(math.pi / d, 1.5 * math.pi / (d + 2.0))


def kernel(q: float, d: float) -> KernelValue:
    """Force kernel K(q, d) = |C|^2 + |D|^2 - 1; q = 0 returns the
    long-wavelength limit 2/(d+2)^2 - 1."""
    q, d = require_real("q", q, inclusive=True), require_real("d", d)
    return KernelValue(value=-flux_deficit(q, d), q=q, d=d)
