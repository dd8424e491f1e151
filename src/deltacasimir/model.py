"""Parameter types and unit conventions.

Everything downstream runs in dimensionless variables: separation
d = gamma*a/v**2, temperature That = v*T/(hbar*gamma), and mode wavenumber
q = v**2*k/gamma.  Physical units enter only at the I/O boundary through
the force scale hbar*gamma**2/v**3 (free energies carry hbar*gamma/v,
entropies are plain numbers with k_B = 1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import require_real

__all__ = [
    "PhysicalParams",
    "DimensionlessPoint",
    "UnitsConvention",
    "to_dimensionless",
    "from_dimensionless_force",
]


@dataclass(frozen=True)
class PhysicalParams:
    """Physical inputs: barrier separation ``a``, barrier strength ``gamma``
    (velocity^2/length), propagation speed ``v``, temperature ``T`` (k_B = 1)
    and ``hbar``, each stored as a float."""

    a: float
    gamma: float
    v: float
    T: float = 0.0
    hbar: float = 1.0

    def __post_init__(self):
        for name in ("a", "gamma", "v", "T", "hbar"):
            object.__setattr__(self, name, require_real(name, getattr(self, name),
                                                        inclusive=name == "T"))


@dataclass(frozen=True)
class DimensionlessPoint:
    """Dimensionless separation ``d = gamma*a/v**2`` and temperature
    ``That = v*T/(hbar*gamma)``; the pair fixes every computation up to the
    overall force scale.  Any real number (int, float, numpy scalar) is
    accepted and stored as given; bool and non-real values are rejected."""

    d: float
    That: float = 0.0

    def __post_init__(self):
        require_real("d", self.d)
        require_real("That", self.That, inclusive=True)


class UnitsConvention(Enum):
    """Output normalization for forces.

    ``RAW_DIMENSIONLESS`` reports the force in units of hbar*gamma^2/v^3
    (figure 1's); ``FIG2_SCALE`` reports it in units of
    hbar*gamma^2/(4*pi*v^3), i.e. divides the dimensionless value by 1/(4*pi).
    """

    RAW_DIMENSIONLESS = "raw_dimensionless"
    FIG2_SCALE = "fig2_scale"

    @property
    def divisor(self) -> float:
        if self is UnitsConvention.FIG2_SCALE:
            return 1.0 / (4.0 * math.pi)
        return 1.0

    def apply(self, value: float) -> float:
        """Rescale a raw dimensionless force into this convention."""
        return value / self.divisor


def to_dimensionless(p: PhysicalParams) -> DimensionlessPoint:
    """Map physical parameters to (d, That) = (gamma*a/v^2, v*T/(hbar*gamma))."""
    return DimensionlessPoint(
        d=p.gamma * p.a / (p.v * p.v),
        That=p.v * p.T / (p.hbar * p.gamma),
    )


def from_dimensionless_force(f: float, p: PhysicalParams) -> float:
    """Convert a dimensionless force back to physical units, f * hbar*gamma^2/v^3."""
    return f * p.hbar * p.gamma * p.gamma / (p.v * p.v * p.v)
