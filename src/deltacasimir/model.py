"""The point every computation takes and the result it returns.

Everything runs in dimensionless variables: separation d = gamma*a/v**2,
temperature That = v*T/(hbar*gamma), and mode wavenumber q = v**2*k/gamma.
Forces come in units of hbar*gamma**2/v**3, free energies in hbar*gamma/v,
and entropies are plain numbers with k_B = 1.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import require_real
from .numerics import QuadratureEstimate

__all__ = ["DimensionlessPoint", "Result"]


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


@dataclass(frozen=True)
class Result:
    """A force, free energy or entropy at ``point`` by ``method``
    ("canonical", "lifshitz" or "lifshitz_no_zero_mode"), with its
    ``estimate``.  ``cutoff_lambda`` is the infrared cutoff Lambda of a free
    energy or an entropy, and None for a force."""

    method: str
    point: DimensionlessPoint
    estimate: QuadratureEstimate
    cutoff_lambda: float | None = None

    @property
    def value(self) -> float:
        return self.estimate.value
