"""Finite-temperature Casimir force and entropy for a (1+1)-dimensional
scalar field with two delta-function potential barriers.

Two independent formulations are implemented side by side: a canonical
mode-summation route built on the exact scattering amplitudes, and the
Lifshitz (Matsubara) route.  They agree at zero temperature, differ by a
factor of two in the long-distance force at finite temperature, and tell
opposite stories about the third law through the Casimir entropy.
"""

__version__ = "0.1.0"

from .errors import DomainError
from .model import (
    DimensionlessPoint,
    PhysicalParams,
    UnitsConvention,
    from_dimensionless_force,
    to_dimensionless,
)
from .numerics import (
    OscillatorySpec,
    QuadratureEstimate,
    cosine_integral,
    integrate_oscillatory_tail,
    integrate_smooth_semi_infinite,
    sum_exponential_series,
    thermal_weight,
)
from .scattering import (
    KernelValue,
    ScatteringCoefficients,
    coefficients_closed_form,
    flux_deficit,
    kernel,
)
from .forces import (
    DEFAULT_CUTOFF_LAMBDA,
    FORCE_TOL,
    LIFSHITZ_TOL,
    ForceValue,
    FreeEnergyValue,
    casimir_force,
    force_finite_t_canonical,
    force_finite_t_lifshitz,
    force_lifshitz_zero_mode_term,
    force_zero_t_canonical,
    force_zero_t_lifshitz,
    free_energy_lifshitz,
)
from .thermo import (
    ENTROPY_INNER_TOL,
    ENTROPY_TOL,
    EntropyDensity,
    EntropyValue,
    entropy_canonical,
    entropy_density_canonical,
    entropy_lifshitz,
)

__all__ = [
    "__version__",
    "DomainError",
    "PhysicalParams",
    "DimensionlessPoint",
    "UnitsConvention",
    "to_dimensionless",
    "from_dimensionless_force",
    "QuadratureEstimate",
    "OscillatorySpec",
    "integrate_smooth_semi_infinite",
    "integrate_oscillatory_tail",
    "cosine_integral",
    "sum_exponential_series",
    "thermal_weight",
    "ScatteringCoefficients",
    "KernelValue",
    "coefficients_closed_form",
    "kernel",
    "flux_deficit",
    "FORCE_TOL",
    "LIFSHITZ_TOL",
    "DEFAULT_CUTOFF_LAMBDA",
    "ForceValue",
    "FreeEnergyValue",
    "force_zero_t_canonical",
    "force_zero_t_lifshitz",
    "force_finite_t_canonical",
    "force_finite_t_lifshitz",
    "force_lifshitz_zero_mode_term",
    "free_energy_lifshitz",
    "casimir_force",
    "ENTROPY_TOL",
    "ENTROPY_INNER_TOL",
    "EntropyValue",
    "EntropyDensity",
    "entropy_density_canonical",
    "entropy_canonical",
    "entropy_lifshitz",
]
