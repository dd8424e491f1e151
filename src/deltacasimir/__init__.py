"""Finite-temperature Casimir force and entropy for a (1+1)-dimensional
scalar field with two delta-function potential barriers.

Two independent formulations are implemented side by side: a canonical
mode-summation route built on the exact scattering amplitudes, and the
Lifshitz (Matsubara) route.  They agree at zero temperature, differ by a
factor of two in the long-distance force at finite temperature, and tell
opposite stories about the third law through the Casimir entropy.
"""

__version__ = "0.1.0"

from . import errors, model, numerics, scattering, forces, thermo

# each public name is listed once, in its module's __all__
__all__ = ["__version__"]
for _module in (errors, model, numerics, scattering, forces, thermo):
    __all__ += _module.__all__
    globals().update((name, getattr(_module, name)) for name in _module.__all__)
del _module
