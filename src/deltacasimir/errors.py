"""Exception types shared across the package, and its one scalar-input check."""
import math
import numbers


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class SingularSystemError(RuntimeError):
    """The boundary-matching linear system came out numerically singular.

    For real q > 0 the matching matrix is provably regular, so this always
    indicates a bug or a corrupted parameter, never a physical regime.
    """


def require_real(name, x, low=0.0, inclusive=False) -> float:
    """Return ``x`` as a float if it is a finite real number above ``low``
    (at or above it when ``inclusive``); raise DomainError otherwise.

    Every ``numbers.Real`` is accepted: int, float and the numpy integer and
    floating scalars.  bool (numpy's included), strings, None and complex
    numbers are refused.
    """
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:   # an int beyond the float range
        v = math.inf
    if not (math.isfinite(v) and (v >= low if inclusive else v > low)):
        raise DomainError(f"{name} must be finite and {'>=' if inclusive else '>'} "
                          f"{low!r}, got {x!r}")
    return v
