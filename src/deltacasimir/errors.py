"""The package's exception type, and its two input checks."""
import math
import numbers

import numpy as np

__all__ = ["DomainError"]


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


def require_real(name, x, low=0.0, inclusive=False) -> float:
    """Return ``x`` as a float if it is a finite real number above ``low``
    (at or above it when ``inclusive``); raise DomainError otherwise.

    Every ``numbers.Real`` is accepted: int, float and the numpy integer and
    floating scalars.  bool (numpy's included), strings, None and complex
    numbers are refused.
    """
    # float first: isinstance tries the tuple in order, and a float, the
    # common case, passes without numbers.Real's slower registry lookup
    if isinstance(x, bool) or not isinstance(x, (float, numbers.Real)):
        raise DomainError(f"{name} must be a real number, got {x!r}")
    try:
        v = float(x)
    except OverflowError:   # an int beyond the float range
        v = math.inf
    if not (math.isfinite(v) and (v >= low if inclusive else v > low)):
        raise DomainError(f"{name} must be finite and {'>=' if inclusive else '>'} "
                          f"{low!r}, got {x!r}")
    return v


def require_real_array(name, x) -> np.ndarray:
    """``require_real``'s array twin: ``x`` as a float array if each element
    is finite and above 0 (a scalar goes through ``require_real``), else
    DomainError.  A bool, string, object or complex array is refused."""
    try:
        a = np.asarray(x)
    except ValueError:   # a ragged nesting of sequences
        raise DomainError(f"{name} must be a number or an array, got {x!r}") from None
    if a.ndim == 0:
        return np.asarray(require_real(name, x))
    if a.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be an array of real numbers, got {x!r}")
    a = a.astype(float)
    if not np.all(np.isfinite(a) & (a > 0.0)):
        raise DomainError(f"every {name} must be finite and > 0, got {x!r}")
    return a
