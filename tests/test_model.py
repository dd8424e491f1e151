import numpy as np
import pytest

from deltacasimir import DimensionlessPoint, DomainError


def test_dimensionless_point_validation():
    with pytest.raises(DomainError):
        DimensionlessPoint(d=0.0)
    with pytest.raises(DomainError):
        DimensionlessPoint(d=1.0, That=-1.0)
    for bad in (True, np.bool_(True), "1", None, 1j):
        with pytest.raises(DomainError):
            DimensionlessPoint(d=1.0, That=bad)
