import math

import numpy as np
import pytest

from deltacasimir import (
    DimensionlessPoint,
    DomainError,
    PhysicalParams,
    UnitsConvention,
    casimir_force,
    from_dimensionless_force,
    to_dimensionless,
)


def test_to_dimensionless_identity_scaling():
    p = PhysicalParams(a=1, gamma=1, v=1, T=0, hbar=1)
    pt = to_dimensionless(p)
    assert pt.d == 1.0
    assert pt.That == 0.0


def test_to_dimensionless_direct_substitution():
    pt = to_dimensionless(PhysicalParams(a=2, gamma=3, v=1, T=1, hbar=1))
    assert pt.d == 6.0
    assert pt.That == pytest.approx(1.0 / 3.0, rel=1e-15)

    pt = to_dimensionless(PhysicalParams(a=1, gamma=2, v=2, T=4, hbar=2))
    assert pt.d == 0.5
    assert pt.That == 2.0


def test_from_dimensionless_force_scales():
    assert from_dimensionless_force(-0.1, PhysicalParams(a=1, gamma=1, v=1)) == -0.1
    assert from_dimensionless_force(-0.1, PhysicalParams(a=1, gamma=2, v=1)) == pytest.approx(-0.4, rel=1e-15)
    assert from_dimensionless_force(-0.1, PhysicalParams(a=1, gamma=1, v=2)) == pytest.approx(-0.0125, rel=1e-15)


@pytest.mark.parametrize("bad", [
    dict(a=0, gamma=1, v=1),
    dict(a=1, gamma=-1, v=1),
    dict(a=1, gamma=1, v=0),
    dict(a=1, gamma=1, v=1, T=-0.5),
    dict(a=1, gamma=1, v=1, hbar=0),
    dict(a=math.nan, gamma=1, v=1),
])
def test_physical_params_validation(bad):
    with pytest.raises(DomainError):
        PhysicalParams(**bad)


def test_dimensionless_point_validation():
    with pytest.raises(DomainError):
        DimensionlessPoint(d=0.0)
    with pytest.raises(DomainError):
        DimensionlessPoint(d=1.0, That=-1.0)
    for bad in (True, np.bool_(True), "1", None, 1j):
        with pytest.raises(DomainError):
            DimensionlessPoint(d=1.0, That=bad)


def test_round_trip_scaling_exact_for_binary_factor():
    # a -> a/2, gamma -> 2 gamma, T -> 2 T preserves (d, That) exactly
    p1 = PhysicalParams(a=3.0, gamma=5.0, v=2.0, T=7.0)
    p2 = PhysicalParams(a=1.5, gamma=10.0, v=2.0, T=14.0)
    pt1, pt2 = to_dimensionless(p1), to_dimensionless(p2)
    assert pt1.d == pt2.d
    assert pt1.That == pt2.That


def test_round_trip_scaling_within_one_ulp():
    lam = 3.0
    p1 = PhysicalParams(a=3.0, gamma=5.0, v=2.0, T=7.0)
    p2 = PhysicalParams(a=3.0 / lam, gamma=5.0 * lam, v=2.0, T=7.0 * lam)
    pt1, pt2 = to_dimensionless(p1), to_dimensionless(p2)
    assert abs(pt1.d - pt2.d) <= math.ulp(pt1.d)
    assert abs(pt1.That - pt2.That) <= math.ulp(max(pt1.That, pt2.That))


def test_downstream_depends_only_on_point_and_scale():
    # two physically distinct parameter sets with the same (d, That)
    p1 = PhysicalParams(a=2.0, gamma=3.0, v=1.0, T=1.0, hbar=1.0)
    p2 = PhysicalParams(a=8.0, gamma=3.0, v=2.0, T=0.5, hbar=1.0)
    pt1, pt2 = to_dimensionless(p1), to_dimensionless(p2)
    assert pt1 == pt2
    f = casimir_force(pt1, "lifshitz", tol=1e-12).value
    phys1 = from_dimensionless_force(f, p1)
    phys2 = from_dimensionless_force(f, p2)
    # same dimensionless value, physical values differ only by the scale ratio
    scale1 = p1.hbar * p1.gamma ** 2 / p1.v ** 3
    scale2 = p2.hbar * p2.gamma ** 2 / p2.v ** 3
    assert phys1 / scale1 == pytest.approx(phys2 / scale2, rel=1e-15)


def test_units_convention_factors():
    # figure 1's fig1_scale was the raw factor under a second name
    assert [u.value for u in UnitsConvention] == ["raw_dimensionless", "fig2_scale"]
    assert UnitsConvention.RAW_DIMENSIONLESS.apply(-0.5) == -0.5
    assert UnitsConvention.FIG2_SCALE.apply(-0.5) == pytest.approx(-0.5 * 4.0 * math.pi, rel=1e-15)
