"""Every public scalar parameter takes any real number type and refuses the rest.

One row per public scalar parameter: ``call(x)`` evaluates the entry point
with that parameter set to x and every other argument fixed; ``good`` is a
value inside the domain that int, np.int64 and np.float32 represent exactly
wherever it is integral or float32-exact.  An int, np.int64, np.float32 or
np.float64 argument must give the float twin's result bit for bit.  bool,
strings, None, complex, non-finite and out-of-range arguments must raise
DomainError (never TypeError).  ``flux_deficit`` is the unchecked
vectorized kernel and has no row.

The cases that still differ wait for ROADMAP item 2 and are strict xfails:
``DimensionlessPoint`` and ``OscillatorySpec`` store their fields as given,
so the canonical force with an integral or float32 That (or a float32 d)
computes in the wrong dtype, and ``entropy_canonical`` refuses a numpy That.
"""
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacasimir import (
    DimensionlessPoint as P,
    DomainError,
    OscillatorySpec,
    PhysicalParams,
    asymptotic_force,
    bose_factor,
    casimir_force,
    coefficients_closed_form,
    coefficients_linear_solve,
    cosine_integral,
    entropy_canonical,
    entropy_density_canonical,
    entropy_lifshitz,
    entropy_lifshitz_temperature_slope,
    force_finite_t_canonical,
    force_finite_t_lifshitz,
    force_lifshitz_zero_mode_term,
    force_zero_t_canonical,
    force_zero_t_lifshitz,
    free_energy_lifshitz,
    integrate_oscillatory_tail,
    integrate_smooth_semi_infinite,
    kernel,
    sum_exponential_series,
    thermal_weight,
    to_dimensionless,
)

TOL = 2.0 ** -30          # a float32-exact tolerance near 1e-9
ITEM_2 = "ROADMAP item 2: typed inputs of the canonical routes"


@dataclass(frozen=True)
class Row:
    name: str
    call: Callable
    good: float
    low: float = 0.0
    inclusive: bool = False
    span: tuple[float, float] | None = None   # hypothesis range, cheap rows only


def _params(**kw):
    p = PhysicalParams(**{"a": 1.0, "gamma": 2.0, "v": 3.0, "T": 0.5, "hbar": 1.0, **kw})
    return p, to_dimensionless(p)


def _cos_tail(rate):
    return lambda q: np.cos(rate * q) / (1.0 + q)


def _smooth(x):
    return np.exp(-x)


ROWS = [
    *[Row(f"PhysicalParams.{k}", lambda x, k=k: _params(**{k: x}), 3.0, span=(0.01, 100.0))
      for k in ("a", "gamma", "v", "hbar")],
    Row("PhysicalParams.T", lambda x: _params(T=x), 2.0, inclusive=True, span=(0.0, 100.0)),
    Row("coefficients_closed_form.q", lambda x: coefficients_closed_form(x, 1.5), 2.0,
        span=(0.01, 100.0)),
    Row("coefficients_closed_form.d", lambda x: coefficients_closed_form(0.75, x), 2.0,
        span=(0.01, 100.0)),
    Row("coefficients_linear_solve.q", lambda x: coefficients_linear_solve(x, 1.5), 2.0,
        span=(0.01, 100.0)),
    Row("coefficients_linear_solve.d", lambda x: coefficients_linear_solve(0.75, x), 2.0,
        span=(0.01, 100.0)),
    Row("kernel.q", lambda x: kernel(x, 1.5), 2.0, inclusive=True, span=(0.0, 100.0)),
    Row("kernel.d", lambda x: kernel(0.75, x), 2.0, span=(0.01, 100.0)),
    Row("OscillatorySpec.angular_rate",
        lambda x: integrate_oscillatory_tail(_cos_tail(2.0), OscillatorySpec(x, 10.0), 1e-8),
        2.0),
    Row("OscillatorySpec.switch_point",
        lambda x: integrate_oscillatory_tail(_cos_tail(2.0), OscillatorySpec(2.0, x), 1e-8),
        12.0),
    Row("integrate_oscillatory_tail.tol",
        lambda x: integrate_oscillatory_tail(_cos_tail(2.0), OscillatorySpec(2.0, 10.0), x),
        TOL),
    Row("integrate_smooth_semi_infinite.decay_scale",
        lambda x: integrate_smooth_semi_infinite(_smooth, x, 1e-10), 1.0),
    Row("integrate_smooth_semi_infinite.tol",
        lambda x: integrate_smooth_semi_infinite(_smooth, 1.0, x), TOL),
    Row("cosine_integral.x", cosine_integral, 3.0, span=(1e-3, 1e4)),
    Row("sum_exponential_series.tol", lambda x: sum_exponential_series(lambda n: 0.5 ** n, x),
        TOL, span=(1e-15, 2.0)),
    Row("bose_factor.q", lambda x: bose_factor(x, 0.5), 2.0, span=(1e-6, 100.0)),
    Row("bose_factor.That", lambda x: bose_factor(0.75, x), 2.0, span=(0.01, 100.0)),
    Row("thermal_weight.q", lambda x: thermal_weight(x, 0.5), 2.0, span=(1e-6, 100.0)),
    Row("thermal_weight.That", lambda x: thermal_weight(0.75, x), 2.0, span=(0.01, 100.0)),
    Row("force_zero_t_canonical.d", force_zero_t_canonical, 2.0),
    Row("force_zero_t_canonical.tol", lambda x: force_zero_t_canonical(2.0, x), TOL),
    Row("force_zero_t_lifshitz.d", force_zero_t_lifshitz, 2.0, span=(0.1, 100.0)),
    Row("force_zero_t_lifshitz.tol", lambda x: force_zero_t_lifshitz(2.0, x), TOL),
    # tol 1e-6: a float32 input runs to the evaluation cap (0.7-1 s) at FORCE_TOL
    Row("force_finite_t_canonical.d", lambda x: force_finite_t_canonical(P(x, 0.5), 1e-6), 2.0),
    Row("force_finite_t_canonical.That", lambda x: force_finite_t_canonical(P(1.5, x), 1e-6),
        1.0, inclusive=True),
    Row("force_finite_t_canonical.tol", lambda x: force_finite_t_canonical(P(1.5, 0.5), x), TOL),
    Row("force_finite_t_lifshitz.d", lambda x: force_finite_t_lifshitz(P(x, 1.0)), 2.0,
        span=(0.1, 100.0)),
    Row("force_finite_t_lifshitz.That", lambda x: force_finite_t_lifshitz(P(2.0, x)), 1.0,
        span=(0.1, 10.0)),
    Row("force_finite_t_lifshitz.tol", lambda x: force_finite_t_lifshitz(P(2.0, 1.0), x), TOL,
        span=(1e-15, 2.0)),
    Row("force_lifshitz_zero_mode_term.d", lambda x: force_lifshitz_zero_mode_term(P(x, 1.0)),
        2.0, span=(0.01, 100.0)),
    Row("force_lifshitz_zero_mode_term.That",
        lambda x: force_lifshitz_zero_mode_term(P(2.0, x)), 1.0, inclusive=True,
        span=(0.0, 100.0)),
    Row("free_energy_lifshitz.d", lambda x: free_energy_lifshitz(P(x, 1.0)), 2.0,
        span=(0.1, 100.0)),
    Row("free_energy_lifshitz.That", lambda x: free_energy_lifshitz(P(2.0, x)), 1.0,
        span=(0.1, 10.0)),
    Row("free_energy_lifshitz.cutoff_lambda",
        lambda x: free_energy_lifshitz(P(2.0, 1.0), x), 100.0, span=(0.01, 1e4)),
    Row("free_energy_lifshitz.tol", lambda x: free_energy_lifshitz(P(2.0, 1.0), tol=x), TOL,
        span=(1e-15, 2.0)),
    Row("asymptotic_force.d", lambda x: asymptotic_force(P(x, 1.0), "canonical"), 2.0,
        span=(0.01, 100.0)),
    Row("asymptotic_force.That", lambda x: asymptotic_force(P(2.0, x), "lifshitz"), 1.0,
        inclusive=True, span=(0.0, 100.0)),
    Row("casimir_force.tol", lambda x: casimir_force(P(2.0, 1.0), "lifshitz", x), TOL,
        span=(1e-15, 2.0)),
    Row("entropy_density_canonical.dtilde", lambda x: entropy_density_canonical(x, 1.0), 2.0),
    Row("entropy_density_canonical.That", lambda x: entropy_density_canonical(2.0, x), 1.0),
    Row("entropy_density_canonical.tol",
        lambda x: entropy_density_canonical(2.0, 1.0, x), 2.0 ** -20),
    # the nested quadrature costs 10-25 ms even at Lambda = 2 and tol 1e-3
    Row("entropy_canonical.d", lambda x: entropy_canonical(P(x, 0.25), 2.0, 1e-3), 1.0),
    Row("entropy_canonical.That", lambda x: entropy_canonical(P(1.0, x), 2.0, 1e-3), 1.0),
    Row("entropy_canonical.cutoff_lambda",
        lambda x: entropy_canonical(P(1.0, 0.25), x, 1e-3), 2.0, low=1.0),
    Row("entropy_canonical.tol", lambda x: entropy_canonical(P(1.0, 0.25), 2.0, x), 2.0 ** -10),
    Row("entropy_lifshitz.d", lambda x: entropy_lifshitz(P(x, 1.0)), 2.0, span=(0.1, 100.0)),
    Row("entropy_lifshitz.That", lambda x: entropy_lifshitz(P(2.0, x)), 1.0, span=(0.1, 10.0)),
    Row("entropy_lifshitz.cutoff_lambda", lambda x: entropy_lifshitz(P(2.0, 1.0), x), 100.0,
        span=(0.01, 1e4)),
    Row("entropy_lifshitz.tol", lambda x: entropy_lifshitz(P(2.0, 1.0), tol=x), TOL,
        span=(1e-15, 2.0)),
    Row("entropy_lifshitz_temperature_slope.delta",
        lambda x: entropy_lifshitz_temperature_slope(P(2.0, 2.0), delta=x), 1.0,
        span=(1e-4, 1.5)),
    Row("entropy_lifshitz_temperature_slope.cutoff_lambda",
        lambda x: entropy_lifshitz_temperature_slope(P(2.0, 2.0), x), 100.0, span=(0.01, 1e4)),
    Row("entropy_lifshitz_temperature_slope.tol",
        lambda x: entropy_lifshitz_temperature_slope(P(2.0, 2.0), tol=x), TOL,
        span=(1e-15, 2.0)),
]
BY_NAME = {r.name: r for r in ROWS}
assert len(BY_NAME) == len(ROWS)

# (row, kind) pairs that still differ from the float twin
XFAIL = {
    ("OscillatorySpec.angular_rate", "float32"): "OscillatorySpec stores a float32 field as given",
    ("force_finite_t_canonical.d", "float32"): "float32 d keeps a float32 integrand",
    **{("force_finite_t_canonical.That", k): "the Bose weight takes That's dtype"
       for k in ("int", "int64", "float32")},
    **{("entropy_canonical.That", k): "entropy_canonical refuses a numpy That"
       for k in ("int64", "float32")},
}

KINDS = {"int": int, "int64": np.int64, "float32": np.float32, "float64": np.float64}


def _kinds(x):
    """The typed twins of the float x that carry exactly its value."""
    return {kind: cast(x) for kind, cast in KINDS.items() if float(cast(x)) == x}


def _key(result):
    """The numbers a result carries, as exact reprs; a DimensionlessPoint echo
    of the input is left out (it keeps the given type, see ROADMAP item 2)."""
    if isinstance(result, tuple):
        return tuple(_key(r) for r in result)
    if hasattr(result, "__dataclass_fields__"):
        return repr({k: v for k, v in vars(result).items() if k != "point"})
    return repr(result)


def _same_as_float_twin(row, x, skip=()):
    want = _key(row.call(x))
    for kind, typed in _kinds(x).items():
        if (row.name, kind) not in skip:
            assert _key(row.call(typed)) == want, (row.name, kind, typed)


BAD = [True, np.bool_(True), "1", None, math.nan, math.inf, -math.inf, 1j]


@pytest.mark.parametrize("name", list(BY_NAME))
def test_typed_input_gives_the_float_result_and_bad_input_domain_error(name):
    row = BY_NAME[name]
    _same_as_float_twin(row, row.good, skip=XFAIL)
    for bad in BAD + [row.low - 1.0] + ([] if row.inclusive else [row.low]):
        with pytest.raises(DomainError):
            row.call(bad)


@pytest.mark.parametrize("name, kind", [
    pytest.param(*case, marks=pytest.mark.xfail(strict=True, reason=f"{why}; {ITEM_2}"))
    for case, why in XFAIL.items()])
def test_typed_input_still_differs(name, kind):
    row = BY_NAME[name]
    assert _key(row.call(KINDS[kind](row.good))) == _key(row.call(row.good))


def _drawn(span):
    """Integral floats and float32-exact floats inside span = (lo, hi >= 1)."""
    lo, hi = (float(np.float32(b)) for b in span)
    lo = lo if lo >= span[0] else float(np.nextafter(np.float32(lo), np.float32(hi)))
    ints = st.integers(max(1, math.ceil(lo)), math.floor(hi)).map(float)
    return ints | st.floats(lo, hi, width=32)


@pytest.mark.parametrize("name", [r.name for r in ROWS if r.span])
@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_typed_input_gives_the_float_result_everywhere(name, data):
    row = BY_NAME[name]
    _same_as_float_twin(row, data.draw(_drawn(row.span)))


@pytest.mark.xfail(strict=True, reason=f"DimensionlessPoint stores its fields as given; {ITEM_2}")
def test_dimensionless_point_stores_floats():
    p = P(np.int64(2), np.float32(0.5))
    assert type(p.d) is float and type(p.That) is float


def test_huge_int_is_out_of_range():
    with pytest.raises(DomainError):
        cosine_integral(10 ** 400)
