"""Every public scalar parameter takes any real number type and refuses the
rest.  Each public entry checks its inputs once; the private engines of
``numerics`` take the floats their callers checked and have no row.

One row per scalar parameter (``casimir_force``: per route and per
temperature branch, That = 0 or above): ``call(x)`` evaluates the entry point
with that parameter set to x and every other argument fixed; ``good`` is a
value inside the domain that int, np.int64 and np.float32 represent exactly
wherever it is integral or float32-exact.  An int, np.int64, np.float32 or
np.float64 argument must give the float twin's result bit for bit.  bool,
strings, None, complex, non-finite and out-of-range arguments must raise
DomainError (never TypeError).  ``flux_deficit`` is the unchecked
vectorized kernel and has no row.

The one parameter that also takes an array,
``entropy_density_canonical.dtilde``, gets an array row: an int or float32
array gives the float64 array's bits, and a bool, string, object or complex
array, one holding NaN or 0, or a ragged sequence raises DomainError.

The cases that still differ wait for ROADMAP item 2 (after item 1) and are
strict xfails: ``DimensionlessPoint`` stores its fields as given, so the
canonical force with an integral or float32 That computes its Bose weight
in the wrong dtype.
"""
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltacasimir import (
    DimensionlessPoint as P,
    DomainError,
    casimir_force,
    coefficients_closed_form,
    entropy_canonical,
    entropy_density_canonical,
    entropy_lifshitz,
    free_energy_lifshitz,
    kernel,
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


ROWS = [
    Row("coefficients_closed_form.q", lambda x: coefficients_closed_form(x, 1.5), 2.0,
        span=(0.01, 100.0)),
    Row("coefficients_closed_form.d", lambda x: coefficients_closed_form(0.75, x), 2.0,
        span=(0.01, 100.0)),
    Row("kernel.q", lambda x: kernel(x, 1.5), 2.0, inclusive=True, span=(0.0, 100.0)),
    Row("kernel.d", lambda x: kernel(0.75, x), 2.0, span=(0.01, 100.0)),
    Row("casimir_force.canonical.zero_t.d", lambda x: casimir_force(P(x), "canonical"), 2.0),
    Row("casimir_force.canonical.zero_t.tol", lambda x: casimir_force(P(2.0), "canonical", x),
        TOL),
    Row("casimir_force.lifshitz.zero_t.d", lambda x: casimir_force(P(x), "lifshitz"), 2.0,
        span=(0.1, 100.0)),
    Row("casimir_force.lifshitz.zero_t.tol", lambda x: casimir_force(P(2.0), "lifshitz", x), TOL),
    # tol 1e-6: a float32 input runs to the evaluation cap (0.7-1 s) at FORCE_TOL
    Row("casimir_force.canonical.d", lambda x: casimir_force(P(x, 0.5), "canonical", 1e-6), 2.0),
    Row("casimir_force.canonical.That", lambda x: casimir_force(P(1.5, x), "canonical", 1e-6),
        1.0, inclusive=True),
    Row("casimir_force.canonical.tol", lambda x: casimir_force(P(1.5, 0.5), "canonical", x), TOL),
    Row("casimir_force.lifshitz.d", lambda x: casimir_force(P(x, 1.0), "lifshitz"), 2.0,
        span=(0.1, 100.0)),
    Row("casimir_force.lifshitz.That", lambda x: casimir_force(P(2.0, x), "lifshitz"), 1.0,
        inclusive=True, span=(0.1, 10.0)),
    Row("casimir_force.lifshitz.tol", lambda x: casimir_force(P(2.0, 1.0), "lifshitz", x), TOL,
        span=(1e-15, 2.0)),
    Row("free_energy_lifshitz.d", lambda x: free_energy_lifshitz(P(x, 1.0)), 2.0,
        span=(0.1, 100.0)),
    Row("free_energy_lifshitz.That", lambda x: free_energy_lifshitz(P(2.0, x)), 1.0,
        span=(0.1, 10.0)),
    Row("free_energy_lifshitz.cutoff_lambda",
        lambda x: free_energy_lifshitz(P(2.0, 1.0), x), 100.0, span=(0.01, 1e4)),
    Row("free_energy_lifshitz.tol", lambda x: free_energy_lifshitz(P(2.0, 1.0), tol=x), TOL,
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
]
BY_NAME = {r.name: r for r in ROWS}
assert len(BY_NAME) == len(ROWS)

# (row, kind) pairs that still differ from the float twin
XFAIL = {
    **{("casimir_force.canonical.That", k): "the Bose weight takes That's dtype"
       for k in ("int", "int64", "float32")},
}

KINDS = {"int": int, "int64": np.int64, "float32": np.float32, "float64": np.float64}


def _kinds(x):
    """The typed twins of the float x that carry exactly its value."""
    return {kind: cast(x) for kind, cast in KINDS.items() if float(cast(x)) == x}


def _key(result):
    """The numbers a result carries, as exact reprs and array bytes; a
    DimensionlessPoint echo of the input is left out (it keeps the given
    type, see ROADMAP item 2)."""
    if isinstance(result, tuple):
        return tuple(_key(r) for r in result)
    if isinstance(result, np.ndarray):
        return result.dtype.str, result.shape, result.tobytes()
    if hasattr(result, "__dataclass_fields__"):
        return tuple((k, _key(v)) for k, v in vars(result).items() if k != "point")
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


ARRAY_ROWS = {
    "entropy_density_canonical.dtilde": lambda a: entropy_density_canonical(a, 1.0),
}
BAD_ARRAYS = [np.array([True, True]), np.array(["1", "2"]), np.array([1, 2], dtype=object),
              np.array([1.0, 2.0 + 0j]), np.array([1.0, math.nan]), np.array([1.0, 0.0]),
              [1.0, [2.0, 3.0]]]


@pytest.mark.parametrize("name", list(ARRAY_ROWS))
def test_typed_array_gives_the_float_result_and_bad_array_domain_error(name):
    call = ARRAY_ROWS[name]
    want = _key(call(np.array([1.0, 2.0, 3.0])))
    for typed in ([1, 2, 3], np.array([1, 2, 3]), np.array([1, 2, 3], np.float32)):
        assert _key(call(typed)) == want, (name, typed)
    for bad in BAD_ARRAYS:
        with pytest.raises(DomainError):
            call(bad)


def _drawn(span):
    """Integral floats and float32-exact floats inside span = (lo, hi >= 1)."""
    lo, hi = (float(np.float32(b)) for b in span)
    lo = lo if lo >= span[0] else float(np.nextafter(np.float32(lo), np.float32(hi)))
    ints = st.integers(max(1, math.ceil(lo)), math.floor(hi)).map(float)
    return ints | st.floats(lo, hi, width=32)


@pytest.mark.parametrize("name", [r.name for r in ROWS if r.span])
@settings(max_examples=6)
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
        casimir_force(P(10 ** 400), "lifshitz")


# the force's largest d, 2d finite, holds for both routes: the Lifshitz force
# at d = 1e308 read 0 with err 0 and converged=True, after an overflow
# warning at That = 1, where its zero mode -That/(2(d+2)) is ~ -5e-309
@pytest.mark.parametrize("call, name", [
    (lambda: casimir_force(P(1e308), "canonical"), "d="),        # the rate 2d overflows
    (lambda: casimir_force(P(1.7e308, 1.0), "canonical"), "d="),
    *[(lambda d=d, t=t: casimir_force(P(d, t), "lifshitz"), "d=")
      for d in (1e308, 1.7e308) for t in (0.0, 1.0)],
    (lambda: entropy_lifshitz(P(1.0, 5e-324)), "That="),   # the bound 1/(8 pi That) overflows
    (lambda: entropy_lifshitz(P(1e300, 5e-324)), "That="),
    (lambda: entropy_lifshitz(P(2.0, 1.0), tol=5e-324), "tol"),   # each series' tol/2 is 0
], ids=["canonical_rate", "canonical_rate_warm", "lifshitz_d1e308", "lifshitz_d1e308_warm",
        "lifshitz_d1.7e308", "lifshitz_d1.7e308_warm", "lifshitz_entropy_bound",
        "lifshitz_entropy_bound_far", "lifshitz_entropy_half_tol"])
def test_an_engine_argument_out_of_range_is_a_domain_error_at_the_entry(call, name):
    # each of these would hand an engine an inf or a 0, which the engines no
    # longer check: a ZeroDivisionError, RuntimeWarning, OverflowError or
    # ValueError from inside them
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=name):
            call()
