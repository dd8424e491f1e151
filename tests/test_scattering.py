import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coefficients_linear_solve

from deltacasimir import (
    DomainError,
    coefficients_closed_form,
    flux_deficit,
    kernel,
)
from deltacasimir.scattering import MAX_Q, resonance_edges


def test_long_wavelength_limit():
    co = coefficients_closed_form(1e-8, 1.0)
    assert abs(co.C - 1.0 / 3.0) <= 1e-6
    assert abs(co.D + 1.0 / 3.0) <= 1e-6
    assert abs(co.B + 1.0) <= 1e-6
    assert abs(co.G) <= 1e-6


def test_ultraviolet_limit_no_overflow():
    co = coefficients_closed_form(1e8, 1.0)
    for z in (co.B, co.C, co.D, co.G):
        assert math.isfinite(z.real) and math.isfinite(z.imag)
    assert abs(co.C - 1.0) <= 1e-6
    assert abs(co.D) <= 1e-6
    assert abs(co.B) <= 1e-6
    assert abs(co.G - 1.0) <= 1e-6


def _values(result):
    """The numbers a scalar function returns: the kernel is one float, the
    closed form four amplitudes."""
    return [result] if isinstance(result, float) else vars(result).values()


@pytest.mark.parametrize("fn", [coefficients_closed_form, kernel])
def test_scalar_functions_end_at_max_q(fn):
    # beyond it the kernel's 4q^4 overflows (from q ~ 8e76, NaN at 1e154) and
    # the closed form's (2q+i)^2 (from q ~ 6.7e153); warnings are errors here
    assert all(cmath.isfinite(v) for v in _values(fn(MAX_Q, 1.0)))
    for q in (np.nextafter(MAX_Q, math.inf), 1e160):
        with pytest.raises(DomainError, match="at most"):
            fn(q, 1.0)


@pytest.mark.parametrize("fn", [coefficients_closed_form, kernel])
def test_scalar_functions_end_at_the_largest_finite_phase(fn):
    # past it 2 q d is inf: cmath.exp raised a ValueError and the kernel
    # returned NaN at (1e76, 1e240); warnings are errors here
    d = float(np.finfo(float).max) / (2.0 * MAX_Q)
    while math.isfinite(2.0 * MAX_Q * math.nextafter(d, math.inf)):
        d = math.nextafter(d, math.inf)
    assert all(cmath.isfinite(v) for v in _values(fn(MAX_Q, d)))
    for d in (math.nextafter(d, math.inf), 1e240):
        with pytest.raises(DomainError, match="phase"):
            fn(MAX_Q, d)


@pytest.mark.parametrize("q,d", [(1.0, 1.0), (0.01, 10.0), (100.0, 0.1)])
def test_closed_form_matches_linear_solve(q, d):
    a = coefficients_closed_form(q, d)
    b = coefficients_linear_solve(q, d)
    for x, y in ((a.B, b.B), (a.C, b.C), (a.D, b.D), (a.G, b.G)):
        assert abs(x - y) <= 1e-12


def test_closed_form_vs_solve_randomized():
    rng = np.random.default_rng(20250810)
    for _ in range(500):
        q = float(rng.uniform(1e-3, 100.0))
        d = float(rng.uniform(1e-3, 50.0))
        a = coefficients_closed_form(q, d)
        b = coefficients_linear_solve(q, d)
        assert abs(a.B - b.B) <= 1e-12
        assert abs(a.C - b.C) <= 1e-12
        assert abs(a.D - b.D) <= 1e-12
        assert abs(a.G - b.G) <= 1e-12


def test_flux_identities_randomized():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        q = float(rng.uniform(1e-4, 100.0))
        d = float(rng.uniform(1e-4, 50.0))
        co = coefficients_closed_form(q, d)
        assert abs(abs(co.B) ** 2 + abs(co.G) ** 2 - 1.0) <= 1e-12
        assert abs(abs(co.D) ** 2 + abs(co.G) ** 2 - abs(co.C) ** 2) <= 1e-12


def test_kernel_long_wavelength_value():
    assert kernel(0.0, 1.0) == pytest.approx(2.0 / 9.0 - 1.0, abs=1e-15)


def test_kernel_vanishes_at_high_q():
    assert abs(kernel(1e6, 1.0)) <= 1e-5


def test_kernel_matches_linear_solve_oracle():
    co = coefficients_linear_solve(1.0, 1.0)
    expected = abs(co.C) ** 2 + abs(co.D) ** 2 - 1.0
    assert kernel(1.0, 1.0) == pytest.approx(expected, abs=1e-13)


def test_kernel_algebraic_identity():
    # complex-arithmetic evaluation vs the real-form evaluation used internally
    rng = np.random.default_rng(3)
    for _ in range(2000):
        q = float(rng.uniform(1e-3, 100.0))
        d = float(rng.uniform(1e-3, 50.0))
        w_complex = abs(1.0 - cmath.exp(2j * d * q) * (1.0 + 2j * q) ** 2) ** 2
        k_complex = 8.0 * q * q * (1.0 + 2.0 * q * q) / w_complex - 1.0
        assert abs(kernel(q, d) - k_complex) <= 1e-12
        # and against the literal expanded trigonometric form
        w_expanded = (1.0 + (1.0 + 4.0 * q * q) ** 2
                      - 2.0 * (1.0 - 4.0 * q * q) * math.cos(2.0 * d * q)
                      + 8.0 * q * math.sin(2.0 * d * q))
        k_expanded = 8.0 * q * q * (1.0 + 2.0 * q * q) / w_expanded - 1.0
        assert abs(kernel(q, d) - k_expanded) <= 1e-12


def test_kernel_lower_bound_and_tail():
    rng = np.random.default_rng(5)
    qs = rng.uniform(10.0, 1e4, size=500)
    for d in (0.3, 1.0, 7.0):
        vals = -flux_deficit(qs, d)
        assert np.all(vals >= -1.0)
        assert np.all(qs * qs * np.abs(vals) <= 1.0)


@settings(max_examples=300)
@given(q=st.floats(1e-3, 1e3), d=st.floats(0.01, 300.0))
def test_flux_deficit_below_half_over_q_squared(q, d):
    # fd = -2 Re[x/(1-x)] with |x| = 1/(1+4q^2), so |fd| <= 2|x|/(1-|x|) =
    # 1/(2q^2), an equality at the cavity resonances; the entropy density's
    # q cut-off rests on it
    assert 2.0 * q * q * abs(flux_deficit(q, d)) <= 1.0 + 1e-12


@pytest.mark.parametrize("q", [0.01, 0.1, 0.5, 0.7])
def test_flux_deficit_reaches_its_bound_at_a_resonance_below_one_over_root_two(q):
    # at dq = pi - atan(2q), sin(dq) + 2q cos(dq) = 0 and the deficit is
    # exactly -1/(2q^2), below -1 for every q < 1/sqrt(2): no pointwise
    # |flux_deficit| <= 1 holds there, so a tighter cold q-tail bound than
    # 1/(2q^2) must average over whole periods
    d = (math.pi - math.atan(2.0 * q)) / q
    fd = float(flux_deficit(q, d))
    assert fd == pytest.approx(-0.5 / (q * q), rel=1e-14)
    assert fd < -1.0


def test_flux_deficit_vectorized_matches_scalar():
    qs = np.array([0.0, 1e-3, 0.5, 3.0, 40.0])
    vec = flux_deficit(qs, 2.0)
    for q, v in zip(qs, vec):
        assert v == -kernel(float(q), 2.0)


@pytest.mark.parametrize("d", [1.0, np.array([])], ids=["scalar_d", "per_q_d"])
def test_flux_deficit_of_no_q_is_an_empty_float_array(d):
    # the q ~ 0 test reads the least q, which an empty q array lacks
    for q in ([], np.array([])):
        got = flux_deficit(q, d)
        assert got.dtype == np.float64 and got.shape == (0,)


def test_domain_errors():
    with pytest.raises(DomainError):
        coefficients_closed_form(0.0, 1.0)
    with pytest.raises(DomainError):
        coefficients_closed_form(1.0, -1.0)
    with pytest.raises(DomainError):
        kernel(-1.0, 1.0)
    with pytest.raises(DomainError):
        kernel(1.0, 0.0)


# ------------------------------------------------ kernel against 40 digits

KERNEL_QS = np.concatenate([[0.0, 1e-140], np.geomspace(1e-3, 1e4, 2001)])


@pytest.mark.parametrize("d", [0.1, 1.0, 200.0, 2, np.float32(0.3)])
def test_flux_deficit_matches_mpmath(d):
    # flux_deficit evaluates (a^2 - 2q^2)/(a^2 + 4q^4), a = sin(dq) + 2q cos(dq);
    # the oracle is the expanded N/W of the scattering module docstring
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    got = flux_deficit(KERNEL_QS, d)
    # a scalar d is read as a float: float64 out for every type (a float32 d
    # gave a float32 array until d was cast)
    assert got.dtype == np.float64
    dm = mpmath.mpf(float(d))
    for q, v in zip(KERNEL_QS, got):
        if q == 0.0:
            exact = 1 - 2 / (dm + 2) ** 2
        else:
            qm = mpmath.mpf(float(q))
            s, c = mpmath.sin(dm * qm), mpmath.cos(dm * qm)
            n = 4 * s * s + 8 * qm * mpmath.sin(2 * dm * qm) + 8 * qm * qm * mpmath.cos(2 * dm * qm)
            a = s + 2 * qm * c
            assert abs(n - (4 * a * a - 8 * qm * qm)) <= mpmath.mpf(10) ** -35 * (1 + abs(n))
            exact = n / (4 * a * a + 16 * qm ** 4)
        assert abs(float(v) - float(exact)) <= 1e-12 * max(1.0, abs(float(exact)))
    for q in (0.0, 1e-140, 1e-3, 0.7, 1e4, np.float64(2.5), np.array(2.5)):
        a = flux_deficit(q, d)
        assert type(a) is float and a == flux_deficit(np.array([float(q)]), d)[0]


# ----------------------------------------------------------- resonance edges

def _root_sign(d, q):
    """The sign of sin(dq) + 2q cos(dq), whose roots are the resonances."""
    return math.copysign(1.0, math.sin(d * q) + 2.0 * q * math.cos(d * q))


# the graded level whose panels hold each resonance's root at start 1/2: the
# innermost panel but at d = 4, whose one graded root lies 1.06 half-widths
# from q_1; at start 1 the innermost panel
@pytest.mark.parametrize("d, half_start_level", [(4.0, 1), (20.0, 0), (200.0, 0)])
@pytest.mark.parametrize("start, ratio", [(0.5, 2.0), (0.5, 4.0), (1.0, 4.0)])
def test_resonance_edges_bracket_each_resonance_in_graded_panels(d, half_start_level,
                                                                  start, ratio):
    step = math.pi / (d + 2.0)
    edges = np.sort(resonance_edges(d, 1.0, start, ratio))
    for m in range(1, math.ceil(1.0 / step)):
        q_m = m * step
        gamma = 2.0 * q_m * q_m / (d + 2.0)
        near = edges[np.abs(edges - q_m) < 0.5 * step] - q_m
        if gamma >= 0.4 * step:
            assert near.size == 0
            continue
        # offsets +-start gamma ratio^k for k = 0, 1, ... while below 0.4 pi/(d+2)
        widths = start * gamma * ratio ** np.arange(near.size // 2)
        assert near.size and np.allclose(near[near > 0], widths, rtol=1e-12)
        assert np.allclose(near[near < 0], -widths[::-1], rtol=1e-12)
        assert near.max() < 0.4 * step <= ratio * near.max()
        # the edges are not centred on the root, which lies ~(8 q_m/3)(gamma/2)
        # from q_m at small q_m, under gamma/2 at d = 20 and 200
        level = next(k for k, w in enumerate(widths.tolist())
                     if _root_sign(d, q_m - w) != _root_sign(d, q_m + w))
        assert level == (half_start_level if start == 0.5 else 0), m
    assert resonance_edges(d, 0.9 * step, start, ratio).size == 0


def test_a_tiny_upper_bound_gets_no_edges():
    # min(1, q_hi)/step - 1 rounds to -1 below 1e-16 of a step, and the
    # vectorized pass's np.repeat raised on the count -1
    assert resonance_edges(1.0, 8e-19, 0.5, 4.0).size == \
        resonance_edges(2.0, 1e-30, 0.5, 4.0).size == 0


def test_a_zero_resonance_width_gets_no_edges():
    # past d ~ 2e108 the first width 2 pi^2/(d+2)^3 underflows to 0: the
    # loop never ended (and the vectorized pass overflowed (d+2)^2 past 1.3e154)
    assert resonance_edges(1e200, 1.0, 1.0, 4.0).size == 0
    assert resonance_edges(1e160, 1.0, 1.0, 4.0).size == 0


# ----------------------------------------------------------- input types

@pytest.mark.parametrize("q,d", [(np.float32(1.0), 1.0), (1.0, np.float32(1.0)),
                                 (np.int64(2), 3), (2, np.float64(0.5))])
def test_any_real_input_type_gives_the_float_answer(q, d):
    assert kernel(q, d) == kernel(float(q), float(d))
    assert coefficients_closed_form(q, d) == coefficients_closed_form(float(q), float(d))


def test_bool_inputs_are_rejected():
    for q, d in ((True, 1.0), (1.0, True), (np.bool_(True), 1.0)):
        with pytest.raises(DomainError):
            kernel(q, d)
        with pytest.raises(DomainError):
            coefficients_closed_form(q, d)
