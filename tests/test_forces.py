import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import force_cold, force_identity, force_lifshitz_series, force_lifshitz_zero_t, \
    force_ray, force_zero_t_mpmath
from scipy.integrate import quad, simpson

from deltacasimir import (
    DimensionlessPoint,
    DomainError,
    Result,
    casimir_force,
    entropy_lifshitz,
    free_energy_lifshitz,
)
from deltacasimir import forces, thermo
from deltacasimir.scattering import flux_deficit

# extended-precision (mpmath, 40 digit) evaluations of the imaginary-axis integral
FL0 = {
    0.2: -0.079590483224511707815,
    0.5: -0.041798711504334962436,
    1.0: -0.022306939637396287353,
    2.0: -0.010257491980587474574,
    5.0: -0.0028780122522149450191,
    10.0: -0.00093348335185337349976,
    50.0: -4.8484981189226148201e-05,
}
# Matsubara sums at (d=1, That=1), mpmath
MATSUBARA_SUM_11 = 2.381101555807226e-07
FL_FINITE_11 = -0.16666690477682225
FREE_ENERGY_11_L100 = -0.8343404344035042
# cross-validated value of the Bose-weighted mode sum at (1, 1)
FC_FINITE_11 = -0.0944869222070


def brute_force_oracle(d, that, q_max=2000.0, step=0.004):
    """Independent oracle: fine-grid Simpson to q_max plus the analytic
    cos(2dq)/(2q) + sin(2dq)/(2q^2) tail (asymptotic cosine integral)."""
    n = int(math.ceil(q_max / step))
    if n % 2:
        n += 1
    q = np.linspace(0.0, q_max, n + 1)
    if that > 0:
        qb = np.full(q.shape, that)
        m = q > 0
        qb[m] = q[m] / (-np.expm1(-q[m] / that))
    else:
        qb = q
    head = simpson(qb * flux_deficit(q, d), dx=q[1] - q[0])
    x = 2.0 * d * q_max
    ci = math.sin(x) / x - math.cos(x) / x ** 2 - 2.0 * math.sin(x) / x ** 3
    tail = -0.5 * ci + math.cos(x) / (4.0 * d * q_max * q_max)
    return -(head + tail) / (2.0 * math.pi)


# ------------------------------------------------------------------- zero T

def test_zero_t_methods_agree_at_d1():
    fc = casimir_force(DimensionlessPoint(1.0), "canonical")
    fl = casimir_force(DimensionlessPoint(1.0), "lifshitz")
    assert fc.estimate.converged and fl.estimate.converged
    assert abs(fc.value - fl.value) / abs(fl.value) <= 1e-6


@pytest.mark.parametrize("d", [0.2, 1.0, 10.0])
def test_zero_t_lifshitz_matches_extended_precision(d):
    fl = casimir_force(DimensionlessPoint(d), "lifshitz", 1e-12)
    assert fl.estimate.converged
    assert fl.value == pytest.approx(FL0[d], abs=5e-12)


def test_zero_t_canonical_matches_extended_precision():
    for d in (0.2, 1.0, 10.0):
        fc = casimir_force(DimensionlessPoint(d), "canonical", 1e-11)
        assert fc.estimate.converged
        assert fc.value == pytest.approx(FL0[d], abs=5e-11)


def test_zero_t_canonical_brute_oracle():
    oracle = brute_force_oracle(1.0, 0.0, q_max=3000.0, step=0.002)
    fc = casimir_force(DimensionlessPoint(1.0), "canonical")
    assert fc.value == pytest.approx(oracle, abs=5e-9)


def test_zero_t_dirichlet_limit_at_d50():
    # -pi/(24 d^2) is the d -> inf limit; at d = 50 the 1/d corrections leave
    # the true ratio at -0.92599..., not -1 (extended-precision oracle)
    fl = casimir_force(DimensionlessPoint(50.0), "lifshitz", 1e-12)
    assert fl.value == pytest.approx(FL0[50.0], rel=1e-8)
    ratio = fl.value * 24.0 * 50.0 ** 2 / math.pi
    assert ratio == pytest.approx(-0.9259949306379484, abs=1e-9)
    assert -1.0 < ratio < -0.9


def test_zero_t_force_vanishes_at_huge_separation():
    fc = casimir_force(DimensionlessPoint(1e4), "canonical", 1e-9)
    assert abs(fc.value) <= 1e-7


# ------------------------------------------------------------------ finite T

def test_finite_t_canonical_reduces_to_zero_t():
    cold = casimir_force(DimensionlessPoint(1.0, 1e-4), "canonical")
    assert cold.estimate.converged
    zero_t = casimir_force(DimensionlessPoint(1.0), "canonical")
    assert abs(cold.value - zero_t.value) / abs(cold.value) <= 1e-3


def test_every_force_path_returns_the_callers_point():
    # the zero-temperature paths once returned DimensionlessPoint(float(d), 0.0)
    for pt in (DimensionlessPoint(np.int64(1), 0), DimensionlessPoint(1.0, 0.5)):
        for method in ("canonical", "lifshitz"):
            assert casimir_force(pt, method).point is pt


def test_finite_t_canonical_long_distance():
    fv = casimir_force(DimensionlessPoint(200.0, 2.0), "canonical")
    assert fv.estimate.converged
    assert abs(fv.value - (-2.0 / 800.0)) / (2.0 / 800.0) <= 0.01


def test_finite_t_canonical_value_and_brute_oracle():
    fv = casimir_force(DimensionlessPoint(1.0, 1.0), "canonical")
    assert fv.estimate.converged
    oracle = brute_force_oracle(1.0, 1.0)
    assert fv.value == pytest.approx(oracle, abs=5e-9)
    assert fv.value == pytest.approx(FC_FINITE_11, abs=5e-11)


# the Bose-weighted mode sum itself, by mpmath quadosc at 30 digits
# (about 10 s each, so recorded here)
MODE_SUM_MPMATH = {(0.3, 0.5): "-0.0899125556427896389819417044459",
                   (1.0, 1.0): "-0.0944869222071092673713752890022"}


@pytest.mark.parametrize("d, that", sorted(MODE_SUM_MPMATH))
def test_force_identity_matches_mpmath(d, that):
    # (1/2)[F(d, 0) + F_L(d, That)] at 40 digits, and the mode sum it equals
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        dm, tm = mpmath.mpf(d), mpmath.mpf(that)
        zero_t = -mpmath.quad(lambda z: z / (mpmath.exp(dm * z) * (1 + z) ** 2 - 1),
                              [0, 1, 1 / dm, mpmath.inf]) / (4 * mpmath.pi)
        c = 4 * mpmath.pi * tm
        matsubara = -(mpmath.nsum(lambda n: tm * c * n / (mpmath.exp(c * n * dm) * (1 + c * n) ** 2 - 1),
                                  [1, mpmath.inf]) + tm / (2 * (dm + 2)))
        exact = (zero_t + matsubara) / 2
        assert abs(exact - mpmath.mpf(MODE_SUM_MPMATH[d, that])) <= 1e-28
        assert abs(force_identity(d, that) - exact) <= 4e-16 * abs(exact)
        assert abs(force_identity(d, 0.0) - zero_t) <= 4e-16 * abs(zero_t)


def _within_estimate_of_the_identity(d, that):
    est = casimir_force(DimensionlessPoint(d, that), "canonical").estimate
    exact = force_identity(d, that)
    # the oracle's terms have one sign: a few ulp of rounding
    return est.converged, abs(est.value - exact) <= est.abs_error_estimate + 4e-16 * abs(exact)


@pytest.mark.parametrize("that", [0.0, 0.001, 0.01, 0.1, 0.5, 1.0, 2.0, 5.0])
def test_canonical_force_within_its_estimate_of_the_identity(that):
    # the Wynn-accelerated tail under-reported its error at d >= 9.5 here,
    # up to 15x at (93.36, 2)
    for d in np.geomspace(0.01, 200.0, 14):
        assert _within_estimate_of_the_identity(float(d), that) == (True, True), d


@pytest.mark.parametrize("that", [0.0, 0.5, 1.0, 2.0])
def test_figure_1_and_2_rows_within_their_estimate_of_the_identity(that):
    # the default grid of figures 1 (That = 0) and 2
    for d in np.geomspace(0.1, 10.0, 60):
        assert _within_estimate_of_the_identity(float(d), that) == (True, True), d


# That*d >= 1e-6 keeps the oracle's series under 4.8e6 terms (0.7 s each)
LOW_T_PROBE = [(d, that) for d in (0.001, 0.01, 0.1, 1.0, 10.0, 100.0)
               for that in (1e-5, 1e-4, 3e-4, 1e-3, 1e-2) if that * d >= 1e-6]


@pytest.mark.parametrize("d, that", LOW_T_PROBE)
def test_low_temperature_force_within_its_estimate_of_the_identity(d, that):
    # the Bose weight differs from q only for q below ~10 That; when that lay
    # inside the first seed panel of the head, below its first node, the
    # thermal part was dropped with converged=True: 1.3e-8 off at (0.1, 3e-4)
    # with an estimate of 1.2e-11
    assert _within_estimate_of_the_identity(d, that) == (True, True)


# the cold series and the identity both run where That (d+2) <= 0.05 and
# That*d >= 1e-5
COLD_AND_IDENTITY = [(d, that) for d in (0.01, 0.1, 1.0, 10.0, 30.0)
                     for that in (1e-4, 1e-3, 3e-3, 1e-2)
                     if that * (d + 2.0) <= 0.05 and that * d >= 1e-5]


def test_cold_oracle_agrees_with_the_identity():
    assert len(COLD_AND_IDENTITY) == 16
    for d, that in COLD_AND_IDENTITY:
        exact = force_identity(d, that)
        assert abs(force_cold(d, that) - exact) <= 4e-16 * abs(exact), (d, that)


# below LOW_T_PROBE's That*d >= 1e-6, where only the cold series reaches
COLD_PROBE = [(d, that) for d in (0.001, 0.01, 0.1, 1.0, 10.0, 20.0)
              for that in (1e-12, 1e-10, 1e-9, 1e-8, 1e-7)
              if that * d < 1e-6 and that * (d + 2.0) <= 0.05]


@pytest.mark.parametrize("d, that", COLD_PROBE)
def test_cold_force_within_its_estimate_of_the_cold_oracle(d, that):
    est = casimir_force(DimensionlessPoint(d, that), "canonical").estimate
    exact = force_cold(d, that)
    assert est.converged
    assert abs(est.value - exact) <= est.abs_error_estimate + 4e-16 * abs(exact)


# the force's ray oracle from d = 1e-3 to 1e4 and That = 0 to 50: its two
# angles are two independent quadratures of one number
FORCE_RAY_GRID = [(d, that) for d in (1e-3, 0.1, 1.0, 100.0, 1e4)
                  for that in (0.0, 0.01, 1.0, 50.0)]


@pytest.mark.parametrize("d, that", FORCE_RAY_GRID)
def test_force_ray_oracle_agrees_with_itself_and_the_identity(d, that):
    low, low_rounding = force_ray(d, that, math.pi / 8.0)
    high, high_rounding = force_ray(d, that, 3.0 * math.pi / 8.0)
    assert abs(low - high) <= low_rounding + high_rounding
    if that == 0.0:
        exact = force_zero_t_mpmath(d)
        assert abs(low - exact) <= low_rounding + 0.5 * np.spacing(abs(exact))
    elif that * d >= 1e-3:   # where the Matsubara series is short
        # the identity (F(d, 0) + F_L)/2: half the series' allowance, and a few
        # ulp of the zero-temperature Gauss-Legendre sum
        _, series_rounding = force_lifshitz_series(d, that)
        exact = force_identity(d, that)
        allowance = 0.5 * series_rounding + 4e-16 * abs(force_lifshitz_zero_t(d))
        assert abs(low - exact) <= low_rounding + allowance


# the force's box corners and middle: the identity oracles cannot reach most
# of them (their series need 60/(4 pi That d) terms)
FORCE_RAY_CORNERS = [(d, that) for d in (1e-10, 1e-3, 1.0, 300.0, 1e16)
                     for that in (0.0, 1e-10, 1.0, 1e4)]


@pytest.mark.parametrize("d, that", FORCE_RAY_CORNERS)
def test_canonical_force_at_the_box_corners_within_its_estimate_of_the_ray_oracle(d, that):
    # the real-axis head reported inf from d = 1e6 and missed silently at
    # large d and high That; on the ray every corner converges
    want, rounding = force_ray(d, that, math.pi / 8.0)
    for tol in (1e-4, 1e-10):
        est = casimir_force(DimensionlessPoint(d, that), "canonical", tol).estimate
        assert est.converged, tol
        assert abs(est.value - want) <= est.abs_error_estimate + rounding, tol


@settings(max_examples=40)
@given(log_d=st.floats(-10.0, 16.0), log_that=st.none() | st.floats(-10.0, 4.0),
       log_tol=st.floats(-14.0, -2.0))
def test_canonical_force_property_within_its_estimate_of_the_ray_oracle(log_d, log_that,
                                                                       log_tol):
    # the whole (d, That, tol) box, That = 0 included: converged means within
    # the estimate of the ray oracle at pi/8 plus its rounding allowance
    d, tol = 10.0 ** log_d, 10.0 ** log_tol
    that = 0.0 if log_that is None else 10.0 ** log_that
    est = casimir_force(DimensionlessPoint(d, that), "canonical", tol).estimate
    if est.converged:
        want, rounding = force_ray(d, that, math.pi / 8.0)
        assert abs(est.value - want) <= est.abs_error_estimate + rounding


@pytest.mark.parametrize("log_d_lo, log_d_hi", [(-3.0, math.log10(4.0)),
                                                (math.log10(4.0), math.log10(200.0))],
                         ids=["Q=pi/d", "Q=1.5pi/(d+2)"])
@settings(max_examples=20)
@given(u=st.floats(0.0, 1.0), log_that=st.none() | st.floats(-3.0, math.log10(5.0)))
def test_canonical_force_property_within_its_estimate_of_the_identity(log_d_lo, log_d_hi,
                                                                      u, log_that):
    # both sides of d = 4, where the real-axis head's switch point Q moved
    # from one period pi/d to midway between the first two resonances; on
    # the ray, d = 2 is where the first scale 1/max(d, 2) starts to fall
    d = 10.0 ** (log_d_lo + u * (log_d_hi - log_d_lo))
    that = 0.0 if log_that is None else min(10.0 ** log_that, 5.0)
    assume(that == 0.0 or that * d >= 1e-4)
    converged, within = _within_estimate_of_the_identity(d, that)
    assert within or not converged


def test_huge_separation_returns_at_once():
    # the first resonance width 2 pi^2/(d+2)^3 underflows to 0 past d ~ 2e108,
    # and the loop that grades its edges by 4x never ended; on the ray the
    # force converges there, to -That/(4d) and 0 within their rounding
    start = time.perf_counter()
    for that in (0.0, 1.0):
        est = casimir_force(DimensionlessPoint(1e200, that), "canonical").estimate
        assert est.converged and est.evaluations <= 500
        assert abs(est.value + that / 4e200) <= est.abs_error_estimate + 4e-16 * that / 4e200
    assert time.perf_counter() - start < 1.0


_LARGE_D = 10.0 ** np.random.default_rng(3).uniform(3.0, 15.0, 12)


@pytest.mark.parametrize("that", [0.0, 1e-3, 1.0, 10.0])
def test_large_separation_force_within_its_estimate_or_not_converged(that):
    # past d ~ 1e7 float64 cannot resolve the first dip on the real axis, and
    # the head came out up to 3x off with converged=True: 2.2201e-9 against
    # 2.5e-9 at (1e8, 1), an estimate of 5.1e-11; then past d = 1e6 the
    # estimate was inf.  On the ray every one converges
    for d in _LARGE_D.tolist():
        est = casimir_force(DimensionlessPoint(d, that), "canonical").estimate
        exact = force_identity(d, that)
        assert est.converged, d
        assert abs(est.value - exact) <= est.abs_error_estimate + 4e-16 * abs(exact), d


# d log-uniform in [4, 300), where the real-axis head's dips took graded seed
# edges, and the force missed its estimate at That (d+2) >= 500 with finer
# ones; tol down to the contract sweep's 1e-13
FINE_SEED_D = 10.0 ** np.random.default_rng(7).uniform(math.log10(4.0), math.log10(300.0), 400)
FINE_SEED_TOLS = (1e-6, 1e-8, 1e-10, 1e-12, 1e-13)


@pytest.mark.parametrize("that", [0.0, 1e-3, 0.5, 2.0, 10.0])
def test_fine_seeded_force_within_its_estimate_or_not_converged(that):
    for d in FINE_SEED_D.tolist():
        exact = force_identity(d, that)
        for tol in FINE_SEED_TOLS:
            est = casimir_force(DimensionlessPoint(d, that), "canonical", tol).estimate
            assert not est.converged \
                or abs(est.value - exact) <= est.abs_error_estimate + 4e-16 * abs(exact), (d, tol)


@pytest.mark.parametrize("that", [3e-310, 1e-308, 1e-307, 1e-306])
def test_the_canonical_force_at_a_tiny_that_is_the_zero_t_force(that):
    # from That ~ 2.2e-310 to 1e-306 the Bose weight's q/That overflowed,
    # and the force read nan with err inf after overflow warnings; the ray's
    # hi/lo overflows too below That ~ 1e-307.  The thermal part is O(That)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = casimir_force(DimensionlessPoint(1.0, that), "canonical").estimate
    assert est.converged and abs(est.value - force_zero_t_mpmath(1.0)) <= est.abs_error_estimate


def test_a_matsubara_force_cut_at_the_term_cap_converges_within_its_bound():
    # 10^7 terms leave a remainder bound of 1.39e-7 within tol 1e-6; the
    # flag once also asked for the uncapped count
    d, that = 1.0, 1e-7
    est = casimir_force(DimensionlessPoint(d, that), "lifshitz", 1e-6).estimate
    assert est.evaluations == 10_000_000 and est.converged
    # the true error is the dropped terms' sum, That a g(a) summed over
    # n > 10^7 with a = c n: by the midpoint rule, (That/c) int a g da
    # from c (10^7 + 1/2), 1.8e-8
    c = 4.0 * math.pi * that
    dropped = that / c * quad(lambda a: a / (math.exp(a * d) * (1.0 + a) ** 2 - 1.0),
                              c * (10_000_000 + 0.5), math.inf)[0]
    assert 1e-8 < dropped <= est.abs_error_estimate <= 1e-6


# force_sweep's points whose coordinates have another type than float: d is
# one of 24 float32-rounded log-spaced values in [0.1, 200]
_SWEEP_D = [float(np.float32(x)) for x in np.geomspace(0.1, 200.0, 24)]
TYPED_SWEEP_POINTS = [(_SWEEP_D[4], 1), (_SWEEP_D[12], 2), (_SWEEP_D[20], 1),
                      (_SWEEP_D[8], np.int64(2)), (_SWEEP_D[16], np.int64(1)),
                      (np.float32(_SWEEP_D[22]), np.float32(2.0))]


@pytest.mark.parametrize("d, that", TYPED_SWEEP_POINTS,
                         ids=["int-0.375", "int-5.28", "int-74.2", "int64-1.41", "int64-19.8",
                              "float32-143.7"])
def test_failed_continuation_check_reports_an_estimate_that_bounds_the_error(d, that):
    # an integer That truncates the Bose weight and a float32 point computes
    # it in float32, so f is not Re h and the contour tail integrates h; the
    # estimate covered only the quadrature: 1.6e-3 at (0.375, 1), 3.4e-2 off
    est = casimir_force(DimensionlessPoint(d, that), "canonical").estimate
    assert not est.converged
    assert est.abs_error_estimate >= abs(est.value - force_identity(float(d), float(that)))


def test_finite_t_lifshitz_long_distance():
    fv = casimir_force(DimensionlessPoint(200.0, 2.0), "lifshitz")
    assert fv.value == pytest.approx(-0.005, rel=0.01)
    assert fv.value == pytest.approx(-2.0 / (2.0 * 202.0), rel=1e-12)


def test_finite_t_lifshitz_value():
    fv = casimir_force(DimensionlessPoint(1.0, 1.0), "lifshitz", 1e-16)
    assert fv.estimate.converged
    assert fv.value == pytest.approx(FL_FINITE_11, rel=1e-12)
    # direct-summation oracle
    c = 4.0 * math.pi
    direct = sum(c * n * math.exp(-c * n) / ((1.0 + c * n) ** 2 - math.exp(-c * n))
                 for n in range(1, 10001))
    assert fv.value == pytest.approx(-(direct + 1.0 / 6.0), rel=1e-13)
    assert direct == pytest.approx(MATSUBARA_SUM_11, rel=1e-12)


@pytest.mark.parametrize("that", [1e152, 3e153, 3.8e153, 1e200])
@pytest.mark.parametrize("d", [1.0, 5.0])
def test_lifshitz_force_at_huge_temperature_is_its_zero_mode(d, that):
    # every Matsubara term underflows to 0; from That ~ 3.8e153 That a
    # overflowed before the product with g = 0, and the force was NaN.  The
    # values' rounding grows with That, so the tol is scaled to That
    pt = DimensionlessPoint(d, that)
    fv = casimir_force(pt, "lifshitz", 1e-12 * that)
    assert fv.estimate.converged and fv.value == -that / (2.0 * (d + 2.0))
    fe = free_energy_lifshitz(pt, tol=1e-12 * that)
    assert fe.estimate.converged and math.isfinite(fe.value)


def _lifshitz_force_within_its_estimate(d, that, tol):
    est = casimir_force(DimensionlessPoint(d, that), "lifshitz", tol).estimate
    want, rounding = force_lifshitz_series(d, that)
    return est.converged, abs(est.value - want) <= est.abs_error_estimate + rounding


@pytest.mark.parametrize("tol", [1e-14, 1e-10])
def test_long_lifshitz_force_series_within_its_estimate(tol):
    # about 3e5 terms: a stopping rule on observed term ratios reported
    # converged with estimates 1.0e-14 and 1.0e-10 here, 1.5e-13 and
    # 1.0025e-10 off the exact series
    assert _lifshitz_force_within_its_estimate(0.01, 0.001, tol) == (True, True)


# That*d >= 1e-5 keeps the oracle's series under 4.8e5 terms
@settings(max_examples=20)
@given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       tol=st.sampled_from([1e-14, 1e-12, 1e-10]))
def test_lifshitz_force_property_within_its_estimate(u, v, tol):
    d = min(1e-3 * 2e5 ** u, 200.0)
    that = min(1e-5 * 5e5 ** v, 5.0)
    assume(that * d >= 1e-5)
    converged, within = _lifshitz_force_within_its_estimate(d, that, tol)
    assert within or not converged


def _mp_free_energy(mpmath, d, that, zero_mode=True):
    """The Matsubara free energy at Lambda = 100 by its direct sum; the
    dropped terms are below e^{-120} of the first.  log1p keeps each term's
    digits: log(1 - y) at 40 digits loses y ~ e^{-126} whole, and at
    (d, That) = (1, 10) gave the entropy without its zero mode, -2.1e-57,
    as +1.7e-59."""
    c = 4 * mpmath.pi * that
    stop = int(120 / (4 * math.pi * float(that) * float(d))) + 2
    value = that * mpmath.fsum(mpmath.log1p(-mpmath.exp(-c * n * d) / (1 + c * n) ** 2)
                               for n in range(1, stop))
    if zero_mode:
        value += that / 2 * mpmath.log(2 * mpmath.pi * that * (d + 2) / 100)
    return value


def _matsubara_case(pt, name, mpmath):
    """(result, its value by the direct sum at 40 digits): F = -dFcal/dd,
    S = -dFcal/dThat."""
    dm, tm = mpmath.mpf(pt.d), mpmath.mpf(pt.That)
    if name == "force":
        return (casimir_force(pt, "lifshitz"),
                -mpmath.diff(lambda x: _mp_free_energy(mpmath, x, tm), dm))
    if name == "free energy":
        return free_energy_lifshitz(pt), _mp_free_energy(mpmath, dm, tm)
    zero_mode = name == "entropy"
    return (entropy_lifshitz(pt, include_zero_mode=zero_mode),
            -mpmath.diff(lambda t: _mp_free_energy(mpmath, dm, t, zero_mode), tm))


# (d, That): four points where the estimates once counted the series'
# rounding but not that of adding the zero mode (the force missed by up to
# 1.05e5x, the free energy by up to 2.1e8x and the entropy with its zero
# mode by up to 2.7e6x, each with converged=True); That d in {0.01, 0.1, 1,
# sqrt(10), 10} x d in {0.01, 1, 100}; and (10, 1)
MATSUBARA_POINTS = [(2.0991, 1.0), (1.7957, 1.0), (0.8227, 2.0), (2.0991, 0.5)] + [
    (d, td / d) for td in (1e-2, 0.1, 1.0, math.sqrt(10.0), 10.0) for d in (0.01, 1.0, 100.0)
] + [(10.0, 1.0)]
MATSUBARA_VALUES = ("force", "free energy", "entropy", "entropy without zero mode")
# 1e-12 is below what the free energy's 10^7 terms can reach here
MATSUBARA_NOT_CONVERGED = {((0.01, 10.0 / 0.01), "free energy")}
# (d, That) -> how far the entropy without its zero mode is off, in units of
# its estimate, with converged=True.  e^{-ad} carries a relative error up to
# |ad + 2 log1p(a)| eps, about 126 eps at That d = 10, which the estimate's
# 2 eps of rounding does not cover; the zero mode's magnitude hides it in
# the entropy that keeps it
MATSUBARA_MISSES = {(1.0, math.sqrt(10.0)): 2.6, (100.0, math.sqrt(10.0) / 100.0): 2.0,
                    (0.01, 10.0 / 0.01): 35.0, (1.0, 10.0): 5.7, (100.0, 10.0 / 100.0): 26.5,
                    (10.0, 1.0): 12.0}


@pytest.mark.parametrize("d, that, name", [
    pytest.param(d, that, name, id=f"{d:g}-{that:.6g}-{name}", marks=pytest.mark.xfail(
        strict=True, raises=AssertionError, reason=(
            f"ROADMAP item 5: {MATSUBARA_MISSES[d, that]:g}x its estimate off with "
            "converged=True; the estimate misses the rounding of e^{-ad}"))
        if (d, that) in MATSUBARA_MISSES and name == "entropy without zero mode" else ())
    for d, that in MATSUBARA_POINTS for name in MATSUBARA_VALUES])
def test_matsubara_values_within_their_estimates_of_mpmath(d, that, name):
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        result, want = _matsubara_case(DimensionlessPoint(d, that), name, mpmath)
        est = result.estimate
        assert est.converged == (((d, that), name) not in MATSUBARA_NOT_CONVERGED)
        # converged => within the estimate
        assert abs(est.value - want) <= est.abs_error_estimate or not est.converged


# the zero-T force was 2.8x, 9.6x and 2.7x its estimate off at d = 1e-9,
# 5e-9 and 1e-8, with converged=True, while the contour tail's panels lay on
# x = Q + t: recovering t = x - Q rounded every tail node to ulp(Q), 4.8e-7
# at Q = pi/d = 3.1e9
@pytest.mark.parametrize("d", [1e-10, 1e-9, 5e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3])
def test_small_d_zero_t_canonical_force_within_its_estimate_of_mpmath(d):
    pytest.importorskip("mpmath")
    est = casimir_force(DimensionlessPoint(d), "canonical").estimate
    assert est.converged
    assert abs(est.value - force_zero_t_mpmath(d)) <= est.abs_error_estimate


# force_zero_t_mpmath at np.geomspace(1e-9, 0.39, 60) and at the d of the
# CLI case below, kept here: the 61 integrals take about 2 s
ZERO_T_SCAN = {
    1e-09: -1.5480128375063644,
    1.3983351173536237e-09: -1.521331918870335,
    1.955341100424381e-09: -1.4946510006850484,
    2.7342221271282906e-09: -1.467970083118213,
    3.823358819008829e-09: -1.4412891663996221,
    5.3463369028637235e-09: -1.4146082508440123,
    7.475970640477985e-09: -1.3879273368822667,
    1.0453912282885028e-08: -1.3612464251040104,
    1.4618072658892587e-08: -1.3345655163157049,
    2.0440964346956364e-08: -1.30788461161984,
    2.8583318278922587e-08: -1.2812037125228077,
    3.9969057719913194e-08: -1.2545228210817476,
    5.58901370172887e-08: -1.2278419401042886,
    7.815314130498067e-08: -1.2011610734200353,
    1.092842820182547e-07: -1.1744802262492569,
    1.5281604932090301e-07: -1.1477994057031413,
    2.1368804826066255e-07: -1.1211186214619315,
    2.98807502041641e-07: -1.0944378866932793,
    4.178330234335421e-07: -1.0677572192945937,
    5.842705898571627e-07: -1.0410766435717829,
    8.170060838341883e-07: -1.0143961925049387,
    1.1424482981169068e-06: -0.9877159108021955,
    1.5975255750177526e-06: -0.9610358590102003,
    2.2338761124178736e-06: -0.9343561190384339,
    3.123707415811304e-06: -0.9076768015715984,
    4.367989775866903e-06: -0.8809980559977835,
    6.107913495836275e-06: -0.8543200836807261,
    8.540909934986036e-06: -0.8276431556653305,
    1.1943054296245428e-05: -0.8009676362430491,
    1.6700392230901088e-05: -0.7742940142373641,
    2.3352744930048666e-05: -0.7476229444229077,
    3.265496332228891e-05: -0.7209553021915382,
    4.5662581969451245e-05: -0.694292255454699,
    6.38515919169222e-05: -0.667635358854327,
    8.928592327636528e-05: -0.6409866766728345,
    0.00012485164200268315: -0.6143489424064448,
    0.00017458443547161494: -0.5877257647979387,
    0.00024412754706331735: -0.5611218921850685,
    0.00034137212217203686: -0.5345435492265058,
    0.0004773526265186918: -0.5079988622522255,
    0.0006674989410220768: -0.48149839136127714,
    0.0009333872100275254: -0.45505578849762207,
    0.001305188113870214: -0.4286886003892087,
    0.0018250903743772641: -0.4024192324756704,
    0.002552087962835806: -0.37627608351069225,
    0.003568674221008785: -0.35029484886510015,
    0.004990202485631182: -0.32451997199336885,
    0.006977975378363439: -0.2990061965417343,
    0.009757548019594556: -0.2738201353632879,
    0.0136443220550634: -0.24904172798779933,
    0.01907933468207776: -0.22476540815401758,
    0.02667930370169232: -0.20110075466107302,
    0.03730660727261898: -0.17817236270480785,
    0.05216713905862332: -0.15611866232468222,
    0.072947142517543: -0.13508943759716097,
    0.10200455109288023: -0.11524186834132168,
    0.1426365459230664: -0.09673501157453149,
    0.1994536911822474: -0.07972272676700702,
    0.2789031006659414: -0.0643450803973272,
    0.39: -0.05071822898704607,
    0.0013254561074764546: -0.42747893242852425,
}


def test_zero_t_scan_values_are_the_mpmath_oracle_on_its_grid():
    pytest.importorskip("mpmath")
    ds = list(ZERO_T_SCAN)
    assert ds[:60] == pytest.approx(np.geomspace(1e-9, 0.39, 60).tolist(), rel=1e-15, abs=0)
    for d in ds[::12]:
        assert ZERO_T_SCAN[d] == force_zero_t_mpmath(d), d


# at a loose tol the zero-T force missed with converged=True at 27 of 576
# points like these, up to 19x its estimate (d = 2.04e-8); `force --d
# 0.0013254561074764546 --tol 1e-3` was 2.0e-3 off for an estimate of
# 6.5e-4, while its Lifshitz row was right.  The head's first seed panel,
# [0, Q/8], held q ~ 1, where the integrand turns from its rise into its
# cos(2dq)/(2q) decay, and K15 and G7 both under-resolved it alike
@pytest.mark.parametrize("d", list(ZERO_T_SCAN))
def test_small_d_zero_t_canonical_force_at_every_tol_within_its_estimate_of_mpmath(d):
    misses = []
    for tol in (1e-2, 3e-3, 1e-3, 5e-4, 3e-4, 1e-4, 1e-5, 1e-8, 1e-10):
        est = casimir_force(DimensionlessPoint(d), "canonical", tol).estimate
        if not (est.converged and abs(est.value - ZERO_T_SCAN[d]) <= est.abs_error_estimate):
            misses.append((tol, est.value - ZERO_T_SCAN[d], est.abs_error_estimate))
    assert not misses, misses


@pytest.mark.parametrize("d, that", [(1e-5, 1.0), (1e-6, 10.0), (1e-3, 1e-2)])
def test_small_d_canonical_force_within_its_estimate_of_the_identity(d, that):
    assert _within_estimate_of_the_identity(d, that) == (True, True)


@pytest.mark.parametrize("that", [1e-2, 1.0, 10.0])
def test_small_d_canonical_force_property_within_its_estimate_of_the_identity(that):
    # six points a decade on d in [max(1e-10, 1e-5/That), 1e-3]: That*d >= 1e-5
    # keeps the identity's Matsubara series short.  That = 0 is checked
    # against mpmath above
    lo = max(1e-10, 1e-5 / that)
    for d in np.logspace(math.log10(lo), -3.0, 1 + round(6 * (-3.0 - math.log10(lo)))):
        assert _within_estimate_of_the_identity(float(d), that) == (True, True), d


# below d = pi/MAX_Q the canonical head's first panel lay wholly above
# q ~ 8e76, where the flux deficit's 4q^4 overflows and the deficit reads 0:
# from d ~ 1e-80 the force was -0.0017953 at That = 0 (F ~ -14.6 there) with
# converged=True, an estimate of 1.3e-16 and a RuntimeWarning; it was nan
# below ~5e-154, and d = 1e-320 failed inside the engine.  The Lifshitz
# route, unchecked until the check moved to casimir_force, read 0.0 with
# converged=True below ~1.6e-157, overflowed from ~1e-150, failed inside the
# engine at 5e-324, and at That = 1 spent 10^7 terms to report err inf
@pytest.mark.parametrize("method", ["canonical", "lifshitz"])
@pytest.mark.parametrize("that", [0.0, 1.0])
@pytest.mark.parametrize("d", [1e-79, 1e-100, 1e-153, 1e-160, 1e-200, 1e-320, 5e-324])
def test_force_below_its_smallest_d_is_a_domain_error(d, that, method, monkeypatch):
    def engine(*args):
        raise AssertionError("the force was evaluated")

    for name in ("integrate_oscillatory_tail", "integrate_smooth_semi_infinite",
                 "sum_exponential_series"):
        monkeypatch.setattr(forces, name, engine)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"d={d!r}"):
            casimir_force(DimensionlessPoint(d, that), method)


# below That ~ 2.2e-310 the Matsubara bound 1/(8 pi That) overflows, and only
# the Lifshitz entropy refused such a That: at (1, 1e-310) the Lifshitz force
# spent 10^7 terms (0.5 s) to read nan with err nan, the free energy 2 s
# to read -inf, and the canonical force read nan; at 5e-324 the free energy
# raised a ValueError from its log
@pytest.mark.parametrize("that", [1e-310, 5e-324])
@pytest.mark.parametrize("call", [
    lambda p: casimir_force(p, "canonical"), lambda p: casimir_force(p, "lifshitz"),
    free_energy_lifshitz, entropy_lifshitz], ids=["canonical", "lifshitz", "free_energy",
                                                   "entropy"])
def test_a_that_whose_matsubara_bound_overflows_is_a_domain_error(call, that, monkeypatch):
    def engine(*args):
        raise AssertionError("a node or a series term was evaluated")

    for module in (forces, thermo):
        for name in ("integrate_oscillatory_tail", "integrate_smooth_semi_infinite",
                     "sum_exponential_series"):
            monkeypatch.setattr(module, name, engine, raising=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"That={that!r}"):
            call(DimensionlessPoint(1.0, that))


@pytest.mark.parametrize("d, that", [
    (np.float32(0.3), np.float32(1.0)),
    (np.float32(1.0), np.float32(0.5)),
    (2, 1),
    (np.int64(2), np.int64(1)),
], ids=["float32", "float32_half", "int", "int64"])
def test_typed_inputs_match_their_float_twin(d, that):
    # a float32 That used to run the whole Matsubara series in float32
    # (off by 1.4e-8 at (0.3, 1) with converged=True) and its zero mode in
    # float32 (2.6e-8 off), and a numpy d was refused by the zero-temperature
    # routes
    typed, twin = DimensionlessPoint(d, that), DimensionlessPoint(float(d), float(that))
    for fn in (lambda p: casimir_force(p, "lifshitz"), free_energy_lifshitz,
               lambda p: casimir_force(DimensionlessPoint(p.d), "canonical"),
               lambda p: casimir_force(DimensionlessPoint(p.d), "lifshitz")):
        got, want = fn(typed), fn(twin)
        assert type(got.value) is float
        assert got.value.hex() == want.value.hex()
        assert got.estimate == want.estimate


# -------------------------------------------------------------- free energy

def test_free_energy_value():
    fe = free_energy_lifshitz(DimensionlessPoint(1.0, 1.0), cutoff_lambda=100.0)
    assert fe.estimate.converged
    assert fe.value == pytest.approx(FREE_ENERGY_11_L100, rel=1e-12)


def test_free_energy_cutoff_shift_is_exact_log():
    pt = DimensionlessPoint(1.0, 1.0)
    f1 = free_energy_lifshitz(pt, cutoff_lambda=100.0).value
    f2 = free_energy_lifshitz(pt, cutoff_lambda=200.0).value
    assert f2 - f1 == pytest.approx(-0.5 * math.log(2.0), rel=1e-12)
    # diverges like -(That/2) log Lambda
    f3 = free_energy_lifshitz(pt, cutoff_lambda=1e8).value
    assert (f3 - f1) / math.log(1e6) == pytest.approx(-0.5, rel=1e-12)


def test_free_energy_sum_dies_at_large_d():
    pt = DimensionlessPoint(500.0, 1.0)
    fe = free_energy_lifshitz(pt, cutoff_lambda=100.0)
    closed = 0.5 * math.log(2.0 * math.pi * 502.0 / 100.0)
    assert fe.value == pytest.approx(closed, rel=1e-12)


def test_free_energy_estimate_within_tol_at_high_temperature():
    # the series was once summed to tol and its estimate then scaled by
    # That: converged=True came with an estimate of 4.3e-12 here
    est = free_energy_lifshitz(DimensionlessPoint(0.001, 5.0), 100.0, 1e-12).estimate
    assert est.converged and est.abs_error_estimate <= 1e-12


def test_force_lifshitz_is_cutoff_free_while_free_energy_is_not():
    # the force never consumes Lambda; the free energy shifts by the exact log
    pt = DimensionlessPoint(2.0, 0.7)
    f = casimir_force(pt, "lifshitz")
    assert f.cutoff_lambda is None
    fe1 = free_energy_lifshitz(pt, 50.0).value
    fe2 = free_energy_lifshitz(pt, 500.0).value
    assert fe2 - fe1 == pytest.approx(-0.5 * 0.7 * math.log(10.0), rel=1e-12)


def test_every_scalar_result_is_one_type():
    # ForceValue, FreeEnergyValue and EntropyValue differed only in metadata
    # and each repeated its estimate's value
    pt = DimensionlessPoint(2.0, 0.7)
    results = [casimir_force(pt, "canonical"), casimir_force(pt, "lifshitz"),
               free_energy_lifshitz(pt, 50.0), entropy_lifshitz(pt, 50.0)]
    assert {type(r) for r in results} == {Result}
    assert [(r.method, r.cutoff_lambda) for r in results] == [
        ("canonical", None), ("lifshitz", None), ("lifshitz", 50.0), ("lifshitz", 50.0)]
    assert all(r.value is r.estimate.value and r.point is pt for r in results)
    with pytest.raises(AttributeError):
        results[0].value = 0.0


# -------------------------------------------------------------- asymptotics

def test_long_distance_law():
    # at d >> 1 the forces approach -That/(2d) (Lifshitz) and -That/(4d)
    # (canonical), to O(1/d): the Lifshitz force is -That/(2(d+2)) there
    for d, that in ((100.0, 2.0), (1000.0, 0.3)):
        pt = DimensionlessPoint(d, that)
        lifshitz, canonical = (casimir_force(pt, m).value for m in ("lifshitz", "canonical"))
        assert lifshitz == pytest.approx(-that / (2.0 * d), rel=3.0 / d)
        assert canonical == pytest.approx(-that / (4.0 * d), rel=3.0 / d)
        assert lifshitz / canonical == pytest.approx(2.0, rel=1.0 / d)
    with pytest.raises(DomainError):
        casimir_force(pt, "plasma")


# ----------------------------------------------------------------- invariants

def test_attraction_on_grid():
    for d in (0.1, 1.0, 30.0, 1000.0):
        for that in (0.0, 0.5, 10.0):
            pt = DimensionlessPoint(d, that)
            assert casimir_force(pt, "lifshitz", tol=1e-10).value < 0.0
    for d in (0.1, 1.0, 30.0):
        for that in (0.0, 0.5, 2.0):
            pt = DimensionlessPoint(d, that)
            assert casimir_force(pt, "canonical", tol=1e-9).value < 0.0
    # far corners of the tested domain
    assert casimir_force(DimensionlessPoint(1000.0, 10.0), "canonical", tol=1e-8).value < 0.0
    assert casimir_force(DimensionlessPoint(1000.0, 0.0), "canonical", tol=1e-9).value < 0.0
    assert casimir_force(DimensionlessPoint(0.1, 10.0), "canonical", tol=1e-9).value < 0.0


def test_finite_t_ordering_canonical_weaker():
    for d, that in ((0.5, 1.0), (1.0, 1.0), (5.0, 2.0), (50.0, 0.5)):
        pt = DimensionlessPoint(d, that)
        fc = casimir_force(pt, "canonical", tol=1e-10).value
        fl = casimir_force(pt, "lifshitz", tol=1e-10).value
        assert abs(fc) <= abs(fl)


def test_monotone_decay_in_distance():
    for method, that in (("canonical", 0.0), ("lifshitz", 0.0), ("canonical", 1.0), ("lifshitz", 1.0)):
        vals = [abs(casimir_force(DimensionlessPoint(d, that), method, tol=1e-10).value)
                for d in (0.5, 1.0, 2.0, 4.0, 8.0)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


def test_asymptotic_convergence_of_both_methods():
    that = 2.0
    d = 200.0
    fc = casimir_force(DimensionlessPoint(d, that), "canonical", tol=1e-10).value
    fl = casimir_force(DimensionlessPoint(d, that), "lifshitz", tol=1e-10).value
    assert d * fc / that == pytest.approx(-0.25, rel=0.01)
    assert d * fl / that == pytest.approx(-0.5, rel=0.01)
