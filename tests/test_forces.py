import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import force_identity, force_lifshitz_series, force_zero_t_mpmath
from scipy.integrate import quad, simpson

from deltacasimir import (
    DimensionlessPoint,
    DomainError,
    Result,
    casimir_force,
    entropy_lifshitz,
    free_energy_lifshitz,
)
from deltacasimir import forces
from deltacasimir.scattering import RESOLVED_D, flux_deficit

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


def brute_force_mode_sum(d, that, q_max=2000.0, step=0.004):
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
    oracle = brute_force_mode_sum(1.0, 0.0, q_max=3000.0, step=0.002)
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
    oracle = brute_force_mode_sum(1.0, 1.0)
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


@pytest.mark.parametrize("log_d_lo, log_d_hi", [(-3.0, math.log10(4.0)),
                                                (math.log10(4.0), math.log10(200.0))],
                         ids=["Q=pi/d", "Q=1.5pi/(d+2)"])
@settings(max_examples=20)
@given(u=st.floats(0.0, 1.0), log_that=st.none() | st.floats(-3.0, math.log10(5.0)))
def test_canonical_force_property_within_its_estimate_of_the_identity(log_d_lo, log_d_hi,
                                                                      u, log_that):
    # both sides of d = 4, where the tail's line Re q = Q moves from one
    # period pi/d to midway between the first two resonances
    d = 10.0 ** (log_d_lo + u * (log_d_hi - log_d_lo))
    that = 0.0 if log_that is None else min(10.0 ** log_that, 5.0)
    assume(that == 0.0 or that * d >= 1e-4)
    converged, within = _within_estimate_of_the_identity(d, that)
    assert within or not converged


def test_huge_separation_returns_at_once():
    # the first resonance width 2 pi^2/(d+2)^3 underflows to 0 past d ~ 2e108,
    # and the loop that grades its edges by 4x never ended
    start = time.perf_counter()
    for that in (0.0, 1.0):
        est = casimir_force(DimensionlessPoint(1e200, that), "canonical").estimate
        assert not est.converged
    assert time.perf_counter() - start < 1.0


_LARGE_D = 10.0 ** np.random.default_rng(3).uniform(3.0, 15.0, 12)


@pytest.mark.parametrize("that", [0.0, 1e-3, 1.0, 10.0])
def test_large_separation_force_within_its_estimate_or_not_converged(that):
    # past d ~ 1e7 float64 cannot resolve the first dip, and the head came
    # out up to 3x off with converged=True: 2.2201e-9 against 2.5e-9 at
    # (1e8, 1), an estimate of 5.1e-11
    for d in _LARGE_D.tolist():
        est = casimir_force(DimensionlessPoint(d, that), "canonical").estimate
        exact = force_identity(d, that)
        assert est.converged == (d <= RESOLVED_D), d
        # past RESOLVED_D nothing bounds the error: it reported 1.4e-11
        assert (est.abs_error_estimate == math.inf) == (d > RESOLVED_D), d
        assert not est.converged \
            or abs(est.value - exact) <= est.abs_error_estimate + 4e-16 * abs(exact), d


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


# below d = pi/MAX_Q the head's first panel lay wholly above q ~ 8e76, where
# the flux deficit's 4q^4 overflows and the deficit reads 0: from d ~ 1e-80
# the force was -0.0017953 at That = 0 (F ~ -14.6 there) with converged=True,
# an estimate of 1.3e-16 and a RuntimeWarning; it was nan below ~5e-154, and
# d = 1e-320 failed inside the engine
@pytest.mark.parametrize("that", [0.0, 1.0])
@pytest.mark.parametrize("d", [1e-79, 1e-100, 1e-153, 1e-320])
def test_canonical_force_below_its_smallest_d_is_a_domain_error(d, that, monkeypatch):
    def engine(*args):
        raise AssertionError("the force was evaluated")

    monkeypatch.setattr(forces, "integrate_oscillatory_tail", engine)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"d={d!r}"):
            casimir_force(DimensionlessPoint(d, that), "canonical")


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
