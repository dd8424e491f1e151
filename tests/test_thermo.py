import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from oracles import density_cold, density_identity, density_ray, entropy_identity, \
    entropy_lifshitz_series
from scipy.integrate import simpson
from test_forces import FINE_SEED_D, FINE_SEED_TOLS

from deltacasimir import (
    ENTROPY_INNER_TOL,
    DimensionlessPoint,
    DomainError,
    casimir_force,
    entropy_canonical,
    entropy_density_canonical,
    entropy_lifshitz,
    free_energy_lifshitz,
)
from deltacasimir import numerics, thermo
from deltacasimir.scattering import flux_deficit

# mpmath, 40 digits
SL_NO_ZERO_MODE_D5_T1 = -1.78475592668339777e-28
SL_ZERO_MODE_D1_L100 = {0.1: 1.37758551105409789, 0.01: 1.69186813938796353,
                        0.001: 1.72638047123888381}
# fine-grid Simpson oracle, two resolutions agreeing to 1e-16
DENSITY_11 = 0.08333185479174186


def weight(q, that):
    """(u/sinh u)^2 at u = q/(2 That), 1 at q = 0."""
    u = q / (2.0 * that)
    return np.divide(u, np.sinh(u), out=np.ones_like(u), where=u > 0) ** 2


def brute_density(dtilde, that, step=0.001):
    """Independent oracle: fine fixed-grid Simpson of the weighted kernel."""
    qmax = 2.0 * that * 30.0
    n = int(math.ceil(qmax / min(step, math.pi / (64.0 * dtilde))))
    if n % 2:
        n += 1
    q = np.linspace(0.0, qmax, n + 1)
    return simpson(weight(q, that) * flux_deficit(q, dtilde), dx=q[1] - q[0]) / (2.0 * math.pi)


# ------------------------------------------------------------ entropy density

def test_density_universal_tail():
    dens = entropy_density_canonical(100.0, 2.0)
    assert dens.estimate.converged
    assert dens.value == pytest.approx(1.0 / 400.0, rel=0.02)
    # the tail actually sits at 1/(4 (dtilde+2))
    assert dens.value == pytest.approx(1.0 / 408.0, rel=1e-6)


def test_density_third_law_suppression():
    cold = entropy_density_canonical(1.0, 0.01).value
    warm = entropy_density_canonical(1.0, 1.0).value
    assert cold <= 0.05 * warm
    assert cold == pytest.approx(brute_density(1.0, 0.01), abs=1e-8)


def test_density_value_and_oracle():
    dens = entropy_density_canonical(1.0, 1.0, tol=1e-10)
    assert dens.estimate.converged
    assert dens.value == pytest.approx(DENSITY_11, abs=1e-10)
    assert dens.value == pytest.approx(brute_density(1.0, 1.0), abs=1e-8)


def test_density_resolves_narrow_resonances():
    # At large separation the low-q cavity resonances have cores of width
    # ~ 2 q^2/(dtilde+2) on the real axis, far narrower than any seed panel;
    # the ray passes them at q sin(pi/4).  The oracle tiles each resonance
    # with a geometric ladder on the real axis.
    dtilde, that = 100.0, 0.01
    qmax = 0.8
    parts = [np.linspace(0.0, qmax, 160001)]
    m = 1
    while True:
        qm = m * math.pi / (dtilde + 2.0)
        for _ in range(50):  # Newton on sin(d q) + 2 q cos(d q) = 0
            s, c = math.sin(dtilde * qm), math.cos(dtilde * qm)
            qm -= (s + 2.0 * qm * c) / (dtilde * c + 2.0 * c - 2.0 * qm * dtilde * s)
        if qm > qmax:
            break
        core = 2.0 * qm * qm / (dtilde + 2.0)
        lad = core * np.geomspace(1e-6, 3000.0, 1200)
        pts = np.concatenate([qm - lad, qm + lad, np.linspace(qm - 5 * core, qm + 5 * core, 2001)])
        parts.append(pts[(pts > 0) & (pts < qmax)])
        m += 1
    q = np.unique(np.concatenate(parts))
    oracle = np.trapezoid(weight(q, that) * flux_deficit(q, dtilde), q) / (2.0 * math.pi)

    dens = entropy_density_canonical(dtilde, that, tol=1e-9)
    assert dens.estimate.converged
    assert dens.value == pytest.approx(oracle, abs=5e-7)
    # the exact density: the trapezoid oracle above is itself 2.8e-8 off it
    exact, rounding = density_identity(dtilde, that)
    assert abs(dens.value - exact) <= dens.estimate.abs_error_estimate + rounding


def test_density_validation():
    with pytest.raises(DomainError):
        entropy_density_canonical(0.0, 1.0)
    with pytest.raises(DomainError):
        entropy_density_canonical(1.0, 0.0)
    # the forces' That domain: 1/(8 pi That) overflows
    with pytest.raises(DomainError, match="That=1e-310"):
        entropy_density_canonical(1.0, 1e-310)
    with pytest.raises(DomainError, match="That=1e-310"):
        entropy_canonical(DimensionlessPoint(1.0, 1e-310))


@pytest.mark.parametrize("that", [2.3e-310, 3e-308, 1e-100, 1.0, 1e100, 1e300])
def test_density_at_the_ends_of_the_float_range_warns_of_nothing(that):
    # the ray's 1/d, 2iqd, q^2, 1/(2 That), complex weight and h ~ 1/(4t)
    # at a subnormal or huge d and That: an overflow there is an error under
    # the warning filter
    d = np.array([1e-310, 1e-300, 1.0, 1e160, 1e200, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens = entropy_density_canonical(d, that)
        s = entropy_canonical(DimensionlessPoint(1.0, that))
    est = dens.estimate
    assert est.converged.all() and s.estimate.converged
    # 0 <= density <= pi That/6, within the estimate
    assert (-est.abs_error_estimate <= dens.value).all()
    assert (dens.value <= math.pi * that / 6.0 + est.abs_error_estimate).all()


def test_density_at_a_subnormal_separation_warns_of_no_overflow():
    # its rotation test formed pi/dtilde, which overflowed: "overflow
    # encountered in divide", an error under the package's warning filter;
    # the ray's 1/dtilde is a Python float, which is inf there
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lone = entropy_density_canonical(1e-310, 1.0)
        batch = entropy_density_canonical(np.array([1e-310, 1.0]), 1.0)
    assert lone.estimate.converged
    assert lone.value == entropy_density_canonical(1e-300, 1.0).value   # the d -> 0 limit
    assert batch.value.tolist() == [lone.value, entropy_density_canonical(1.0, 1.0).value]


def test_bool_inputs_are_rejected():
    # isinstance(True, int) holds, so True used to run as 1
    for args in ((True, 1.0), (1.0, True), (1.0, 1.0, True)):
        with pytest.raises(DomainError):
            entropy_density_canonical(*args)
    with pytest.raises(DomainError):
        entropy_canonical(DimensionlessPoint(1.0, 1.0), tol=True)


# ------------------------------------------------ an array of separations

FIGURE3A_D = [float(x) for x in np.geomspace(0.5, 100.0, 48)]


def _bits(x):
    return np.float64(x).tobytes()


def _assert_batch_gives_the_scalar_bits(ds, that, tol=ENTROPY_INNER_TOL):
    batch = entropy_density_canonical(np.array(ds), that, tol)
    singles = [entropy_density_canonical(d, that, tol) for d in ds]
    est = batch.estimate
    assert type(est.evaluations) is int
    assert est.evaluations == sum(s.estimate.evaluations for s in singles)
    assert batch.value.shape == est.abs_error_estimate.shape == est.converged.shape == (len(ds),)
    for i, single in enumerate(singles):
        assert batch.dtilde[i] == single.dtilde
        assert _bits(batch.value[i]) == _bits(est.value[i]) == _bits(single.value)
        assert _bits(est.abs_error_estimate[i]) == _bits(single.estimate.abs_error_estimate)
        assert est.converged[i] == single.estimate.converged
    return singles


@pytest.mark.parametrize("that", [0.5, 1.0, 2.0])
def test_array_of_separations_gives_the_scalar_bits(that):
    # figure 3a's grid
    _assert_batch_gives_the_scalar_bits(FIGURE3A_D, that)


def test_cold_array_of_separations_gives_the_scalar_bits():
    _assert_batch_gives_the_scalar_bits(FIGURE3A_D, 0.01)


def test_reversed_array_of_separations_gives_the_scalar_bits():
    _assert_batch_gives_the_scalar_bits(FIGURE3A_D[::-1], 1.0)


def test_batch_member_out_of_rounds_leaves_the_others_their_bits(monkeypatch):
    # one bisection round: at tol 1e-14 some densities stop short of tol, on
    # their own and in the batch alike, and the rest still converge with
    # their own bits (at the default tol every one converges in its seed pass)
    from deltacasimir import numerics
    monkeypatch.setattr(numerics, "_MAX_ROUNDS", 1)
    singles = _assert_batch_gives_the_scalar_bits(FIGURE3A_D, 0.5, 1e-14)
    assert {s.estimate.converged for s in singles} == {False, True}


@settings(max_examples=25, deadline=None)
@given(log_d=st.lists(st.floats(math.log(0.01), math.log(200.0)), min_size=2, max_size=12),
       that=st.floats(1e-3, 3.0), tol=st.sampled_from([1e-8, 2.5e-9]))
def test_batch_property_gives_every_member_its_lone_bits(log_d, that, tol):
    ds = [min(max(math.exp(x), 0.01), 200.0) for x in log_d]
    batch = entropy_density_canonical(np.array(ds), that, tol)
    est = batch.estimate
    for i, d in enumerate(ds):
        lone = entropy_density_canonical(d, that, tol).estimate
        assert _bits(est.value[i]) == _bits(lone.value)
        assert _bits(est.abs_error_estimate[i]) == _bits(lone.abs_error_estimate)
        assert batch.evaluations[i] == lone.evaluations
        assert est.converged[i] == lone.converged


@pytest.mark.parametrize("dtilde", [np.array([]), np.array([[1.0]]), np.array([True]),
                                    np.array([1.0, -1.0]), [1.0, math.inf], ["1"]])
def test_array_of_separations_is_validated(dtilde):
    with pytest.raises(DomainError):
        entropy_density_canonical(dtilde, 1.0)


# ------------------------------------------------ exact half-Lifshitz identity
# s_can(d) = -(1/2) dS_L/dd and S_can = (1/2)[S_L(d) - S_L(Lambda)], zero mode
# kept (tests/oracles.py).

@pytest.mark.parametrize("d, that", [(100.0, 0.01), (1.0, 1.0), (0.3, 0.5)])
def test_density_identity_matches_mpmath_derivative(d, that):
    mpmath = pytest.importorskip("mpmath")

    def entropy_lifshitz_mp(x):
        c = 4 * mpmath.pi * that
        total = -mpmath.log(2 * mpmath.pi * that * (x + 2) / 100) / 2 - mpmath.mpf(1) / 2
        n = 1
        while c * n * x < 100:
            a = c * n
            y = mpmath.exp(-a * x) / (1 + a) ** 2
            total += -mpmath.log(1 - y) - a * ((1 + a) * x + 2) * y / ((1 + a) * (1 - y))
            n += 1
        return total

    with mpmath.workdps(40):
        want = -mpmath.diff(entropy_lifshitz_mp, mpmath.mpf(d)) / 2
    got, rounding = density_identity(d, that)
    assert abs(got - float(want)) <= rounding


def test_lifshitz_series_oracle_matches_mpmath():
    for that, want in SL_ZERO_MODE_D1_L100.items():
        assert entropy_lifshitz_series(1.0, that, 100.0)[0] == pytest.approx(want, rel=1e-14)


# Points of 91 log-spaced d in [0.01, 200] where the real-axis density once
# converged farther from the identity than its estimate (worst: 9.7e-8 off
# with an estimate of 6.9e-9 at (200, 0.001)).  Their seed panels were 2.5
# That wide, and the cavity resonances near q_m = m pi/(d+2), ~2 q_m^2/(d+2)
# wide, fell between all 15 GK nodes; graded seed edges around each dip
# gave it panels of its own, and on the ray the dips lie q sin(pi/4) off
# the path.
RESONANCE_POINTS = [(143.76803242933602, 0.001), (160.49132084575888, 0.001),
                    (179.15988437468857, 0.001), (66.54842383978487, 0.002),
                    (74.28942485875669, 0.002), (92.57749823138782, 0.002)]


def _identity_grid():
    for that in (0.001, 0.003, 0.03, 0.3, 1.0, 3.0):
        for d in np.geomspace(0.01, 200.0, 17):
            yield pytest.param(float(d), that, id=f"{d:.4g}-{that:g}")
    for d, that in RESONANCE_POINTS:
        yield pytest.param(d, that, id=f"{d:.4g}-{that:g}")


@pytest.mark.parametrize("d, that", list(_identity_grid()))
def test_density_within_its_estimate_of_the_identity(d, that):
    dens = entropy_density_canonical(d, that)
    exact, rounding = density_identity(d, that)
    assert not dens.estimate.converged \
        or abs(dens.value - exact) <= dens.estimate.abs_error_estimate + rounding


def test_huge_separations_return_at_once():
    # a zero resonance width hung the lone loop of resonance_edges, and the
    # vectorized one's (d+2)^2 overflowed past d ~ 1.3e154; on the ray they
    # converge to 1/(4 (d+2))
    start = time.perf_counter()
    for d in (np.array([1.0, 1e160]), np.array([1.0, 1e200]), 1e200):
        dens = entropy_density_canonical(d, 1.0)
        assert np.all(dens.estimate.converged)
        huge = np.asarray(d) > 1.0
        assert np.all(np.abs(dens.value - 0.25 / (np.asarray(d) + 2.0))[huge]
                      <= np.asarray(dens.estimate.abs_error_estimate)[huge])
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("that", [1e-3, 1.0, 10.0])
def test_large_separation_density_within_its_estimate_of_the_identity(that):
    # past d ~ 1e7 float64 could not resolve the first dip on the real axis:
    # at (1e9, 1) the density was 4.85e-10 against 2.5e-10, an estimate of
    # 1.5e-11 and converged=True, and past d = 1e6 every estimate was inf
    d = 10.0 ** np.random.default_rng(5).uniform(3.0, 15.0, 12)
    dens = entropy_density_canonical(d, that)
    assert dens.estimate.converged.all()
    for x, v, err in zip(d.tolist(), dens.value.tolist(),
                         dens.estimate.abs_error_estimate.tolist()):
        exact, rounding = density_identity(x, that)
        assert abs(v - exact) <= err + rounding, x


@pytest.mark.parametrize("that", [1e-3, 0.5, 2.0, 10.0])
def test_fine_seeded_density_within_its_estimate_or_not_converged(that):
    # d log-uniform in [4, 300), where the real-axis density's graded
    # resonance edges started at half a width
    exact = [density_identity(d, that) for d in FINE_SEED_D.tolist()]
    for tol in FINE_SEED_TOLS:
        dens = entropy_density_canonical(FINE_SEED_D, that, tol)
        for d, v, err, ok, (want, rounding) in zip(
                FINE_SEED_D.tolist(), dens.value.tolist(),
                dens.estimate.abs_error_estimate.tolist(), dens.estimate.converged.tolist(), exact):
            assert not ok or abs(v - want) <= err + rounding, (d, tol)


def test_canonical_entropy_stops_once_a_density_failed(monkeypatch):
    # past RESOLVED_D no real-axis density converged, and the outer integral
    # kept bisecting toward a value whose estimate is inf anyway: 3 density
    # calls and 214,075,560 evaluations (14 s), and past Lambda ~ 4e7 a
    # MemoryError.  A tol below the ray's tail bound fails every density
    calls = []
    density = thermo.entropy_density_canonical
    monkeypatch.setattr(thermo, "entropy_density_canonical",
                        lambda d, that, tol: calls.append(d) or density(d, that, 1e-30))
    est = entropy_canonical(DimensionlessPoint(9254.0, 0.063), 1.7e7, 7.6e-7).estimate
    assert len(calls) == 1 and est.abs_error_estimate == math.inf and not est.converged


def test_a_density_whose_tail_bound_is_past_tol_takes_its_seed_pass_only(monkeypatch):
    # it cannot converge, whatever its panels do
    passes = []
    gk_apply = numerics._gk_apply
    monkeypatch.setattr(numerics, "_gk_apply", lambda *args: passes.append(1) or gk_apply(*args))
    dens = entropy_density_canonical(np.array([2.0, 5e7]), 1.0, 1e-30)
    assert len(passes) == 1 and not dens.estimate.converged.any()
    assert (dens.estimate.abs_error_estimate > 1e-30).all()


@settings(max_examples=30)
@given(log_d=st.floats(-2.0, math.log10(200.0)), log_that=st.floats(-3.0, math.log10(3.0)))
def test_density_property_within_its_estimate_of_the_identity(log_d, log_that):
    d, that = min(10.0 ** log_d, 200.0), min(10.0 ** log_that, 3.0)
    assume(that * d >= 1e-5)
    dens = entropy_density_canonical(d, that)
    exact, rounding = density_identity(d, that)
    assert not dens.estimate.converged \
        or abs(dens.value - exact) <= dens.estimate.abs_error_estimate + rounding


# the cold series and the identity both run where That (d+2) <= 0.05 and
# That*d >= 1e-5; the series serves as an oracle only where its last kept
# term is below 1e-16 of its value
COLD_GRID = [(d, that) for d in (0.01, 0.1, 1.0, 5.0, 10.0, 30.0)
             for that in (1e-4, 1e-3, 3e-3, 5e-3, 1e-2, 2e-2)
             if that * (d + 2.0) <= 0.05 and that * d >= 1e-5]


def test_cold_density_oracle_agrees_with_the_identity():
    cold = {point: density_cold(*point) for point in COLD_GRID}
    kept = [point for point, (value, last) in cold.items() if last < 1e-16 * value]
    # seven terms were 4.5e-12 relative off the identity at (0.1, 0.02)
    assert (0.1, 0.02) in cold and (0.1, 0.02) not in kept and len(kept) == 17
    for d, that in kept:
        exact, rounding = density_identity(d, that)
        assert abs(cold[d, that][0] - exact) <= rounding + 4e-16 * exact, (d, that)


@settings(max_examples=30)
@given(log_d=st.floats(-3.0, math.log10(300.0)), log_that=st.floats(-10.0, -4.0))
def test_cold_density_property_within_its_estimate_of_the_cold_oracle(log_d, log_that):
    # below That*d = 1e-5, where the identity's series grows too long
    d, that = 10.0 ** log_d, 10.0 ** log_that
    assume(that * d < 1e-5)
    dens = entropy_density_canonical(d, that)
    exact, last = density_cold(d, that)
    assert last < 1e-16 * exact
    assert not dens.estimate.converged or abs(dens.value - exact) <= dens.estimate.abs_error_estimate


@pytest.mark.parametrize("that", [0.001, 0.5, 2.0])
@pytest.mark.parametrize("d", [0.5, 20.0, 100.0])
def test_density_at_two_tolerances_agrees_within_both_estimates(d, that):
    # tol = 1e-15/That once made the real-axis density integrate out to
    # q_max = 40 That; on the ray it takes more bisection rounds
    short = entropy_density_canonical(d, that)
    full = entropy_density_canonical(d, that, tol=1e-15 / that)
    assert abs(short.value - full.value) <= \
        short.estimate.abs_error_estimate + full.estimate.abs_error_estimate


# the ray oracle's corners and middle: its two angles are two independent
# quadratures of one number
RAY_GRID = [(d, that) for d in (1e-10, 1e-3, 1.0, 300.0, 1e16) for that in (1e-10, 0.01, 1.0, 1e4)]


@pytest.mark.parametrize("d, that", RAY_GRID)
def test_ray_oracle_agrees_with_itself_at_two_angles(d, that):
    low, low_rounding = density_ray(d, that, math.pi / 8.0)
    high, high_rounding = density_ray(d, that, 3.0 * math.pi / 8.0)
    assert abs(low - high) <= low_rounding + high_rounding
    if that * d >= 1e-3:   # where the identity's series is short
        exact, rounding = density_identity(d, that)
        assert abs(low - exact) <= low_rounding + rounding


@settings(max_examples=40)
@given(log_d=st.floats(-10.0, 16.0), log_that=st.floats(-10.0, 4.0),
       tol=st.sampled_from([1e-6, 1e-8, 2.5e-9, 1e-10, 1e-12]))
def test_density_property_within_its_estimate_of_the_ray_oracle(log_d, log_that, tol):
    # the whole (d, That) box: the ray oracle at pi/8 runs everywhere, and
    # the identity where its series is short (That d >= 1e-3)
    d, that = 10.0 ** log_d, 10.0 ** log_that
    est = entropy_density_canonical(d, that, tol).estimate
    if not est.converged:
        return
    want, rounding = density_ray(d, that, math.pi / 8.0)
    assert abs(est.value - want) <= est.abs_error_estimate + rounding
    if that * d >= 1e-3:
        exact, rounding = density_identity(d, that)
        assert abs(est.value - exact) <= est.abs_error_estimate + rounding


# --------------------------------------------------------- canonical entropy

def test_entropy_canonical_cutoff_law():
    pt = DimensionlessPoint(1.0, 1.0)
    s100 = entropy_canonical(pt, 100.0)
    s200 = entropy_canonical(pt, 200.0)
    assert s100.estimate.converged and s200.estimate.converged
    assert s200.value > s100.value
    assert s200.value - s100.value == pytest.approx(0.25 * math.log(2.0), rel=0.05)


def test_entropy_canonical_metadata_and_validation():
    pt = DimensionlessPoint(1.0, 1.0)
    s = entropy_canonical(pt)
    assert s.cutoff_lambda == 100.0
    assert s.method == "canonical"
    with pytest.raises(DomainError):
        entropy_canonical(DimensionlessPoint(5.0, 1.0), cutoff_lambda=2.0)
    with pytest.raises(DomainError):
        entropy_canonical(DimensionlessPoint(1.0, 0.0))


def test_entropy_canonical_third_law_trend():
    # S -> 0 linearly in That once the thermal window clears the cutoff scale
    pt = DimensionlessPoint(1.0, 0.01)
    s_cold = entropy_canonical(pt, 100.0)
    s_warm = entropy_canonical(DimensionlessPoint(1.0, 0.25), 100.0)
    assert 0.0 < s_cold.value < s_warm.value
    # deep linear regime: halving That halves the entropy
    s1 = entropy_canonical(DimensionlessPoint(1.0, 0.002), 100.0, tol=1e-7)
    s2 = entropy_canonical(DimensionlessPoint(1.0, 0.001), 100.0, tol=1e-7)
    assert s2.value == pytest.approx(0.5 * s1.value, rel=0.02)


def test_entropy_canonical_increases_with_temperature():
    vals = []
    for that in (0.25, 0.5, 1.0):
        s = entropy_canonical(DimensionlessPoint(0.5, that), 100.0, tol=1e-8)
        vals.append((s.value, s.estimate.abs_error_estimate))
    for (a, ea), (b, eb) in zip(vals, vals[1:]):
        assert b > a - (ea + eb)


def test_entropy_canonical_positive_finite_difference_in_temperature():
    lo = entropy_canonical(DimensionlessPoint(1.0, 0.75), 100.0, tol=1e-8)
    hi = entropy_canonical(DimensionlessPoint(1.0, 1.25), 100.0, tol=1e-8)
    assert hi.value - lo.value > lo.estimate.abs_error_estimate + hi.estimate.abs_error_estimate


@pytest.mark.parametrize("d, that", [(0.5, 0.01), (20.0, 0.01), (0.5, 0.5), (20.0, 2.0)])
def test_entropy_within_its_estimate_of_the_identity(d, that):
    s = entropy_canonical(DimensionlessPoint(d, that), 100.0)
    assert s.estimate.converged
    assert abs(s.value - entropy_identity(d, that, 100.0)[0]) <= s.estimate.abs_error_estimate


@pytest.mark.parametrize("that", [1e152, 3e153, 3.8e153, 1e200])
@pytest.mark.parametrize("d", [1.0, 5.0])
def test_lifshitz_entropy_at_huge_temperature_is_its_zero_mode(d, that):
    # every Matsubara term underflows to 0; from That ~ 3e153 a((1+a)d+2)
    # overflowed before the product with g = 0, and the entropy was NaN
    pt = DimensionlessPoint(d, that)
    s = entropy_lifshitz(pt, 100.0)
    assert s.estimate.converged
    assert s.value == -0.5 * math.log(2.0 * math.pi * that * (d + 2.0) / 100.0) - 0.5
    assert entropy_lifshitz(pt, 100.0, include_zero_mode=False).value == 0.0


@pytest.mark.parametrize("d, that", [(1e300, 1e10), (1e308, 1.0)])
def test_lifshitz_values_that_overflow_are_not_converged(d, that):
    # the zero mode's 2 pi That (d+2) overflows: the entropy is -inf and the
    # free energy +inf, and both said converged=True; the Matsubara exponent
    # c n d overflows too, which numpy warns of
    pt = DimensionlessPoint(d, that)
    with pytest.warns(RuntimeWarning, match="overflow"):
        s, fe = entropy_lifshitz(pt, 100.0), free_energy_lifshitz(pt, 100.0)
        rest = entropy_lifshitz(pt, 100.0, include_zero_mode=False)
    assert s.value == -math.inf and not s.estimate.converged
    assert fe.value == math.inf and not fe.estimate.converged
    # the estimate says nothing bounds them: it was the series' 0.0
    assert s.estimate.abs_error_estimate == fe.estimate.abs_error_estimate == math.inf
    # a finite value keeps its flag: every term underflowed to 0
    assert rest.value == 0.0 and rest.estimate.converged


def test_lifshitz_values_whose_zero_mode_log_underflows_are_not_converged(monkeypatch):
    # 2 pi That (d+2)/Lambda underflows to 0, and math.log(0) raised a
    # ValueError; the Matsubara ratio e^{-4 pi That d} rounds to 1 there, so
    # the series takes _MAX_TERMS terms whatever the log, and fewer do here
    monkeypatch.setattr(numerics, "_MAX_TERMS", 1_000)
    pt = DimensionlessPoint(1.0, 1e-200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s, fe = entropy_lifshitz(pt, 1e150), free_energy_lifshitz(pt, 1e150)
    assert (s.value, s.estimate.abs_error_estimate) == (math.inf, math.inf)
    assert (fe.value, fe.estimate.abs_error_estimate) == (-math.inf, math.inf)
    assert not s.estimate.converged and not fe.estimate.converged


@pytest.mark.parametrize("that", [1e-9, 1e-10, 1e-12])
def test_a_cold_entropy_converges_on_the_third_law_line(that):
    # below That ~ 2.8e-10 a real-axis density's truncation bound alone was
    # past its inner tol 2.5e-9, and every canonical entropy reported the
    # estimate inf; the ray needs no truncation bound of that kind.  The
    # third law's next term is That^3 Lambda^3 smaller than the linear one
    s = entropy_canonical(DimensionlessPoint(1.0, that))
    linear = math.pi * that / 6.0 * (99.0 - 2.0 * (1.0 / 3.0 - 1.0 / 102.0))
    assert s.estimate.converged and s.estimate.evaluations <= 20_000
    assert abs(s.value - linear) <= s.estimate.abs_error_estimate


def test_densities_at_a_tiny_temperature_agree_with_their_lone_calls():
    # q_max = 4e-19 was below 1e-16 of a resonance spacing: the batch's
    # resonance count came out -1 and np.repeat raised ValueError
    d = np.array([1.0, 2.0])
    dens = entropy_density_canonical(d, 1e-20)
    assert dens.estimate.converged.all()
    for i, x in enumerate(d.tolist()):
        lone = entropy_density_canonical(x, 1e-20)
        assert (lone.value, lone.estimate.abs_error_estimate, lone.evaluations) \
            == (dens.value[i], dens.estimate.abs_error_estimate[i], dens.evaluations[i])


@settings(max_examples=30)
@given(cutoff=st.sampled_from([10.0, 100.0, 1e3, 1e4]), thermal=st.floats(0.0, 1.0),
       log_that_d=st.floats(-5.0, math.log10(0.15)))
def test_cold_entropy_property_within_its_estimate_of_the_identity(cutoff, thermal, log_that_d):
    # a range (d, Lambda) that holds the thermal length d_T = 1/(2 pi That),
    # the outer integral's extra seed edge: d_T log-uniform in [0.5, Lambda/1.5]
    # and That d in [1e-5, 0.15], below d_T That = 1/(2 pi)
    d_thermal = 0.5 * (cutoff / 0.75) ** thermal
    that = 0.5 / (math.pi * d_thermal)
    d = 10.0 ** log_that_d / that
    s = entropy_canonical(DimensionlessPoint(d, that), cutoff)
    exact, rounding = entropy_identity(d, that, cutoff)
    assert not s.estimate.converged \
        or abs(s.value - exact) <= s.estimate.abs_error_estimate + rounding


# ------------------------------------------------- Maxwell-relation crosscheck

@pytest.mark.parametrize("dtilde,that", [(1.0, 0.5), (1.0, 2.0), (10.0, 0.5), (10.0, 2.0)])
def test_density_matches_force_derivative(dtilde, that):
    delta = 1e-4
    up = casimir_force(DimensionlessPoint(dtilde, that + delta), "canonical", 1e-11)
    dn = casimir_force(DimensionlessPoint(dtilde, that - delta), "canonical", 1e-11)
    fd = -(up.value - dn.value) / (2.0 * delta)
    dens = entropy_density_canonical(dtilde, that)
    assert abs(dens.value - fd) <= 1e-4


@settings(max_examples=30, deadline=None)
@given(log_d=st.floats(-1.0, math.log10(50.0)), log_that=st.floats(math.log10(0.05),
                                                                   math.log10(3.0)))
def test_density_property_is_minus_the_temperature_derivative_of_the_force(log_d, log_that):
    # the 5-point central difference D5 of -F_can in That against the density:
    # D5 carries 18/12 of each force's estimate over delta, and |D5 - D3|
    # bounds its truncation error by the 3-point difference's, far larger
    d, that = min(10.0 ** log_d, 50.0), min(10.0 ** log_that, 3.0)
    delta = 1e-3 * that
    forces = [casimir_force(DimensionlessPoint(d, that + k * delta), "canonical")
              for k in (-2, -1, 1, 2)]
    fm2, fm1, fp1, fp2 = (f.value for f in forces)
    d5 = -(fm2 - 8.0 * fm1 + 8.0 * fp1 - fp2) / (12.0 * delta)
    d3 = -(fp1 - fm1) / (2.0 * delta)
    dens = entropy_density_canonical(d, that)
    assert dens.estimate.converged and all(f.estimate.converged for f in forces)
    bound = dens.estimate.abs_error_estimate \
        + 1.5 / delta * max(f.estimate.abs_error_estimate for f in forces) + abs(d5 - d3)
    assert abs(dens.value - d5) <= bound


# ----------------------------------------------------------- Lifshitz entropy

def test_lifshitz_entropy_diverges_without_zero_temperature_limit():
    vals = [entropy_lifshitz(DimensionlessPoint(1.0, t), 100.0).value
            for t in (0.1, 0.01, 0.001)]
    assert vals[0] < vals[1] < vals[2]
    for t, v in zip((0.1, 0.01, 0.001), vals):
        assert v == pytest.approx(SL_ZERO_MODE_D1_L100[t], rel=1e-9)


@pytest.mark.parametrize("d", [0.5, 1.0456395149230957, 2.1867241859436035, 1.0])
def test_lifshitz_entropy_estimate_within_tol(d):
    # each series once got the whole tol, so these estimates reached
    # 1.38e-12 to 1.83e-12 at the default 1e-12
    est = entropy_lifshitz(DimensionlessPoint(d, 0.01), 100.0).estimate
    assert est.converged and est.abs_error_estimate <= 1e-12


def _lifshitz_entropy_within_its_estimate(d, that, tol):
    est = entropy_lifshitz(DimensionlessPoint(d, that), 100.0, tol=tol).estimate
    want, rounding = entropy_lifshitz_series(d, that, 100.0)
    return est.converged, abs(est.value - want) <= est.abs_error_estimate + rounding


def test_long_lifshitz_entropy_series_within_its_estimate():
    # about 7e5 terms over the two series: a stopping rule on observed term
    # ratios reported converged with an estimate of 1.0e-12 here, 1.3e-12
    # off the exact series
    assert _lifshitz_entropy_within_its_estimate(0.01, 0.001, 1e-12) == (True, True)


# That*d >= 1e-5 keeps the oracle's series under 4.8e5 terms
@settings(max_examples=20)
@given(u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0),
       tol=st.sampled_from([1e-12, 1e-10, 1e-8]))
def test_lifshitz_entropy_property_within_its_estimate(u, v, tol):
    d = min(1e-3 * 2e5 ** u, 200.0)
    that = min(1e-5 * 5e5 ** v, 5.0)
    assume(that * d >= 1e-5)
    converged, within = _lifshitz_entropy_within_its_estimate(d, that, tol)
    assert within or not converged


def test_lifshitz_entropy_negative_without_zero_mode():
    s = entropy_lifshitz(DimensionlessPoint(5.0, 1.0), 100.0, include_zero_mode=False)
    assert s.method == "lifshitz_no_zero_mode"
    assert s.value < 0.0
    assert s.value == pytest.approx(SL_NO_ZERO_MODE_D5_T1, rel=1e-6)
    # direct-summation oracle
    c = 4.0 * math.pi
    direct = 0.0
    for n in range(1, 200):
        e = math.exp(-c * n * 5.0)
        direct += -math.log1p(-e / (1.0 + c * n) ** 2)
        direct -= c * n * (c * n * 5.0 + 7.0) * e / ((c * n + 1.0) * ((c * n + 1.0) ** 2 - e))
    assert s.value == pytest.approx(direct, rel=1e-12)


def test_lifshitz_entropy_long_distance_asymptote():
    s = entropy_lifshitz(DimensionlessPoint(100.0, 1.0), 100.0)
    closed = -0.5 * math.log(2.0 * math.pi * 102.0 / 100.0) - 0.5
    assert s.value == pytest.approx(closed, rel=0.01)


def test_lifshitz_slope_negative_half_over_that():
    def slope(delta):   # central difference in That at d = 100, That = 1
        up, dn = (entropy_lifshitz(DimensionlessPoint(100.0, t), 100.0).value
                  for t in (1.0 + delta, 1.0 - delta))
        return (up - dn) / (2.0 * delta)

    assert slope(1e-3) == pytest.approx(-0.5, rel=0.10)
    # Richardson consistency: halving the step moves the estimate by < 1%
    assert abs(slope(5e-4) - slope(1e-3)) <= 0.01 * abs(slope(1e-3))


# ------------------------------------------------------------------ positivity

def test_entropy_positive_on_reduced_grid():
    for d in (0.5, 2.0):
        for that in (0.25, 1.0):
            s = entropy_canonical(DimensionlessPoint(d, that), 100.0)
            assert s.estimate.converged
            assert s.value >= 0.0
