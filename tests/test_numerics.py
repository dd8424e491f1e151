import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from oracles import lone_tail

from deltacasimir import (
    DimensionlessPoint,
    DomainError,
    casimir_force,
    entropy_density_canonical,
    entropy_lifshitz,
    flux_deficit,
    forces,
    numerics,
    thermo,
)
from deltacasimir.numerics import integrate_smooth_semi_infinite, sum_exponential_series

# Ci(x), mpmath, 40 digits
CI_0_2 = -1.042205595672781975363
CI_1 = 0.3374039229009681346626
CI_2 = 0.4229808287748649956986
CI_10 = -0.04545643300445537263453
CI_20 = 0.04441982084535331653977
# integral of z/(e^z (1+z)^2 - 1)/(4 pi) over [0, inf), mpmath
LIFSHITZ_INTEGRAND_D1 = 0.02230693963739628735344


# ------------------------------------------------------- smooth semi-infinite

def test_smooth_exp():
    est = integrate_smooth_semi_infinite(lambda x: np.exp(-x), 1.0, 1e-12)
    assert est.converged
    assert est.abs_error_estimate <= 1e-12
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_smooth_x_exp():
    est = integrate_smooth_semi_infinite(lambda x: x * np.exp(-x), 1.0, 1e-12)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_smooth_lifshitz_integrand():
    d = 1.0

    def f(z):
        z = np.asarray(z, float)
        den = np.expm1(d * z) * (1.0 + z) ** 2 + z * (2.0 + z)
        out = np.full(z.shape, 1.0 / (d + 2.0))
        m = z > 0
        out[m] = z[m] / den[m]
        return out / (4.0 * math.pi)

    # composite-panel oracle at ~10x the engine's node density
    from deltacasimir.numerics import _gk_apply
    edges = np.linspace(0.0, 80.0, 4001)
    vals = _gk_apply(lambda z, _: f(z), edges[:-1], edges[1:], 0)[0]
    oracle = float(vals.sum())
    assert oracle == pytest.approx(LIFSHITZ_INTEGRAND_D1, abs=1e-14)

    est = integrate_smooth_semi_infinite(f, 1.0 / d, 1e-12)
    assert est.converged
    assert est.value == pytest.approx(oracle, abs=2e-12)


def test_smooth_zero_function():
    est = integrate_smooth_semi_infinite(lambda x: np.zeros_like(np.asarray(x, float)), 1.0, 1e-10)
    assert est.converged
    assert est.value == 0.0


def test_smooth_reports_the_evaluation_cap(monkeypatch):
    # e^{-x} cos(40 x) needs 10,500 evaluations at tol 1e-13
    f = lambda x: np.exp(-x) * np.cos(40.0 * x)
    assert integrate_smooth_semi_infinite(f, 1.0, 1e-13).converged
    monkeypatch.setattr(numerics, "_MAX_EVALS", 1_000)
    est = integrate_smooth_semi_infinite(f, 1.0, 1e-13)
    assert not est.converged and est.evaluations <= 1_000


@pytest.mark.parametrize("f, exact", [
    (lambda x: np.ones_like(x), math.inf),
    (np.cos, math.nan),
    (lambda x: 1.0 / (1.0 + x) ** 2, 1.0),
], ids=["one", "cos", "inverse_square"])
def test_smooth_integrand_that_does_not_decay_is_not_converged(f, exact):
    # blocks of 7 decay lengths once ran into a block cap here; the mapped
    # integral stops evaluating at 200 decay lengths, and what f still is
    # beyond 100 keeps it from converging to the truncated integral
    est = integrate_smooth_semi_infinite(f, 1.0, 1e-10)
    assert not est.converged
    if math.isfinite(exact):
        assert abs(est.value - exact) <= est.abs_error_estimate


# ----------------------------------------------------------- oscillatory tail

def test_oscillatory_cos_over_q():
    # int_1^inf cos(2q)/(2q) dq = -Ci(2)/2, on q -> 1 + q, where the
    # continuation e^{2i(1+q)}/(2(1+q)) is analytic in the first quadrant
    est = lone_tail(lambda q: np.cos(2.0 * (1.0 + q)) / (2.0 * (1.0 + q)),
                    lambda q: np.exp(2j * (1.0 + q)) / (2.0 * (1.0 + q)), 2.0, 0.5, 1e-9)
    assert est.converged
    assert est.value == pytest.approx(-CI_2 / 2.0, abs=1e-9)


def _sinc(q):
    return np.sin(q) / q   # the engine takes f at q > 0 only


def _sinc_exp(q):
    # continuation of _sinc: Re(-i e^{iq}/q) = sin(q)/q, with the pole -i/q
    # at q = 0, whose small arc adds Re(i (pi/4) (-i)) = pi/4 to the ray
    return -1j * np.exp(1j * q) / q


def test_oscillatory_sinc():
    est = lone_tail(_sinc, _sinc_exp, 1.0, 1.0, 1e-9)
    assert est.converged
    assert est.value + math.pi / 4.0 == pytest.approx(math.pi / 2.0, abs=2e-9)


def _lorentz_cos(q, omega=1.0):
    return np.cos(omega * q) / (1.0 + q * q)


def _lorentz_exp(q, omega=1.0):
    # continuation of _lorentz_cos: analytic for Re q > 0 (poles at q = +-i)
    return np.exp(1j * omega * q) / (1.0 + q * q)


def test_oscillatory_lorentz_cos():
    est = lone_tail(_lorentz_cos, _lorentz_exp, 1.0, 1.0, 1e-9)
    assert est.converged
    assert est.value == pytest.approx(math.pi / (2.0 * math.e), abs=2e-9)


@pytest.mark.parametrize("omega, scale", [(1.0, 1.0), (1.0, 0.01), (3.0, 1.0), (20.0, 0.05)])
def test_oscillatory_integral_on_the_ray(omega, scale):
    # int_0^inf cos(omega q)/(1+q^2) dq = (pi/2) e^{-omega}
    est = lone_tail(lambda q: _lorentz_cos(q, omega), lambda q: _lorentz_exp(q, omega),
                    omega, scale, 1e-11)
    assert est.converged and est.abs_error_estimate <= 1e-11
    assert abs(est.value - 0.5 * math.pi * math.exp(-omega)) <= est.abs_error_estimate
    # no period-wide panels: the whole integral costs under 1,000 evaluations
    assert est.evaluations <= 1000


def test_oscillatory_continuation_of_another_integrand_is_refused():
    # h with the wrong sign is not a continuation of f: its ray integral is
    # the integral of -f, and the real-axis agreement check must say so
    est = lone_tail(_lorentz_cos, lambda q: -_lorentz_exp(q), 1.0, 1.0, 1e-10)
    assert not est.converged and est.abs_error_estimate == math.inf
    assert est.value != pytest.approx(math.pi / (2.0 * math.e), abs=1e-6)
    # after a failed check no bisection round follows: refined toward tol =
    # 1e-15 on the real axis, it took 4,904,466 evaluations
    est = lone_tail(_lorentz_cos, lambda q: -_lorentz_exp(q), 1.0, 1.0, 1e-15)
    assert not est.converged and est.evaluations <= 1000
    # a mismatch at rounding level passes
    est = lone_tail(_lorentz_cos, lambda q: _lorentz_exp(q) * (1.0 + 1e-15), 1.0, 1.0, 1e-10)
    assert est.converged


def _noisy(x):
    # e^{-x} with a 1e-9 relative ripple of period 6e-9: no panel width the
    # bisection can reach resolves it, so the error estimate never gets small
    return np.exp(-x) * (1.0 + 1e-9 * np.sin(1e9 * x))


def test_adaptive_rounds_stop_at_the_evaluation_budget(monkeypatch):
    from deltacasimir.numerics import _adaptive_gk, _gk_apply
    edges = np.linspace(0.0, 5.0, 9)
    for budget in (1_000, 20_000, 50_000):
        monkeypatch.setattr(numerics, "_MAX_EVALS", budget)
        value, err, evals, ok = _adaptive_gk(lambda x, _: _noisy(x), edges, 1e-15)
        assert not ok and evals <= budget
        # the round that was refused would have doubled the work
        assert evals > budget / 2
    # seed panels that alone pass the budget are evaluated, and no round runs:
    # the result is the seed pass's
    monkeypatch.setattr(numerics, "_MAX_EVALS", 100)
    vals, errs, _ = _gk_apply(lambda x, _: _noisy(x), edges[:-1], edges[1:], 0)
    assert _adaptive_gk(lambda x, _: _noisy(x), edges, 1e-15) == \
        (float(np.add.reduce(vals)), float(np.add.reduce(errs)), 120, False)



def test_adaptive_rounds_are_skipped_when_told_after_the_seed_pass():
    # the canonical entropy's outer integral takes no round once a density
    # has failed; its flag still compares the error with the caller's tol
    from deltacasimir.numerics import _adaptive_gk
    edges = np.linspace(0.0, 1.0, 9)
    asked = []
    value, err, evals, ok = _adaptive_gk(lambda x, _: np.sqrt(x), edges, 1e-12,
                                         lambda: asked.append(1) and False)
    assert asked == [1] and evals == 120 and err > 1e-12 and not ok
    assert _adaptive_gk(lambda x, _: np.sqrt(x), edges, 1e-12, lambda: True)[2:] == \
        _adaptive_gk(lambda x, _: np.sqrt(x), edges, 1e-12)[2:]

def test_a_batch_gives_each_integral_its_own_bits_and_budget(monkeypatch):
    # _gk_segments integrates several integrals in one loop; each one keeps
    # its own tolerance share, stopping test and evaluation budget, so a
    # batch gives every member the result of its lone call, including the
    # noisy one that runs out of evaluations and the one whose seed panels
    # alone are over the budget, which are evaluated and never split
    from deltacasimir.numerics import _adaptive_gk, _gk_segments
    fs = [lambda x: np.exp(-x), _noisy, lambda x: np.cos(7.0 * x) / (1.0 + x * x),
          lambda x: np.sin(x)]
    edge_sets = [np.linspace(0.0, 5.0, 9), np.linspace(0.0, 5.0, 9), np.linspace(0.0, 3.0, 4),
                 np.linspace(0.0, 1.0, 2000)]
    tols, budget = [1e-13, 1e-15, 1e-12, 1e-12], 20_000
    monkeypatch.setattr(numerics, "_MAX_EVALS", budget)
    lone = [_adaptive_gk(lambda x, _, f=f: f(x), e, t)[:3]
            for f, e, t in zip(fs, edge_sets, tols)]

    def f(x, s):
        out = np.empty(x.shape)
        for i, fi in enumerate(fs):
            out[s == i] = fi(x[s == i])
        return out

    batch = _gk_segments(f, np.concatenate(edge_sets),
                         np.repeat(np.arange(len(fs)), [e.size for e in edge_sets]), tols)
    for i, want in enumerate(lone):
        assert (float(batch[0][i]), float(batch[1][i]), batch[2][i]) == want
    assert [e <= t for (_, e, _), t in zip(lone, tols)] == [True, False, True, True]
    assert lone[1][2] > budget / 2 and lone[3][2] == 15 * 1999


def test_engines_share_one_evaluation_budget(monkeypatch):
    monkeypatch.setattr(numerics, "_MAX_EVALS", 30_000)
    est = integrate_smooth_semi_infinite(_noisy, 1.0, 1e-15)
    assert not est.converged and est.evaluations <= 30_000
    # the ray's seed pass, its agreement check and its rounds draw on one
    # budget: a ripple that no reachable panel width resolves, on the real
    # axis and along the ray alike
    est = lone_tail(lambda q: _noisy(q) * _lorentz_cos(q),
                    lambda z: _noisy(z.real) * np.exp(z.real) * _lorentz_exp(z), 1.0, 1.0,
                    1e-15)
    assert not est.converged and est.evaluations <= 30_000
    # the np.float32 force point: its float32 Bose weight is noise at 1e-7
    # (its head alone spent 10,219,953 evaluations against 8,000,000 once)
    pt = DimensionlessPoint(np.float32(143.7), np.float32(2.0))
    est = casimir_force(pt, "canonical").estimate
    assert not est.converged and est.evaluations <= 30_000


def test_a_member_out_of_budget_stops_while_another_keeps_splitting(monkeypatch):
    # the noisy integral's round 7 would pass the 20,000 cap while sqrt,
    # which bisects toward its endpoint singularity for 31 rounds, still
    # splits: the round must drop only the noisy one's panels
    from deltacasimir.numerics import _adaptive_gk, _gk_segments
    monkeypatch.setattr(numerics, "_MAX_EVALS", 20_000)
    fs, tols = [_noisy, np.sqrt], [1e-15, 1e-14]
    edge_sets = [np.linspace(0.0, 5.0, 9), np.array([0.0, 1.0])]
    lone = [_adaptive_gk(lambda x, _, f=f: f(x), e, t)[:3]
            for f, e, t in zip(fs, edge_sets, tols)]

    def f(x, s):
        out = np.empty(x.shape)
        for i, fi in enumerate(fs):
            out[s == i] = fi(x[s == i])
        return out

    batch = _gk_segments(f, np.concatenate(edge_sets),
                         np.repeat(np.arange(len(fs)), [e.size for e in edge_sets]), tols)
    assert [(float(v), float(e), n) for v, e, n in zip(*batch)] == lone
    assert lone[0][1] > tols[0] and 10_000 < lone[0][2] <= 20_000
    assert lone[1][1] <= tols[1] and lone[1][2] == 15 + 31 * 30


def test_a_tolerance_below_the_floor_sum_is_refined_to_twice_that_sum():
    # e^{-x} on [0, 5]: bisection cannot take the error below the panels'
    # rounding floor sum, 7.5e-16; below it the rounds stop at twice that
    # sum, not at the evaluation cap, and the flag is False
    from deltacasimir.numerics import _adaptive_gk

    def f(x, _):
        return np.exp(-x)

    edges = np.linspace(0.0, 5.0, 9)
    floors = numerics._gk_apply(f, edges[:-1], edges[1:], 0)[2]
    floor = float(np.add.reduce(0.5 * np.diff(edges) * floors))   # half widths times floors
    assert 5e-16 < floor < 1e-15
    for tol in (0.9 * floor, 1e-17, 1e-30):
        value, err, evals, ok = _adaptive_gk(f, edges, tol)
        assert not ok and floor < err <= 2.0 * floor and evals <= 1_000
        assert abs(value - (1.0 - math.exp(-5.0))) <= err


def test_a_member_below_its_floor_stops_while_another_keeps_splitting():
    # the floor stop is each integral's own: a batch gives both members
    # their lone bits: the one below its floor stops after its seed pass,
    # sqrt after 31 rounds
    from deltacasimir.numerics import _adaptive_gk, _gk_segments
    fs, tols = [lambda x: np.exp(-x), np.sqrt], [1e-18, 1e-14]
    edge_sets = [np.linspace(0.0, 5.0, 9), np.array([0.0, 1.0])]
    lone = [_adaptive_gk(lambda x, _, f=f: f(x), e, t)[:3]
            for f, e, t in zip(fs, edge_sets, tols)]

    def f(x, s):
        out = np.empty(x.shape)
        for i, fi in enumerate(fs):
            out[s == i] = fi(x[s == i])
        return out

    batch = _gk_segments(f, np.concatenate(edge_sets),
                         np.repeat(np.arange(len(fs)), [e.size for e in edge_sets]), tols)
    assert [(float(v), float(e), n) for v, e, n in zip(*batch)] == lone
    assert lone[0][1] > tols[0] and lone[0][2] == 120
    assert lone[1][1] <= tols[1] and lone[1][2] == 15 + 31 * 30


# each spent 4.1 to 7.8 million evaluations (0.1 to 0.6 s) refining toward a
# tol below its rounding floor sum, to end with converged=False all the same
@pytest.mark.parametrize("call", [
    lambda: casimir_force(DimensionlessPoint(1.0, 0.5), "canonical", 1e-17),
    lambda: casimir_force(DimensionlessPoint(10.0, 100.0), "canonical", 1e-16),
    lambda: casimir_force(DimensionlessPoint(1.0, 0.0), "canonical", 1e-18),
    lambda: casimir_force(DimensionlessPoint(1.0, 0.0), "lifshitz", 1e-18),
    lambda: entropy_density_canonical(1.0, 0.5, 1e-17),
], ids=["canonical_warm", "canonical_hot", "canonical_zero_t", "lifshitz_zero_t", "density"])
def test_an_unreachable_tolerance_stops_within_a_few_thousand_evaluations(call):
    est = call().estimate
    assert not est.converged and est.evaluations <= 3_000
    assert math.isfinite(est.abs_error_estimate) and est.abs_error_estimate < 1e-14


def _float32_lorentz_cos(q):
    # computed in float32, so it is not Re _lorentz_exp to 1e-12
    return _lorentz_cos(np.asarray(q, np.float32))


def _lone(f, h, spec, tol):
    est = lone_tail(f, h, *spec, tol)
    return est.value, est.abs_error_estimate, est.evaluations


def test_a_lone_oscillatory_integral_reports_its_check_bound_and_budget(monkeypatch):
    # a failed agreement check makes the estimate inf, the bound on the part
    # past the ray's end counts, and the evaluation cap holds
    from test_acceptance import OSCILLATORY_INTEGRALS
    members = [(f, h, sp, 1e-9) for f, h, sp, _, _ in OSCILLATORY_INTEGRALS]
    members += [
        # the ray ends at hi = 45/(omega sin phi) = 3.0e10
        (lambda q: _lorentz_cos(q, 2.1e-9), lambda z: _lorentz_exp(z, 2.1e-9),
         (2.1e-9, 1.0), 1e-9),
        # Re h - f = 2.5e-12, just past the check's 1e-12 (1 + max|f|), max|f|
        # near 1 on the first period
        (_lorentz_cos, lambda z: _lorentz_exp(z) + 2.5e-12, (1.0, 1.0), 1e-13),
        (_float32_lorentz_cos, _lorentz_exp, (1.0, 1.0), 1e-9)]
    lone = [_lone(*m) for m in members]
    assert [e <= m[3] for (_, e, _), m in zip(lone, members)] == [True] * 6 + [False] * 2
    assert lone[-1][1] == lone[-2][1] == math.inf
    # the tail bound is added to the estimate; where it alone is tol or
    # more, the seed pass is all that runs
    for bound, ok in ((2e-10, True), (1e-9, False)):
        g, check = numerics._checked_ray(_lorentz_cos, _lorentz_exp, 2.0 * math.pi)
        est = numerics.integrate_oscillatory_tail(g, 2.0, 45.0 / numerics._RAY_COS, bound, 1e-9,
                                                  check)
        assert est.converged == ok and est.abs_error_estimate >= bound
    # under a 30,000 cap the ripple of test_engines_share_one_evaluation_budget
    # runs out of evaluations
    monkeypatch.setattr(numerics, "_MAX_EVALS", 30_000)
    value, err, evals = _lone(lambda q: _noisy(q) * _lorentz_cos(q),
                              lambda z: _noisy(z.real) * np.exp(z.real) * _lorentz_exp(z),
                              (1.0, 1.0), 1e-15)
    assert evals <= 30_000 and not err <= 1e-15


@pytest.mark.parametrize("omega, scale", [(2.0, 0.5), (1e-3, 0.25), (2e5, 1e-6)])
def test_the_check_points_ride_in_the_first_call_on_the_real_axis(omega, scale):
    # every node lies on the ray q = t e^{i pi/4}, and the first h call also
    # takes the 48 check points of the first period on the real axis
    seen = []

    def h(z):
        seen.append(z.copy())
        return _lorentz_exp(z, omega)

    lone_tail(lambda q: _lorentz_cos(q, omega), h, omega, scale, 1e-9)
    z, chk = seen[0][:-48], seen[0][-48:]
    assert (chk.imag == 0.0).all() and 0.0 < chk.real.min()
    assert chk.real.max() < 2.0 * math.pi / omega
    assert z.size % 15 == 0 and (z.real == z.imag).all() and (z.real > 0.0).all()
    assert all((later.real == later.imag).all() for later in seen[1:])


def _ray_layouts(monkeypatch):
    """A list that collects (lo, hi, edges) for each member of every ray
    integral that ``forces`` and ``thermo`` ask for: the lo and hi they pass
    to ``integrate_oscillatory_tail`` and the edges it seeds its panels on."""
    layouts, calls = [], []
    entry, segments = numerics.integrate_oscillatory_tail, numerics._gk_segments

    def spy_entry(g, lo, hi, *args):
        calls.append((lo, hi))
        return entry(g, lo, hi, *args)

    def spy_segments(f, edges, seg, *args):
        lo, hi = calls.pop()
        if np.ndim(lo) == 0:
            layouts.append((lo, hi, edges))
        else:
            layouts.extend((lo[i], hi[i], edges[seg == i]) for i in range(lo.size))
        return segments(f, edges, seg, *args)

    for module in (forces, thermo):
        monkeypatch.setattr(module, "integrate_oscillatory_tail", spy_entry)
    monkeypatch.setattr(numerics, "_gk_segments", spy_segments)
    return layouts


def test_every_ray_is_a_head_panel_and_octaves_to_its_end(monkeypatch):
    # one GK15 panel on [0, lo], lo twice the first scale, then panels at
    # most an octave wide, the last ending at hi, where the bound on the
    # dropped part starts (at That = 0.01, lo (hi/lo) rounds off hi at two
    # of figure 3a's separations).  The density runs on figure 3a's grid and
    # at the ends of the float range, as one batch and one member at a time,
    # whose plain-float edges are the batch's, bit for bit.  The force's hi/lo
    # overflows at a subnormal lo: at That = 3e-310, and below That ~ 1e-307
    # at d = 1 and 5e-233 at d = 4e-76
    layouts = _ray_layouts(monkeypatch)
    grid = np.geomspace(0.5, 100.0, 48)
    for d in (grid, np.array([1e-310, 1.0, 1e300, 1.7e308])):
        for t in (0.01, 0.5, 1.0, 2.0, 1e-300, 3e-310, 1e300):
            entropy_density_canonical(d, t)
            batch = layouts[-d.size:]
            for x in d.tolist():
                entropy_density_canonical(x, t)
            assert [e.tobytes() for _, _, e in layouts[-d.size:]] == \
                [e.tobytes() for _, _, e in batch]
    for d in (*grid.tolist(), 4e-76, 1.0, 1e300):
        for t in (0.0, 0.5, 1.0, 2.0, 1e-240, 1e-308, 3e-310):
            casimir_force(DimensionlessPoint(d, t), "canonical")
    assert len(layouts) == 2 * (48 + 4) * 7 + 51 * 7
    for lo, hi, edges in layouts:
        ratios = edges[2:] / edges[1:-1]
        assert (edges[0], edges[1], edges[-1]) == (0.0, lo, hi), (lo, hi)
        assert (ratios > 1.0).all() and (ratios <= 2.0 * (1.0 + 1e-15)).all(), (lo, hi)


# five (s, omega), s the ray's first scale: a scale of the pole at q = -1
# of the continuation, and one a tenth of it
@pytest.mark.parametrize("scale, omega", [(1.0, 0.2), (0.1, 2.0), (1.0, 2.0), (0.1, 20.0),
                                          (1.0, 20.0)])
def test_oscillatory_closed_form_consistency(scale, omega):
    # the -A*Ci(omega) closed form for int_1^inf A cos(omega q)/q dq, on q -> 1 + q
    amp = 0.7
    est = lone_tail(lambda q: amp * np.cos(omega * (1.0 + q)) / (1.0 + q),
                    lambda q: amp * np.exp(1j * omega * (1.0 + q)) / (1.0 + q), omega, scale, 1e-9)
    assert est.converged
    expected = -amp * {0.2: CI_0_2, 2.0: CI_2, 20.0: CI_20}[omega]
    assert est.value == pytest.approx(expected, abs=5e-9)
    assert abs(est.value - expected) <= est.abs_error_estimate


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 10.0])
def test_a_first_scale_off_by_decades_still_converges(scale):
    # the first scale sets the head panel [0, 2s] and the octaves' start;
    # bisection takes the rest, and only the work moves
    est = lone_tail(lambda q: _lorentz_cos(q, 0.2), lambda q: _lorentz_exp(q, 0.2), 0.2, scale,
                    1e-9)
    assert est.converged
    assert abs(est.value - 0.5 * math.pi * math.exp(-0.2)) <= est.abs_error_estimate


# ------------------------------------------------------------ cosine integral

@pytest.mark.parametrize("x, ci", [
    ("0.2", CI_0_2), ("1", CI_1), ("2", CI_2), ("10", CI_10), ("20", CI_20)])
def test_cosine_integral_constants_match_mpmath(x, ci):
    # the closed-form tests take Ci from these constants
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        assert ci == float(mpmath.ci(mpmath.mpf(x)))


@pytest.mark.parametrize("name", ["sici", "_wynn_epsilon"])
def test_a_retired_engine_name_is_bound_to_the_raising_stub(name):
    # the tracer patches both names, so they stay bound; nothing computes them
    fn = getattr(numerics, name)
    assert fn is numerics._retired
    with pytest.raises(NotImplementedError):
        fn(2.0)


# ------------------------------------------------------------------- series

def test_series_geometric():
    est = sum_exponential_series(lambda n: 0.5 ** n, 1.0, 0.5, 1e-12)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_series_zero():
    est = sum_exponential_series(np.zeros_like, 0.0, 0.5, 1e-12)
    assert est.converged and est.evaluations == 1
    assert est.value == 0.0


def test_series_matsubara_force_sum():
    # direct-summation oracle to n = 1e4 (terms die after a handful anyway);
    # the terms a y/(1-y), a = 4 pi n, y = e^{-a}/(1+a)^2 are below e^{-a}/2
    c = 4.0 * math.pi

    def term(n):
        e = math.exp(-c * n)
        return c * n * e / ((1.0 + c * n) ** 2 - e)

    def terms(n):
        e = np.exp(-c * n)
        return c * n * e / ((1.0 + c * n) ** 2 - e)

    oracle = sum(term(n) for n in range(1, 10001))
    assert oracle == pytest.approx(2.381101555807226e-07, rel=1e-13)
    est = sum_exponential_series(terms, 0.5, math.exp(-c), 1e-20)
    assert est.converged
    assert est.value == pytest.approx(oracle, rel=1e-13)


def test_series_remainder_bounds_a_slow_tail():
    # ratio 0.99: the true tail after term N is 99 times term N; an observed
    # ratio capped at 0.95 once claimed 19 times
    r = 0.99
    est = sum_exponential_series(lambda n: r ** n, 1.0, r, 1e-8)
    assert est.converged
    assert est.abs_error_estimate >= r ** (est.evaluations + 1) / (1.0 - r)
    exact = Fraction(r) / (1 - Fraction(r))   # of the float r
    assert abs(Fraction(est.value) - exact) <= est.abs_error_estimate


def test_series_term_count_is_fixed_before_any_term():
    # N is the least count whose remainder bound r^(N+1)/(1-r) is within
    # tol/1000; the terms are asked for once, in one block of indices 1..N
    r, tol = 0.9, 1e-9
    calls = []

    def terms(n):
        calls.append(n.copy())
        return r ** n

    est = sum_exponential_series(terms, 1.0, r, tol)
    n = est.evaluations
    assert r ** (n + 1) / (1.0 - r) <= 1e-3 * tol < r ** n / (1.0 - r)
    assert len(calls) == 1 and calls[0].tolist() == list(range(1, n + 1))


def test_series_sums_its_blocks_exactly():
    # 2^16-term blocks, fed to one fsum: the total is the exactly rounded sum
    # of all the terms, not a sum of rounded block sums
    r = 1.0 - 1e-5
    calls = []

    def terms(n):
        calls.append(n.size)
        return np.cos(n) * r ** n

    est = sum_exponential_series(terms, 1.0, r, 1e-8)
    assert calls[:-1] == [2 ** 16] * (len(calls) - 1) and len(calls) > 1
    assert est.value == math.fsum(terms(np.arange(1.0, est.evaluations + 1)).tolist())


def test_series_reports_its_rounding_floor():
    # the floor 1e-16 sum|t_n| = 1e-7 exceeds tol, so the fixed count of
    # 50,631 terms cannot converge; an observed-ratio stopping rule once
    # stopped near term 37,000 instead
    est = sum_exponential_series(lambda n: 1e6 * 0.999 ** n, 1e6, 0.999, 1e-10)
    assert not est.converged
    assert est.evaluations == 50_631
    assert est.value == pytest.approx(999e6, rel=1e-12)


def test_series_nonconvergence_reported(monkeypatch):
    # the remainder bound at _MAX_TERMS is above tol before any term: the
    # call once summed those terms anyway, and now evaluates none
    monkeypatch.setattr(numerics, "_MAX_TERMS", 1000)
    r = 0.9999
    est = sum_exponential_series(lambda n: r ** n, 1.0, r, 1e-12)
    assert not est.converged
    assert (est.value, est.abs_error_estimate, est.evaluations) == (0.0, math.inf, 0)


def test_series_without_a_geometric_bound_is_not_converged(monkeypatch):
    # ratio 1 (e^{-cd} rounded up, at That*d below 1e-17) bounds no remainder
    monkeypatch.setattr(numerics, "_MAX_TERMS", 1000)
    est = sum_exponential_series(lambda n: 1.0 / n, 1.0, 1.0, 1e-12)
    assert not est.converged
    assert est.evaluations == 0 and est.abs_error_estimate == math.inf


@pytest.mark.parametrize("ratio", [1.0, 1.0 - 1e-9])
def test_a_series_that_cannot_converge_returns_at_once(ratio):
    # its bound at _MAX_TERMS = 10^7 terms is known before the first term:
    # entropy_lifshitz at That = 1e-10 spent 1.02 s on 2 x 10^7 terms to
    # report err 3.1e17
    start = time.perf_counter()
    est = sum_exponential_series(lambda n: ratio ** n, 1.0, ratio, 1e-12)
    assert time.perf_counter() - start < 0.01
    assert not est.converged and est.evaluations == 0
    start = time.perf_counter()
    s = entropy_lifshitz(DimensionlessPoint(1.0, 1e-10))
    assert time.perf_counter() - start < 0.01
    assert not s.estimate.converged and s.estimate.evaluations == 0


def test_the_estimate_sets_its_own_flag():
    from deltacasimir.numerics import QuadratureEstimate
    assert QuadratureEstimate(1.0, 1e-11, 5, 1e-10).converged is True
    assert QuadratureEstimate(1.0, np.float64(1e-9), 5, 1e-10).converged is False
    assert QuadratureEstimate(1.0, math.inf, 5, 1e-10).converged is False
    assert QuadratureEstimate(1.0, math.nan, 5, 1e-10).converged is False
    assert QuadratureEstimate(1.0, 1e-10, 5, 1e-10).converged is True
    # the flag is Python's True or False for any scalar estimate
    for err in (1e-11, np.float64(1e-11), np.array(1e-11), np.float32(1e-11), 0):
        assert QuadratureEstimate(1.0, err, 5, 1e-10).converged is True
    for err in (1e-9, np.float64(1e-9), np.array(1e-9), np.float64(math.nan), np.array(math.nan)):
        assert QuadratureEstimate(1.0, err, 5, np.float64(1e-10)).converged is False
    batch = QuadratureEstimate(np.ones(3), np.array([0.0, 1e-9, math.inf]), 15, 1e-10)
    assert batch.converged.dtype == bool and batch.converged.tolist() == [True, False, False]
    assert QuadratureEstimate(np.ones(1), np.array([1e-9]), 15, 1e-10).converged.dtype == bool
    # a flag in the place of the tolerance is refused, not read as tol = 1
    with pytest.raises(DomainError):
        QuadratureEstimate(1.0, 0.5, 5, True)
    with pytest.raises(TypeError):
        QuadratureEstimate(1.0, 0.5, 5, 1e-10, True)


# ------------------------------------------------------------- thermal weight

def test_thermal_weight_limits():
    weight = numerics._thermal_weight_raw
    assert weight(1e-10, 1.0) == pytest.approx(1.0, abs=1e-10)
    u = 20.0
    assert weight(2.0 * u, 1.0) == pytest.approx(4.0 * u * u * math.exp(-2.0 * u), rel=1e-10)
    assert weight(2.0, 1.0) == pytest.approx(1.0 / math.sinh(1.0) ** 2, rel=1e-13)


def test_thermal_weight_range_and_monotonicity():
    weight = numerics._thermal_weight_raw
    that = 1.3
    u = np.geomspace(1e-2, 300.0, 400)   # representable range; deeper u underflows to 0
    w = weight(2.0 * that * u, that)
    assert np.all(w > 0.0) and np.all(w <= 1.0)
    assert np.all(np.diff(w) < 0.0)
    # graceful underflow far out, never NaN
    assert weight(5000.0, 1.0) == 0.0
    assert not math.isnan(weight(1e6, 1.0))


# ------------------------------------------------------------------ GK blocks

def _weight_exact(q, That):
    """(u/sinh u)^2 at the float q and That, u = q/(2 That), by mpmath at 40 digits."""
    import mpmath
    with mpmath.workdps(40):
        u = mpmath.mpmathify(q) / (2 * mpmath.mpf(That))
        return (u / mpmath.sinh(u)) ** 2 if u else mpmath.mpf(1)


# u = q/(2 That) on the real axis: 0, around the 5e-151 below which the
# weight is 1, a log grid, where it turns subnormal (u ~ 355 to 380), and
# past sinh's overflow at 710.5
_REAL_U = np.concatenate([[0.0, 1e-300, 4e-151, 5e-151, 6e-151, 1e-150],
                          np.geomspace(1e-8, 1e3, 400), [355.0, 375.0, 380.0, 709.0, 710.0,
                                                         711.0, 1e4, 1e300]])
# t along the ray q = t e^{i pi/4} in units of 2 That: Re u = t cos(pi/4)
# from 5e-151 to 22.5, the density's last node, and a little past it
_RAY_T = np.concatenate([[1e-300, 5e-151, 7.07e-151, 7.08e-151, 1e-150],
                         np.geomspace(1e-8, 50.0, 400)])


@pytest.mark.parametrize("That", [0.01, 0.5, 2.0, 2])
def test_thermal_weight_raw_matches_mpmath(That):
    # within (4 + 2|u|) eps of (u/sinh u)^2: u = q/(2 That) carries half an
    # ulp, which the weight's condition |2 - 2u coth u| <= 2 + 2|u| scales;
    # plus one subnormal's rounding where the weight is below 2.2e-308
    eps = np.finfo(float).eps
    ray = complex(math.sqrt(0.5), math.sqrt(0.5))
    for q in (2.0 * That * _REAL_U, 2.0 * That * _RAY_T * ray):
        got = numerics._thermal_weight_raw(q, That)
        assert got.dtype == q.dtype and got.shape == q.shape
        for qi, wi in zip(q.tolist(), got.tolist()):
            exact = _weight_exact(qi, That)
            allowed = (4.0 + 2.0 * abs(qi / (2.0 * That))) * eps * float(abs(exact)) + 5e-324
            assert float(abs(wi - exact)) <= allowed, (qi, wi)
    # 1 to the last bit below Re u = 5e-151, 0 past sinh's overflow
    got = numerics._thermal_weight_raw(2.0 * That * _REAL_U, That)
    assert (got[:3] == 1.0).all() and (got[-4:] == 0.0).all()
    # a number gives a numpy scalar with its array element's bits
    for q in (0.0, 0.7, 1e4, np.float64(2.5), np.array(2.5)):
        w = numerics._thermal_weight_raw(q, That)
        assert type(w) is np.float64
        assert w == numerics._thermal_weight_raw(np.array([q], float), That)[0]


def _gk_in_blocks(monkeypatch, chunk, n):
    def f(q, _):
        return numerics._thermal_weight_raw(q, 0.5) * flux_deficit(q, 3.0)

    monkeypatch.setattr(numerics, "_GK_CHUNK", chunk)
    edges = np.linspace(0.0, 20.0, n + 1)
    return numerics._gk_apply(f, edges[:-1], edges[1:], 0)


@pytest.mark.parametrize("n", [1, 513, 1000, 1003])
@pytest.mark.parametrize("chunk", [8, 256])
def test_gk_block_size_does_not_change_the_bits(monkeypatch, chunk, n):
    # any block size that is a multiple of dgemv's 4-row groups, with a lone
    # last panel folded into the block before it (n = 513); blocks of 7
    # panels would move the K15 sums of about 1 panel in 6
    ref = _gk_in_blocks(monkeypatch, 8192, n)
    got = _gk_in_blocks(monkeypatch, chunk, n)
    assert got[0].tobytes() == ref[0].tobytes()
    assert got[1].tobytes() == ref[1].tobytes()
    assert got[2].tobytes() == ref[2].tobytes()
    assert len(got) == len(ref) == 3 and got[0].size == n


@pytest.mark.parametrize("call", [
    lambda: entropy_density_canonical(20.0, 2.0),
    lambda: casimir_force(DimensionlessPoint(200.0, 0.0), "canonical"),
], ids=["entropy_density", "canonical_force"])
def test_kernel_blocks_keep_temporaries_small(call):
    # tracemalloc sees numpy's buffers: block-sized temporaries (8192-panel
    # blocks) peak near 3 MiB on these calls, 256-panel ones near 0.4 MiB
    call()   # keep one-time set-up of the first call out of the peak
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------------------- determinism

def test_bit_identical_reruns():
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    a = integrate_smooth_semi_infinite(f, 1.0, 1e-11)
    b = integrate_smooth_semi_infinite(f, 1.0, 1e-11)
    assert a == b

    spec = (1.0, 1.0)
    assert lone_tail(_sinc, _sinc_exp, *spec, 1e-9) == lone_tail(_sinc, _sinc_exp, *spec, 1e-9)
