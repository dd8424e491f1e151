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
    numerics,
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
    vals, _ = _gk_apply(lambda z, _: f(z), edges[:-1], edges[1:], 0)
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
    # f = cos(2q)/(2q) for q >= 1, zero below; integral is -Ci(2)/2
    def f(q):
        q = np.asarray(q, float)
        out = np.zeros(q.shape)
        m = q >= 1.0
        out[m] = np.cos(2.0 * q[m]) / (2.0 * q[m])
        return out

    est = lone_tail(f, lambda q: np.exp(2j * q) / (2.0 * q), 2.0, 10.0, 1e-9)
    assert est.converged
    assert est.value == pytest.approx(-CI_2 / 2.0, abs=1e-9)


def _sinc(q):
    q = np.asarray(q, float)
    out = np.ones(q.shape)
    m = q > 0
    out[m] = np.sin(q[m]) / q[m]
    return out


def _sinc_exp(q):
    # continuation of _sinc beyond q = 0: Re(-i e^{iq}/q) = sin(q)/q
    return -1j * np.exp(1j * q) / q


def test_oscillatory_sinc():
    est = lone_tail(_sinc, _sinc_exp, 1.0, 4.0 * math.pi, 1e-9)
    assert est.converged
    assert est.value == pytest.approx(math.pi / 2.0, abs=2e-9)


def _lorentz_cos(q, omega=1.0):
    return np.cos(omega * q) / (1.0 + q * q)


def _lorentz_exp(q, omega=1.0):
    # continuation of _lorentz_cos: analytic for Re q > 0 (poles at q = +-i)
    return np.exp(1j * omega * q) / (1.0 + q * q)


def test_oscillatory_lorentz_cos():
    est = lone_tail(_lorentz_cos, _lorentz_exp, 1.0, 4.0 * math.pi, 1e-9)
    assert est.converged
    assert est.value == pytest.approx(math.pi / (2.0 * math.e), abs=2e-9)


@pytest.mark.parametrize("omega, q0", [(1.0, 2.0 * math.pi), (1.0, 30.0), (3.0, 2.1),
                                       (20.0, 1.0)])
def test_oscillatory_tail_on_the_rotated_contour(omega, q0):
    # int_0^inf cos(omega q)/(1+q^2) dq = (pi/2) e^{-omega}
    est = lone_tail(lambda q: _lorentz_cos(q, omega), lambda q: _lorentz_exp(q, omega),
                    omega, q0, 1e-11)
    assert est.converged and est.abs_error_estimate <= 1e-11
    assert abs(est.value - 0.5 * math.pi * math.exp(-omega)) <= est.abs_error_estimate
    # no half-period panels: the whole integral costs under 1,000 evaluations
    assert est.evaluations <= 1000


def test_oscillatory_continuation_of_another_integrand_is_refused():
    # h with the wrong sign is not a continuation of f: its contour tail is
    # the tail of -f, and the real-axis agreement check must say so
    spec = (1.0, 4.0 * math.pi)
    est = lone_tail(_lorentz_cos, lambda q: -_lorentz_exp(q), *spec, 1e-10)
    assert not est.converged
    assert est.value != pytest.approx(math.pi / (2.0 * math.e), abs=1e-6)
    # after a failed check the panels are refined only to Q times the measured
    # mismatch: refined toward tol = 1e-15, it took 4,904,466 evaluations
    est = lone_tail(_lorentz_cos, lambda q: -_lorentz_exp(q), *spec, 1e-15)
    assert not est.converged and est.evaluations <= 1000
    # a mismatch at rounding level passes
    est = lone_tail(_lorentz_cos, lambda q: _lorentz_exp(q) * (1.0 + 1e-15), *spec, 1e-10)
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
    vals, errs = _gk_apply(lambda x, _: _noisy(x), edges[:-1], edges[1:], 0)
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
    # head, agreement check and rotated tail of one integral draw on one budget
    est = lone_tail(lambda q: _noisy(q) * _lorentz_cos(q), _lorentz_exp, 1.0, 4.0 * math.pi,
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


def _float32_lorentz_cos(q):
    # computed in float32, so it is not Re _lorentz_exp to 1e-12
    return _lorentz_cos(np.asarray(q, np.float32))


def _lone(f, h, spec, seeds, tol):
    est = lone_tail(f, h, *spec, tol, seeds)
    return est.value, est.abs_error_estimate, est.evaluations


def test_a_lone_oscillatory_integral_reports_its_check_witness_and_budget(monkeypatch):
    # head seeds outside (0, Q) are dropped, a failed agreement check makes
    # the estimate inf, a witness counts, and the evaluation cap holds
    from test_acceptance import OSCILLATORY_INTEGRALS
    spec = (1.0, 4.0 * math.pi)
    members = [(f, h, sp, (), 1e-9) for f, h, sp, _ in OSCILLATORY_INTEGRALS]
    members[1] = members[1][:3] + ((-1.0, 0.0, 0.3, 2.0, 4.0 * math.pi, 50.0), 1e-9)
    members += [
        # seeded at Q/8, narrower than pi/(2 omega)
        (lambda q: _lorentz_cos(q, 0.2), lambda z: _lorentz_exp(z, 0.2),
         (0.2, 40.0), (), 1e-9),
        # Q = 3.1e9, where ulp(Q) = 4.8e-7
        (lambda q: _lorentz_cos(q, 2.1e-9), lambda z: _lorentz_exp(z, 2.1e-9),
         (2.1e-9, 3.1e9), (), 1e-9),
        # Im h = 1e-12 on the line does not decay: the witness, 2e-10, counts
        (_lorentz_cos, lambda z: _lorentz_exp(z) + 1e-12j, spec, (), 1e-9),
        # Re h - f = 1.5e-12, just past the check's 1e-12 (1 + max|f|): the
        # panels are refined to Q * 1.5e-12 + tol/2, not to tol
        (_lorentz_cos, lambda z: _lorentz_exp(z) + 1.5e-12, spec, (), 1e-13),
        (_float32_lorentz_cos, _lorentz_exp, spec, (0.5, 3.0), 1e-9)]
    lone = [_lone(*m) for m in members]
    assert members[1][3][0] < 0.0 and lone[1] == _lone(*members[1][:3], (0.3, 2.0), 1e-9)
    assert [e <= m[4] for (_, e, _), m in zip(lone, members)] == [True] * 8 + [False] * 2
    assert lone[-1][1] == lone[-2][1] == math.inf and lone[-3][1] >= 2e-10
    # under a 30,000 cap: one runs out of evaluations, one has seed panels
    # past the cap alone, which are evaluated and never split
    monkeypatch.setattr(numerics, "_MAX_EVALS", 30_000)
    members = [(lambda q: _noisy(q) * _lorentz_cos(q), _lorentz_exp, spec, (), 1e-15),
               (_lorentz_cos, _lorentz_exp, spec, np.linspace(0.001, 12.0, 2500), 1e-9)]
    lone = [_lone(*m) for m in members]
    assert lone[0][2] <= 30_000 and not lone[0][1] <= 1e-15
    # 2,508 head and 8 tail panels, and 96 check points
    assert lone[1][1] <= 1e-9 and lone[1][2] == 15 * (2508 + 8) + 96


def test_a_lone_tail_gets_the_same_seed_nodes_at_any_switch_point():
    # the tail's panels lie on x = -t and t = -x is exact: its nodes Q + iy(t)
    # take the same y at Q = 10 as at Q = 3.1e9, where panels on x = Q + t
    # once rounded t to ulp(Q) = 4.8e-7; f = h = 0 converge in the seed pass
    def line_nodes(q0):
        seen = []

        def h(z):
            seen.append(z.copy())
            return np.zeros(z.shape, complex)

        lone_tail(np.zeros_like, h, 1.0, q0, 1e-9)
        z = np.concatenate(seen)
        z = z[z.imag != 0.0]   # not the check points on the real axis
        assert (z.real == q0).all()
        return z.imag

    # 8 seed panels of 15 nodes, of which 4 lie past 200 decay lengths
    near = line_nodes(10.0)
    assert near.size == 116 and near.tobytes() == line_nodes(3.1e9).tobytes()


def test_a_lone_tail_seed_layout_is_the_engines():
    # a lone integral's first integrand call takes its tail nodes from a fixed
    # layout: it must be the nodes _gk_apply builds on the 8 tail seed panels,
    # which sort first, and the points the map keeps, t < _S_CUT
    edges = numerics._seed_edges(3.0, np.concatenate([[0.1, 2.5], numerics._TAIL_EDGES]))
    nodes = []
    numerics._gk_apply(lambda x, _: nodes.append(x.copy()) or np.zeros(x.size),
                       edges[:-1], edges[1:], 0)
    t = -nodes[0][:120]
    assert (t > 0.0).all() and (nodes[0][120:] > 0.0).all()
    assert t.tobytes() == numerics._TAIL_T.tobytes()
    kept = t < numerics._S_CUT
    assert np.count_nonzero(kept) == 116 and numerics._TAIL_CUT == 4
    assert (kept == (np.arange(120) >= numerics._TAIL_CUT)).all()
    assert numerics._TAIL_S.tobytes() == t[kept].tobytes()
    assert numerics._TAIL_REST.tobytes() == (1.0 - t[kept]).tobytes()


# every (Q, omega) in {5, 50} x {0.2, 2, 20} whose Q covers one period 2 pi/omega
@pytest.mark.parametrize("q0, omega", [(50.0, 0.2), (5.0, 2.0), (50.0, 2.0), (5.0, 20.0),
                                       (50.0, 20.0)])
def test_oscillatory_closed_form_consistency(q0, omega):
    # the -A*Ci(omega) closed form for A cos(omega q)/q, masked below q = 1
    amp = 0.7

    def f(q):
        q = np.asarray(q, float)
        out = np.zeros(q.shape)
        m = q >= 1.0
        out[m] = amp * np.cos(omega * q[m]) / q[m]
        return out

    est = lone_tail(f, lambda q: amp * np.exp(1j * omega * q) / q, omega, q0, 1e-9)
    assert est.converged
    expected = -amp * {0.2: CI_0_2, 2.0: CI_2, 20.0: CI_20}[omega]
    assert est.value == pytest.approx(expected, abs=5e-9)
    assert abs(est.value - expected) <= est.abs_error_estimate


def test_oscillatory_switch_point_of_exactly_one_period_converges():
    # one period is the engine's precondition, which contour_switch meets
    assert lone_tail(lambda q: _lorentz_cos(q, 0.2), lambda q: _lorentz_exp(q, 0.2), 0.2,
                     2.0 * math.pi / 0.2, 1e-9).converged


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


# ---------------------------------------------- GK blocks and thermal weight

def _thermal_weight_raw_reference(q, That):
    # the masked-gather evaluation that the whole-array one replaced, verbatim
    q = np.asarray(q, float)
    u = q / (2.0 * That)
    out = np.ones_like(u)
    m = u > 0
    out[m] = 2.0 * u[m] * np.exp(-u[m]) / (-np.expm1(-2.0 * u[m]))
    return out * out


@pytest.mark.parametrize("That", [0.01, 0.5, 2.0, 2])
def test_thermal_weight_raw_is_bit_identical_to_reference(That):
    qs = np.concatenate([[0.0, 1e-140], np.geomspace(1e-3, 1e4, 2001)])
    got = numerics._thermal_weight_raw(qs, That)
    assert got.tobytes() == _thermal_weight_raw_reference(qs, That).tobytes()
    for q in (0.0, 1e-140, 0.7, 1e4, np.float64(2.5), np.array(2.5)):
        a, b = numerics._thermal_weight_raw(q, That), _thermal_weight_raw_reference(q, That)
        assert type(a) is type(b) and a.tobytes() == b.tobytes()


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
    assert len(got) == len(ref) == 2 and got[0].size == n


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

    spec = (1.0, 4.0 * math.pi)
    assert lone_tail(_sinc, _sinc_exp, *spec, 1e-9) == lone_tail(_sinc, _sinc_exp, *spec, 1e-9)
