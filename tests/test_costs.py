"""Kernel-evaluation and GK pass counts of the hot paths.

Evaluation counts are deterministic, so they make an exact regression
signal where wall times do not.  The entropy paths get upper bounds with 2%
slack; the force paths, which no entropy change may move, are pinned exactly.
Pass counts, the number of ``numerics._gk_apply`` calls (one per seed pass
and per bisection round), are deterministic too: call overhead, not
evaluations, sets the cost of a single force or density.
"""
import hashlib

import numpy as np
import pytest
from oracles import RECORDED_HOST, host_fingerprint, lone_tail
from test_acceptance import OSCILLATORY_INTEGRALS
from test_forces import _LARGE_D

from deltacasimir import DimensionlessPoint, casimir_force, cli, \
    entropy_canonical, entropy_density_canonical, entropy_lifshitz, numerics, thermo


def _gk_passes(monkeypatch, fn):
    """The number of ``numerics._gk_apply`` calls made by fn()."""
    passes = [0]
    gk_apply = numerics._gk_apply

    def counting(*args):
        passes[0] += 1
        return gk_apply(*args)

    monkeypatch.setattr(numerics, "_gk_apply", counting)
    fn()
    return passes[0]


# the float points of one benchmark entropy_grid pass: 6 float32-rounded
# log-spaced d in [0.5, 20] x That in {0.01, 0.5, 2}, plus (1, 0.01), less the
# np.int64 and np.float32 points (test_typed_entropy_grid_points_give_the_float_bits)
_ENTROPY_D = [float(np.float32(x)) for x in np.geomspace(0.5, 20.0, 6)]
ENTROPY_GRID = [(d, t) for t in (0.01, 0.5, 2.0) for d in _ENTROPY_D
                if (d, t) not in ((_ENTROPY_D[1], 2.0), (_ENTROPY_D[3], 2.0))] + [(1.0, 0.01)]


def test_canonical_entropy_over_the_benchmark_grid():
    # 7,715,670 with one GK15 seed panel per e-fold of distance and q_max = 40 That;
    # 1,855,230 with every density on the real axis out to q_max; 300,441
    # before the densities got graded seed edges around their resonances;
    # 276,726 once the rotated densities' head and tail were one integral;
    # 180,396 once the outer integral had a seed edge at the thermal length;
    # 162,921 while a graded resonance's seed edges started at half its
    # width; 53,940 since the densities run on the ray
    total = sum(entropy_canonical(DimensionlessPoint(d, t), 100.0).estimate.evaluations
                for d, t in ENTROPY_GRID)
    assert total <= 1.02 * 53_940


def test_entropy_grid_passes(monkeypatch):
    # 841 while every outer node made its own density call (555 calls, each
    # with its own seed pass and rounds), 95 while each density call made one
    # adaptive loop per kind of q-integral, 85 while the outer integral had
    # no seed edge at the thermal length, 58 while a graded resonance's seed
    # edges started at its full width, 45 while the densities ran on the
    # real axis; one density call per outer round, one adaptive loop for all
    # of its q-integrals, whose ray integrals mostly converge in their seed
    # pass
    def entropies():
        for d, t in ENTROPY_GRID:
            entropy_canonical(DimensionlessPoint(d, t), 100.0)

    assert _gk_passes(monkeypatch, entropies) == 36


def test_cold_entropy_grid_row_is_one_density_call_each(monkeypatch):
    # the That = 0.01 row and the criterion-8 cold point: three density calls
    # (a seed pass and two bisection rounds) each for d < 1/(2 pi That) before
    # the outer integral got its seed edge at that thermal length
    calls = [0]
    density = thermo.entropy_density_canonical

    def counting(*args):
        calls[0] += 1
        return density(*args)

    monkeypatch.setattr(thermo, "entropy_density_canonical", counting)
    per_entropy = []
    for d, t in ENTROPY_GRID:
        if t == 0.01:
            calls[0] = 0
            entropy_canonical(DimensionlessPoint(d, t), 100.0)
            per_entropy.append(calls[0])
    assert per_entropy == [1] * 7


def test_density_over_the_figure3a_grid():
    # 973,980 with q_max = 40 That; 705,810 with every density on the real
    # axis out to q_max; 59,355 with graded seed edges around the resonances,
    # 59,085 once the rotated densities' head and tail were one integral,
    # 54,255 while a graded resonance's seed edges started at half its
    # width; 20,235 on the ray
    grid = [float(x) for x in np.geomspace(0.5, 100.0, 48)]
    total = sum(entropy_density_canonical(d, t).estimate.evaluations
                for t in (0.5, 1.0, 2.0) for d in grid)
    assert total <= 1.02 * 20_235


# 107,988 and 7,623 when the tail beyond Q = max(10, 8 That, 4 pi/2d) ran on
# half-period panels with Wynn's epsilon, 15,321 and 1,161 when the contour
# tail was integrated in blocks of 7 decay lengths, 14,961 and 801 while the
# head ran to Q = max(1, pi/d) from quarter-period seed panels, 786 and 486
# while it ran to Q = pi/d with no seed edges around its resonance; both
# values are within 1e-15 of the exact force (were 4.3e-12 and 8.3e-12 with
# Wynn's epsilon).  Head and contour tail becoming one adaptive integral did
# not move either count; 666 and 546 while a graded resonance's seed edges
# started at its full width and grew by 4x, and (200, 0) took a second pass.
@pytest.mark.parametrize("d, that, evals", [(200.0, 0.0, 726), (10.0, 2.0, 516)])
def test_canonical_force(d, that, evals):
    assert casimir_force(DimensionlessPoint(d, that), "canonical").estimate.evaluations == evals


# 13 and 15 passes when the head [0, pi/d] found the resonance near
# pi/(d+2) by bisection and the line Re q = pi/d passed 1.6e-4 from it;
# 3 and 3 while the head and the contour tail were two adaptive integrals,
# 2 and 2 while a graded resonance's seed edges started at its full width
@pytest.mark.parametrize("d, that", [(200.0, 0.0), (200.0, 2.0)])
def test_canonical_force_passes(monkeypatch, d, that):
    pt = DimensionlessPoint(d, that)
    assert _gk_passes(monkeypatch, lambda: casimir_force(pt, "canonical")) == 1


# the 96 float points of one benchmark force_sweep pass: 24 float32-rounded
# log-spaced d in [0.1, 200] x That in {0, 0.5, 1, 2}
_FORCE_D = [float(np.float32(x)) for x in np.geomspace(0.1, 200.0, 24)]
FORCE_SWEEP = [(d, t) for t in (0.0, 0.5, 1.0, 2.0) for d in _FORCE_D]


def test_force_sweep_passes(monkeypatch):
    # 253 while head and contour tail were two adaptive integrals with a
    # separate agreement check, 153 before the zero-T head got seed edges
    # near q ~ 1 at d < pi/8, 147 while a graded resonance's seed edges
    # started at its full width and grew by 4x
    def sweep():
        for d, t in FORCE_SWEEP:
            casimir_force(DimensionlessPoint(d, t), "canonical")

    assert _gk_passes(monkeypatch, sweep) == 98


# the benchmark's force_sweep computes the other six of these points with an
# int, np.int64 or np.float32 That: (That, index into _FORCE_D)
_TYPED_FORCE_POINTS = {(1.0, 4), (2.0, 12), (1.0, 20), (2.0, 8), (1.0, 16), (2.0, 22)}


def test_lone_canonical_forces_converge_in_their_seed_pass(monkeypatch):
    # 44 of the 90 float points did while each graded resonance's seed edges
    # started at its full width and grew by 4x: the rest took a second pass
    # that bisected the panels around the dip
    passes = []
    gk_apply = numerics._gk_apply
    monkeypatch.setattr(numerics, "_gk_apply", lambda *args: passes.append(1) or gk_apply(*args))
    seed_pass_only = 0
    for t in (0.0, 0.5, 1.0, 2.0):
        for i, d in enumerate(_FORCE_D):
            if (t, i) not in _TYPED_FORCE_POINTS:
                passes.clear()
                casimir_force(DimensionlessPoint(d, t), "canonical")
                seed_pass_only += len(passes) == 1
    assert seed_pass_only >= 88


def test_every_ray_seed_panel_spans_at_most_an_octave():
    # a density's ray integral starts with [0, s/8], s = min(1/d, 1/2, That),
    # then one panel per octave out to hi, where e^{2iqd} or the weight has
    # decayed by e^{-45}: 9 to 12 panels on figure 3a's grid
    grid = np.geomspace(0.5, 100.0, 48)
    for d in (grid, np.array([1e-310, 1.0, 1e300, 1.7e308])):
        for t in (0.5, 1.0, 2.0, 1e-300, 1e300):
            edges, seg, _ = thermo._ray_seeds(d, t)
            for i, x in enumerate(d.tolist()):
                e = edges[seg == i]
                ratios = e[2:] / e[1:-1]
                assert e[0] == 0.0 and e[1] == 0.125 * min(1.0 / x, 0.5, t)
                assert (ratios > 1.5).all() and (ratios <= 2.0 * (1.0 + 1e-15)).all()
                if d is grid and t <= 2.0:
                    assert 9 <= e.size - 1 <= 12


def _estimates_digest(estimates):
    """SHA-256 over each estimate's value and error bits, evaluations and flag."""
    h = hashlib.sha256()
    for e in estimates:
        h.update(f"{float(e.value).hex()} {float(e.abs_error_estimate).hex()} "
                 f"{e.evaluations} {e.converged}\n".encode())
    return h.hexdigest()


# Every bit of the benchmark's computing points, both routes: the engine's
# bookkeeping may change, but no value, error, evaluation count or flag.
# These digests, like the golden hashes, hold on a host like the one they
# were recorded on: a failing one names both hosts.
# Recorded again when the outer integral got its seed edge at the thermal
# length, which moves the six That = 0.01 entropies with d < 1/(2 pi That)
# (each within 3e-12 of the identity oracle, estimates 3.6e-7), and again
# when the Matsubara estimates took the rounding of adding the zero mode:
# only the 17 Lifshitz errors moved.  Recorded again when the contour tail's
# panels moved to x = -t: 3 canonical values moved, by at most 4.2e-16
# relative, and 10 canonical errors, by at most 3.8e-10.  Recorded again when
# each graded resonance's seed edges started at half its width: the 17
# canonical entropies moved, values by at most 2.6e-13 relative and errors by
# at most 9.5e-14, evaluations 183,363 -> 165,888 over the 34 entropies; no
# flag moved.  Recorded again when the densities moved onto the ray: the 17
# canonical entropies moved, values by at most 6.9e-12 relative and errors
# by at most 2.7e-12, evaluations 165,888 -> 56,907 over the 34 entropies;
# no flag moved, and no Lifshitz bit.
def test_entropy_grid_bits():
    ests = [f(DimensionlessPoint(d, t), 100.0).estimate
            for d, t in ENTROPY_GRID for f in (entropy_canonical, entropy_lifshitz)]
    assert _estimates_digest(ests) == \
        "1673d4a51515089ec935b52bbf7c195bbe20c561ea9a669b99076d7ab0103c71", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# Recorded again when the Lifshitz force's estimate took the rounding of
# adding the zero mode: only the 72 errors at That > 0 moved.  Recorded again
# when the contour tail's panels moved to x = -t: 64 of the 96 canonical
# values moved, by at most 9.8e-16 relative, and all 96 canonical errors, by
# at most 7.1e-4; no count or flag moved.  Recorded again when the zero-T
# head got seed edges near q ~ 1 at d < pi/8: the 5 canonical points at
# That = 0 with d < 0.39 moved, values by at most 6.9e-16 relative and
# errors by at most 9.0e-12, evaluations 1,860 -> 2,100; no flag moved.
# Recorded again when each graded resonance's seed edges below d = 300
# started at half its width and grew by 2x: 54 of the 96 canonical values
# moved, by at most 7.4e-13 relative, and 56 errors, by at most 8.6e-11;
# evaluations 51,270 -> 50,100 over the 192 forces; no flag moved.
def test_force_sweep_bits():
    ests = [casimir_force(DimensionlessPoint(d, t), route).estimate
            for d, t in FORCE_SWEEP for route in ("canonical", "lifshitz")]
    assert _estimates_digest(ests) == \
        "4fb6363b34b988b2f4b84767f853987f8898df880c26a4657dd59b20a0eedb3f", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# From d = 300 on a graded resonance keeps its seed edges gamma_m 4^k, so the
# canonical force there keeps the bits that those edges gave it at every d.
# Until the densities moved onto the ray this digest also held the 24
# densities with d <= RESOLVED_D; it then held these 52 forces' bits unchanged.
def test_large_separation_force_bits():
    ds = [300.0, *_LARGE_D.tolist()]
    ests = [casimir_force(DimensionlessPoint(d, t), "canonical").estimate
            for t in (0.0, 1e-3, 1.0, 10.0) for d in ds]
    assert len(ests) == 52
    assert _estimates_digest(ests) == \
        "ea048e79f546d1d97ec19f6164b401d23ca568fc8220c2809867ac10c35d9a58", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# The density on the ray at the same separations: every one converges, past
# RESOLVED_D too, where the real-axis density's estimate was inf
def test_large_separation_density_bits():
    ds = [300.0, *_LARGE_D.tolist()]
    ests = [entropy_density_canonical(d, t).estimate
            for t in (1e-3, 0.1, 1.0, 10.0) for d in ds]
    assert len(ests) == 52 and all(e.converged for e in ests)
    assert _estimates_digest(ests) == \
        "2d4f81ec54c817a11aa4039861b25b8563a4ebb7c224a881eb7a076a9a59a042", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# Where That (d+2) >= 500 below d = 300 a canonical force keeps a graded
# resonance's seed edges gamma_m 4^k, so it keeps the bits that those edges
# gave it at every d; finer seeds there let its estimate fall below the
# rounding of the dip's panels
def test_hot_force_bits():
    ests = [casimir_force(DimensionlessPoint(d, t), "canonical", tol).estimate
            for t in (5.0, 10.0, 100.0) for d in (10.0, 50.0, 150.0, 250.0, 299.0)
            if t * (d + 2.0) >= 500.0 for tol in (1e-10, 1e-13)]
    assert len(ests) == 24
    assert _estimates_digest(ests) == \
        "622c772351a4fb0ee3841969c3e5f5a299410abc1db86c20f4bdea97c2ee5f41", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# A lone integral's bisection rounds that split head and tail panels
# together, which no pin above reaches: no force_sweep point, and none of
# criterion 12's integrals at tol 1e-9, ever splits a tail panel.  The force
# at (0.1, 2) evaluates 10 head and 4 tail halves in its one round, (10, 1)
# mixes both kinds in its first ((0.3, 0) did too until the zero-T head got
# its seed edges near q ~ 1, and takes no round since), and OSCILLATORY_INTEGRALS[3]
# evaluates 6 head and 2 tail halves in three of its rounds.  Recorded again
# when the contour tail's panels moved to x = -t: the four values moved by at
# most 1.9e-16 relative and the four errors by at most 2.5e-3; no count or
# flag moved.  Recorded again when the zero-T head got seed edges near q ~ 1
# at d < pi/8: only (0.3, 0) moved, its value by 4.5e-16 relative, its error
# from 1.5e-16 to 9.2e-16 (tol 1e-15) and its evaluations from 546 to 411.
# Recorded again when each graded resonance's seed edges below d = 300
# started at half its width and grew by 2x: only (10, 1) moved, its value by
# 4.9e-16 relative and its error from 1.14e-16 to 1.02e-16; no count moved.
def test_lone_tail_refinement_bits():
    ests = [casimir_force(DimensionlessPoint(d, t), "canonical", tol).estimate
            for d, t, tol in ((0.1, 2.0, 1e-14), (10.0, 1.0, 1e-15), (0.3, 0.0, 1e-15))]
    f, h, spec, _ = OSCILLATORY_INTEGRALS[3]
    ests.append(lone_tail(f, h, *spec, 1e-14))
    assert _estimates_digest(ests) == \
        "19bb32bb477814eae44e7a8245e9b9878e8a3b8163a078637422e6fddd9e8ba7", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# the benchmark's typed force_sweep points: (That as passed, index into _FORCE_D,
# canonical evaluations, Lifshitz evaluations).  The canonical force computes
# an int That's Bose weight in int and a float32 point in float32, fails its
# continuation check and says so, until ROADMAP item 2's typed inputs.  The
# canonical counts of the last five were 366, 486, 366, 426 and 516 while a
# graded resonance's seed edges started at its full width and grew by 4x.
@pytest.mark.parametrize("that, i, canonical, lifshitz", [
    (1, 4, 411, 6), (2, 12, 426, 1), (1, 20, 636, 1),
    (np.int64(2), 8, 366, 1), (np.int64(1), 16, 516, 1), (np.float32(2.0), 22, 696, 1),
], ids=["int-1", "int-2", "int-3", "int64-1", "int64-2", "float32"])
def test_typed_force_sweep_points(that, i, canonical, lifshitz):
    d = np.float32(_FORCE_D[i]) if isinstance(that, np.float32) else _FORCE_D[i]
    pt = DimensionlessPoint(d, that)
    can, lif = (casimir_force(pt, route).estimate for route in ("canonical", "lifshitz"))
    assert (can.converged, can.evaluations) == (False, canonical)
    assert (lif.converged, lif.evaluations) == (True, lifshitz)


# the benchmark's np.int64 and np.float32 entropy_grid points: each converges
# with its float twin's bits
@pytest.mark.parametrize("that, i", [(np.int64(2), 1), (np.float32(2.0), 3)],
                         ids=["int64", "float32"])
def test_typed_entropy_grid_points_give_the_float_bits(that, i):
    d = np.float32(_ENTROPY_D[i]) if isinstance(that, np.float32) else _ENTROPY_D[i]
    typed = entropy_canonical(DimensionlessPoint(d, that), 100.0).estimate
    want = entropy_canonical(DimensionlessPoint(_ENTROPY_D[i], 2.0), 100.0).estimate
    assert typed.converged
    assert _estimates_digest([typed]) == _estimates_digest([want])


def test_figure3a_passes(monkeypatch):
    # 363 while head and contour tail were two adaptive integrals with a
    # separate agreement check, 258 while a graded resonance's seed edges
    # started at its full width, 183 while the densities ran on the real
    # axis: on the ray each converges in its seed pass
    grid = [float(x) for x in np.geomspace(0.5, 100.0, 48)]

    def densities():
        for t in (0.5, 1.0, 2.0):
            for d in grid:
                entropy_density_canonical(d, t)

    assert _gk_passes(monkeypatch, densities) == 144


def test_figure3a_command(tmp_path, monkeypatch, capsys):
    # 144 tasks and 258 passes while every row made its own scalar density
    # call, then 3 tasks while each curve was one; one task with one array
    # call per curve spends the same evaluations, in 15 passes while each
    # call made one adaptive loop per kind of q-integral; 59,085 evaluations
    # while a graded resonance's seed edges started at its full width, and
    # 54,255 in 9 passes while the densities ran on the real axis
    tasks = []
    run_tasks = cli._run_tasks
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, ts: tasks.append(len(ts))
                        or run_tasks(fn, ts))
    argv = ["figure", "--id", "3a", "--out-dir", str(tmp_path)]
    assert _gk_passes(monkeypatch, lambda: cli.main(argv)) == 3
    capsys.readouterr()
    evals = [int(line.split(",")[4]) for f in tmp_path.glob("*.csv")
             for line in f.read_text().split()[1:]]
    assert tasks == [1] and len(evals) == 144 and sum(evals) == 20_235


class _Stop(Exception):
    pass


@pytest.mark.parametrize("fig", ["1", "2", "3a", "3b", "sweep"])
def test_figure_task_counts(fig, tmp_path, monkeypatch):
    # every figure computes its rows in one task, and so does sweep; figures
    # 1, 2 and 3b made one task per row (120, 360 and 72 by default), sweep
    # one per force row, and 3a one per curve (3) or per row (144) before
    # its curves were one task
    tasks = []

    def stop(fn, ts):
        tasks.append(len(ts))
        raise _Stop

    monkeypatch.setattr(cli, "_run_tasks", stop)
    with pytest.raises(_Stop):
        cli.main(["sweep", "--variable", "d", "--min", "1", "--max", "2", "--points", "5",
                  "--fixed", "0.5"] if fig == "sweep"
                 else ["figure", "--id", fig, "--out-dir", str(tmp_path)])
    assert tasks == [1]


# 10 and 8 passes before the rotated head got seed edges around its
# resonance and the real-axis density's dips were graded, 2 and 1 while a
# graded resonance's seed edges started at its full width; on the ray there
# are no dips to grade
@pytest.mark.parametrize("dtilde, that, passes", [(100.0, 0.5, 1), (100.0, 0.01, 1)])
def test_density_passes(monkeypatch, dtilde, that, passes):
    assert _gk_passes(monkeypatch, lambda: entropy_density_canonical(dtilde, that)) <= passes


def test_density_batch_is_one_engine_loop(monkeypatch):
    # one _gk_segments call holds every separation of a density call: its
    # passes are those of the longest lone loop, and each member keeps the
    # bits of its lone call.  At tol 1e-11 dtilde = 0.5 takes a bisection
    # round and dtilde = 100 none
    d, tol = [0.5, 100.0], 1e-11
    lone = [entropy_density_canonical(x, 0.5, tol).estimate for x in d]
    passes = [_gk_passes(monkeypatch, lambda x=x: entropy_density_canonical(x, 0.5, tol))
              for x in d]
    assert passes == [2, 1]
    calls = []
    engine = thermo._gk_segments
    monkeypatch.setattr(thermo, "_gk_segments", lambda *args: calls.append(1) or engine(*args))
    batch = []
    assert _gk_passes(monkeypatch, lambda: batch.append(
        entropy_density_canonical(np.array(d), 0.5, tol))) == max(passes)
    assert len(calls) == 1
    est, evals = batch[0].estimate, batch[0].evaluations
    for i, want in enumerate(lone):
        assert (float(est.value[i]), float(est.abs_error_estimate[i]), int(evals[i]),
                bool(est.converged[i])) == \
            (want.value, want.abs_error_estimate, want.evaluations, want.converged)


def test_canonical_force_that_fails_its_continuation_check():
    # the float32 Bose weight is not Re h to 1e-12, so the panels are refined
    # only to what the check measured: 5,252,391 evaluations when it was refined
    # toward tol, which the float32 integrand cannot meet
    pt = DimensionlessPoint(np.float32(143.7), np.float32(2.0))
    est = casimir_force(pt, "canonical").estimate
    assert not est.converged and est.evaluations <= 1_000


# criterion 12's five oscillatory integrals at tol 1e-9; 2,103-3,033 each when
# their tails ran on half-period panels with Wynn's epsilon, 336, 366, 1,131,
# 1,266 and 411 while head and contour tail were two adaptive integrals, and
# 1,101 and 411 for the two with (omega, Q) = (2, 10) while a head of more
# than two periods was seeded every quarter period, not in 8 panels
@pytest.mark.parametrize("i, evals", enumerate([336, 366, 1_056, 1_206, 336]))
def test_oscillatory_integrals(i, evals):
    f, h, spec, _ = OSCILLATORY_INTEGRALS[i]
    assert lone_tail(f, h, *spec, 1e-9).evaluations == evals


def test_zero_t_lifshitz_force():
    # 480 in blocks of 7 decay lengths: 4 blocks of 8 seed panels
    assert casimir_force(DimensionlessPoint(1.0), "lifshitz").estimate.evaluations == 120


# The Matsubara series fix their term count from (K, r, tol) before they
# evaluate a term, so the counts are exact.  An observed-ratio stopping
# rule took 3, 794 and 210,060 terms here, the last one too few for tol.
@pytest.mark.parametrize("fn, evals", [
    (lambda: casimir_force(DimensionlessPoint(1.0, 1.0), "lifshitz", 1e-10), 2),
    (lambda: entropy_lifshitz(DimensionlessPoint(0.5, 0.01)), 1_235),
    (lambda: casimir_force(DimensionlessPoint(0.01, 0.001), "lifshitz", 1e-14), 322_487),
], ids=["force-1-1", "entropy-0.5-0.01", "force-0.01-0.001"])
def test_matsubara_series_terms(fn, evals):
    assert fn().estimate.evaluations == evals
