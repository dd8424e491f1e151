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
    # width; 53,940 on the ray while its octaves started at s/8, 31,440 from 2s
    total = sum(entropy_canonical(DimensionlessPoint(d, t), 100.0).estimate.evaluations
                for d, t in ENTROPY_GRID)
    assert total <= 1.02 * 31_440


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
    # width; 20,235 on the ray while its octaves started at s/8, 11,595 from 2s
    grid = [float(x) for x in np.geomspace(0.5, 100.0, 48)]
    total = sum(entropy_density_canonical(d, t).estimate.evaluations
                for t in (0.5, 1.0, 2.0) for d in grid)
    assert total <= 1.02 * 11_595


# 107,988 and 7,623 when the tail beyond Q = max(10, 8 That, 4 pi/2d) ran on
# half-period panels with Wynn's epsilon, 15,321 and 1,161 when the contour
# tail was integrated in blocks of 7 decay lengths, 14,961 and 801 while the
# head ran to Q = max(1, pi/d) from quarter-period seed panels, 786 and 486
# while it ran to Q = pi/d with no seed edges around its resonance; both
# values are within 1e-15 of the exact force (were 4.3e-12 and 8.3e-12 with
# Wynn's epsilon).  Head and contour tail becoming one adaptive integral did
# not move either count; 666 and 546 while a graded resonance's seed edges
# started at its full width and grew by 4x, and (200, 0) took a second pass;
# 726 and 516 until the force moved onto the ray q = t e^{i pi/4}, where each
# takes a head panel and 10 octave panels, and the 96 check points
@pytest.mark.parametrize("d, that, evals", [(200.0, 0.0, 171), (10.0, 2.0, 171)])
def test_canonical_force(d, that, evals):
    assert casimir_force(DimensionlessPoint(d, that), "canonical").estimate.evaluations == evals


# 13 and 15 passes when the head [0, pi/d] found the resonance near
# pi/(d+2) by bisection and the line Re q = pi/d passed 1.6e-4 from it;
# 3 and 3 while the head and the contour tail were two adaptive integrals,
# 2 and 2 while a graded resonance's seed edges started at its full width;
# on the ray there is no resonance to find
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
    # started at its full width and grew by 4x, 98 while the real-axis head
    # had seed edges at its dips (46,851 evaluations); on the ray 110, in
    # 18,486 evaluations
    def sweep():
        for d, t in FORCE_SWEEP:
            casimir_force(DimensionlessPoint(d, t), "canonical")

    assert _gk_passes(monkeypatch, sweep) == 110


# the benchmark's force_sweep computes the other six of these points with an
# int, np.int64 or np.float32 That: (That, index into _FORCE_D)
_TYPED_FORCE_POINTS = {(1.0, 4), (2.0, 12), (1.0, 20), (2.0, 8), (1.0, 16), (2.0, 22)}


def test_lone_canonical_forces_converge_in_their_seed_pass(monkeypatch):
    # 44 of the 90 float points did while each graded resonance's seed edges
    # started at its full width and grew by 4x: the rest took a second pass
    # that bisected the panels around the dip; 88 while the real-axis head
    # had seed edges at the dips from half their width.  On the ray 77 do:
    # the 13 others, at d in [1.9, 5.3], bisect one round
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
    assert seed_pass_only >= 77


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
# no flag moved, and no Lifshitz bit.  Recorded again when the ray's octaves
# started at 2s and its weight became (u/sinh u)^2: 13 of the 17 canonical
# values moved, by at most 5.5e-16 relative, and the 17 errors by at most
# 4.6e-10 relative, evaluations 56,907 -> 34,407; no flag moved, and no
# Lifshitz bit.
def test_entropy_grid_bits():
    ests = [f(DimensionlessPoint(d, t), 100.0).estimate
            for d, t in ENTROPY_GRID for f in (entropy_canonical, entropy_lifshitz)]
    assert _estimates_digest(ests) == \
        "e4b68e78c4da8bfb6dc705583799ec1c400f195a3e9437dc2ed217eb099d0efe", \
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
# Recorded again when the canonical force moved onto the ray: 88 of the 96
# canonical values moved, by at most 2.7e-13 relative, each now within
# 8.2e-16 relative of oracles.force_ray (the old ones were up to 2.7e-13 off
# it); canonical evaluations 46,851 -> 18,486; no flag and no Lifshitz bit
# moved.  Recorded again when the force's octave edges became the density's
# lo (hi/lo)^(k/n), ending at hi itself, in place of their log2 form: 21 of
# the 96 canonical values moved, by at most 3.2e-16 relative, and all 96
# errors, by at most 2.9e-7 relative; no evaluation count, flag or Lifshitz
# bit moved.
def test_force_sweep_bits():
    ests = [casimir_force(DimensionlessPoint(d, t), route).estimate
            for d, t in FORCE_SWEEP for route in ("canonical", "lifshitz")]
    assert _estimates_digest(ests) == \
        "cc7a1d1812dc03ff3751587bce206bdd99588d44d51cb37cef232776065a501e", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# The canonical force from d = 300 to 1e15.  Until the densities moved onto
# the ray this digest also held the 24 densities with d <= 1e6; it then held
# these 52 forces' bits unchanged.  Recorded again when the force moved onto
# the ray: all 52 moved, the 28 past d = 1e6, whose estimate was inf and
# whose values were up to 24x off, now converge, and each is within 1.3e-15
# relative of oracles.force_ray; evaluations 58,677 -> 8,922.  Recorded
# again when the force's octave edges became the density's: 30 values moved,
# by at most 5.1e-16 relative, and all 52 errors, by at most 1.8e-7
# relative; no evaluation count moved.
def test_large_separation_force_bits():
    ds = [300.0, *_LARGE_D.tolist()]
    ests = [casimir_force(DimensionlessPoint(d, t), "canonical").estimate
            for t in (0.0, 1e-3, 1.0, 10.0) for d in ds]
    assert len(ests) == 52 and all(e.converged for e in ests)
    assert _estimates_digest(ests) == \
        "580758bc246c8253728b54fffe8580542bb9821c1340f38147bafc0a3367d569", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# The density on the ray at the same separations: every one converges, past
# d = 1e6 too, where the real-axis density's estimate was inf.  Recorded
# again when the ray's octaves started at 2s and its weight became
# (u/sinh u)^2: all 52 values moved, by at most 2.1e-15 relative, the errors
# by at most 1.9%, evaluations 7,035 -> 3,915; every one still converges
def test_large_separation_density_bits():
    ds = [300.0, *_LARGE_D.tolist()]
    ests = [entropy_density_canonical(d, t).estimate
            for t in (1e-3, 0.1, 1.0, 10.0) for d in ds]
    assert len(ests) == 52 and all(e.converged for e in ests)
    assert _estimates_digest(ests) == \
        "2910a82f2b6b58bb3355fe355ee4a3599227c2418e9133bf9f93f5acdaf29683", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# Where That (d+2) >= 500 below d = 300 the real-axis head kept a graded
# resonance's seed edges gamma_m 4^k: finer seeds there let its estimate
# fall below the rounding of the dip's panels.  Recorded again when the
# force moved onto the ray: all 24 values moved, by at most 2.2e-13
# relative, each now within 6.4e-16 relative of oracles.force_ray;
# evaluations 27,084 -> 6,774; no flag moved.  Recorded again when the
# force's octave edges became the density's: 9 values moved, by at most
# 4.2e-16 relative, and all 24 errors, by at most 0.49% relative; no
# evaluation count or flag moved.
def test_hot_force_bits():
    ests = [casimir_force(DimensionlessPoint(d, t), "canonical", tol).estimate
            for t in (5.0, 10.0, 100.0) for d in (10.0, 50.0, 150.0, 250.0, 299.0)
            if t * (d + 2.0) >= 500.0 for tol in (1e-10, 1e-13)]
    assert len(ests) == 24
    assert _estimates_digest(ests) == \
        "864a3b2c5894db3bb32aef89e7435946d654955c8bcb9150b60741d6a86c9ac7", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# A lone ray integral's bisection rounds at tight tols: each of these takes
# two to four passes.  Until the force moved onto the ray these were the
# rounds that split real-axis head and contour tail panels together, which
# no other pin reached.  Recorded again when the force moved onto the ray:
# two of the three forces moved, by at most 3.4e-16 relative, their
# evaluations 1,878 -> 1,623; criterion 12's integral runs on q -> 1 + q.
# Recorded again when the ray's octave edges became the density's: no value
# or evaluation count moved, and the four errors moved by at most 0.14%
# relative.
def test_lone_tail_refinement_bits():
    ests = [casimir_force(DimensionlessPoint(d, t), "canonical", tol).estimate
            for d, t, tol in ((0.1, 2.0, 1e-14), (10.0, 1.0, 1e-15), (0.3, 0.0, 1e-15))]
    f, h, spec, _, _ = OSCILLATORY_INTEGRALS[3]
    ests.append(lone_tail(f, h, *spec, 1e-14))
    assert _estimates_digest(ests) == \
        "fa657d869b1462f3381d8b0d21fa4ea33bf85c76d5980235ac70026a00ae7c26", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# the benchmark's typed force_sweep points: (That as passed, index into _FORCE_D,
# canonical evaluations, Lifshitz evaluations).  The canonical force computes
# an int That's Bose weight in int and a float32 point in float32, fails its
# continuation check and says so, until ROADMAP item 2's typed inputs.  The
# canonical counts of the last five were 366, 486, 366, 426 and 516 while a
# graded resonance's seed edges started at its full width and grew by 4x,
# and 411, 426, 636, 366, 516 and 696 until the force moved onto the ray,
# where a failed check leaves the seed pass only.
@pytest.mark.parametrize("that, i, canonical, lifshitz", [
    (1, 4, 216, 6), (2, 12, 171, 1), (1, 20, 171, 1),
    (np.int64(2), 8, 186, 1), (np.int64(1), 16, 171, 1), (np.float32(2.0), 22, 171, 1),
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
    # while a graded resonance's seed edges started at its full width,
    # 54,255 in 9 passes while the densities ran on the real axis, and
    # 20,235 in 3 while the ray's octaves started at s/8
    tasks = []
    run_tasks = cli._run_tasks
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, ts: tasks.append(len(ts))
                        or run_tasks(fn, ts))
    argv = ["figure", "--id", "3a", "--out-dir", str(tmp_path)]
    assert _gk_passes(monkeypatch, lambda: cli.main(argv)) == 3
    capsys.readouterr()
    evals = [int(line.split(",")[4]) for f in tmp_path.glob("*.csv")
             for line in f.read_text().split()[1:]]
    assert tasks == [1] and len(evals) == 144 and sum(evals) == 11_595


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
    # one integrate_oscillatory_tail call, and so one adaptive loop, holds
    # every separation of a density call: its passes are those of the
    # longest lone loop, and each member keeps the bits of its lone call.  At
    # tol 1e-11 dtilde = 0.5 takes a bisection round and dtilde = 100 none
    d, tol = [0.5, 100.0], 1e-11
    lone = [entropy_density_canonical(x, 0.5, tol).estimate for x in d]
    passes = [_gk_passes(monkeypatch, lambda x=x: entropy_density_canonical(x, 0.5, tol))
              for x in d]
    assert passes == [2, 1]
    calls = []
    engine = thermo.integrate_oscillatory_tail
    monkeypatch.setattr(thermo, "integrate_oscillatory_tail",
                        lambda *args: calls.append(1) or engine(*args))
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
    # the float32 Bose weight is not Re h to 1e-12, so no bisection round
    # follows the seed pass: 5,252,391 evaluations when it was refined toward
    # tol, which the float32 integrand cannot meet
    pt = DimensionlessPoint(np.float32(143.7), np.float32(2.0))
    est = casimir_force(pt, "canonical").estimate
    assert not est.converged and est.evaluations <= 1_000


# criterion 12's five oscillatory integrals at tol 1e-9; 2,103-3,033 each when
# their tails ran on half-period panels with Wynn's epsilon, 336, 366, 1,131,
# 1,266 and 411 while head and contour tail were two adaptive integrals,
# 1,101 and 411 for the two with (omega, Q) = (2, 10) while a head of more
# than two periods was seeded every quarter period, not in 8 panels, and
# 336, 366, 1,056, 1,206 and 336 until they moved onto the ray
@pytest.mark.parametrize("i, evals", enumerate([186, 306, 186, 261, 186]))
def test_oscillatory_integrals(i, evals):
    f, h, spec, _, _ = OSCILLATORY_INTEGRALS[i]
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
