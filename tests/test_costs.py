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
    # 180,396 since the outer integral has a seed edge at the thermal length
    total = sum(entropy_canonical(DimensionlessPoint(d, t), 100.0).estimate.evaluations
                for d, t in ENTROPY_GRID)
    assert total <= 1.02 * 180_396


def test_entropy_grid_passes(monkeypatch):
    # 841 while every outer node made its own density call (555 calls, each
    # with its own seed pass and rounds), 95 while each density call made one
    # adaptive loop per kind of q-integral, 85 while the outer integral had
    # no seed edge at the thermal length; one density call per outer round,
    # one adaptive loop for all of its q-integrals
    def entropies():
        for d, t in ENTROPY_GRID:
            entropy_canonical(DimensionlessPoint(d, t), 100.0)

    assert _gk_passes(monkeypatch, entropies) == 58


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
    # 59,085 since the rotated densities' head and tail are one integral
    grid = [float(x) for x in np.geomspace(0.5, 100.0, 48)]
    total = sum(entropy_density_canonical(d, t).estimate.evaluations
                for t in (0.5, 1.0, 2.0) for d in grid)
    assert total <= 1.02 * 58_995


# 107,988 and 7,623 when the tail beyond Q = max(10, 8 That, 4 pi/2d) ran on
# half-period panels with Wynn's epsilon, 15,321 and 1,161 when the contour
# tail was integrated in blocks of 7 decay lengths, 14,961 and 801 while the
# head ran to Q = max(1, pi/d) from quarter-period seed panels, 786 and 486
# while it ran to Q = pi/d with no seed edges around its resonance; both
# values are within 1e-15 of the exact force (were 4.3e-12 and 8.3e-12 with
# Wynn's epsilon).  Head and contour tail becoming one adaptive integral did
# not move either count.
@pytest.mark.parametrize("d, that, evals", [(200.0, 0.0, 666), (10.0, 2.0, 546)])
def test_canonical_force(d, that, evals):
    assert casimir_force(DimensionlessPoint(d, that), "canonical").estimate.evaluations == evals


# 13 and 15 passes when the head [0, pi/d] found the resonance near
# pi/(d+2) by bisection and the line Re q = pi/d passed 1.6e-4 from it;
# 3 and 3 while the head and the contour tail were two adaptive integrals
@pytest.mark.parametrize("d, that", [(200.0, 0.0), (200.0, 2.0)])
def test_canonical_force_passes(monkeypatch, d, that):
    pt = DimensionlessPoint(d, that)
    assert _gk_passes(monkeypatch, lambda: casimir_force(pt, "canonical")) == 2


# the 96 float points of one benchmark force_sweep pass: 24 float32-rounded
# log-spaced d in [0.1, 200] x That in {0, 0.5, 1, 2}
_FORCE_D = [float(np.float32(x)) for x in np.geomspace(0.1, 200.0, 24)]
FORCE_SWEEP = [(d, t) for t in (0.0, 0.5, 1.0, 2.0) for d in _FORCE_D]


def test_force_sweep_passes(monkeypatch):
    # 253 while head and contour tail were two adaptive integrals with a
    # separate agreement check
    def sweep():
        for d, t in FORCE_SWEEP:
            casimir_force(DimensionlessPoint(d, t), "canonical")

    assert _gk_passes(monkeypatch, sweep) == 153


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
# relative, and 10 canonical errors, by at most 3.8e-10.
def test_entropy_grid_bits():
    ests = [f(DimensionlessPoint(d, t), 100.0).estimate
            for d, t in ENTROPY_GRID for f in (entropy_canonical, entropy_lifshitz)]
    assert _estimates_digest(ests) == \
        "2701a9d9d39673a2ea114802f31cf07698dea60670a8d82574fc944f6fb504e4", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# Recorded again when the Lifshitz force's estimate took the rounding of
# adding the zero mode: only the 72 errors at That > 0 moved.  Recorded again
# when the contour tail's panels moved to x = -t: 64 of the 96 canonical
# values moved, by at most 9.8e-16 relative, and all 96 canonical errors, by
# at most 7.1e-4; no count or flag moved.
def test_force_sweep_bits():
    ests = [casimir_force(DimensionlessPoint(d, t), route).estimate
            for d, t in FORCE_SWEEP for route in ("canonical", "lifshitz")]
    assert _estimates_digest(ests) == \
        "58038db31ec4b8159597fcbd41b1aca1df7cf3e7e18f64c18764ff0a89762a7e", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# A lone integral's bisection rounds that split head and tail panels
# together, which no pin above reaches: no force_sweep point, and none of
# criterion 12's integrals at tol 1e-9, ever splits a tail panel.  The force
# at (0.1, 2) evaluates 10 head and 4 tail halves in its one round, (10, 1)
# and (0.3, 0) mix both kinds in their first, and OSCILLATORY_INTEGRALS[3]
# evaluates 6 head and 2 tail halves in three of its rounds.  Recorded again
# when the contour tail's panels moved to x = -t: the four values moved by at
# most 1.9e-16 relative and the four errors by at most 2.5e-3; no count or
# flag moved.
def test_lone_tail_refinement_bits():
    ests = [casimir_force(DimensionlessPoint(d, t), "canonical", tol).estimate
            for d, t, tol in ((0.1, 2.0, 1e-14), (10.0, 1.0, 1e-15), (0.3, 0.0, 1e-15))]
    f, h, spec, _ = OSCILLATORY_INTEGRALS[3]
    ests.append(lone_tail(f, h, *spec, 1e-14))
    assert _estimates_digest(ests) == \
        "a488e56b42621f2896ea7d246c8c3e34e6d3483ba156292140e1c109cc0af3f4", \
        f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


# the benchmark's typed force_sweep points: (That as passed, index into _FORCE_D,
# canonical evaluations, Lifshitz evaluations).  The canonical force computes
# an int That's Bose weight in int and a float32 point in float32, fails its
# continuation check and says so, until ROADMAP item 2's typed inputs.
@pytest.mark.parametrize("that, i, canonical, lifshitz", [
    (1, 4, 411, 6), (2, 12, 366, 1), (1, 20, 486, 1),
    (np.int64(2), 8, 366, 1), (np.int64(1), 16, 426, 1), (np.float32(2.0), 22, 516, 1),
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
    # separate agreement check
    grid = [float(x) for x in np.geomspace(0.5, 100.0, 48)]

    def densities():
        for t in (0.5, 1.0, 2.0):
            for d in grid:
                entropy_density_canonical(d, t)

    assert _gk_passes(monkeypatch, densities) == 258


def test_figure3a_command(tmp_path, monkeypatch, capsys):
    # 144 tasks and 258 passes while every row made its own scalar density
    # call, then 3 tasks while each curve was one; one task with one array
    # call per curve spends the same evaluations, in 15 passes while each
    # call made one adaptive loop per kind of q-integral
    tasks = []
    run_tasks = cli._run_tasks
    monkeypatch.setattr(cli, "_run_tasks", lambda fn, ts: tasks.append(len(ts))
                        or run_tasks(fn, ts))
    argv = ["figure", "--id", "3a", "--out-dir", str(tmp_path)]
    assert _gk_passes(monkeypatch, lambda: cli.main(argv)) == 9
    capsys.readouterr()
    evals = [int(line.split(",")[4]) for f in tmp_path.glob("*.csv")
             for line in f.read_text().split()[1:]]
    assert tasks == [1] and len(evals) == 144 and sum(evals) == 59_085


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
# resonance and the real-axis density's dips were graded
@pytest.mark.parametrize("dtilde, that, passes", [(100.0, 0.5, 3), (100.0, 0.01, 1)])
def test_density_passes(monkeypatch, dtilde, that, passes):
    assert _gk_passes(monkeypatch, lambda: entropy_density_canonical(dtilde, that)) <= passes


def test_mixed_density_batch_is_one_engine_loop(monkeypatch):
    # at That = 0.5 the q-integral of dtilde = 0.5 stays on the real axis and
    # that of dtilde = 100 takes the contour tail: one engine call holds both,
    # its passes are those of the longer lone loop, and each member keeps the
    # bits of its lone call
    d = [0.5, 100.0]
    lone = [entropy_density_canonical(x, 0.5).estimate for x in d]
    passes = [_gk_passes(monkeypatch, lambda x=x: entropy_density_canonical(x, 0.5)) for x in d]
    calls = []
    engine = thermo._oscillatory_segments

    def spy(*args):
        calls.append(args[-1])   # the seed widths: None for an integral with a tail
        return engine(*args)

    monkeypatch.setattr(thermo, "_oscillatory_segments", spy)
    batch = []
    assert _gk_passes(monkeypatch, lambda: batch.append(
        entropy_density_canonical(np.array(d), 0.5))) == max(passes)
    assert len(calls) == 1 and [w is None for w in calls[0]] == [False, True]
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
# their tails ran on half-period panels with Wynn's epsilon, and 336, 366,
# 1,131, 1,266 and 411 while head and contour tail were two adaptive integrals
@pytest.mark.parametrize("i, evals", enumerate([336, 366, 1_101, 1_206, 411]))
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
