"""Kernel-evaluation and GK pass counts of the hot paths.

Evaluation counts are deterministic, so they make an exact regression
signal where wall times do not.  The entropy paths get upper bounds with 2%
slack; the force paths, which no entropy change may move, are pinned exactly.
Pass counts, the number of ``numerics._gk_apply`` calls (one per seed pass
and per bisection round), are deterministic too: call overhead, not
evaluations, sets the cost of a single force or density.
"""
import numpy as np
import pytest
from test_acceptance import OSCILLATORY_INTEGRALS

from deltacasimir import DimensionlessPoint, casimir_force, entropy_canonical, \
    entropy_density_canonical, entropy_lifshitz, force_finite_t_lifshitz, \
    force_zero_t_lifshitz, integrate_oscillatory_tail, numerics


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


# the points of one benchmark entropy_grid pass that compute: 6 float32-rounded
# log-spaced d in [0.5, 20] x That in {0.01, 0.5, 2}, plus (1, 0.01), less the
# np.int64 and np.float32 points the canonical entropy still refuses
_ENTROPY_D = [float(np.float32(x)) for x in np.geomspace(0.5, 20.0, 6)]
ENTROPY_GRID = [(d, t) for t in (0.01, 0.5, 2.0) for d in _ENTROPY_D
                if (d, t) not in ((_ENTROPY_D[1], 2.0), (_ENTROPY_D[3], 2.0))] + [(1.0, 0.01)]


def test_canonical_entropy_over_the_benchmark_grid():
    # 7,715,670 with one GK15 seed panel per e-fold of distance and q_max = 40 That;
    # 1,855,230 with every density on the real axis out to q_max; 300,441
    # before the densities got graded seed edges around their resonances;
    # 276,726 since the rotated densities' head and tail are one integral
    total = sum(entropy_canonical(DimensionlessPoint(d, t), 100.0).estimate.evaluations
                for d, t in ENTROPY_GRID)
    assert total <= 1.02 * 277_026


def test_entropy_grid_passes(monkeypatch):
    # 841 while every outer node made its own density call (555 calls, each
    # with its own seed pass and rounds); one density call per outer round,
    # one adaptive loop per kind of q-integral in it
    def entropies():
        for d, t in ENTROPY_GRID:
            entropy_canonical(DimensionlessPoint(d, t), 100.0)

    assert _gk_passes(monkeypatch, entropies) == 95


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


def test_figure3a_passes(monkeypatch):
    # 363 while head and contour tail were two adaptive integrals with a
    # separate agreement check
    grid = [float(x) for x in np.geomspace(0.5, 100.0, 48)]

    def densities():
        for t in (0.5, 1.0, 2.0):
            for d in grid:
                entropy_density_canonical(d, t)

    assert _gk_passes(monkeypatch, densities) == 258


# 10 and 8 passes before the rotated head got seed edges around its
# resonance and the real-axis density's dips were graded
@pytest.mark.parametrize("dtilde, that, passes", [(100.0, 0.5, 3), (100.0, 0.01, 1)])
def test_density_passes(monkeypatch, dtilde, that, passes):
    assert _gk_passes(monkeypatch, lambda: entropy_density_canonical(dtilde, that)) <= passes


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
    assert integrate_oscillatory_tail(f, spec, 1e-9, h).evaluations == evals


def test_zero_t_lifshitz_force():
    # 480 in blocks of 7 decay lengths: 4 blocks of 8 seed panels
    assert force_zero_t_lifshitz(1.0).estimate.evaluations == 120


# The Matsubara series fix their term count from (K, r, tol) before they
# evaluate a term, so the counts are exact.  An observed-ratio stopping
# rule took 3, 794 and 210,060 terms here, the last one too few for tol.
@pytest.mark.parametrize("fn, evals", [
    (lambda: force_finite_t_lifshitz(DimensionlessPoint(1.0, 1.0), 1e-10), 2),
    (lambda: entropy_lifshitz(DimensionlessPoint(0.5, 0.01)), 1_235),
    (lambda: force_finite_t_lifshitz(DimensionlessPoint(0.01, 0.001), 1e-14), 322_487),
], ids=["force-1-1", "entropy-0.5-0.01", "force-0.01-0.001"])
def test_matsubara_series_terms(fn, evals):
    assert fn().estimate.evaluations == evals
