"""Kernel-evaluation counts of the hot paths.

Evaluation counts are deterministic, so they make an exact regression
signal where wall times do not.  The entropy paths get upper bounds with 2%
slack; the force paths, which no entropy change may move, are pinned exactly.
"""
import numpy as np
import pytest

from deltacasimir import DimensionlessPoint, casimir_force, entropy_canonical, \
    entropy_density_canonical, force_zero_t_lifshitz

# the points of one benchmark entropy_grid pass that compute: 6 float32-rounded
# log-spaced d in [0.5, 20] x That in {0.01, 0.5, 2}, plus (1, 0.01), less the
# np.int64 and np.float32 points the canonical entropy still refuses
_ENTROPY_D = [float(np.float32(x)) for x in np.geomspace(0.5, 20.0, 6)]
ENTROPY_GRID = [(d, t) for t in (0.01, 0.5, 2.0) for d in _ENTROPY_D
                if (d, t) not in ((_ENTROPY_D[1], 2.0), (_ENTROPY_D[3], 2.0))] + [(1.0, 0.01)]


def test_canonical_entropy_over_the_benchmark_grid():
    # 7,715,670 with one GK15 seed panel per e-fold of distance and q_max = 40 That;
    # 1,855,230 with every density on the real axis out to q_max
    total = sum(entropy_canonical(DimensionlessPoint(d, t), 100.0).estimate.evaluations
                for d, t in ENTROPY_GRID)
    assert total <= 1.02 * 300_441


def test_density_over_the_figure3a_grid():
    # 973,980 with q_max = 40 That; 705,810 with every density on the real
    # axis out to q_max
    grid = [float(x) for x in np.geomspace(0.5, 100.0, 48)]
    total = sum(entropy_density_canonical(d, t).estimate.evaluations
                for t in (0.5, 1.0, 2.0) for d in grid)
    assert total <= 1.02 * 58_995


# 107,988 and 7,623 when the tail beyond Q = max(10, 8 That, 4 pi/2d) ran on
# half-period panels with Wynn's epsilon, 15,321 and 1,161 when the contour
# tail was integrated in blocks of 7 decay lengths; both values are within
# 1e-15 of the exact force (were 4.3e-12 and 8.3e-12 with Wynn's epsilon)
@pytest.mark.parametrize("d, that, evals", [(200.0, 0.0, 14_961), (10.0, 2.0, 801)])
def test_canonical_force(d, that, evals):
    assert casimir_force(DimensionlessPoint(d, that), "canonical").estimate.evaluations == evals


def test_zero_t_lifshitz_force():
    # 480 in blocks of 7 decay lengths: 4 blocks of 8 seed panels
    assert force_zero_t_lifshitz(1.0).estimate.evaluations == 120
