"""Golden bytes of the figure CSVs.

Each case runs ``deltacasimir figure`` in process and compares the sha256 of
every CSV it writes against a recorded hash.  History of the re-recordings:

* The figure 2 Lifshitz hashes were recorded at commit a576f6b, where each
  CSV of a figure had its own worker pool.
* The canonical force hashes were recorded again when the force's tail
  beyond Q moved from half-period panels with Wynn's epsilon to the rotated
  contour Re q = Q: the values moved by at most 2.5e-11, every row then lay
  within 5.2e-14 of the exact force and within its own error estimate, and
  the ``evals`` column changed.
* The figure 3a and 3b hashes were recorded again when the entropy
  density's seed panels widened from a quarter period to one (values moved
  by at most 4.2e-13), and again when the density took its q cut-off from
  its tolerance and the entropy's distance integral started from one seed
  panel: the 3a values moved by at most 2.2e-12, the two 3b values by at
  most 4.8e-13, and both ``evals`` columns changed.
* All but the figure 2 Lifshitz hashes were recorded again when every
  exponentially decaying integral (the zero-temperature Lifshitz force and
  the contour tails) became one adaptive integral mapped onto [0, 1), and
  the density's q-integral beyond one period moved onto the line
  Re q = pi/dtilde wherever its cut-off spans more than 16 periods.  The
  force values moved by at most 5.1e-14 and lie within 8.9e-16 of the
  exact force, the 3a values moved by at most 2.2e-12 and lie within
  2.0e-12 of the exact density, and the two 3b values moved by at most
  2.5e-13 and lie within 2.3e-13 of the exact entropy.  Every row lies
  within its own estimate, and the ``evals`` columns changed.
* The figure 1 and 2 canonical hashes were recorded again when the force's
  head became one period [0, pi/d] with seed edges at the thermal scale:
  the 240 values moved by at most 1.8e-16 (in units hbar gamma^2/v^3),
  every row converged and lies within 1.7e-16 of the exact force and
  within its own estimate, and the ``evals`` columns changed.
* All but the Lifshitz hashes were recorded again when the cavity
  resonances got graded seed edges (``scattering.resonance_edges``) and the
  contour tails moved to Re q = max(pi/d, 1.5 pi/(d+2)), midway between the
  first two resonances for d >= 4.  Every row converged and lies within its
  own estimate: the 240 canonical forces within 1.4e-16 of the exact force
  (moved by at most 8.8e-17, in units hbar gamma^2/v^3), the 3a densities
  within 2.0e-12 (moved by at most 4.1e-13), the two 3b entropies within
  1.6e-13 (moved by at most 6.8e-14); the ``evals`` columns changed.
* The figure 2 Lifshitz hashes were recorded again when the Matsubara
  series took a term count fixed in advance from a geometric majorant,
  with remainder below tol/1000, instead of stopping on observed term
  ratios.  The 180 values moved by at most 3.8e-11 (in units
  hbar gamma^2/v^3; they were up to 3.8e-11 from the exact series),
  every row converged and lies within 6.4e-15 of
  ``oracles.force_lifshitz_series`` and within its own estimate, and the
  ``err`` and ``evals`` columns changed.  The figure 1 hashes did not
  change: its Lifshitz force at That = 0 is an integral, not a series.
* The six figure 2 hashes were recorded again when the ``err`` column was
  put in the units of the ``value`` column, hbar gamma^2/(4 pi v^3) (it
  had stayed in hbar gamma^2/v^3).  In each of the 360 rows every other
  column kept its bytes, and ``err`` became
  the previous one divided by 1/(4 pi), the figure 2 divisor: 4 pi times
  it, to 2.2e-16.
* All but the figure 2 Lifshitz hashes were recorded again when the GK15
  panels took K15 and K15 - G7 from one matrix product, the flux deficit
  became (a^2 - 2q^2)/(a^2 + 4q^4), and each oscillatory integral's head
  and contour tail became one adaptive integral with the agreement check
  in its seed pass.  Every row converged and lies within its own
  estimate: the 300 canonical and zero-temperature Lifshitz forces of
  figures 1 and 2 within 1.8e-16 of the exact force (moved by at most
  2.9e-16, in units hbar gamma^2/v^3), the 3a densities within 2.0e-12
  (moved by at most 1.5e-16), the two 3b entropies within 1.6e-13 (moved
  by at most 2.2e-16); the ``err`` and ``evals`` columns changed.
* The two figure 1 hashes were recorded again when ``fig1_scale``, the raw
  factor under a second name, was deleted and figure 1's ``units`` column
  became ``raw_dimensionless``.  That is the only change: each new CSV is
  the previous one with that cell replaced, byte for byte, and
  ``tests/test_figure_oracles.py`` passed on the new rows first.
* The six figure 2 hashes were recorded again when figure 2's rows took
  their tol in their own units, 1e-10 hbar gamma^2/(4 pi v^3), and the
  Lifshitz force's estimate took the rounding of adding the zero mode,
  2 eps |value|.  42 of the 360 rows had printed an err above the tol;
  none does now, and every row converged.  The canonical values moved by
  at most 1.3e-15 and the Lifshitz values by at most 8.0e-14 (in the rows'
  units); the worst row is now 7.7e-15 from its oracle (8.0e-14 before)
  and 0.20 err off it.  The ``evals`` and ``err`` columns changed, and
  ``tests/test_figure_oracles.py`` passed on the new rows first.

The hashes are tied to this platform's libm and BLAS: on another machine
the last printed digit of a value may differ, and the hashes must then be
recorded again there from a known-good tree, not copied from a failing run.
A failing hash names the (AVX512_SKX, OpenBLAS core) fingerprint of the
recording host and of this one.
"""
import hashlib

import pytest
from oracles import RECORDED_HOST, host_fingerprint

from deltacasimir.cli import main

GOLDEN = {
    ("figure", "--id", "1"): {
        "figure1_canonical.csv": "fec987fb764eb526906f88b8e2f66907bb9218209f0d5805570f90ae6194478a",
        "figure1_lifshitz.csv": "03682de4b306f2d2b1037d45e80de4fbbac8d82101145e35a41b15290dda8e70",
    },
    ("figure", "--id", "2"): {
        "figure2_canonical_That0.5.csv": "d87af39adc01eb7a68c224cf48ab07ffb8fb1e3953442571e9b333114df01360",
        "figure2_canonical_That1.csv": "c875d2caa2c5b25166fb6d181b3851bc66c68ef2cd9c3990d985b074bed9623a",
        "figure2_canonical_That2.csv": "19e5c568f80576113f87939127240cdd18071fdb84823d960a041c000f7ec846",
        "figure2_lifshitz_That0.5.csv": "94a822116f25510fc5b2065941adeb76774e75f718926ff4877364e3910f5fbf",
        "figure2_lifshitz_That1.csv": "ea9d711cf080cf4666a48042401e96bfc8acc2839afa4ff7fb68ccf0503a3601",
        "figure2_lifshitz_That2.csv": "8f7488aa8cc119cdfa3b8cb2af94a9fefbfa07c4aae327cdd369c94b6c30e957",
    },
    ("figure", "--id", "3a"): {
        "figure3a_That0.5.csv": "9e918fb4c5f6bf9ab27680fa00cae0d6c8ad0c36a061089fbc54c0ef6900c6d5",
        "figure3a_That1.csv": "7ad1a9af1978db6e33d7c42acdadbeee02410369a112d08ef30882f698246d41",
        "figure3a_That2.csv": "131a6ed746711fc30322af9ba27690b6f6430591b1e60fb152d44797e35fae5b",
    },
    ("figure", "--id", "3b", "--points", "2", "--That-set", "1"): {
        "figure3b_That1.csv": "0d5d7dad1e25a51dcd1e87dcdcbf55913bb114dcc9cf4e4f50defc3be7c297df",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_figure_csv_bytes(argv, tmp_path, capsys):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.glob("*.csv")}
    assert got == GOLDEN[argv], f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"
