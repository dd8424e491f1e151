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
  ``UnitsConvention.FIG2_SCALE.apply`` of the previous one: 4 pi times it,
  to 2.2e-16.

The hashes are tied to this platform's libm and BLAS: on another machine
the last printed digit of a value may differ, and the hashes must then be
recorded again there from a known-good tree, not copied from a failing run.
"""
import hashlib

import pytest

from deltacasimir.cli import main

GOLDEN = {
    ("figure", "--id", "1", "--jobs", "1"): {
        "figure1_canonical.csv": "0c821cf0e6cdaa8d04425335c6cc7eb1eaaecfa8db2101b8955be1b4415e1e23",
        "figure1_lifshitz.csv": "eac3f6fb2ae5ec1c26e0b44d67f4109a4604bd3bb69648d63fea53cd48c76ced",
    },
    ("figure", "--id", "2", "--jobs", "1"): {
        "figure2_canonical_That0.5.csv": "6a49d60346d0640ed70040cc9276ad9c80c57523c5ff2d56caa9a306b9b5129e",
        "figure2_canonical_That1.csv": "34e32137f8e4d102afeb991385341aaa31e1c9345af4e947c2a986b297581abd",
        "figure2_canonical_That2.csv": "c884c643bd3871e14803d6bbc220a22987bfe8f6d3da29b729518014aaef7e56",
        "figure2_lifshitz_That0.5.csv": "54ebc26535a6b0e4dcbbfc6b7b9b34614e5ea66cc4335962391a32d0a014c6ea",
        "figure2_lifshitz_That1.csv": "2138aabea40665dbb493e3692efda10371f23d53300bbd21b2381400b0a18c7b",
        "figure2_lifshitz_That2.csv": "1fcac32ce95b72266de5df14b131d647c07434fd631f089d94521af8c5409d09",
    },
    ("figure", "--id", "3a", "--jobs", "1"): {
        "figure3a_That0.5.csv": "dc2423809d61749c773cc2d473e395bd85fa8665379923ae717a0841c6866bb1",
        "figure3a_That1.csv": "b4fb2c56cb4be85a7ab9973a31293b687a2710e732c846b5568a766ac64ff212",
        "figure3a_That2.csv": "94fd87fbb89b7d15a165f3cdd48f00c9cba3e074b8908fc8f052fda2b5d4eeab",
    },
    ("figure", "--id", "3b", "--points", "2", "--That-set", "1"): {
        "figure3b_That1.csv": "a608c293373cb1eb79940f171a07ebb4685f5e6175ac33ac831def01e0a78166",
    },
}
# the pooled run must write the serial run's bytes
GOLDEN[("figure", "--id", "3a", "--jobs", "2")] = GOLDEN[("figure", "--id", "3a", "--jobs", "1")]


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_figure_csv_bytes(argv, tmp_path, capsys):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.glob("*.csv")}
    assert got == GOLDEN[argv]
