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

* All but the Lifshitz hashes were recorded again when the contour tail's
  panels moved from x = Q + t to x = -t, so that t = -x is exact where
  x - Q had rounded it to ulp(Q), and the tail's panels came first in
  each integral's panel-order sum.  Every ``evals``, ``converged``,
  ``method`` and ``units`` cell kept its bytes.  The values moved by at
  most 9.3e-16 relative (figure 1), 6.7e-16 (2), 4.3e-16 (3a) and 1.4e-16
  (3b), the ``err`` cells by at most 6.7e-4 relative, and
  ``tests/test_figure_oracles.py`` passed on the new rows first.

* The figure 1 canonical hash was recorded again when the zero-temperature
  head got seed edges near q ~ 1 at d < pi/8.  Only its 18 rows with
  d < 0.39 changed: 14 values moved, by at most 3.9e-16 relative, the
  ``err`` cells by at most 2.9e-11, and the ``evals`` cells from 336-396
  to 411-426 (figure 1 spends 30,495 evaluations, 29,670 before).  Every
  row still converged, and ``tests/test_figure_oracles.py`` passed on the
  new rows first.

* All but the Lifshitz hashes were recorded again when each graded cavity
  resonance below d = 300 got seed edges from half its width out, grown by
  2x in a lone force and 4x in a density batch, so that most forces and
  densities converge in their seed pass.  Only canonical rows changed:
  20 values of figure 1, 51 of figure 2, 102 of 3a and both of 3b, by at
  most 1.5e-14, 1.6e-15, 4.1e-11 and 2.6e-13 relative.  The ``err`` cells
  moved both ways, each still within its tol, and the ``evals`` columns
  changed (figure 1 spends 30,945 evaluations, figure 2 77,978, figure 3a
  54,255 and this 3b case 24,207, from 30,495, 77,648, 59,085 and
  28,137).  Every row still converged and lies within its own estimate,
  and ``tests/test_figure_oracles.py`` passed on the new rows first.
* The figure 3a and 3b hashes were recorded again when the entropy density
  moved onto the ray q = t e^{i pi/4} (one panel per octave, no cavity-dip
  edges, no real-axis cut-off).  Every force and Lifshitz row kept its
  bytes.  142 of the 144 3a values moved, by at most 2.0e-11 relative, and
  lie within 6.9e-17 of the exact density; both 3b values moved, by at most
  2.9e-13 relative, and lie within 7.0e-14 of the exact entropy.  The
  ``err`` cells moved (3a's largest from 9.0e-9 to 2.3e-11) and the
  ``evals`` columns changed (figure 3a spends 20,235 evaluations and this
  3b case 8,430, from 54,255 and 24,207).  Every row still converged and
  lies within its own estimate, and ``tests/test_figure_oracles.py``
  passed on the new rows first.

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
        "figure1_canonical.csv": "eb80c158e0732ad2d9a76605f89b93859913415adbdc177025f06c7434b11589",
        "figure1_lifshitz.csv": "03682de4b306f2d2b1037d45e80de4fbbac8d82101145e35a41b15290dda8e70",
    },
    ("figure", "--id", "2"): {
        "figure2_canonical_That0.5.csv": "1c704e31aa509578e28460499b01154432926666b57c83eacc0460a41a0835a4",
        "figure2_canonical_That1.csv": "de36842a287d04bd59c6b2636a30ab56ee2b0d3280116dc9b2abb23b65aad139",
        "figure2_canonical_That2.csv": "22bf4395a497f51d08391693f3c1bbedf6c39ad562a6a8c5fd90a2753cc675b2",
        "figure2_lifshitz_That0.5.csv": "94a822116f25510fc5b2065941adeb76774e75f718926ff4877364e3910f5fbf",
        "figure2_lifshitz_That1.csv": "ea9d711cf080cf4666a48042401e96bfc8acc2839afa4ff7fb68ccf0503a3601",
        "figure2_lifshitz_That2.csv": "8f7488aa8cc119cdfa3b8cb2af94a9fefbfa07c4aae327cdd369c94b6c30e957",
    },
    ("figure", "--id", "3a"): {
        "figure3a_That0.5.csv": "1442cbb21c80faa81ff03b750d5181aa05d1a30b25f60502bd90a68277688efd",
        "figure3a_That1.csv": "842fb60370a757e3a159daf0736107e968ab7632e52f8f4d5e2e928ac0e0cbc0",
        "figure3a_That2.csv": "4eba2bb2933b6fff3864ac99d95ce466c42d251812407a6e391db8f3799f5fc5",
    },
    ("figure", "--id", "3b", "--points", "2", "--That-set", "1"): {
        "figure3b_That1.csv": "551948bfae6a585e13a58c9c63c039cb234ca7b99360818048e0453d9e24428e",
    },
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_figure_csv_bytes(argv, tmp_path, capsys):
    assert main([*argv, "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    got = {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in tmp_path.glob("*.csv")}
    assert got == GOLDEN[argv], f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"
