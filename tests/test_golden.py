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

The hashes are tied to this platform's libm and BLAS: on another machine
the last printed digit of a value may differ, and the hashes must then be
recorded again there from a known-good tree, not copied from a failing run.
"""
import hashlib

import pytest

from deltacasimir.cli import main

GOLDEN = {
    ("figure", "--id", "1", "--jobs", "1"): {
        "figure1_canonical.csv": "ea1eb682f81afd42c3dd51d5f2ce8a703ee6c75336ab7eabcd85208502e29278",
        "figure1_lifshitz.csv": "eac3f6fb2ae5ec1c26e0b44d67f4109a4604bd3bb69648d63fea53cd48c76ced",
    },
    ("figure", "--id", "2", "--jobs", "1"): {
        "figure2_canonical_That0.5.csv": "7ddbfd5f0b092f6a35bfcd8ae43e8027ca8e6490f16751fcdc06b93f28372687",
        "figure2_canonical_That1.csv": "0d2dbfc95a70e0d0a4c33c6944d35af9c5bbfcb52a64cdbf1e473695dd906fa4",
        "figure2_canonical_That2.csv": "1804c9a06393fadef304e5939c0effc806ad0fb3b5ee8563033ea1ffe0879beb",
        "figure2_lifshitz_That0.5.csv": "ac0a3ea5e849d332c6c144bf134edfeba5719dcbd4d1d0b0439a759e94cfa2de",
        "figure2_lifshitz_That1.csv": "2d8910a342d7ef79ed7e5a25354ee3c6a985185080c2d23c9307a2ecb86d394d",
        "figure2_lifshitz_That2.csv": "e2c3dc4d45c93bdc19cb7e98d5cd94269cd93c1116ad343a93d9d83bcc847d56",
    },
    ("figure", "--id", "3a", "--jobs", "1"): {
        "figure3a_That0.5.csv": "24dea376b145068ae576de869238ab09310225ec6cfe321938faa9e6926a6289",
        "figure3a_That1.csv": "1fec09a340f3dfb3d2fff4027cc5e97e1dd4a19b41bdca54a375da7599932447",
        "figure3a_That2.csv": "45c8879be7cb407b7df40053e2920c2655fb7348358dedaff0806cf5a2ac9599",
    },
    ("figure", "--id", "3b", "--points", "2", "--That-set", "1"): {
        "figure3b_That1.csv": "b5dc9a0a5f4359af43dc4e8005822cadcd25d27cda5b9d1de2ede050f38c8a72",
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
