"""Golden bytes of the figure CSVs.

Each case runs ``deltacasimir figure`` in process and compares the sha256 of
every CSV it writes against a recorded hash.  The figure 1 and 2 Lifshitz
hashes were recorded at commit a576f6b, where each CSV of a figure had its
own worker pool.  The canonical ones were recorded again when the force's
tail beyond Q moved from half-period panels with Wynn's epsilon to the
rotated contour Re q = Q: the values moved by at most 2.5e-11, every row
now lies within 5.2e-14 of the exact force and within its own error
estimate, and the ``evals`` column changed.  The figure 3a and 3b hashes were recorded again when the
entropy density's seed panels widened from a quarter period to one (values
moved by at most 4.2e-13), and again when the density took its q cut-off
from its tolerance and the entropy's distance integral started from one
seed panel: the 3a values moved by at most 2.2e-12 and stay within 2.2e-12
of the exact density, the two 3b values by at most 4.8e-13 from the exact
entropy, and both ``evals`` columns changed.  The hashes are
tied to this platform's libm and BLAS: on another machine the last printed
digit of a value may differ, and the hashes must then be recorded again
there from a known-good tree, not copied from a failing run.
"""
import hashlib

import pytest

from deltacasimir.cli import main

GOLDEN = {
    ("figure", "--id", "1", "--jobs", "1"): {
        "figure1_canonical.csv": "6bbe1f2d64c616807a4291bf32021b25c4bbdc5279953410540b2efb7f5ca8a4",
        "figure1_lifshitz.csv": "c4b58e895cb37bca82161775d0eb8b66fe72aa1a8e427aa154c443274c5c9168",
    },
    ("figure", "--id", "2", "--jobs", "1"): {
        "figure2_canonical_That0.5.csv": "65e658254244507829daa686c988dbaffdb4985181218601d497afbbeb7395ba",
        "figure2_canonical_That1.csv": "f21c1521b1adbae145a4048dd96721b523abbcf3eacd364e31680e159a1f4d37",
        "figure2_canonical_That2.csv": "9159ea9c3c753f37c7b84c4378e75c9d0e09dd2c46c13af7a35a2e3469efd2ee",
        "figure2_lifshitz_That0.5.csv": "ac0a3ea5e849d332c6c144bf134edfeba5719dcbd4d1d0b0439a759e94cfa2de",
        "figure2_lifshitz_That1.csv": "2d8910a342d7ef79ed7e5a25354ee3c6a985185080c2d23c9307a2ecb86d394d",
        "figure2_lifshitz_That2.csv": "e2c3dc4d45c93bdc19cb7e98d5cd94269cd93c1116ad343a93d9d83bcc847d56",
    },
    ("figure", "--id", "3a", "--jobs", "1"): {
        "figure3a_That0.5.csv": "f2c2899155adaf7f5ab22e08344cdf61c8c83b2ee5906426dc7c2b7706b1a9d6",
        "figure3a_That1.csv": "a70680737255a0bdbb763748608b08156dc6dc8a828c3a699dc43e996c7b4d27",
        "figure3a_That2.csv": "6f3b134a1d599c4083aa11837ce2bc8acdb9022c05b0e8c22123a53344d51789",
    },
    ("figure", "--id", "3b", "--points", "2", "--That-set", "1"): {
        "figure3b_That1.csv": "6c7d7e9e1c853f1aa032f2ac43f0416384cdc3d06d0eeb23ca8d1a60e0253f4f",
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
