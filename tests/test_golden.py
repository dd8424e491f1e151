"""Golden bytes of the figure CSVs.

Each case runs ``deltacasimir figure`` in process and compares the sha256 of
every CSV it writes against a hash recorded at commit a576f6b, where each
CSV of a figure had its own worker pool.  The hashes are tied to this
platform's libm and BLAS: on another machine the last printed digit of a
value may differ, and the hashes must then be recorded again there from a
known-good tree, not copied from a failing run.
"""
import hashlib

import pytest

from deltacasimir.cli import main

GOLDEN = {
    ("figure", "--id", "1", "--jobs", "1"): {
        "figure1_canonical.csv": "97eda498956f846d82d7346ee9679795eb29c04a5298692667fa720a557c59ee",
        "figure1_lifshitz.csv": "c4b58e895cb37bca82161775d0eb8b66fe72aa1a8e427aa154c443274c5c9168",
    },
    ("figure", "--id", "2", "--jobs", "1"): {
        "figure2_canonical_That0.5.csv": "489ce128394558c80eb940308043256ef9e76b64166206e0f9364755dfa8ccaf",
        "figure2_canonical_That1.csv": "5c1b88bcdbb7779665a13088336767d0dbdb00e485477c6783412601e56906ed",
        "figure2_canonical_That2.csv": "8a04fe9d2c8028a0138ce610a129790cc545b8956a85f456c32fe16e30f00397",
        "figure2_lifshitz_That0.5.csv": "ac0a3ea5e849d332c6c144bf134edfeba5719dcbd4d1d0b0439a759e94cfa2de",
        "figure2_lifshitz_That1.csv": "2d8910a342d7ef79ed7e5a25354ee3c6a985185080c2d23c9307a2ecb86d394d",
        "figure2_lifshitz_That2.csv": "e2c3dc4d45c93bdc19cb7e98d5cd94269cd93c1116ad343a93d9d83bcc847d56",
    },
    ("figure", "--id", "3a", "--jobs", "1"): {
        "figure3a_That0.5.csv": "086c6004607dd91a6ba2de0c0617f79199e3312312041be8b0e357099d5fe551",
        "figure3a_That1.csv": "ec6e976f744bb249a98cdc1faa84a4e76e388daa7b2eae5db856f58b17072c2c",
        "figure3a_That2.csv": "9cec94fb4f08d5b713e86b0648671b1c2165cc6f5d278d16d74713a888c289c2",
    },
    ("figure", "--id", "3b", "--points", "2", "--That-set", "1"): {
        "figure3b_That1.csv": "a639e40ba08cdd1af342297b4f3bd5c106003acd4913f2f9267aa062521e6c7f",
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
