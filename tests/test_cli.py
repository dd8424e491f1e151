import json
import math
import os
import re
import subprocess
import sys

import pytest
from oracles import RECORDED_HOST, host_fingerprint

from deltacasimir import DimensionlessPoint, casimir_force, cli, numerics
from deltacasimir.cli import main
from deltacasimir.forces import FORCE_TOL


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_force_csv_schema_and_exit(capsys):
    code, out, _ = run(capsys, "force", "--d", "1", "--That", "0")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,That,method,value,err,evals,converged,units"
    assert len(lines) == 3  # both methods by default
    row = lines[1].split(",")
    assert row[2] == "canonical"
    assert float(row[3]) == pytest.approx(-0.0223069396, abs=1e-8)
    assert row[6] == "true"


def test_force_two_methods_agree(capsys):
    code, out, _ = run(capsys, "force", "--d", "1", "--That", "0")
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    vals = {r[2]: float(r[3]) for r in rows}
    assert abs(vals["canonical"] - vals["lifshitz"]) / abs(vals["lifshitz"]) <= 1e-6


def test_force_long_distance_ratio(capsys):
    code, out, _ = run(capsys, "force", "--d", "200", "--That", "2")
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    vals = {r[2]: float(r[3]) for r in rows}
    assert vals["lifshitz"] / vals["canonical"] == pytest.approx(2.0, abs=0.02)


def test_scattering_output_and_identities(capsys):
    code, out, _ = run(capsys, "scattering", "--q", "1", "--d", "1")
    assert code == 0
    header, row = out.strip().split("\n")
    vals = dict(zip(header.split(","), (float(x) for x in row.split(","))))
    assert vals["unitarity"] == pytest.approx(1.0, abs=1e-12)
    assert vals["flux"] == pytest.approx(0.0, abs=1e-12)
    c = complex(vals["C_re"], vals["C_im"])
    dd = complex(vals["D_re"], vals["D_im"])
    assert vals["kernel"] == pytest.approx(abs(c) ** 2 + abs(dd) ** 2 - 1.0, abs=1e-12)


def test_scattering_long_wavelength(capsys):
    code, out, _ = run(capsys, "scattering", "--q", "1e-8", "--d", "1")
    header, row = out.strip().split("\n")
    vals = dict(zip(header.split(","), (float(x) for x in row.split(","))))
    assert vals["C_re"] == pytest.approx(1.0 / 3.0, abs=1e-6)
    assert vals["D_re"] == pytest.approx(-1.0 / 3.0, abs=1e-6)


def test_scattering_ultraviolet_limit(capsys):
    code, out, _ = run(capsys, "scattering", "--q", "1e8", "--d", "1")
    header, row = out.strip().split("\n")
    vals = dict(zip(header.split(","), (float(x) for x in row.split(","))))
    assert abs(complex(vals["G_re"], vals["G_im"]) - 1.0) <= 1e-6
    assert abs(complex(vals["B_re"], vals["B_im"])) <= 1e-6


def test_nonconvergence_exit_3(capsys):
    # a tolerance below the floating-point floor cannot be certified; the
    # record is still emitted, flagged converged=false, and exit code is 3
    code, out, _ = run(capsys, "force", "--d", "1", "--That", "1",
                       "--method", "lifshitz", "--tol", "1e-30")
    assert code == 3
    row = out.strip().split("\n")[1].split(",")
    assert row[6] == "false"
    assert float(row[3]) == pytest.approx(-0.1666669047768, rel=1e-10)


def test_scattering_domain_error_exit_2(capsys):
    code, _, err = run(capsys, "scattering", "--q", "-1", "--d", "1")
    assert code == 2
    assert "error" in err


def test_entropy_records_include_lambda(capsys):
    code, out, _ = run(capsys, "entropy", "--d", "5", "--That", "1",
                       "--method", "lifshitz", "--no-zero-mode")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d,That,method,lambda,value,err,evals,converged,units"
    row = lines[1].split(",")
    assert row[2] == "lifshitz_no_zero_mode"
    assert float(row[3]) == 100.0
    assert float(row[4]) < 0.0


def test_entropy_canonical_positive(capsys):
    code, out, _ = run(capsys, "entropy", "--d", "1", "--That", "1", "--method", "canonical")
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[4]) >= 0.0


def test_entropy_default_bytes(capsys):
    # the canonical value is 1.8e-12 from the exact entropy 0.8815900040215714
    # (oracles.entropy_identity); it was 0.88159000401963783, 1.9e-12 off, in
    # 112,695 evaluations, before the density left the real axis at one period,
    # 0.88159000402000065, 1.6e-12 off, in 7,131 evaluations, before the
    # density's resonances got graded seed edges, and 0.88159000401977117 in
    # 7,056 evaluations before the rotated densities' head and contour tail
    # became one adaptive integral; its err was 2.5466403324276239e-07 before
    # the contour tail's panels moved to x = -t.  The Lifshitz value is
    # 5.0e-17 from the exact 0.33434016119038013033 (mpmath, 40 digits) and
    # within its estimate; it was the correctly rounded value with an
    # estimate of 3.2e-23 from 6 terms before the series fixed its term count
    # in advance, and its estimate was 6.5e-17 before it took the rounding
    # of adding the zero mode.  The canonical row was 0.88159000401977106
    # with err 2.5466403321879628e-07 in 7,026 evaluations while each graded
    # resonance's seed edges started at its full width, and
    # 0.88159000401968834 (1.9e-12 off) with err 2.5466401734445012e-07 in
    # 6,276 evaluations while the densities ran on the real axis; on the ray
    # it is 1.8e-12 off
    code, out, _ = run(capsys, "entropy", "--d", "1", "--That", "1")
    assert code == 0
    assert out == (
        "d,That,method,lambda,value,err,evals,converged,units\n"
        "1,1,canonical,100,0.8815900040198118,2.5466421320234438e-07,2085,true,"
        "raw_dimensionless\n"
        "1,1,lifshitz,100,0.33434016119038018,8.7991592375209655e-16,4,true,"
        "raw_dimensionless\n"), f"recorded on {RECORDED_HOST}; here {host_fingerprint()}"


def test_entropy_lifshitz_honours_tol(capsys):
    # --tol once left the Matsubara sums at their default: err 2.0e-12 here.
    # Each of the two series gets half the budget, so the row's err <= tol.
    # The series' rounding floors alone come to 1.95e-14 here, so the err,
    # 2.3e-14 with the rounding of adding the zero mode, cannot reach 2e-14
    code, out, _ = run(capsys, "entropy", "--d", "0.05", "--That", "0.001",
                       "--method", "lifshitz", "--tol", "1e-13")
    row = out.strip().split("\n")[1].split(",")
    assert (code, row[7]) == (0, "true") and float(row[5]) <= 1e-13


# --method is one of the parser's choices: no empty set, unknown name or
# comma list (the force once printed a repeated method's row twice)
@pytest.mark.parametrize("methods", ["", "euclid", "canonical,canonical",
                                     "lifshitz,canonical,lifshitz", "canonical,lifshitz"])
def test_a_method_outside_the_choices_is_a_usage_error(methods, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["force", "--d", "1", "--That", "0", "--method", methods])
    out = capsys.readouterr()
    assert exc.value.code == 2 and not out.out and "invalid choice" in out.err


def test_unknown_figure_id_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--id", "9"])
    assert exc.value.code == 2


def test_json_mirror(capsys):
    code, out, _ = run(capsys, "force", "--d", "1", "--That", "0",
                       "--method", "lifshitz", "--json")
    doc = json.loads(out)
    assert doc["records"][0]["method"] == "lifshitz"
    assert doc["records"][0]["value"] == pytest.approx(-0.0223069396, abs=1e-8)
    assert doc["meta"]["version"]


def test_sweep_rows_and_monotone(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, "sweep", "--variable", "d", "--min", "1", "--max", "2",
                     "--points", "2", "--fixed", "0", "--method", "canonical",
                     "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert len(lines) == 3
    v1 = abs(float(lines[1].split(",")[3]))
    v2 = abs(float(lines[2].split(",")[3]))
    assert v1 > v2
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["tool"] == "deltacasimir"
    assert meta["points"] == 2


def test_sweep_that_monotone_growth(capsys):
    code, out, _ = run(capsys, "sweep", "--variable", "That", "--min", "0.5", "--max", "2",
                       "--points", "3", "--spacing", "log", "--fixed", "1",
                       "--method", "lifshitz")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    assert [float(r[1]) for r in rows] == pytest.approx([0.5, 1.0, 2.0])
    vals = [abs(float(r[3])) for r in rows]
    assert vals[0] < vals[1] < vals[2]


def test_sweep_byte_determinism(tmp_path, capsys):
    args = ["sweep", "--variable", "d", "--min", "0.5", "--max", "4", "--points", "3",
            "--spacing", "log", "--fixed", "1", "--method", "both"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, *args, "--out", str(f1))
    run(capsys, *args, "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_figure_ignores_the_hidden_jobs_flag(tmp_path, capsys):
    # --jobs once set the width of a process pool; figure still parses it,
    # as perfbench's figure command passes it, and 0 is no longer an error
    outputs = []
    for jobs in ([], ["--jobs", "1"], ["--jobs", "2"], ["--jobs", "0"]):
        out_dir = tmp_path / "_".join(["run", *jobs[1:]])
        out_dir.mkdir()
        code, out, _ = run(capsys, "figure", "--id", "3a", *jobs, "--json",
                           "--out-dir", str(out_dir))
        doc = json.loads(out)
        sidecar = json.loads((out_dir / "figure3a_meta.json").read_text())
        assert code == 0 and doc["meta"] == sidecar and "jobs" not in sidecar
        del sidecar["command"]
        csvs = {f.name: f.read_bytes() for f in out_dir.glob("*.csv")}
        outputs.append((doc["records"], sidecar, csvs))
    assert all(o == outputs[0] for o in outputs) and len(outputs[0][2]) == 3


def test_tasks_run_in_order_in_this_process():
    # a closure over this process's state: a process pool could not pickle it,
    # and its workers would have appended to copies of the list
    pids = []

    def fn(t):
        pids.append(os.getpid())
        return 2 * t

    assert cli._run_tasks(fn, [3, 1, 2]) == [6, 2, 4]
    assert pids == [os.getpid()] * 3


def _fresh_python(code):
    """stdout of ``python -c code`` in a fresh interpreter that imports the
    package from this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_no_command_imports_the_process_pool(tmp_path):
    # every command runs in one process; the pool's module once cost about
    # 20 ms to import, and figure --jobs 2 (perfbench's spelling) started a pool
    commands = [
        ["scattering", "--q", "1", "--d", "1"],
        ["force", "--d", "1", "--That", "1"],
        ["entropy", "--d", "1", "--That", "1", "--method", "lifshitz"],
        ["sweep", "--variable", "d", "--min", "1", "--max", "2", "--points", "2",
         "--fixed", "0.5"],
        ["figure", "--id", "1", "--points", "3", "--jobs", "2", "--out-dir", str(tmp_path)],
    ]
    code = (
        "import sys\n"
        "import deltacasimir.cli\n"
        "loaded = ['concurrent.futures' in sys.modules]\n"
        f"for argv in {commands!r}:\n"
        "    assert deltacasimir.cli.main(argv) == 0\n"
        "    loaded.append('concurrent.futures' in sys.modules)\n"
        "print(loaded)\n"
    )
    assert _fresh_python(code).split("\n")[-2] == str([False] * (len(commands) + 1))
    assert len(list(tmp_path.glob("figure1_*.csv"))) == 2


def test_runtime_never_imports_scipy(tmp_path):
    # a fresh interpreter runs every path that used to load scipy: the CLI
    # import, canonical forces at zero and finite temperature and a figure
    code = (
        "import sys\n"
        "import deltacasimir.cli\n"
        "from deltacasimir import DimensionlessPoint, casimir_force\n"
        "for that in (0.0, 0.5):\n"
        "    assert casimir_force(DimensionlessPoint(1.0, that), 'canonical').estimate.converged\n"
        "assert deltacasimir.cli.main(['figure', '--id', '1', '--points', '3',\n"
        f"                               '--out-dir', {str(tmp_path)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert _fresh_python(code).split("\n")[-2] == "[]"
    assert len(list(tmp_path.glob("figure1_*.csv"))) == 2


def test_meta_records_the_parsed_argv(tmp_path, capsys, monkeypatch):
    # programmatic callers pass argv; sys.argv belongs to someone else
    monkeypatch.setattr(sys, "argv", ["x", "--unrelated"])
    _, out, _ = run(capsys, "force", "--d", "1", "--method", "lifshitz", "--json")
    assert json.loads(out)["meta"]["command"] == "force --d 1 --method lifshitz --json"
    run(capsys, "figure", "--id", "3a", "--points", "2", "--That-set", "1",
        "--out-dir", str(tmp_path))
    meta = json.loads((tmp_path / "figure3a_meta.json").read_text())
    assert meta["command"] == f"figure --id 3a --points 2 --That-set 1 --out-dir {tmp_path}"


def test_scattering_meta_records_only_what_scattering_reads(tmp_path, capsys):
    # every sidecar once carried a copy of cli.DEFAULTS, tol, units and jobs included
    out = tmp_path / "s.csv"
    run(capsys, "scattering", "--q", "1", "--d", "1", "--out", str(out))
    meta = json.loads((tmp_path / "s.csv.meta.json").read_text())
    assert set(meta) == {"tool", "version", "command", "q", "d", "schema"}


@pytest.mark.parametrize("fig, flags", [("1", set()), ("2", {"That_set"}), ("3a", {"That_set"}),
                                        ("3b", {"cutoff_lambda", "That_set"})])
def test_figure_meta_records_units_and_lambda_only_where_rows_read_them(
        tmp_path, capsys, fig, flags):
    # figure 1's rows are all at That = 0: its sidecar once recorded the
    # default That set all the same.  No sidecar has had jobs since the
    # process pool went, nor units since a force figure's units became its own
    assert run(capsys, "figure", "--id", fig, "--points", "2", "--That-set", "1",
               "--out-dir", str(tmp_path))[0] == 0
    meta = json.loads((tmp_path / f"figure{fig}_meta.json").read_text())
    assert "defaults" not in meta and "jobs" not in meta
    assert {"tol"} | flags <= set(meta)
    assert not ({"units", "cutoff_lambda", "That_set"} - flags) & set(meta)


def test_figure_checks_its_out_dir_before_computing(tmp_path, capsys, monkeypatch):
    # it once computed every row and then failed to open the first CSV
    calls = []
    run_tasks = cli._run_tasks
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: calls.append(a) or run_tasks(*a))
    code, out, err = run(capsys, "figure", "--id", "3b", "--points", "2", "--That-set", "1",
                         "--out-dir", str(tmp_path / "missing"))
    assert code == 2 and not calls and not out
    assert "missing" in err


BAD_GRID_INPUTS = [("--points", "0"), ("--points", "-3"), ("--That-set", "1,,2"),
                   ("--That-set", "one"), ("--That-set", "1,1"),
                   ("--That-set", "0.5,0.5000001"), ("--That-set", ""),
                   ("--That-set", "1,-1"), ("--That-set", "nan"), ("--That-set", "1,inf")]


@pytest.mark.parametrize("flag, value, fig", [
    *[(flag, value, fig) for flag, value in BAD_GRID_INPUTS for fig in ("2", "3a")],
    ("--That-set", "0", "3a"), ("--lambda", "1", "3b"), ("--lambda", "nan", "3b")])
def test_figure_rejects_bad_grid_inputs(fig, flag, value, tmp_path, capsys, monkeypatch):
    # --points 0 once gave the default 48 points, --points -3 and an empty
    # --That-set entry a traceback; 1,1 wrote one CSV twice and listed it twice
    # in the sidecar, 0.5,0.5000001 (both 0.5 under :g) overwrote a curve, and
    # an empty --That-set ran the default set.  A negative, infinite or nan
    # temperature (or 0 for the entropy density) failed only inside its first
    # row, after the curves before it had been computed, and the message did
    # not name the flag; so did a --lambda at or below the entropy grid's
    # largest d, after the rows below it
    calls = []
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: calls.append(a))
    code, out, err = run(capsys, "figure", "--id", fig, flag, value,
                         "--out-dir", str(tmp_path))
    assert code == 2 and not calls and not out and not list(tmp_path.iterdir())
    assert err.startswith("error: ") and flag in err


def test_figure3a_json_records_are_plain(tmp_path, capsys):
    # a curve's densities come from one array call: a numpy scalar in its rows
    # would print True in the CSV and break the JSON
    argv = ["figure", "--id", "3a", "--points", "3", "--That-set", "1",
            "--out-dir", str(tmp_path)]
    code, out, _ = run(capsys, *argv, "--json")
    records = json.loads(out)["records"]
    assert code == 0 and len(records) == 3
    assert out.count('"converged": true') == 3
    assert {type(v) for rec in records for v in rec.values()} == {float, int, bool}
    csv_rows = _rows((tmp_path / "figure3a_That1.csv").read_text())
    assert [{k: cli._fmt(v) for k, v in rec.items()} for rec in records] == csv_rows
    assert {r["converged"] for r in csv_rows} == {"true"}
    rows = cli._density_rows([0.5, 5.0], (1.0, 2.0), 1e-8)
    assert [row[:2] for row in rows] == [[0.5, 1.0], [5.0, 1.0], [0.5, 2.0], [5.0, 2.0]]
    assert {type(x) for row in rows for x in row} == {float, int, bool}


SWEEP_FLAGS = {"--variable": "That", "--min": "0.5", "--max": "2", "--points": "3",
               "--fixed": "1", "--method": "lifshitz"}


@pytest.mark.parametrize("flags, message", [
    ({"--variable": "x"}, "invalid choice: 'x'"),
    ({"--spacing": "cubic"}, "invalid choice: 'cubic'"),
    ({"--points": "1"}, "points >= 2"),
    ({"--min": "2", "--max": "1"}, "min < max"),
    ({"--max": "inf"}, "min < max"),
    ({"--variable": "d", "--min": "-1"}, "minimum must be positive"),
    ({"--min": "0", "--spacing": "log"}, "minimum must be positive"),
    ({"--method": "plasma"}, "invalid choice: 'plasma'"),
], ids=["variable", "spacing", "points", "min-above-max", "max-inf", "d-min", "log-min",
        "method"])
def test_sweep_refuses_a_bad_flag(flags, message, capsys):
    # the checks a library-side sweep spec once made: exit 2 before any row
    argv = ["sweep", *(x for kv in {**SWEEP_FLAGS, **flags}.items() for x in kv)]
    try:
        code = main(argv)
    except SystemExit as exc:   # the parser's choices
        code = exc.code
    out = capsys.readouterr()
    assert code == 2 and not out.out and message in out.err


def test_figure1_reduced_grid(tmp_path, capsys):
    code, out, _ = run(capsys, "figure", "--id", "1", "--out-dir", str(tmp_path),
                       "--points", "4")
    assert code == 0
    can = (tmp_path / "figure1_canonical.csv").read_text().strip().split("\n")
    lif = (tmp_path / "figure1_lifshitz.csv").read_text().strip().split("\n")
    assert can[0] == "d,That,method,value,err,evals,converged,units"
    assert len(can) == 5 and len(lif) == 5
    for c_row, l_row in zip(can[1:], lif[1:]):
        vc, vl = float(c_row.split(",")[3]), float(l_row.split(",")[3])
        assert abs(vc - vl) / abs(vl) <= 1e-6
    meta = json.loads((tmp_path / "figure1_meta.json").read_text())
    assert meta["figure"] == "1"
    assert "figure1_canonical.csv" in meta["files"]


def test_figure3a_tail(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "--id", "3a", "--out-dir", str(tmp_path),
                     "--points", "3", "--That-set", "1")
    assert code == 0
    rows = (tmp_path / "figure3a_That1.csv").read_text().strip().split("\n")
    assert rows[0] == "dtilde,That,value,err,evals,converged"
    last = rows[-1].split(",")
    dt, val = float(last[0]), float(last[2])
    assert dt == pytest.approx(100.0)
    assert val == pytest.approx(1.0 / (4.0 * dt), rel=0.02)


def test_figure2_ordering(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "--id", "2", "--out-dir", str(tmp_path),
                     "--points", "3", "--That-set", "1")
    assert code == 0
    can = (tmp_path / "figure2_canonical_That1.csv").read_text().strip().split("\n")[1:]
    lif = (tmp_path / "figure2_lifshitz_That1.csv").read_text().strip().split("\n")[1:]
    for c_row, l_row in zip(can, lif):
        assert abs(float(c_row.split(",")[3])) <= abs(float(l_row.split(",")[3]))


def test_figure3b_entropy_curve(tmp_path, capsys):
    code, _, _ = run(capsys, "figure", "--id", "3b", "--out-dir", str(tmp_path),
                     "--points", "2", "--That-set", "1")
    assert code == 0
    rows = (tmp_path / "figure3b_That1.csv").read_text().strip().split("\n")
    assert rows[0] == "d,That,method,lambda,value,err,evals,converged,units"
    first, last = rows[1].split(","), rows[2].split(",")
    assert float(first[3]) == 100.0  # lambda column
    # entropy positive and decreasing with separation
    assert float(first[4]) > float(last[4]) > 0.0
    meta = json.loads((tmp_path / "figure3b_meta.json").read_text())
    assert meta["That_set"] == [1.0]


def test_json_writes_non_finite_values_as_null(capsys):
    # the series ratio rounds to 1 at That = 1e-300: err is inf, exit 3
    code, out, _ = run(capsys, "force", "--d", "1", "--That", "1e-300", "--method",
                       "lifshitz", "--json")

    def no_constant(name):
        raise AssertionError(f"{name} is not JSON")

    rec, = json.loads(out, parse_constant=no_constant)["records"]
    assert code == 3 and rec["err"] is None and rec["converged"] is False


def test_scattering_beyond_max_q_is_an_error_line(capsys):
    # an OverflowError traceback with exit 1 while q had no upper bound
    code, out, err = run(capsys, "scattering", "--q", "1e160", "--d", "1")
    assert code == 2 and not out
    assert err.startswith("error: ") and "Traceback" not in err


def test_force_below_its_smallest_d_is_an_error_line(capsys):
    # canonical: -0.0017953 flagged converged=true after a RuntimeWarning (the
    # force is ~ -18 at d = 1e-100), and at d = 1e-320 an error about the
    # engine; lifshitz: 0 flagged converged=true with exit 0 at d = 1e-200
    # (the force is ~ -36.6 there)
    for method in ("canonical", "lifshitz"):
        for d in ("1e-100", "1e-200", "1e-320"):
            code, out, err = run(capsys, "force", "--d", d, "--method", method)
            assert code == 2 and not out
            assert err.startswith("error: ") and f"d={d}" in err


def test_force_above_its_largest_d_is_an_error_line(capsys):
    # lifshitz: -0 with err 0 flagged converged=true, exit 0, after an
    # overflow warning (the force is ~ -5e-309 there)
    for method in ("canonical", "lifshitz"):
        code, out, err = run(capsys, "force", "--d", "1e308", "--That", "1", "--method", method)
        assert code == 2 and not out
        assert err.startswith("error: ") and "d=1e+308" in err


def test_lifshitz_force_at_huge_temperature_exits_0(capsys):
    # nan,nan,1,false after a RuntimeWarning while That a overflowed; the
    # force, -That/14, rounds by a few eps of it, so the tol is scaled to it
    code, out, _ = run(capsys, "force", "--d", "5", "--That", "1e300", "--method", "lifshitz",
                       "--tol", "1e288")
    assert code == 0 and out.strip().endswith(",true,raw_dimensionless")
    assert "nan" not in out


def test_lifshitz_entropy_that_overflows_exits_3(capsys):
    # -inf flagged converged=true, with exit 0, before a value that is not
    # finite reported converged=false
    with pytest.warns(RuntimeWarning, match="overflow"):
        code, out, _ = run(capsys, "entropy", "--d", "1e300", "--That", "1e10",
                           "--method", "lifshitz")
    row = _rows(out)[0]
    assert code == 3 and (row["value"], row["converged"]) == ("-inf", "false")


def test_lifshitz_entropy_whose_zero_mode_log_underflows_exits_3(capsys, monkeypatch):
    # math.log(0) raised a ValueError: a traceback, no rows and exit 1
    monkeypatch.setattr(numerics, "_MAX_TERMS", 1_000)   # the series' ratio rounds to 1
    code, out, err = run(capsys, "entropy", "--d", "1", "--That", "1e-200", "--lambda",
                         "1e150", "--method", "lifshitz")
    assert code == 3 and "Traceback" not in err
    assert [(r["err"], r["converged"]) for r in _rows(out)] == [("inf", "false")]


def test_force_below_the_smallest_that_is_an_error_line(capsys):
    # the canonical force read nan, and the Lifshitz force spent 10^7 terms
    # to read nan
    code, out, err = run(capsys, "force", "--d", "1", "--That", "1e-310")
    assert code == 2 and not out
    assert err.startswith("error: ") and "That=1e-310" in err


def test_entropy_at_a_tiny_temperature_prints_a_converged_row(capsys):
    # the density batch's resonance count came out -1: a ValueError
    # traceback with exit 1; then the real-axis density's truncation bound
    # left every row at That <~ 2.8e-10 unconverged, with exit 3.  On the ray
    # the row converges, within its estimate of the third law's linear value
    code, out, err = run(capsys, "entropy", "--d", "1", "--That", "1e-18",
                         "--method", "canonical")
    assert code == 0 and "Traceback" not in err
    (row,) = _rows(out)
    linear = math.pi * 1e-18 / 6.0 * (99.0 - 2.0 * (1.0 / 3.0 - 1.0 / 102.0))
    assert row["converged"] == "true"
    assert abs(float(row["value"]) - linear) <= float(row["err"])


def test_figure_3a_at_a_tiny_temperature_writes_converged_rows(tmp_path, capsys):
    # every density there is below 1e-20, and within its estimate of 0
    code, out, err = run(capsys, "figure", "--id", "3a", "--points", "3",
                         "--That-set", "1e-20", "--out-dir", str(tmp_path))
    assert code == 0 and "Traceback" not in err
    with open(tmp_path / "figure3a_That1e-20.csv") as fh:
        rows = _rows(fh.read())
    assert len(rows) == 3 and all(r["converged"] == "true" for r in rows)
    assert all(abs(float(r["value"])) <= float(r["err"]) for r in rows)


def test_scattering_with_an_infinite_phase_is_an_error_line(capsys):
    # 2 q d overflows: a ValueError traceback with exit 1 before the phase check
    code, out, err = run(capsys, "scattering", "--q", "1e76", "--d", "1e240")
    assert code == 2 and not out
    assert err.startswith("error: ") and "phase" in err and "Traceback" not in err


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    return [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]


def test_force_err_is_in_the_units_of_value(tmp_path, capsys):
    # fig2_scale once rescaled the value but left err in hbar*gamma^2/v^3;
    # the rows are computed at the tol in those units too
    assert run(capsys, "figure", "--id", "2", "--points", "2", "--That-set", "1",
               "--out-dir", str(tmp_path))[0] == 0
    rows = [r for path in sorted(tmp_path.glob("figure2_*.csv")) for r in _rows(path.read_text())]
    assert len(rows) == 4
    divisor = cli._UNITS["fig2_scale"]
    for r in rows:
        raw = casimir_force(DimensionlessPoint(float(r["d"]), float(r["That"])), r["method"],
                            FORCE_TOL * divisor)
        assert r["units"] == "fig2_scale"
        assert float(r["value"]) == raw.value / divisor
        assert float(r["err"]) == raw.estimate.abs_error_estimate / divisor
        assert float(r["err"]) == pytest.approx(4.0 * math.pi * raw.estimate.abs_error_estimate,
                                                rel=1e-15)


def test_units_divisors():
    # figure 1's fig1_scale was the raw factor under a second name
    assert list(cli._UNITS) == ["raw_dimensionless", "fig2_scale"]
    assert -0.5 / cli._UNITS["raw_dimensionless"] == -0.5
    assert -0.5 / cli._UNITS["fig2_scale"] == pytest.approx(-0.5 * 4.0 * math.pi, rel=1e-15)


@pytest.mark.parametrize("fig, default_tol, tol", [("3a", 1e-8, 1e-13), ("3b", 1e-6, 1e-9)])
def test_figure_honours_tol(fig, default_tol, tol, tmp_path, capsys):
    # --tol once reached only figures 1 and 2; 3a and 3b ran at fixed defaults.
    # A tighter tol costs every row more evaluations; a looser one (1e-6 and
    # 1e-4) did too until a 3b row's seed passes met its default tol.  On the
    # ray a density meets 1e-10 and 1e-11 in its seed pass too, and so do
    # 3b's densities at its 1e-8 (inner tol 2.5e-11)
    def evals_and_meta(*extra):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        assert main(["figure", "--id", fig, "--points", "2", "--That-set", "1",
                     "--out-dir", str(out), *extra]) == 0
        capsys.readouterr()
        rows = _rows((out / f"figure{fig}_That1.csv").read_text())
        meta = json.loads((out / f"figure{fig}_meta.json").read_text())
        return [int(r["evals"]) for r in rows], meta["tol"]

    default_evals, default_meta_tol = evals_and_meta()
    evals, meta_tol = evals_and_meta("--tol", str(tol))
    assert (default_meta_tol, meta_tol) == (default_tol, tol)
    assert all(e > d for e, d in zip(evals, default_evals))


# each subcommand's inputs, the flags it reads (with a value, or None for a
# switch) and the flags it rejects: the shared ones it does not read,
# --config, a key=value file of four flags' values that every command once
# took, and --units, a force normalization that force, sweep and figure once
# took (a force row's units are now fixed by what produced it)
FLAGS = {
    "scattering": (["--q", "1", "--d", "1"],
                   {"--out": "x.csv", "--json": None},
                   ["--tol", "--units", "--jobs", "--config"]),
    "force": (["--d", "1"],
              {"--tol": "1e-9", "--out": "x.csv", "--json": None,
               "--That": "1", "--method": "lifshitz"},
              ["--units", "--jobs", "--config"]),
    "entropy": (["--d", "1", "--That", "1"],
                {"--tol": "1e-6", "--out": "x.csv", "--json": None,
                 "--method": "lifshitz", "--lambda": "50", "--zero-mode": None,
                 "--no-zero-mode": None},
                ["--units", "--jobs", "--config"]),
    # figure has no --out: argparse reads it as the prefix of --out-dir
    "figure": (["--id", "3a"],
               {"--tol": "1e-8", "--json": None,
                "--out-dir": ".", "--points": "2", "--That-set": "1", "--lambda": "50"},
               ["--units", "--config"]),
    "sweep": (["--variable", "d", "--min", "1", "--max", "2", "--points", "2", "--fixed", "0"],
              {"--tol": "1e-9", "--out": "x.csv", "--json": None,
               "--spacing": "log", "--method": "lifshitz"},
              ["--units", "--jobs", "--config"]),
}


@pytest.mark.parametrize("command", list(FLAGS))
def test_help_lists_only_the_flags_each_subcommand_reads(command, capsys):
    required, reads, _ = FLAGS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--[A-Za-z][\w-]*", capsys.readouterr().out))
    assert listed == {"--help", *required[::2], *reads}
    for flag, value in reads.items():
        args = cli.build_parser().parse_args(
            [command, *required, flag, *([] if value is None else [value])])
        assert args.command == command


@pytest.mark.parametrize("command, flag", [(c, f) for c, (_, _, dead) in FLAGS.items()
                                           for f in dead])
def test_each_subcommand_rejects_the_flags_it_does_not_read(command, flag, capsys):
    required, _, _ = FLAGS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def _effective(capsys, tmp_path, argv):
    """The flag values a command's metadata records it ran with."""
    if argv[0] != "figure":
        code, out, _ = run(capsys, *argv, "--json")
        return code, json.loads(out)["meta"]
    out_dir = tmp_path / str(len(list(tmp_path.iterdir())))
    out_dir.mkdir()
    code = run(capsys, *argv, "--out-dir", str(out_dir))[0]
    return code, json.loads((out_dir / f"figure{argv[2]}_meta.json").read_text())


FORCE_ARGV = ["force", "--d", "1", "--method", "lifshitz"]
ENTROPY_ARGV = ["entropy", "--d", "1", "--That", "1", "--method", "lifshitz"]
SWEEP_ARGV = ["sweep", "--variable", "d", "--min", "1", "--max", "2", "--points", "2",
              "--fixed", "0.5", "--method", "lifshitz"]


def _figure_argv(fig):
    return ["figure", "--id", fig, "--points", "2", "--That-set", "1"]


DEFAULT_CASES = [
    (FORCE_ARGV, "--tol", "1e-9", "tol", 1e-10),
    (ENTROPY_ARGV, "--tol", "1e-5", "tol", 1e-6),
    (ENTROPY_ARGV, "--lambda", "50", "cutoff_lambda", 100.0),
    (SWEEP_ARGV, "--tol", "1e-9", "tol", 1e-10),
    (_figure_argv("1"), "--tol", "1e-9", "tol", 1e-10),
    (_figure_argv("3a"), "--tol", "1e-6", "tol", 1e-8),
    (_figure_argv("3b"), "--tol", "1e-5", "tol", 1e-6),
    (_figure_argv("3b"), "--lambda", "50", "cutoff_lambda", 100.0),
]


@pytest.mark.parametrize("argv, flag, value, key, default", DEFAULT_CASES, ids=[
    f"{argv[0]}{argv[2] if argv[0] == 'figure' else ''}{flag}" for argv, flag, *_ in DEFAULT_CASES])
def test_a_flag_wins_over_its_built_in_default(argv, flag, value, key, default, tmp_path,
                                               capsys):
    # the precedence is flags > built-in defaults, now that no file sits between
    code, meta = _effective(capsys, tmp_path, argv)
    assert (code, meta[key]) == (0, default)
    code, meta = _effective(capsys, tmp_path, [*argv, flag, value])
    assert (code, meta[key]) == (0, type(default)(value))


@pytest.mark.parametrize("argv", [FORCE_ARGV, SWEEP_ARGV], ids=["force", "sweep"])
def test_force_metadata_records_no_units(argv, tmp_path, capsys):
    # a force row's units are fixed by what produced it, and its units column
    # says which; the metadata once recorded a --units flag
    code, meta = _effective(capsys, tmp_path, argv)
    assert code == 0 and "units" not in meta


@pytest.mark.parametrize("command, flag, value", [
    ("force", "--tol", "tiny"), ("entropy", "--tol", "tiny"), ("entropy", "--lambda", "tiny"),
    ("sweep", "--tol", "tiny"), ("figure", "--tol", "tiny"), ("figure", "--lambda", "tiny"),
])
def test_a_bad_flag_value_is_a_usage_error(command, flag, value, capsys):
    # the checks a key=value config file once made of tol and cutoff_lambda
    # are the parser's alone: exit 2 before any row, no traceback
    required, _, _ = FLAGS[command]
    with pytest.raises(SystemExit) as exc:
        main([command, *required, flag, value])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert not out.out and f"{flag}: invalid" in out.err and repr(value) in out.err
    assert "Traceback" not in out.err


def test_the_asymptote_command_is_gone(capsys):
    # it printed the leading-order law -That/(4d) or -That/(2d) with err 0 and
    # converged=true, which is not the force; the force command computes it
    with pytest.raises(SystemExit) as exc:
        main(["asymptote", "--d", "100", "--That", "2"])
    assert exc.value.code == 2
    assert "invalid choice: 'asymptote'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["scattering", "--q", "1", "--d", "1"],
    ["force", "--d", "1", "--That", "1"],
    ["entropy", "--d", "1", "--That", "1", "--method", "lifshitz"],
    ["sweep", "--variable", "That", "--min", "0.5", "--max", "2", "--points", "2",
     "--fixed", "1", "--method", "lifshitz"],
    ["figure", "--id", "3a", "--points", "2", "--That-set", "1,2"],
], ids=lambda argv: argv[0])
def test_json_records_equal_the_csv_rows(argv, tmp_path, capsys):
    if argv[0] == "figure":
        argv = [*argv, "--out-dir", str(tmp_path)]
    code, csv_out, _ = run(capsys, *argv)
    code_json, json_out, _ = run(capsys, *argv, "--json")
    if argv[0] == "figure":
        csv_rows = [row for name in csv_out.split() for row in _rows(open(name).read())]
    else:
        csv_rows = _rows(csv_out)
    records = json.loads(json_out)["records"]
    assert code == code_json == 0
    assert len(records) == len(csv_rows) > 0
    assert [{k: cli._fmt(v) for k, v in rec.items()} for rec in records] == csv_rows


def test_entropy_rows_are_always_dimensionless(tmp_path, capsys):
    # a units convention scales forces; it once relabelled entropies too
    _, out, _ = run(capsys, "entropy", "--d", "1", "--That", "1")
    assert {r["units"] for r in _rows(out)} == {"raw_dimensionless"}
    assert run(capsys, "figure", "--id", "3b", "--points", "2", "--That-set", "1",
               "--out-dir", str(tmp_path))[0] == 0
    rows = _rows((tmp_path / "figure3b_That1.csv").read_text())
    assert {r["units"] for r in rows} == {"raw_dimensionless"}
