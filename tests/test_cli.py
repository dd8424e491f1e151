import json
import math
import os
import re
import subprocess
import sys
from concurrent import futures

import pytest

from deltacasimir import DomainError, cli
from deltacasimir.cli import SweepSpec, main, run_sweep


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
    # became one adaptive integral.  The Lifshitz value is
    # 5.0e-17 from the exact 0.33434016119038013033 (mpmath, 40 digits) and
    # within its estimate; it was the correctly rounded value with an
    # estimate of 3.2e-23 from 6 terms before the series fixed its term count
    # in advance
    code, out, _ = run(capsys, "entropy", "--d", "1", "--That", "1")
    assert code == 0
    assert out == (
        "d,That,method,lambda,value,err,evals,converged,units\n"
        "1,1,canonical,100,0.88159000401977106,2.5466403324276239e-07,7026,true,"
        "raw_dimensionless\n"
        "1,1,lifshitz,100,0.33434016119038018,6.530502514019327e-17,4,true,"
        "raw_dimensionless\n")


def test_entropy_lifshitz_honours_tol(capsys):
    # --tol once left the Matsubara sums at their default: err 2.0e-12 here.
    # Each of the two series gets half the budget, so the row's err <= tol.
    code, out, _ = run(capsys, "entropy", "--d", "0.05", "--That", "0.001",
                       "--method", "lifshitz", "--tol", "2e-14")
    row = out.strip().split("\n")[1].split(",")
    assert (code, row[7]) == (0, "true") and float(row[5]) <= 2e-14


def test_empty_method_set_is_usage_error(capsys):
    code, _, err = run(capsys, "force", "--d", "1", "--That", "0", "--method", "")
    assert code == 2


def test_unknown_method_is_usage_error(capsys):
    code, _, _ = run(capsys, "force", "--d", "1", "--That", "0", "--method", "euclid")
    assert code == 2


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


def test_units_flag(capsys):
    _, raw, _ = run(capsys, "force", "--d", "1", "--That", "0", "--method", "lifshitz")
    _, fig2, _ = run(capsys, "force", "--d", "1", "--That", "0", "--method", "lifshitz",
                     "--units", "fig2_scale")
    v_raw = float(raw.strip().split("\n")[1].split(",")[3])
    v_fig2 = float(fig2.strip().split("\n")[1].split(",")[3])
    assert v_fig2 == pytest.approx(v_raw * 4.0 * math.pi, rel=1e-15)


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
    vals = [abs(float(ln.split(",")[3])) for ln in out.strip().split("\n")[1:]]
    assert vals[0] < vals[1] < vals[2]


def test_sweep_byte_determinism(tmp_path, capsys):
    args = ["sweep", "--variable", "d", "--min", "0.5", "--max", "4", "--points", "3",
            "--spacing", "log", "--fixed", "1", "--method", "both"]
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    run(capsys, *args, "--out", str(f1))
    run(capsys, *args, "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_sweep_jobs_pool_matches_serial(tmp_path, capsys):
    args = ["sweep", "--variable", "d", "--min", "1", "--max", "3", "--points", "3",
            "--fixed", "0.5", "--method", "both"]
    f1, f2 = tmp_path / "serial.csv", tmp_path / "pool.csv"
    run(capsys, *args, "--jobs", "1", "--out", str(f1))
    run(capsys, *args, "--jobs", "2", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_figure_runs_on_one_pool(tmp_path, capsys, monkeypatch):
    pools = []

    class CountingPool(futures.ProcessPoolExecutor):
        def __init__(self, *a, **kw):
            pools.append(self)
            super().__init__(*a, **kw)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", CountingPool)
    # figure 1 keeps one task per row, so its two curves share one pool
    args = ["figure", "--id", "1", "--points", "4"]
    serial, pooled = tmp_path / "serial", tmp_path / "pool"
    serial.mkdir()
    pooled.mkdir()
    assert run(capsys, *args, "--jobs", "1", "--out-dir", str(serial))[0] == 0
    assert not pools
    assert run(capsys, *args, "--jobs", "2", "--out-dir", str(pooled))[0] == 0
    assert len(pools) == 1
    names = sorted(f.name for f in serial.glob("*.csv"))
    assert len(names) == 2
    assert sorted(f.name for f in pooled.glob("*.csv")) == names
    for name in names:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


def test_figure3a_never_starts_a_pool(tmp_path, capsys, monkeypatch):
    # its curves are one task: three array density calls cost less than a pool
    class NoPool:
        def __init__(self, *a, **kw):
            raise AssertionError("figure 3a started a process pool")

    monkeypatch.setattr(futures, "ProcessPoolExecutor", NoPool)
    outputs = []
    for jobs in ("1", "2"):
        out_dir = tmp_path / jobs
        out_dir.mkdir()
        code, out, _ = run(capsys, "figure", "--id", "3a", "--jobs", jobs, "--json",
                           "--out-dir", str(out_dir))
        doc = json.loads(out)
        sidecar = json.loads((out_dir / "figure3a_meta.json").read_text())
        assert code == 0 and doc["meta"] == sidecar
        del sidecar["command"], sidecar["jobs"]
        csvs = {f.name: f.read_bytes() for f in out_dir.glob("*.csv")}
        outputs.append((doc["records"], sidecar, csvs))
    assert outputs[0] == outputs[1] and len(outputs[0][2]) == 3


def test_pool_is_capped_at_the_task_count(tmp_path, capsys, monkeypatch):
    widths = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *a, **kw):
            widths.append(max_workers)
            super().__init__(max_workers, *a, **kw)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    assert run(capsys, "figure", "--id", "3b", "--points", "2", "--That-set", "1",
               "--jobs", "8", "--out-dir", str(tmp_path))[0] == 0
    assert widths == [2]


def test_pool_dispatches_about_four_chunks_per_worker(tmp_path, capsys, monkeypatch):
    chunks = []

    class RecordingPool(futures.ProcessPoolExecutor):
        def map(self, fn, *iterables, chunksize=1, **kw):
            chunks.append(chunksize)
            return super().map(fn, *iterables, chunksize=chunksize, **kw)

    monkeypatch.setattr(futures, "ProcessPoolExecutor", RecordingPool)
    # figure 1 keeps one task per row: 2 x 8 rows on 2 workers, chunks of
    # ceil(16/8) = 2 rows
    assert run(capsys, "figure", "--id", "1", "--points", "8", "--jobs", "2",
               "--out-dir", str(tmp_path))[0] == 0
    assert chunks == [2]


def _fresh_python(code):
    """stdout of ``python -c code`` in a fresh interpreter that imports the
    package from this checkout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_serial_commands_never_import_the_process_pool():
    # the pool's module costs about 20 ms to import; only --jobs N > 1 needs it
    code = (
        "import sys\n"
        "import deltacasimir.cli\n"
        "print('concurrent.futures.process' in sys.modules)\n"
        "deltacasimir.cli.main(['force', '--d', '1', '--That', '1'])\n"
        "print('concurrent.futures.process' in sys.modules)\n"
    )
    out = _fresh_python(code).split("\n")
    assert (out[0], out[-2]) == ("False", "False")


def test_runtime_never_imports_scipy(tmp_path):
    # a fresh interpreter runs every path that used to load scipy: the CLI
    # import, canonical forces at zero and finite temperature (the tail's
    # Si/Ci cross-check), the cosine integral and a pooled figure
    code = (
        "import sys\n"
        "import deltacasimir.cli\n"
        "from deltacasimir import DimensionlessPoint, casimir_force, cosine_integral\n"
        "for that in (0.0, 0.5):\n"
        "    assert casimir_force(DimensionlessPoint(1.0, that), 'canonical').estimate.converged\n"
        "cosine_integral(2.0)\n"
        "assert deltacasimir.cli.main(['figure', '--id', '1', '--points', '3', '--jobs', '2',\n"
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
    assert set(meta) == {"tool", "version", "command", "q", "d", "schema",
                         "max_closed_vs_solve"}


@pytest.mark.parametrize("fig, flags", [("1", {"units"}), ("3a", set()),
                                        ("3b", {"cutoff_lambda"})])
def test_figure_meta_records_units_and_lambda_only_where_rows_read_them(
        tmp_path, capsys, fig, flags):
    assert run(capsys, "figure", "--id", fig, "--points", "2", "--That-set", "1",
               "--out-dir", str(tmp_path))[0] == 0
    meta = json.loads((tmp_path / f"figure{fig}_meta.json").read_text())
    assert "defaults" not in meta
    assert {"tol", "jobs"} | flags <= set(meta)
    assert not ({"units", "cutoff_lambda"} - flags) & set(meta)


def test_figure_checks_its_out_dir_before_computing(tmp_path, capsys, monkeypatch):
    # it once computed every row and then failed to open the first CSV
    calls = []
    run_tasks = cli._run_tasks
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: calls.append(a) or run_tasks(*a))
    code, out, err = run(capsys, "figure", "--id", "3b", "--points", "2", "--That-set", "1",
                         "--out-dir", str(tmp_path / "missing"))
    assert code == 2 and not calls and not out
    assert "missing" in err


@pytest.mark.parametrize("fig", ["2", "3a"])
@pytest.mark.parametrize("flag, value", [("--points", "0"), ("--points", "-3"),
                                         ("--That-set", "1,,2"), ("--That-set", "one"),
                                         ("--That-set", "1,1"), ("--That-set", "0.5,0.5000001"),
                                         ("--That-set", "")])
def test_figure_rejects_bad_grid_inputs(fig, flag, value, tmp_path, capsys, monkeypatch):
    # --points 0 once gave the default 48 points, --points -3 and an empty
    # --That-set entry a traceback; 1,1 wrote one CSV twice and listed it twice
    # in the sidecar, 0.5,0.5000001 (both 0.5 under :g) overwrote a curve, and
    # an empty --That-set ran the default set
    calls = []
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: calls.append(a))
    code, out, err = run(capsys, "figure", "--id", fig, flag, value,
                         "--out-dir", str(tmp_path))
    assert code == 2 and not calls and not out and not list(tmp_path.iterdir())
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("jobs", ["0", "-3"])
@pytest.mark.parametrize("via_config", [False, True])
@pytest.mark.parametrize("argv", [
    ["figure", "--id", "3a", "--points", "2", "--That-set", "1"],
    ["sweep", "--variable", "d", "--min", "1", "--max", "2", "--points", "2",
     "--fixed", "0.5", "--method", "lifshitz"],
], ids=lambda argv: argv[0])
def test_jobs_below_one_is_rejected(argv, via_config, jobs, tmp_path, capsys, monkeypatch):
    # both once ran serially: `args.jobs or 1` made 0 into 1, and _run_tasks
    # ran anything at or below 1 in process
    calls = []
    monkeypatch.setattr(cli, "_run_tasks", lambda *a: calls.append(a))
    if via_config:
        cfg = tmp_path / "jobs.conf"
        cfg.write_text(f"jobs={jobs}\n")
        extra = ["--config", str(cfg)]
    else:
        extra = ["--jobs", jobs]
    if argv[0] == "figure":
        extra += ["--out-dir", str(tmp_path)]
    code, out, err = run(capsys, *argv, *extra)
    assert code == 2 and not calls and not out
    assert err.startswith("error: ") and "--jobs" in err


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
    rows = cli._density_rows(([0.5, 5.0], (1.0, 2.0), 1e-8))
    assert [row[:2] for row in rows] == [[0.5, 1.0], [5.0, 1.0], [0.5, 2.0], [5.0, 2.0]]
    assert {type(x) for row in rows for x in row} == {float, int, bool}


def test_sweep_spec_type():
    spec = SweepSpec(variable="That", min=0.5, max=2.0, points=3, spacing="log",
                     fixed=1.0, methods=("lifshitz",))
    rows = run_sweep(spec)
    assert len(rows) == 3
    assert [r[1] for r in rows] == pytest.approx([0.5, 1.0, 2.0])
    with pytest.raises(DomainError):
        SweepSpec(variable="x", min=1.0, max=2.0, points=2)
    with pytest.raises(DomainError):
        SweepSpec(variable="d", min=1.0, max=2.0, points=1)
    with pytest.raises(DomainError):
        SweepSpec(variable="d", min=-1.0, max=2.0, points=2)
    with pytest.raises(DomainError):
        SweepSpec(variable="d", min=1.0, max=2.0, points=2, methods=("plasma",))


def test_sweep_validation(capsys):
    code, _, _ = run(capsys, "sweep", "--variable", "d", "--min", "2", "--max", "1",
                     "--points", "2", "--fixed", "0", "--method", "canonical")
    assert code == 2
    code, _, _ = run(capsys, "sweep", "--variable", "d", "--min", "-1", "--max", "1",
                     "--points", "2", "--fixed", "0", "--method", "canonical")
    assert code == 2


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


def test_asymptote_subcommand(capsys):
    code, out, _ = run(capsys, "asymptote", "--d", "100", "--That", "2")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().split("\n")[1:]]
    vals = {r[2]: float(r[3]) for r in rows}
    assert vals["canonical"] == pytest.approx(-0.005, rel=1e-12)
    assert vals["lifshitz"] == pytest.approx(-0.01, rel=1e-12)


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "dc.conf"
    cfg.write_text("units=fig2_scale\n# comment\ntol=1e-8\n")
    _, out, _ = run(capsys, "force", "--d", "1", "--That", "0", "--method", "lifshitz",
                    "--config", str(cfg))
    row = out.strip().split("\n")[1].split(",")
    assert row[7] == "fig2_scale"
    # explicit flag wins over the config file
    _, out2, _ = run(capsys, "force", "--d", "1", "--That", "0", "--method", "lifshitz",
                     "--config", str(cfg), "--units", "raw_dimensionless")
    assert out2.strip().split("\n")[1].split(",")[7] == "raw_dimensionless"


@pytest.mark.parametrize("argv, key", [
    (["force", "--d", "1", "--That", "0", "--method", "lifshitz"], "tol"),
    (["entropy", "--d", "1", "--That", "1", "--method", "lifshitz"], "cutoff_lambda"),
    (["sweep", "--variable", "d", "--min", "1", "--max", "2", "--points", "2",
      "--fixed", "0.5", "--method", "lifshitz"], "jobs"),
], ids=lambda x: x if isinstance(x, str) else x[0])
def test_non_numeric_config_value_is_an_error_line(argv, key, tmp_path, capsys):
    # a ValueError traceback with exit 1 while the cast ran outside DomainError
    cfg = tmp_path / "dc.conf"
    cfg.write_text(f"{key}=tiny\n")
    code, out, err = run(capsys, *argv, "--config", str(cfg))
    assert code == 2 and not out
    assert err.startswith("error: ") and key in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["entropy", "--d", "1", "--That", "1", "--method", "lifshitz"],
    ["figure", "--id", "3a", "--points", "2", "--That-set", "1", "--out-dir", "."],
], ids=lambda x: x[0])
@pytest.mark.parametrize("key", ["lambda", "tolerance"])
def test_unknown_config_key_is_an_error_line(argv, key, tmp_path, capsys, monkeypatch):
    # they were dropped without a word: lambda=5 left Lambda at 100, exit 0
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dc.conf").write_text(f"{key}=5\n")
    code, out, err = run(capsys, *argv, "--config", "dc.conf")
    assert code == 2 and not out and not list(tmp_path.glob("*.csv"))
    assert err.startswith("error: ") and repr(key) in err
    assert "tol, cutoff_lambda, jobs, units, out" in err


def test_a_known_config_key_the_command_does_not_read_is_accepted(tmp_path, capsys):
    # one file can serve every subcommand: force reads no jobs
    cfg = tmp_path / "dc.conf"
    cfg.write_text("jobs=2\ncutoff_lambda=50\n")
    code, out, _ = run(capsys, "force", "--d", "1", "--method", "lifshitz",
                       "--config", str(cfg))
    assert code == 0 and out


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


def test_lifshitz_force_at_huge_temperature_exits_0(capsys):
    # nan,nan,1,false after a RuntimeWarning while That a overflowed
    code, out, _ = run(capsys, "force", "--d", "5", "--That", "1e300", "--method", "lifshitz")
    assert code == 0 and out.strip().endswith(",true,raw_dimensionless")
    assert "nan" not in out


def test_scattering_with_an_infinite_phase_is_an_error_line(capsys):
    # 2 q d overflows: a ValueError traceback with exit 1 before the phase check
    code, out, err = run(capsys, "scattering", "--q", "1e76", "--d", "1e240")
    assert code == 2 and not out
    assert err.startswith("error: ") and "phase" in err and "Traceback" not in err


def _rows(csv_text):
    lines = csv_text.strip().split("\n")
    return [dict(zip(lines[0].split(","), ln.split(","))) for ln in lines[1:]]


def test_force_err_is_in_the_units_of_value(capsys):
    # fig2_scale once rescaled the value but left err in hbar*gamma^2/v^3
    argv = ["force", "--d", "1", "--That", "1"]
    raw = _rows(run(capsys, *argv)[1])
    fig2 = _rows(run(capsys, *argv, "--units", "fig2_scale")[1])
    scale = cli.UnitsConvention.FIG2_SCALE
    for r, f in zip(raw, fig2):
        assert float(f["err"]) == scale.apply(float(r["err"]))
        assert float(f["err"]) == pytest.approx(4.0 * math.pi * float(r["err"]), rel=1e-15)
        assert float(f["value"]) == scale.apply(float(r["value"]))


@pytest.mark.parametrize("fig, default_tol, tol", [("3a", 1e-8, 1e-6), ("3b", 1e-6, 1e-4)])
@pytest.mark.parametrize("via_config", [False, True])
def test_figure_honours_tol(fig, default_tol, tol, via_config, tmp_path, capsys):
    # --tol once reached only figures 1 and 2; 3a and 3b ran at fixed defaults
    def evals_and_meta(*extra):
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        out.mkdir()
        assert main(["figure", "--id", fig, "--points", "2", "--That-set", "1",
                     "--out-dir", str(out), *extra]) == 0
        capsys.readouterr()
        rows = _rows((out / f"figure{fig}_That1.csv").read_text())
        meta = json.loads((out / f"figure{fig}_meta.json").read_text())
        return [int(r["evals"]) for r in rows], meta["tol"]

    if via_config:
        cfg = tmp_path / "tol.conf"
        cfg.write_text(f"tol={tol}\n")
        extra = ["--config", str(cfg)]
    else:
        extra = ["--tol", str(tol)]
    default_evals, default_meta_tol = evals_and_meta()
    evals, meta_tol = evals_and_meta(*extra)
    assert (default_meta_tol, meta_tol) == (default_tol, tol)
    assert all(e < d for e, d in zip(evals, default_evals))


# each subcommand's inputs, the flags it reads (with a value, or None for a
# switch) and the shared flags it does not take
FLAGS = {
    "scattering": (["--q", "1", "--d", "1"],
                   {"--out": "x.csv", "--json": None, "--config": "c"},
                   ["--tol", "--units", "--jobs"]),
    "force": (["--d", "1"],
              {"--tol": "1e-9", "--units": "fig2_scale", "--out": "x.csv", "--json": None,
               "--config": "c", "--That": "1", "--method": "lifshitz"},
              ["--jobs"]),
    "entropy": (["--d", "1", "--That", "1"],
                {"--tol": "1e-6", "--out": "x.csv", "--json": None, "--config": "c",
                 "--method": "lifshitz", "--lambda": "50", "--zero-mode": None,
                 "--no-zero-mode": None},
                ["--units", "--jobs"]),
    # figure has no --out: argparse reads it as the prefix of --out-dir
    "figure": (["--id", "3a"],
               {"--tol": "1e-8", "--units": "fig2_scale", "--json": None, "--jobs": "2",
                "--config": "c", "--out-dir": ".", "--points": "2", "--That-set": "1",
                "--lambda": "50"},
               []),
    "sweep": (["--variable", "d", "--min", "1", "--max", "2", "--points", "2", "--fixed", "0"],
              {"--tol": "1e-9", "--units": "fig2_scale", "--out": "x.csv", "--json": None,
               "--jobs": "2", "--config": "c", "--spacing": "log", "--method": "lifshitz"},
              []),
    "asymptote": (["--d", "100", "--That", "2"],
                  {"--units": "fig2_scale", "--out": "x.csv", "--json": None, "--config": "c",
                   "--method": "lifshitz"},
                  ["--tol", "--jobs"]),
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


@pytest.mark.parametrize("argv", [
    ["scattering", "--q", "1", "--d", "1"],
    ["force", "--d", "1", "--That", "1", "--units", "fig2_scale"],
    ["entropy", "--d", "1", "--That", "1", "--method", "lifshitz"],
    ["sweep", "--variable", "That", "--min", "0.5", "--max", "2", "--points", "2",
     "--fixed", "1", "--method", "lifshitz"],
    ["asymptote", "--d", "100", "--That", "2"],
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
    cfg = tmp_path / "units.conf"
    cfg.write_text("units=fig2_scale\n")
    _, out, _ = run(capsys, "entropy", "--d", "1", "--That", "1", "--config", str(cfg))
    assert {r["units"] for r in _rows(out)} == {"raw_dimensionless"}
    assert run(capsys, "figure", "--id", "3b", "--points", "2", "--That-set", "1",
               "--units", "fig2_scale", "--out-dir", str(tmp_path))[0] == 0
    rows = _rows((tmp_path / "figure3b_That1.csv").read_text())
    assert {r["units"] for r in rows} == {"raw_dimensionless"}
