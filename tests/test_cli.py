import json
import math
import os
import subprocess
import sys

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
    # the canonical value is 1.6e-13 from the exact entropy 0.8815900040215714
    # (oracles.entropy_identity); it was 0.88159000401963783, 1.9e-12 off, in
    # 112,695 evaluations, before the density left the real axis at one period
    code, out, _ = run(capsys, "entropy", "--d", "1", "--That", "1")
    assert code == 0
    assert out == (
        "d,That,method,lambda,value,err,evals,converged,units\n"
        "1,1,canonical,100,0.88159000402000065,2.5466427893355544e-07,7131,true,"
        "raw_dimensionless\n"
        "1,1,lifshitz,100,0.33434016119038013,3.1877591492660245e-23,6,true,"
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

    class CountingPool(cli.ProcessPoolExecutor):
        def __init__(self, *a, **kw):
            pools.append(self)
            super().__init__(*a, **kw)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", CountingPool)
    args = ["figure", "--id", "3a", "--points", "4"]
    serial, pooled = tmp_path / "serial", tmp_path / "pool"
    serial.mkdir()
    pooled.mkdir()
    assert run(capsys, *args, "--jobs", "1", "--out-dir", str(serial))[0] == 0
    assert not pools
    assert run(capsys, *args, "--jobs", "2", "--out-dir", str(pooled))[0] == 0
    assert len(pools) == 1
    names = sorted(f.name for f in serial.glob("*.csv"))
    assert len(names) == 3
    assert sorted(f.name for f in pooled.glob("*.csv")) == names
    for name in names:
        assert (serial / name).read_bytes() == (pooled / name).read_bytes()


def test_pool_is_capped_at_the_task_count(tmp_path, capsys, monkeypatch):
    widths = []

    class RecordingPool(cli.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *a, **kw):
            widths.append(max_workers)
            super().__init__(max_workers, *a, **kw)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", RecordingPool)
    assert run(capsys, "figure", "--id", "3b", "--points", "2", "--That-set", "1",
               "--jobs", "8", "--out-dir", str(tmp_path))[0] == 0
    assert widths == [2]


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
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split("\n")[-2] == "[]"
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
