"""The benchmark's tracer (``perfbench/tracer.py``) times layers by replacing
package attributes by name.  Its self-test only patches ``numerics``,
``thermo`` and ``forces``, so a renamed or deleted target elsewhere would
crash only the traced figure run; this test reads the tracer's list and
checks every target."""
import importlib
import importlib.util
from pathlib import Path

from deltacasimir import DimensionlessPoint, cli, entropy_lifshitz, force_finite_t_lifshitz, \
    forces, free_energy_lifshitz, thermo

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.PATCHES


def test_every_tracer_patch_target_is_bound():
    patches = _patches()
    assert patches
    for mod_name, attr, *_ in patches:
        mod = importlib.import_module(f"deltacasimir.{mod_name}")
        assert callable(getattr(mod, attr, None)), f"deltacasimir.{mod_name}.{attr}"


def test_every_matsubara_series_goes_through_a_traced_name(monkeypatch):
    # the tracer's numerics.series span wraps forces.sum_exponential_series
    # and thermo.sum_exponential_series: a caller that reached the engine
    # through numerics would empty the span without failing anything
    calls = []
    for mod in (forces, thermo):
        def counting(*args, _engine=mod.sum_exponential_series, _name=mod.__name__, **kw):
            calls.append(_name)
            return _engine(*args, **kw)

        monkeypatch.setattr(mod, "sum_exponential_series", counting)
    pt = DimensionlessPoint(1.0, 0.5)
    force_finite_t_lifshitz(pt)
    assert calls == ["deltacasimir.forces"]
    free_energy_lifshitz(pt)
    assert calls[1:] == ["deltacasimir.forces"]
    entropy_lifshitz(pt)
    assert calls[2:] == ["deltacasimir.thermo"] * 2


def test_cli_counters_see_every_task_and_every_csv(tmp_path, monkeypatch, capsys):
    # the tracer's cli.tasks is len(args[1]) of cli._run_tasks, its cli.write
    # span is one cli._write_csv call per file, and under --jobs 1 its
    # thermo.density span wraps cli.entropy_density_canonical
    seen = {"tasks": [], "written": [], "density": 0}

    def run_tasks(fn, tasks, jobs, _orig=cli._run_tasks):
        seen["tasks"].append(len(tasks))
        return _orig(fn, tasks, jobs)

    def write_csv(stream, header, rows, _orig=cli._write_csv):
        seen["written"].append(len(rows))
        return _orig(stream, header, rows)

    def density(*args, _orig=cli.entropy_density_canonical, **kw):
        seen["density"] += 1
        return _orig(*args, **kw)

    monkeypatch.setattr(cli, "_run_tasks", run_tasks)
    monkeypatch.setattr(cli, "_write_csv", write_csv)
    monkeypatch.setattr(cli, "entropy_density_canonical", density)
    assert cli.main(["figure", "--id", "3a", "--points", "2", "--That-set", "1",
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    files = list(tmp_path.glob("*.csv"))
    rows_on_disk = sum(len(f.read_text().strip().split("\n")) - 1 for f in files)
    assert seen["tasks"] == [rows_on_disk] == [2]
    assert len(seen["written"]) == len(files) == 1
    assert sum(seen["written"]) == seen["density"] == rows_on_disk
