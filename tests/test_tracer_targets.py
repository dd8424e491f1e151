"""The benchmark's tracer (``perfbench/tracer.py``) times layers by replacing
package attributes by name.  Its self-test only patches ``numerics``,
``thermo`` and ``forces``, so a renamed or deleted target elsewhere would
crash only the traced figure run; this test reads the tracer's list and
checks every target."""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from deltacasimir import DimensionlessPoint, casimir_force, cli, entropy_canonical, \
    entropy_density_canonical, entropy_lifshitz, forces, free_energy_lifshitz, numerics, \
    scattering, thermo

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def _patches():
    return _tracer().PATCHES


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
    casimir_force(pt, "lifshitz")
    assert calls == ["deltacasimir.forces"]
    free_energy_lifshitz(pt)
    assert calls[1:] == ["deltacasimir.forces"]
    entropy_lifshitz(pt)
    assert calls[2:] == ["deltacasimir.thermo"] * 2


def test_cli_counters_see_every_task_and_every_csv(tmp_path, monkeypatch, capsys):
    # the tracer's cli.tasks is len(args[1]) of cli._run_tasks, its cli.write
    # span is one cli._write_csv call per file, and its thermo.density span
    # wraps cli.entropy_density_canonical.  Figure 3a is one task, with one
    # array density call per curve
    seen = {"tasks": [], "written": [], "density": 0}

    def run_tasks(fn, tasks, _orig=cli._run_tasks):
        seen["tasks"].append(len(tasks))
        return _orig(fn, tasks)

    def write_csv(stream, header, rows, _orig=cli._write_csv):
        seen["written"].append(len(rows))
        return _orig(stream, header, rows)

    def density(*args, _orig=cli.entropy_density_canonical, **kw):
        seen["density"] += 1
        return _orig(*args, **kw)

    monkeypatch.setattr(cli, "_run_tasks", run_tasks)
    monkeypatch.setattr(cli, "_write_csv", write_csv)
    monkeypatch.setattr(cli, "entropy_density_canonical", density)
    assert cli.main(["figure", "--id", "3a", "--points", "3", "--That-set", "1,2",
                     "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    files = list(tmp_path.glob("*.csv"))
    rows_on_disk = sum(len(f.read_text().strip().split("\n")) - 1 for f in files)
    assert seen["tasks"] == [1]
    assert len(seen["written"]) == seen["density"] == len(files) == 2
    assert sum(seen["written"]) == rows_on_disk == 6


def test_entropy_reaches_its_densities_only_through_the_traced_name():
    # the tracer's thermo.density span wraps thermo.entropy_density_canonical
    # and adds up estimate.evaluations: a canonical entropy that reached its
    # densities another way would empty the span without failing anything.
    # It makes one density call per round of its outer integral, which the
    # numerics.adaptive span sees as a call plus its rounds: two at
    # (0.5, 0.5), whose outer integral bisects once, and one at the cold
    # point of acceptance criterion 8, whose thermal-length seed edge leaves
    # nothing to bisect (it made three before that edge)
    tracer = _tracer()
    for (d, that), calls in (((0.5, 0.5), 2), ((1.0, 0.01), 1)):
        tr = tracer.Tracer()
        with tracer.patched(tr):
            est = entropy_canonical(DimensionlessPoint(d, that), 100.0).estimate
        density, outer = tr.stats["thermo.density"], tr.stats["numerics.adaptive"]
        assert outer["calls"] == 1 and density["calls"] == calls
        assert density["calls"] == outer["calls"] + outer["rounds"]
        assert density["evals"] == est.evaluations


def test_array_density_evaluations_are_a_plain_int():
    # the tracer's counter adds estimate.evaluations into a float; a numpy
    # array there would turn the density span's evals into an array
    # the CLI's evals column takes each separation's own count
    dens = entropy_density_canonical(np.array([0.5, 5.0, 50.0]), 1.0)
    est = dens.estimate
    assert type(est.evaluations) is int
    assert dens.evaluations.tolist() == [
        entropy_density_canonical(d, 1.0).estimate.evaluations for d in (0.5, 5.0, 50.0)]
    assert est.evaluations == sum(dens.evaluations.tolist())


def test_density_kernels_run_only_through_the_traced_names(monkeypatch):
    # the tracer's scattering.flux_deficit and numerics.thermal_weight spans
    # wrap forces.flux_deficit and thermo._thermal_weight_raw: a mode sum
    # whose kernel calls reached the functions another way would leave those
    # spans short without failing anything.  The density batch mixes a
    # real-axis q-integral (dtilde = 0.5) and a rotated one (dtilde = 100);
    # the lone canonical forces share the density's integrand
    kernels = {scattering.flux_deficit.__code__: (forces, "flux_deficit"),
               numerics._thermal_weight_raw.__code__: (thermo, "_thermal_weight_raw")}
    traced = {name: 0 for _, name in kernels.values()}
    run = {name: 0 for name in traced}
    for mod, name in kernels.values():
        def counting(*args, _orig=getattr(mod, name), _name=name):
            traced[_name] += 1
            return _orig(*args)

        monkeypatch.setattr(mod, name, counting)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in kernels:
            run[kernels[frame.f_code][1]] += 1

    sys.setprofile(profile)
    try:
        entropy_density_canonical(np.array([0.5, 100.0]), 0.5)
        casimir_force(DimensionlessPoint(1.0, 0.0), "canonical")
        casimir_force(DimensionlessPoint(1.0, 0.5), "canonical")
    finally:
        sys.setprofile(None)
    assert all(traced.values()) and run == traced
