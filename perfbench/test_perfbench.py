"""Self-tests of the benchmark: input generation, metric names, failure
counting and the traced run's fidelity.  Run with
``PYTHONPATH=src python -m pytest perfbench``."""
import json
import re

import pytest

import run
import tracer
import workloads as wl
from deltacasimir import forces, numerics, thermo

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.mark.parametrize("workload", sorted(wl.IN_PROCESS))
def test_seed_fixes_the_inputs(workload):
    w = wl.IN_PROCESS[workload]
    assert w.inputs(3) == w.inputs(3)
    assert w.inputs(3) != w.inputs(4)
    assert sorted(w.inputs(3), key=w.grid.index) == list(w.grid)


@pytest.mark.parametrize("workload", sorted(wl.IN_PROCESS))
def test_typed_share_does_not_depend_on_seed(workload):
    w = wl.IN_PROCESS[workload]
    counts = {sum(p.kind != "float" for p in w.inputs(seed)) for seed in range(20)}
    assert counts == {len(wl.FORCE_TYPED if workload == "force_sweep" else wl.ENTROPY_TYPED)}


def test_metric_names():
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [m["name"] for m in spec["per_layer"]] == tracer.layer_names()
    assert {w["name"] for w in spec["workloads"]} == set(wl.IN_PROCESS) | {"figure_cli"}


def test_non_converging_input_is_counted_failed():
    # integral That truncates the canonical Bose weight: converged=False
    p = wl.Point(wl.FORCE_D[4], 1.0, "int")
    verdict = wl.check_point("force_sweep", p, wl.run_point(wl.FORCE_SWEEP, wl.Api(), p),
                             wl.load_reference())
    assert not verdict.ok and "converged=False" in verdict.reason
    good = wl.Point(wl.FORCE_D[0], 0.5)
    ok = wl.check_point("force_sweep", good, wl.run_point(wl.FORCE_SWEEP, wl.Api(), good),
                        wl.load_reference())
    assert wl.tally([verdict, ok]) == (2, 1, True)


def test_value_off_reference_marks_the_run_incorrect():
    reference = wl.load_reference()
    rows = {that: [[d, v, 1, True] for d, v in values]
            for that, values in reference["figure_cli"]["values"].items()}
    assert wl.tally(wl.check_figure(rows, reference))[1:] == (0, True)
    rows["1"][7][1] += 1e-6
    assert wl.tally(wl.check_figure(rows, reference))[1:] == (1, False)


def test_traced_run_is_bit_identical_and_restores_the_modules():
    cases = [(wl.FORCE_SWEEP, wl.Point(wl.FORCE_D[3], 0.0)),
             (wl.FORCE_SWEEP, wl.Point(wl.FORCE_D[9], 0.5)),
             (wl.ENTROPY_GRID, wl.Point(wl.ENTROPY_D[2], 0.01))]
    originals = (numerics._gk_apply, thermo._adaptive_gk, forces.flux_deficit)
    plain = [wl.run_point(w, wl.Api(), p) for w, p in cases]
    tr = tracer.Tracer()
    with tracer.patched(tr):
        traced = [wl.run_point(w, wl.traced_api(tr), p) for w, p in cases]
    assert traced == plain
    assert (numerics._gk_apply, thermo._adaptive_gk, forces.flux_deficit) == originals
    layers = tracer.layer_metrics(tr.stats)
    assert layers["forces.calls"] == 4 and layers["thermo.entropy.calls"] == 2
    assert layers["numerics.tail.calls"] == 2 and layers["thermo.density.calls"] > 0
    assert layers["numerics.gk.panels"] > 0 and layers["numerics.adaptive.rounds"] >= 0


def test_tail_leaves_ten_samples_beyond():
    value, note = run.tail(range(1, 31))
    assert value == 20 and note.startswith("p66.67, n=30")
    with pytest.raises(RuntimeError):
        run.tail(range(10))
