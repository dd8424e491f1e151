"""deltacasimir benchmark.

    python3 perfbench/run.py --workload force_sweep|entropy_grid|figure_cli \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
src/ directory, nothing is installed.  Every workload is a closed loop with
one caller: the next point is sent when the previous one returns.

With ``--trace 0`` the end-to-end metrics of BENCHMARK.json are measured
with tracing off.  Wall times are reported at a reference host speed (see
``calibrate``); the unscaled figures are printed alongside.  With
``--trace 1`` untraced and traced passes alternate, and the per-layer metrics
are read from the traced ones (see tracer.py).
Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracer
import workloads as wl

HERE = wl.HERE
ROOT = wl.ROOT
SRC = wl.SRC
WORKLOADS = ("force_sweep", "entropy_grid", "figure_cli")
SETUP_PROBES = 7
CHILD_TIMEOUT_S = 120
TAIL_BEYOND = 10           # samples the tail percentile leaves beyond it
# A run does a fixed amount of work, set from --seconds: round(seconds /
# pass_s) passes in process (see workloads.py), round(seconds / FIGURE_RUN_S)
# figure_cli invocations.  So the sample count, and with it the tail
# percentile, does not depend on how fast the host happens to be.
FIGURE_RUN_S = 1.2         # figure_cli: one invocation is one point
FIGURE_MIN_RUNS = 24
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

# Host speed.  On the shared host this benchmark was defined on, the same code
# runs up to 1.9x slower, in stretches from a fraction of a second to minutes.
# So each wall time is scaled by CAL_REF_S over the median time of a fixed
# calibration run next to it.  In process, a calibration follows every point,
# and a point is scaled by those that start within its own duration (at least
# CAL_NEAR_S) of it, the ones just before and after included: one calibration
# at the edge of a long point would say little about the host during it.  A
# child process is scaled by CAL_PER_CHILD calibrations on each side.
CAL_PY_LOOPS = 30_000
CAL_NP_LOOPS = 200
CAL_NP_X = np.linspace(0.1, 3.0, 1000)
CAL_REF_S = 4.5e-3         # calibrate()'s time on that host (2 vCPUs) in its fast state
CAL_NEAR_S = 0.01
CAL_PER_CHILD = 3


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python loop and a fixed loop of numpy
    operations on a small array, the two kinds of work the workloads do.
    Neither makes an allocation large enough to move the allocator's mmap or
    trim thresholds, so the workload's page faults stay as they were."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_PY_LOOPS):
        s += i * i % 7
    for i in range(CAL_NP_LOOPS):
        s += (np.sin(CAL_NP_X) * CAL_NP_X + 1.0)[i]
    return time.perf_counter() - t0


def speed_scale(cal_times) -> float:
    """Factor that takes a wall time measured next to these calibrations to
    the reference host speed."""
    return CAL_REF_S / statistics.median(cal_times)


def _calibrated(measure):
    """(measure(), scale): a child-process measurement between two sets of
    calibrations."""
    before = [calibrate() for _ in range(CAL_PER_CHILD)]
    out = measure()
    return out, speed_scale(before + [calibrate() for _ in range(CAL_PER_CHILD)])


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _run_child(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """Run a child to completion in its own process group; (seconds, result)."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, start_new_session=True) as proc:
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise
    dt = time.perf_counter() - t0
    return dt, subprocess.CompletedProcess(argv, proc.returncode, out, err)


def measure_setup(workload: str, first_point):
    """Fresh interpreters that import the package and return the workload's
    first point: (wall times, their scales, in-process import times)."""
    argv = [sys.executable, str(HERE / "probe.py"), workload]
    if first_point is not None:
        argv += [repr(first_point.d), repr(first_point.That)]
    _run_child(argv)   # writes the bytecode caches of a fresh checkout
    walls, scales, imports = [], [], []
    for _ in range(SETUP_PROBES):
        (dt, proc), scale = _calibrated(lambda: _run_child(argv))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        walls.append(dt)
        scales.append(scale)
        imports.append(json.loads(proc.stdout)["import_s"])
    return walls, scales, imports


def _scaled_median(values, scales) -> tuple[float, str]:
    """Median of the scaled values, and a note with the unscaled median."""
    return (statistics.median(v * k for v, k in zip(values, scales)),
            f"unscaled {statistics.median(values):.4g}, speed scale {statistics.median(scales):.3f}")


def tail(values) -> tuple[float, str]:
    """The highest percentile that leaves TAIL_BEYOND samples beyond it, and
    a note naming that percentile and the sample count."""
    ranked = sorted(values)
    n = len(ranked)
    if n <= TAIL_BEYOND:
        raise RuntimeError(f"{n} samples leave no tail beyond {TAIL_BEYOND}")
    return ranked[n - TAIL_BEYOND - 1], f"p{100.0 * (n - TAIL_BEYOND) / n:.4g}, n={n}, {TAIL_BEYOND} beyond"


class Report:
    """Collects metric lines for humans and values for the JSON result."""

    def __init__(self, units: dict[str, str]):
        self.units = units
        self.metrics: dict[str, dict] = {}

    def add(self, name: str, value, note: str = ""):
        unit = self.units[name]
        self.metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:<36} {value:>14.6g} {unit:<6} {note}")


def _failure_lines(verdicts, kinds=None):
    causes = Counter()
    for i, v in enumerate(verdicts):
        if not v.ok:
            kind = f"[{kinds[i]}] " if kinds else ""
            causes[kind + re.sub(r"\d[\d.e+-]*", "#", v.reason)] += 1
    for cause, n in causes.most_common(8):
        print(f"    {n:>5} x {cause}")


# ------------------------------------------------------------------ in-process

@dataclass
class Pass:
    """One pass over a workload's points: seconds per point, unscaled and
    scaled, and the results."""

    times: list[float]
    scaled: list[float]
    results: list

    @property
    def scaled_wall(self) -> float:
        return sum(self.scaled)


def _pass(workload, api, order) -> Pass:
    spans, results, cals = [], [], []   # cals: (start, seconds)
    cals.append((time.perf_counter(), calibrate()))
    for p in order:
        t0 = time.perf_counter()
        results.append(wl.run_point(workload, api, p))
        t1 = time.perf_counter()
        spans.append((t0, t1))
        cals.append((t1, calibrate()))
    scaled = []
    for t0, t1 in spans:
        near = max(t1 - t0, CAL_NEAR_S)
        scaled.append((t1 - t0) * speed_scale([c for start, c in cals
                                               if t0 - near <= start <= t1 + near]))
    return Pass([t1 - t0 for t0, t1 in spans], scaled, results)


def _verdicts(workload, order, passes, reference):
    return [wl.check_point(workload.name, p, r, reference)
            for ps in passes for p, r in zip(order, ps.results)]


def run_in_process(name: str, seed: int, seconds: float, trace: bool, report: Report):
    workload = wl.IN_PROCESS[name]
    reference = wl.load_reference()
    order = workload.inputs(seed)
    setup_walls, setup_scales, setup_imports = measure_setup(name, workload.first_point)
    wl.run_point(workload, wl.Api(), workload.first_point)   # warm-up, untimed

    untraced, traced, traced_stats = [], [], []
    if trace:
        rounds = max(MIN_TRACED_PASSES, round(seconds / (2 * workload.pass_s)))
    else:
        rounds = max(MIN_PASSES, round(seconds / workload.pass_s))
    for _ in range(rounds):
        untraced.append(_pass(workload, wl.Api(), order))
        if trace:
            tr = tracer.Tracer()
            with tracer.patched(tr):
                traced.append(_pass(workload, wl.traced_api(tr), order))
            traced_stats.append(tr.stats)

    verdicts = _verdicts(workload, order, untraced + traced, reference)
    attempted, failed, correct = wl.tally(verdicts)
    kinds = [p.kind for _ in untraced + traced for p in order]
    print(f"  points: {attempted} attempted, {failed} failed "
          f"(failed_frac {failed / attempted:.6g}); causes:")
    _failure_lines(verdicts, kinds)

    if trace:
        for ps in traced:
            if ps.results != untraced[0].results:
                print("  ERROR: traced values or evaluation counts differ from untraced")
                correct = False
        layers = [tracer.layer_metrics(s) for s in traced_stats]
        _report_layers(report, layers, f"{len(traced)} traced passes")
        report.add("setup.import_s", statistics.median(setup_imports),
                   f"median of {len(setup_imports)} fresh interpreters")
        overhead = (statistics.median(t.scaled_wall for t in traced)
                    / statistics.median(u.scaled_wall for u in untraced) - 1.0)
        report.add("trace.overhead_frac", overhead,
                   f"median traced / median untraced scaled pass wall - 1, "
                   f"{len(traced)}+{len(untraced)} passes")
    else:
        setup_s, note = _scaled_median(setup_walls, setup_scales)
        report.add("setup_s", setup_s,
                   f"median of {len(setup_walls)} fresh interpreters "
                   f"(import + first grid point {workload.first_point.key}); {note}")
        scaled = [u.scaled for u in untraced]
        raw = [u.times for u in untraced]

        def wall(passes):
            # point by point, so that a slow stretch of the shared host that
            # hits parts of a few passes does not carry whole passes with it
            return sum(statistics.median(ts[i] for ts in passes) for i in range(len(order)))

        report.add("wall_s", wall(scaled),
                   f"sum over {len(order)} points of each point's median over {len(untraced)} "
                   f"passes; unscaled {wall(raw):.4g}")
        times = [t for ts in scaled for t in ts]
        raw_times = [t for ts in raw for t in ts]
        report.add("point_p50_ms", 1e3 * statistics.median(times),
                   f"n={len(times)}; unscaled {1e3 * statistics.median(raw_times):.4g}")
        tail_s, note = tail(times)
        report.add("point_tail_ms", 1e3 * tail_s,
                   f"{note}; unscaled {1e3 * tail(raw_times)[0]:.4g}")
        report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                   "ru_maxrss of this process")
    return attempted, failed, correct


def _report_layers(report: Report, layers: list[dict], source: str, names=None):
    """Counts from the first traced pass (they must repeat exactly), times as
    the median over the traced passes."""
    first = layers[0]
    for name in names or [n for n in tracer.layer_names() if n in first]:
        if isinstance(first[name], int):
            if any(layer[name] != first[name] for layer in layers):
                print(f"  WARNING: {name} differs between traced passes")
            report.add(name, first[name], f"per pass; {source}")
        else:
            report.add(name, statistics.median(layer[name] for layer in layers),
                       f"median over {source}")


# ------------------------------------------------------------------ figure_cli

@dataclass
class Invocation:
    """One CLI process and the CSV rows it wrote."""

    wall: float                # seconds, unscaled
    scale: float               # speed_scale of the calibrations around it
    rows: dict
    verdicts: list
    layers: dict | None = None

    @property
    def scaled_wall(self) -> float:
        return self.scale * self.wall


def _figure_run(argv, out_dir: Path, reference) -> Invocation:
    for f in out_dir.glob("*"):
        f.unlink()
    (dt, proc), scale = _calibrated(lambda: _run_child(argv))
    rows = wl.read_figure(out_dir)
    verdicts = wl.check_figure(rows, reference)
    if proc.returncode not in (0, 3):
        why = f"exit code {proc.returncode}: {proc.stderr.strip()[-200:]}"
        verdicts = [wl.Verdict(why) for _ in verdicts]
    return Invocation(dt, scale, rows, verdicts)


def run_figure(seconds: float, trace: bool, report: Report):
    reference = wl.load_reference()
    setup_walls, setup_scales, setup_imports = measure_setup("figure_cli", None)
    # inside the checkout, not the system temporary directory: the benchmark
    # reads and writes nothing outside the tree it measures
    with tempfile.TemporaryDirectory(prefix="_run_", dir=HERE) as tmp:
        out_dir = Path(tmp) / "out"
        out_dir.mkdir()
        stats_path = out_dir / "stats.json"   # cleared with the CSVs before each run
        cli = [sys.executable, "-c", wl.CLI_MAIN]
        traced_cli = [sys.executable, str(HERE / "cli_trace.py"), str(stats_path)]
        plain_argv = cli + wl.figure_args(str(out_dir), jobs=2)
        print(f"  command: deltacasimir {' '.join(wl.figure_args('<scratch>', jobs=2))}")
        _figure_run(plain_argv, out_dir, reference)   # warm-up, untimed

        untraced, traced = [], {1: [], 2: []}
        if trace:
            rounds = max(MIN_TRACED_PASSES, round(seconds / (3 * FIGURE_RUN_S)))
        else:
            rounds = max(FIGURE_MIN_RUNS, round(seconds / FIGURE_RUN_S))
        for _ in range(rounds):
            untraced.append(_figure_run(plain_argv, out_dir, reference))
            if trace:
                for jobs in (2, 1):
                    argv = traced_cli + wl.figure_args(str(out_dir), jobs=jobs)
                    run = _figure_run(argv, out_dir, reference)
                    stats = json.loads(stats_path.read_text()) if stats_path.is_file() else {}
                    run.layers = tracer.layer_metrics(stats)
                    traced[jobs].append(run)

    all_runs = untraced + traced[1] + traced[2]
    verdicts = [v for run in all_runs for v in run.verdicts]
    attempted, failed, correct = wl.tally(verdicts)
    print(f"  CSV rows: {attempted} attempted over {len(all_runs)} invocations, {failed} failed "
          f"(failed_frac {failed / attempted:.6g}); causes:")
    _failure_lines(verdicts)

    if trace:
        for run in traced[1] + traced[2]:
            if run.rows != untraced[0].rows:
                print("  ERROR: traced CSV values or evaluation counts differ from untraced")
                correct = False
        cli_names = [n for n in tracer.layer_names() if n.startswith("cli.")]
        worker_names = [n for n in tracer.layer_names()
                        if not n.startswith(("cli.", "setup.", "trace."))]
        _report_layers(report, [r.layers for r in traced[1]], "'--jobs 1' traced runs",
                       worker_names)
        _report_layers(report, [r.layers for r in traced[2]], "'--jobs 2' traced runs",
                       cli_names)
        report.add("setup.import_s", statistics.median(setup_imports),
                   f"median of {len(setup_imports)} fresh interpreters importing deltacasimir.cli")
        overhead = (statistics.median(r.scaled_wall for r in traced[2])
                    / statistics.median(r.scaled_wall for r in untraced) - 1.0)
        report.add("trace.overhead_frac", overhead,
                   f"'--jobs 2' traced / untraced median scaled wall - 1, "
                   f"{len(traced[2])}+{len(untraced)} invocations")
    else:
        setup_s, note = _scaled_median(setup_walls, setup_scales)
        report.add("setup_s", setup_s, f"median of {len(setup_walls)} fresh interpreters "
                   f"importing deltacasimir.cli; {note}")
        walls = [r.scaled_wall for r in untraced]
        raw = [r.wall for r in untraced]
        wall_s, note = _scaled_median(raw, [r.scale for r in untraced])
        report.add("wall_s", wall_s, f"median of {len(walls)} invocations "
                   f"('--jobs 2', fresh process each); {note}")
        report.add("point_p50_ms", 1e3 * wall_s,
                   f"a point is one invocation, so this is wall_s again; n={len(walls)}")
        tail_s, note = tail(walls)
        report.add("point_tail_ms", 1e3 * tail_s, f"{note}; unscaled {1e3 * tail(raw)[0]:.4g}")
        report.add("peak_rss_mb", resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
                   "largest ru_maxrss among the CLI processes, their pool workers and the probes")
    return attempted, failed, correct


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report = Report(units)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    if args.workload == "figure_cli":
        # figure_cli's input does not depend on the seed (see workloads.figure_args)
        attempted, failed, correct = run_figure(args.seconds, bool(args.trace), report)
    else:
        attempted, failed, correct = run_in_process(args.workload, args.seed, args.seconds,
                                                    bool(args.trace), report)
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in wanted if n not in report.metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {n: report.metrics[n] for n in wanted}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
