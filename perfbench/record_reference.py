"""Record the float-input reference values the benchmark checks against.

Run from the repository root:  python3 perfbench/record_reference.py

Every grid point of every workload is evaluated with plain float inputs at
the library's default tolerances; the values, the tolerances they were
requested at, and the provenance line are written to perfbench/reference.json.
Re-recording is a benchmark change: do it only when the benchmark's grids
change, never to make a program change pass.
"""
from __future__ import annotations

import json
import platform
import sys

import numpy as np
import scipy

import workloads as wl
from deltacasimir import (
    ENTROPY_INNER_TOL,
    ENTROPY_TOL,
    FORCE_TOL,
    __version__,
    entropy_density_canonical,
)

LIFSHITZ_ENTROPY_TOL = 1e-12   # entropy_lifshitz's default tol

PROVENANCE = sys.argv[1] if len(sys.argv) > 1 else "unspecified source tree"


def _float_twins(workload):
    return [wl.Point(p.d, p.That) for p in workload.grid]


def _record_in_process(workload, tol):
    values = {}
    for p in _float_twins(workload):
        result = workload.evaluate(wl.Api(), p)
        for route, est in zip(wl.ROUTES, result):
            if not est.converged:
                raise SystemExit(f"{workload.name} {p.key} {route}: not converged")
        values[p.key] = {route: est.value for route, est in zip(wl.ROUTES, result)}
    reference = {"tol": tol, "values": values}
    for p in _float_twins(workload):
        verdict = wl.check_point(workload.name, p, workload.evaluate(wl.Api(), p),
                                 {workload.name: reference})
        if not verdict.ok:
            print(f"{workload.name} {p.key} fails a check: {verdict.reason}")
    return reference


def _record_figure():
    # the grid deltacasimir.cli uses for figure 3a
    grid = np.geomspace(0.5, 100.0, wl.FIGURE_ROWS)
    values = {}
    for that in wl.FIGURE_THAT:
        rows = []
        for dt in grid:
            dens = entropy_density_canonical(float(dt), that)
            if not dens.estimate.converged:
                raise SystemExit(f"figure 3a That={that} dtilde={dt}: not converged")
            rows.append([float(dt), dens.value])
        values[f"{that:g}"] = rows
    return {"tol": {"density": ENTROPY_INNER_TOL}, "values": values}


def main():
    reference = {
        "provenance": (f"Recorded by perfbench/record_reference.py from {PROVENANCE} "
                       f"(deltacasimir {__version__}, numpy {np.__version__}, "
                       f"scipy {scipy.__version__}, Python {platform.python_version()}, "
                       f"{platform.machine()} {platform.system()}) with float inputs "
                       "at the library's default tolerances."),
        "force_sweep": _record_in_process(
            wl.FORCE_SWEEP, {"canonical": FORCE_TOL, "lifshitz": FORCE_TOL}),
        "entropy_grid": _record_in_process(
            wl.ENTROPY_GRID, {"canonical": ENTROPY_TOL, "lifshitz": LIFSHITZ_ENTROPY_TOL}),
        "figure_cli": _record_figure(),
    }
    wl.REFERENCE_PATH.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {wl.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
