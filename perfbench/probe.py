"""Set-up probe: a fresh interpreter imports deltacasimir and returns the
workload's first point.

    python3 perfbench/probe.py force_sweep D THAT
    python3 perfbench/probe.py entropy_grid D THAT
    python3 perfbench/probe.py figure_cli          (import of deltacasimir.cli only)

The package must be importable (the benchmark puts src/ on PYTHONPATH).
Prints {"import_s": <in-process import time>} on stdout.
"""
import json
import sys
import time

t0 = time.perf_counter()
workload = sys.argv[1]
if workload == "figure_cli":
    import deltacasimir.cli  # noqa: F401
    import_s = time.perf_counter() - t0
else:
    import deltacasimir as dc
    import_s = time.perf_counter() - t0
    point = dc.DimensionlessPoint(float(sys.argv[2]), float(sys.argv[3]))
    if workload == "force_sweep":
        for route in ("canonical", "lifshitz"):
            dc.casimir_force(point, route)
    elif workload == "entropy_grid":
        dc.entropy_canonical(point, 100.0)
        dc.entropy_lifshitz(point, 100.0, include_zero_mode=True)
    else:
        sys.exit(f"unknown workload {workload!r}")
print(json.dumps({"import_s": import_s}))
