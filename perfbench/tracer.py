"""Layer spans recorded from outside the deltacasimir package.

The package is not edited: during a traced run the module attributes listed
in ``PATCHES`` are replaced by timing wrappers and put back afterwards.
Names bound by ``from .x import y`` are looked up in the importing module,
so those are patched there (``forces.flux_deficit``, ``thermo._adaptive_gk``,
...).  Spans nest through a stack; a span's self time is its duration minus
the time covered by its child spans.

Integrand closures defined inside ``forces`` and ``thermo`` cannot be
wrapped from outside, so their own arithmetic lands in the self time of the
``numerics.gk`` span that calls them.
"""
from __future__ import annotations

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

ADAPTIVE = "numerics.adaptive"


def _count_points(st, args, out, frame, parent):
    st["points"] += np.size(args[0])


def _count_gk(st, args, out, frame, parent):
    st["panels"] += np.size(args[1])
    if parent is not None and parent[2] == ADAPTIVE:
        parent[1] += 1


def _count_adaptive(st, args, out, frame, parent):
    # frame[1] counts the _gk_apply calls made directly by this span: the
    # seeding call plus one per refinement round
    st["rounds"] += frame[1] - 1
    st["converged"] += bool(out[3])


def _count_estimate(st, args, out, frame, parent):
    st["evals"] += out.evaluations
    st["converged"] += bool(out.converged)


def _count_terms(st, args, out, frame, parent):
    st["terms"] += len(args[0])


def _count_series(st, args, out, frame, parent):
    st["terms"] += out.evaluations


def _count_density(st, args, out, frame, parent):
    st["evals"] += out.estimate.evaluations


def _count_tasks(st, args, out, frame, parent):
    st["tasks"] += len(args[1])


def count_canonical(st, args, out, frame, parent):
    """Counter for the benchmark's own entropy_canonical span."""
    st["canonical"] += 1


# (module, attribute, span name, counter)
PATCHES = [
    ("numerics", "_gk_apply", "numerics.gk", _count_gk),
    ("numerics", "_adaptive_gk", ADAPTIVE, _count_adaptive),
    ("thermo", "_adaptive_gk", ADAPTIVE, _count_adaptive),
    ("numerics", "_wynn_epsilon", "numerics.wynn", _count_terms),
    ("numerics", "sici", "numerics.sici", None),
    ("numerics", "_thermal_weight_raw", "numerics.thermal_weight", _count_points),
    ("thermo", "_thermal_weight_raw", "numerics.thermal_weight", _count_points),
    ("forces", "flux_deficit", "scattering.flux_deficit", _count_points),
    ("thermo", "flux_deficit", "scattering.flux_deficit", _count_points),
    ("forces", "integrate_oscillatory_tail", "numerics.tail", _count_estimate),
    ("forces", "integrate_smooth_semi_infinite", "numerics.smooth", _count_estimate),
    ("forces", "sum_exponential_series", "numerics.series", _count_series),
    ("thermo", "sum_exponential_series", "numerics.series", _count_series),
    ("thermo", "entropy_density_canonical", "thermo.density", _count_density),
    ("cli", "entropy_density_canonical", "thermo.density", _count_density),
    ("cli", "_run_tasks", "cli.run_tasks", _count_tasks),
    ("cli", "_write_csv", "cli.write", None),
]

# span -> fields reported as "<span>.<field>"; converged_frac is converged/calls
LAYERS = {
    "scattering.flux_deficit": ("calls", "points", "self_s"),
    "numerics.gk": ("calls", "panels", "self_s"),
    ADAPTIVE: ("calls", "rounds", "converged_frac", "self_s"),
    "numerics.tail": ("calls", "evals", "converged_frac", "self_s"),
    "numerics.wynn": ("calls", "terms", "self_s"),
    "numerics.sici": ("calls", "self_s"),
    "numerics.thermal_weight": ("calls", "points", "self_s"),
    "numerics.smooth": ("calls", "evals", "self_s"),
    "numerics.series": ("calls", "terms", "self_s"),
    "forces": ("calls", "self_s"),
    "thermo.entropy": ("calls", "self_s"),
    "thermo.density": ("calls", "evals", "self_s"),
}
# metrics made by the runner rather than read from one span
DERIVED = ("thermo.density_per_entropy", "cli.tasks", "cli.run_tasks_s", "cli.write_s",
           "setup.import_s", "trace.overhead_frac")


class Tracer:
    """Collects per-span call counts, self time and work counters."""

    def __init__(self):
        self._stack: list[list] = []
        self.stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))

    def span(self, name, fn, count=None):
        """Return ``fn`` wrapped in a span called ``name``."""
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, 0, name]   # child time, gk children, span name
            parent = stack[-1] if stack else None
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if parent is not None:
                    parent[0] += dt
                st = stats[name]
                st["calls"] += 1
                st["self_s"] += dt - frame[0]
                st["total_s"] += dt
            if count is not None:
                count(stats[name], args, out, frame, parent)
            return out

        wrapper.__wrapped__ = fn
        return wrapper


@contextmanager
def patched(tracer: Tracer, with_cli: bool = False):
    """Install the ``PATCHES`` wrappers for the duration of the block."""
    names = {"numerics", "thermo", "forces"} | ({"cli"} if with_cli else set())
    mods = {n: importlib.import_module(f"deltacasimir.{n}") for n in names}
    saved = []
    try:
        for mod_name, attr, span, count in PATCHES:
            if mod_name in mods:
                mod = mods[mod_name]
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, tracer.span(span, orig, count))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)


def layer_metrics(stats) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except setup.import_s and
    trace.overhead_frac, which the runner measures.  A ratio whose base
    count is zero reads 0."""
    def get(span, field):
        return stats.get(span, {}).get(field, 0)

    out: dict[str, float] = {}
    for span, fields in LAYERS.items():
        for field in fields:
            if field == "converged_frac":
                calls = get(span, "calls")
                out[f"{span}.{field}"] = get(span, "converged") / calls if calls else 0.0
            elif field == "self_s":
                out[f"{span}.{field}"] = float(get(span, field))
            else:
                out[f"{span}.{field}"] = int(get(span, field))
    canonical = get("thermo.entropy", "canonical")
    out["thermo.density_per_entropy"] = get("thermo.density", "calls") / canonical if canonical else 0.0
    out["cli.tasks"] = int(get("cli.run_tasks", "tasks"))
    out["cli.run_tasks_s"] = float(get("cli.run_tasks", "total_s"))
    out["cli.write_s"] = float(get("cli.write", "total_s"))
    return out


def layer_names() -> list[str]:
    """Every per-layer metric name the benchmark reports, in report order."""
    names = [f"{span}.{field}" for span, fields in LAYERS.items() for field in fields]
    return names + list(DERIVED)


def plain(stats) -> dict:
    """Stats as nested plain dicts, for JSON."""
    return {k: dict(v) for k, v in stats.items()}
