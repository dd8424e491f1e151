"""Command-line front end.

Subcommands: ``scattering``, ``force``, ``entropy``, ``figure``, ``sweep``.
Every numeric row echoes its inputs; CSV output uses '.' decimals and 17
significant digits so identical command lines reproduce identical bytes.
A metadata sidecar (<out>.meta.json) records the tool version and the full
effective configuration.  Exit codes: 0 success, 2 usage or domain error,
3 numerical non-convergence (rows are still emitted, flagged converged=false).

Configuration precedence: command-line flags > --config file (key=value
lines) > built-in defaults.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import DomainError
from .forces import DEFAULT_CUTOFF_LAMBDA, FORCE_TOL, asymptotic_force, casimir_force
from .model import DimensionlessPoint, UnitsConvention
from .scattering import coefficients_closed_form, coefficients_linear_solve, kernel
from .thermo import (
    ENTROPY_TOL,
    entropy_canonical,
    entropy_density_canonical,
    entropy_lifshitz,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGED = 3


@dataclass(frozen=True)
class SweepSpec:
    """One-variable force sweep: grid, fixed coordinate, methods, knobs."""

    variable: str                  # "d" or "That"
    min: float
    max: float
    points: int
    spacing: str = "linear"        # or "log"
    fixed: float = 0.0
    methods: tuple[str, ...] = ("canonical", "lifshitz")
    tol: float = FORCE_TOL

    def __post_init__(self):
        if self.variable not in ("d", "That"):
            raise DomainError(f"variable must be 'd' or 'That', got {self.variable!r}")
        if self.spacing not in ("linear", "log"):
            raise DomainError(f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if not (math.isfinite(self.min) and math.isfinite(self.max) and self.min < self.max):
            raise DomainError("sweep requires min < max")
        if self.points < 2:
            raise DomainError("sweep requires points >= 2")
        if self.min <= 0 and (self.spacing == "log" or self.variable == "d"):
            raise DomainError("sweep minimum must be positive for d and for log spacing")
        if not self.methods:
            raise DomainError("empty method set")
        for m in self.methods:
            if m not in ("canonical", "lifshitz"):
                raise DomainError(f"unknown method {m!r}")

    def grid(self):
        return _grid(self.min, self.max, self.points, self.spacing)


@dataclass(frozen=True)
class OutputRecord:
    """One numeric result row with its full input provenance."""

    d: float
    That: float
    method: str
    value: float
    err: float
    evals: int
    converged: bool
    units: str
    cutoff_lambda: float | None = None

    def force_row(self):
        return [self.d, self.That, self.method, self.value, self.err,
                self.evals, self.converged, self.units]

    def entropy_row(self):
        return [self.d, self.That, self.method, self.cutoff_lambda, self.value,
                self.err, self.evals, self.converged, self.units]

FORCE_SCHEMA = ["d", "That", "method", "value", "err", "evals", "converged", "units"]
ENTROPY_SCHEMA = ["d", "That", "method", "lambda", "value", "err", "evals",
                  "converged", "units"]
DENSITY_SCHEMA = ["dtilde", "That", "value", "err", "evals", "converged"]
SCATTERING_SCHEMA = ["q", "d", "B_re", "B_im", "C_re", "C_im", "D_re", "D_im",
                     "G_re", "G_im", "unitarity", "flux", "kernel"]

DEFAULTS = {
    "tol": FORCE_TOL,
    "entropy_tol": ENTROPY_TOL,
    "cutoff_lambda": DEFAULT_CUTOFF_LAMBDA,
    "units": "raw_dimensionless",
    "jobs": 1,
    "zero_mode": True,
    "figure_that_set": (0.5, 1.0, 2.0),
}


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _write_csv(stream, header, rows):
    w = csv.writer(stream, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(x) for x in row])


def _emit(rows, header, args, meta):
    """Print records (CSV or JSON) and optionally write CSV + sidecar."""
    if getattr(args, "json", False):
        recs = [dict(zip(header, row)) for row in rows]
        print(json.dumps({"records": recs, "meta": meta}, indent=2, sort_keys=True))
    else:
        buf = io.StringIO()
        _write_csv(buf, header, rows)
        sys.stdout.write(buf.getvalue())
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", newline="") as fh:
            _write_csv(fh, header, rows)
        with open(out + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _meta(args, **extra):
    m = {
        "tool": "deltacasimir",
        "version": __version__,
        "command": " ".join(args.argv),
        "defaults": {k: (list(v) if isinstance(v, tuple) else v) for k, v in DEFAULTS.items()},
    }
    for key in ("tol", "units", "jobs", "cutoff_lambda"):
        if hasattr(args, key):
            m[key] = getattr(args, key)
    m.update(extra)
    return m


def _parse_methods(text):
    if text is None or text == "both":
        return ["canonical", "lifshitz"]
    methods = [t for t in text.split(",") if t]
    if not methods:
        raise DomainError("empty method set")
    for mth in methods:
        if mth not in ("canonical", "lifshitz"):
            raise DomainError(f"unknown method {mth!r}")
    return methods


def _load_config(path):
    cfg = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line (want key=value): {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            cfg[key] = val
    return cfg


def _resolve(args, **defaults):
    """Apply precedence: CLI flag > config file > default (``defaults`` overrides
    DEFAULTS for one subcommand)."""
    cfg = _load_config(args.config) if getattr(args, "config", None) else {}
    defaults = {**DEFAULTS, **defaults}
    casts = {"tol": float, "cutoff_lambda": float, "jobs": int, "units": str, "out": str}
    for key, cast in casts.items():
        if hasattr(args, key) and getattr(args, key) is None:
            if key in cfg:
                setattr(args, key, cast(cfg[key]))
            elif key in defaults:
                setattr(args, key, defaults[key])


def _units(args) -> UnitsConvention:
    try:
        return UnitsConvention(args.units)
    except ValueError as exc:
        raise DomainError(f"unknown units convention {args.units!r}") from exc


# ---------------------------------------------------------------- subcommands

def _cmd_scattering(args) -> int:
    _resolve(args)
    q, d = args.q, args.d
    closed = coefficients_closed_form(q, d)
    solved = coefficients_linear_solve(q, d)
    k = kernel(q, d).value
    row = [q, d,
           closed.B.real, closed.B.imag, closed.C.real, closed.C.imag,
           closed.D.real, closed.D.imag, closed.G.real, closed.G.imag,
           abs(closed.B) ** 2 + abs(closed.G) ** 2,
           abs(closed.C) ** 2 - abs(closed.D) ** 2 - abs(closed.G) ** 2,
           k]
    meta = _meta(args, q=q, d=d, schema=SCATTERING_SCHEMA,
                 max_closed_vs_solve=max(abs(closed.B - solved.B), abs(closed.C - solved.C),
                                         abs(closed.D - solved.D), abs(closed.G - solved.G)))
    _emit([row], SCATTERING_SCHEMA, args, meta)
    return EXIT_OK


def _force_record(d, that, method, tol, units) -> OutputRecord:
    fv = casimir_force(DimensionlessPoint(d, that), method, tol)
    est = fv.estimate
    return OutputRecord(d=d, That=that, method=method, value=units.apply(fv.value),
                        err=est.abs_error_estimate, evals=est.evaluations,
                        converged=est.converged, units=units.value)


def _cmd_force(args) -> int:
    _resolve(args)
    methods = _parse_methods(args.method)
    units = _units(args)
    recs = [_force_record(args.d, args.That, m, args.tol, units) for m in methods]
    meta = _meta(args, schema=FORCE_SCHEMA, methods=methods, d=args.d, That=args.That)
    _emit([r.force_row() for r in recs], FORCE_SCHEMA, args, meta)
    return EXIT_OK if all(r.converged for r in recs) else EXIT_NONCONVERGED


def _entropy_record(d, that, method, lam, zero_mode, tol, units) -> OutputRecord:
    point = DimensionlessPoint(d, that)
    if method == "canonical":
        ev = entropy_canonical(point, lam, tol)
    else:
        ev = entropy_lifshitz(point, lam, include_zero_mode=zero_mode)
    est = ev.estimate
    return OutputRecord(d=d, That=that, method=ev.method, value=ev.value,
                        err=est.abs_error_estimate, evals=est.evaluations,
                        converged=est.converged, units=units.value, cutoff_lambda=lam)


def _cmd_entropy(args) -> int:
    _resolve(args, tol=DEFAULTS["entropy_tol"])
    methods = _parse_methods(args.method)
    units = _units(args)
    recs = [_entropy_record(args.d, args.That, m, args.cutoff_lambda,
                            args.zero_mode, args.tol, units) for m in methods]
    meta = _meta(args, schema=ENTROPY_SCHEMA, methods=methods, d=args.d,
                 That=args.That, zero_mode=args.zero_mode)
    _emit([r.entropy_row() for r in recs], ENTROPY_SCHEMA, args, meta)
    return EXIT_OK if all(r.converged for r in recs) else EXIT_NONCONVERGED


def _grid(lo, hi, n, spacing):
    if spacing == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# id -> (grid axis, min, max, default points, schema, default units, note);
# every grid is log spaced.  Each figure's default units are its caption
# normalization; an explicit flag or config entry still wins.
FIGURES = {
    "1": ("d", 0.1, 10.0, 60, FORCE_SCHEMA, "fig1_scale",
          "force in units hbar*gamma^2/v^3 vs dimensionless distance"),
    "2": ("d", 0.1, 10.0, 60, FORCE_SCHEMA, "fig2_scale",
          "force in units hbar*gamma^2/(4*pi*v^3); this normalization "
          "differs from figure 1 by 4*pi"),
    "3a": ("dtilde", 0.5, 100.0, 48, DENSITY_SCHEMA, "raw_dimensionless",
           "entropy density -dF/dThat vs separation; tail approaches 1/(4*dtilde)"),
    "3b": ("d", 0.5, 20.0, 24, ENTROPY_SCHEMA, "raw_dimensionless",
           "canonical entropy at infrared cutoff Lambda={lam:g}"),
}


def _cmd_figure(args) -> int:
    axis, lo, hi, default_points, schema, units, note = FIGURES[args.id]
    _resolve(args, units=units)
    u = _units(args).value
    that_set = tuple(float(t) for t in args.That_set.split(",")) if args.That_set \
        else DEFAULTS["figure_that_set"]
    points = args.points or default_points
    grid = [float(x) for x in _grid(lo, hi, points, "log")]
    lam = args.cutoff_lambda
    methods = ("canonical", "lifshitz")

    # one task function per figure, and (CSV name, tasks) for each of its files
    if args.id == "1":
        fn = _force_task
        series = [(f"figure1_{m}.csv", [(d, 0.0, m, args.tol, u) for d in grid])
                  for m in methods]
    elif args.id == "2":
        fn = _force_task
        series = [(f"figure2_{m}_That{t:g}.csv", [(d, t, m, args.tol, u) for d in grid])
                  for t in that_set for m in methods]
    elif args.id == "3a":
        fn = _density_task
        series = [(f"figure3a_That{t:g}.csv", [(d, t) for d in grid]) for t in that_set]
    else:
        fn = _entropy_task
        series = [(f"figure3b_That{t:g}.csv", [(d, t, lam, DEFAULTS["entropy_tol"], u)
                                                for d in grid]) for t in that_set]
    # one pool for the whole figure; its rows come back in task order
    rows = _run_tasks(fn, [t for _, tasks in series for t in tasks], args.jobs or 1)
    files = []
    ok = True
    for i, (name, _) in enumerate(series):
        part = rows[i * points:(i + 1) * points]
        ok &= all(r[schema.index("converged")] for r in part)
        files.append(f"{args.out_dir}/{name}")
        with open(files[-1], "w", newline="") as fh:
            _write_csv(fh, schema, part)

    meta = _meta(args, figure=args.id, files=[f.rsplit("/", 1)[-1] for f in files],
                 That_set=list(that_set), grid={axis: [lo, hi], "spacing": "log", "points": points},
                 note=note.format(lam=lam))
    with open(f"{args.out_dir}/figure{args.id}_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for f in files:
        print(f)
    return EXIT_OK if ok else EXIT_NONCONVERGED


def _force_task(task):
    d, that, method, tol, units_value = task
    return _force_record(d, that, method, tol, UnitsConvention(units_value)).force_row()


def _entropy_task(task):
    d, that, lam, tol, units_value = task
    return _entropy_record(d, that, "canonical", lam, True, tol,
                           UnitsConvention(units_value)).entropy_row()


def _density_task(task):
    dt, that = task
    dens = entropy_density_canonical(dt, that)
    est = dens.estimate
    return [dt, that, dens.value, est.abs_error_estimate, est.evaluations, est.converged]


def _run_tasks(fn, tasks, jobs):
    """Evaluate tasks with a worker pool; output order follows input order."""
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=1))


def run_sweep(spec: SweepSpec, jobs: int = 1,
              units: UnitsConvention = UnitsConvention.RAW_DIMENSIONLESS):
    """Evaluate a force sweep; rows come back in grid order regardless of jobs."""
    tasks = []
    for x in spec.grid():
        for method in spec.methods:
            if spec.variable == "d":
                d, that = float(x), spec.fixed
            else:
                d, that = spec.fixed, float(x)
            tasks.append((d, that, method, spec.tol, units.value))
    return _run_tasks(_force_task, tasks, jobs)


def _cmd_sweep(args) -> int:
    _resolve(args)
    spec = SweepSpec(variable=args.variable, min=args.min, max=args.max,
                     points=args.points, spacing=args.spacing, fixed=args.fixed,
                     methods=tuple(_parse_methods(args.method)), tol=args.tol)
    rows = run_sweep(spec, jobs=args.jobs or 1, units=_units(args))
    meta = _meta(args, schema=FORCE_SCHEMA, methods=list(spec.methods),
                 variable=spec.variable, min=spec.min, max=spec.max,
                 points=spec.points, spacing=spec.spacing, fixed=spec.fixed)
    _emit(rows, FORCE_SCHEMA, args, meta)
    return EXIT_OK if all(r[6] for r in rows) else EXIT_NONCONVERGED


def _cmd_asymptote(args) -> int:
    _resolve(args)
    methods = _parse_methods(args.method)
    units = _units(args)
    rows = []
    for method in methods:
        v = asymptotic_force(DimensionlessPoint(args.d, args.That), method)
        rows.append([args.d, args.That, method, units.apply(v), 0.0, 0, True, units.value])
    _emit(rows, FORCE_SCHEMA, args, _meta(args, schema=FORCE_SCHEMA))
    return EXIT_OK


# ---------------------------------------------------------------- entry point

def _add_common(p, tol_default=None):
    p.add_argument("--tol", type=float, default=tol_default, help="absolute tolerance")
    p.add_argument("--units", default=None,
                   choices=[u.value for u in UnitsConvention],
                   help="output normalization for forces")
    p.add_argument("--out", default=None, help="write CSV here plus a .meta.json sidecar")
    p.add_argument("--json", action="store_true", help="emit records as JSON on stdout")
    p.add_argument("--jobs", type=int, default=None, help="worker pool width (1 = serial)")
    p.add_argument("--config", default=None, help="key=value config file")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="deltacasimir",
        description="Casimir force and entropy for a 1D scalar field with two "
                    "delta-function mirrors (canonical and Lifshitz routes).")
    ap.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("scattering", help="mode amplitudes B, C, D, G and the force kernel")
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--d", type=float, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_scattering)

    p = sub.add_parser("force", help="Casimir force at one (d, That)")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--That", type=float, default=0.0)
    p.add_argument("--method", default="both",
                   help="canonical, lifshitz, both, or a comma list")
    _add_common(p)
    p.set_defaults(fn=_cmd_force)

    p = sub.add_parser("entropy", help="Casimir entropy at one (d, That)")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--That", type=float, required=True)
    p.add_argument("--method", default="both")
    p.add_argument("--lambda", dest="cutoff_lambda", type=float, default=None,
                   help="infrared cutoff Lambda (default 100)")
    p.add_argument("--zero-mode", dest="zero_mode",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="keep the zero-frequency term in the Lifshitz entropy")
    _add_common(p)
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("figure", help="reproduce the data behind a figure")
    p.add_argument("--id", required=True, choices=["1", "2", "3a", "3b"])
    p.add_argument("--out-dir", default=".")
    p.add_argument("--points", type=int, default=None, help="grid size override")
    p.add_argument("--That-set", dest="That_set", default=None,
                   help="comma list of temperatures (default 0.5,1,2)")
    p.add_argument("--lambda", dest="cutoff_lambda", type=float, default=None)
    _add_common(p)
    p.set_defaults(fn=_cmd_figure)

    p = sub.add_parser("sweep", help="force sweep over d or That")
    p.add_argument("--variable", required=True, choices=["d", "That"])
    p.add_argument("--min", type=float, required=True)
    p.add_argument("--max", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--spacing", default="linear", choices=["linear", "log"])
    p.add_argument("--fixed", type=float, required=True,
                   help="value of the other coordinate")
    p.add_argument("--method", default="both")
    _add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("asymptote", help="long-distance asymptotic force")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--That", type=float, required=True)
    p.add_argument("--method", default="both")
    _add_common(p)
    p.set_defaults(fn=_cmd_asymptote)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    args.argv = argv   # recorded as the metadata's "command"
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
