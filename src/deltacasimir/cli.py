"""Command-line front end.

Subcommands and the shared flags each takes; all six take --json and
--config, and --help lists the rest of their inputs:

    scattering  --out
    force       --tol --units --out
    entropy     --tol --out           (entropy rows are dimensionless)
    sweep       --tol --units --out --jobs
    asymptote   --units --out
    figure      --tol --units --jobs  (one CSV per curve, in --out-dir)

Every numeric row echoes its inputs; CSV output uses '.' decimals and 17
significant digits so identical command lines reproduce identical bytes.
A force row's value and err are both in its units convention.  A metadata
sidecar (<out>.meta.json) records the tool version and the effective value
of each flag the command reads.  Exit codes: 0 success, 2 usage or domain
error, 3 numerical non-convergence (rows are still emitted, flagged
converged=false).

Configuration precedence: command-line flags > --config file (key=value
lines) > built-in defaults.  The file's keys are tol, cutoff_lambda, jobs,
units and out; any other key is an error.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__
from .errors import DomainError
from .forces import (
    DEFAULT_CUTOFF_LAMBDA,
    FORCE_TOL,
    LIFSHITZ_TOL,
    METHODS,
    asymptotic_force,
    casimir_force,
)
from .model import DimensionlessPoint, UnitsConvention
from .scattering import coefficients_closed_form, coefficients_linear_solve, kernel
from .thermo import (
    ENTROPY_INNER_TOL,
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
    methods: tuple[str, ...] = METHODS
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
        _check_methods(self.methods)

    def grid(self):
        return _grid(self.min, self.max, self.points, self.spacing)


FORCE_SCHEMA = ["d", "That", "method", "value", "err", "evals", "converged", "units"]
ENTROPY_SCHEMA = ["d", "That", "method", "lambda", "value", "err", "evals",
                  "converged", "units"]
DENSITY_SCHEMA = ["dtilde", "That", "value", "err", "evals", "converged"]
SCATTERING_SCHEMA = ["q", "d", "B_re", "B_im", "C_re", "C_im", "D_re", "D_im",
                     "G_re", "G_im", "unitarity", "flux", "kernel"]

DEFAULTS = {
    "tol": FORCE_TOL,
    "cutoff_lambda": DEFAULT_CUTOFF_LAMBDA,
    "units": "raw_dimensionless",
    "jobs": 1,
}
# the temperatures of a figure's curves when --That-set is not given
DEFAULT_THAT_SET = (0.5, 1.0, 2.0)


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


def _exit_code(header, rows) -> int:
    """EXIT_NONCONVERGED if any row's ``converged`` column is false."""
    if "converged" in header and not all(r[header.index("converged")] for r in rows):
        return EXIT_NONCONVERGED
    return EXIT_OK


def _print_json(header, rows, meta):
    # RFC 8259 has no Infinity or NaN: a non-finite value is null, as in
    # JavaScript's JSON.stringify
    recs = [{k: None if isinstance(v, float) and not math.isfinite(v) else v
             for k, v in zip(header, row)} for row in rows]
    print(json.dumps({"records": recs, "meta": meta}, indent=2, sort_keys=True))


def _emit(rows, header, args, meta) -> int:
    """Print records (CSV or JSON), optionally write CSV + sidecar, and
    return the exit code."""
    if args.json:
        _print_json(header, rows, meta)
    else:
        buf = io.StringIO()
        _write_csv(buf, header, rows)
        sys.stdout.write(buf.getvalue())
    if args.out:
        with open(args.out, "w", newline="") as fh:
            _write_csv(fh, header, rows)
        with open(args.out + ".meta.json", "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return _exit_code(header, rows)


def _meta(args, **extra):
    m = {
        "tool": "deltacasimir",
        "version": __version__,
        "command": " ".join(args.argv),
    }
    for key in ("tol", "units", "jobs", "cutoff_lambda"):
        if hasattr(args, key):
            m[key] = getattr(args, key)
    m.update(extra)
    return m


def _check_methods(methods):
    """Return ``methods`` if it is a nonempty sequence of known method names."""
    if not methods:
        raise DomainError("empty method set")
    for mth in methods:
        if mth not in METHODS:
            raise DomainError(f"unknown method {mth!r}")
    return methods


def _parse_methods(text):
    if text is None or text == "both":
        return list(METHODS)
    return _check_methods([t for t in text.split(",") if t])


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
    DEFAULTS for one subcommand).  A config key that no subcommand reads is
    an error; one that this subcommand does not read is ignored."""
    cfg = _load_config(args.config) if args.config else {}
    defaults = {**DEFAULTS, **defaults}
    casts = {"tol": float, "cutoff_lambda": float, "jobs": int, "units": str, "out": str}
    unknown = [key for key in cfg if key not in casts]
    if unknown:
        raise DomainError(f"unknown config key {', '.join(map(repr, unknown))}; "
                          f"the known keys are {', '.join(casts)}")
    for key, cast in casts.items():
        if hasattr(args, key) and getattr(args, key) is None:
            if key in cfg:
                try:
                    setattr(args, key, cast(cfg[key]))
                except ValueError as exc:
                    raise DomainError(f"config key {key}: not a number: {cfg[key]!r}") from exc
            elif key in defaults:
                setattr(args, key, defaults[key])
    if getattr(args, "jobs", 1) < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")


def _units(args) -> UnitsConvention:
    try:
        return UnitsConvention(args.units)
    except ValueError as exc:
        raise DomainError(f"unknown units convention {args.units!r}") from exc


# ------------------------------------------------- one row function per quantity

def _force_row(task):
    """(d, That, method, tol, units) -> FORCE_SCHEMA row; value and err are
    both in the units convention."""
    d, that, method, tol, units = task
    fv = casimir_force(DimensionlessPoint(d, that), method, tol)
    est, scale = fv.estimate, UnitsConvention(units)
    return [d, that, method, scale.apply(fv.value), scale.apply(est.abs_error_estimate),
            est.evaluations, est.converged, units]


def _entropy_row(task):
    """(d, That, method, Lambda, zero_mode, tol) -> ENTROPY_SCHEMA row."""
    d, that, method, lam, zero_mode, tol = task
    point = DimensionlessPoint(d, that)
    if method == "canonical":
        ev = entropy_canonical(point, lam, tol)
    else:
        # the series are cheap, so never below their default accuracy
        ev = entropy_lifshitz(point, lam, zero_mode, min(tol, LIFSHITZ_TOL))
    est = ev.estimate
    return [d, that, ev.method, lam, ev.value, est.abs_error_estimate, est.evaluations,
            est.converged, UnitsConvention.RAW_DIMENSIONLESS.value]


def _one_row(task):
    """(row function, its task) -> [that row]: a figure task of one row."""
    fn, task = task
    return [fn(task)]


def _density_rows(task):
    """(dtilde list, That set, tol) -> DENSITY_SCHEMA rows, one array call per That."""
    dts, thats, tol = task
    rows = []
    for that in thats:
        dens = entropy_density_canonical(np.array(dts), that, tol)
        cols = zip(dts, dens.value.tolist(), dens.estimate.abs_error_estimate.tolist(),
                   dens.evaluations.tolist(), dens.estimate.converged.tolist())
        rows += [[dt, that, v, e, n, ok] for dt, v, e, n, ok in cols]
    return rows


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
    return _emit([row], SCATTERING_SCHEMA, args, meta)


def _cmd_force(args) -> int:
    _resolve(args)
    methods = _parse_methods(args.method)
    units = _units(args).value
    rows = [_force_row((args.d, args.That, m, args.tol, units)) for m in methods]
    meta = _meta(args, schema=FORCE_SCHEMA, methods=methods, d=args.d, That=args.That)
    return _emit(rows, FORCE_SCHEMA, args, meta)


def _cmd_entropy(args) -> int:
    _resolve(args, tol=ENTROPY_TOL)
    methods = _parse_methods(args.method)
    rows = [_entropy_row((args.d, args.That, m, args.cutoff_lambda, args.zero_mode, args.tol))
            for m in methods]
    meta = _meta(args, schema=ENTROPY_SCHEMA, methods=methods, d=args.d,
                 That=args.That, zero_mode=args.zero_mode)
    return _emit(rows, ENTROPY_SCHEMA, args, meta)


def _grid(lo, hi, n, spacing):
    if spacing == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# id -> (grid axis, min, max, default points, schema, default units, default
# tol, note, CSV name, task function, tasks); every grid is log spaced.  Each
# figure's default units are its caption normalization and its default tol is
# its quantity's; an explicit flag or config entry still wins.  tasks(grid,
# That set, tol, units, Lambda) lists the figure's tasks, the task function maps
# a task to its rows and a row goes to the CSV name.format(*row).  1, 2 and 3b
# make one task per row; 3a makes one for all its curves, whose array calls
# cost less than starting a pool.
FIGURES = {
    "1": ("d", 0.1, 10.0, 60, FORCE_SCHEMA, "fig1_scale", FORCE_TOL,
          "force in units hbar*gamma^2/v^3 vs dimensionless distance",
          "figure1_{2}.csv", _one_row, lambda grid, thats, tol, u, lam: [
              (_force_row, (d, 0.0, m, tol, u)) for m in METHODS for d in grid]),
    "2": ("d", 0.1, 10.0, 60, FORCE_SCHEMA, "fig2_scale", FORCE_TOL,
          "force in units hbar*gamma^2/(4*pi*v^3); this normalization "
          "differs from figure 1 by 4*pi", "figure2_{2}_That{1:g}.csv", _one_row,
          lambda grid, thats, tol, u, lam: [
              (_force_row, (d, t, m, tol, u)) for t in thats for m in METHODS for d in grid]),
    "3a": ("dtilde", 0.5, 100.0, 48, DENSITY_SCHEMA, "raw_dimensionless", ENTROPY_INNER_TOL,
           "entropy density -dF/dThat vs separation; tail approaches 1/(4*dtilde)",
           "figure3a_That{1:g}.csv", _density_rows,
           lambda grid, thats, tol, u, lam: [(grid, thats, tol)]),
    "3b": ("d", 0.5, 20.0, 24, ENTROPY_SCHEMA, "raw_dimensionless", ENTROPY_TOL,
           "canonical entropy at infrared cutoff Lambda={lam:g}",
           "figure3b_That{1:g}.csv", _one_row, lambda grid, thats, tol, u, lam: [
               (_entropy_row, (d, t, "canonical", lam, True, tol)) for t in thats for d in grid]),
}


def _cmd_figure(args) -> int:
    axis, lo, hi, default_points, schema, units, tol, note, name, row, tasks = FIGURES[args.id]
    _resolve(args, units=units, tol=tol)
    u = _units(args).value
    if not os.path.isdir(args.out_dir):
        raise DomainError(f"--out-dir {args.out_dir!r} is not a directory")
    try:
        that_set = DEFAULT_THAT_SET if args.That_set is None \
            else tuple(float(t) for t in args.That_set.split(","))
    except ValueError as exc:
        raise DomainError(f"--That-set must be a comma list of numbers, "
                          f"got {args.That_set!r}") from exc
    if len({f"{t:g}" for t in that_set}) < len(that_set):
        raise DomainError(f"--That-set {args.That_set!r} gives two curves the same CSV name")
    points = default_points if args.points is None else args.points
    if points < 1:
        raise DomainError(f"--points must be >= 1, got {points}")
    grid = [float(x) for x in _grid(lo, hi, points, "log")]
    # one pool for the whole figure; its tasks' rows come back in task order
    figure_tasks = tasks(grid, that_set, args.tol, u, args.cutoff_lambda)
    rows = [r for rs in _run_tasks(row, figure_tasks, args.jobs) for r in rs]
    files = {}   # CSV name -> its rows; files follow the order of their first rows
    for r in rows:
        files.setdefault(name.format(*r), []).append(r)
    for csv_name, file_rows in files.items():
        with open(f"{args.out_dir}/{csv_name}", "w", newline="") as fh:
            _write_csv(fh, schema, file_rows)

    meta = _meta(args, figure=args.id, files=list(files),
                 That_set=list(that_set), grid={axis: [lo, hi], "spacing": "log", "points": points},
                 note=note.format(lam=args.cutoff_lambda))
    # every id takes --units and --lambda; only force rows read the one, entropy rows the other
    if schema is not FORCE_SCHEMA:
        del meta["units"]
    if schema is not ENTROPY_SCHEMA:
        del meta["cutoff_lambda"]
    with open(f"{args.out_dir}/figure{args.id}_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.json:
        _print_json(schema, rows, meta)
    else:
        print("\n".join(f"{args.out_dir}/{f}" for f in files))
    return _exit_code(schema, rows)


def _run_tasks(fn, tasks, jobs):
    """Evaluate tasks with a worker pool of at most one worker per task;
    output order follows input order.  Tasks go to the workers in about four
    chunks per worker: one round trip per chunk, not per task.  Where tasks
    cost unequal amounts (figure 3b), a worker may idle while the other
    finishes its last chunk; that costs about what the saved round trips
    gain.  Figure 3a is one task, so it never starts a pool."""
    jobs = min(jobs, len(tasks))
    if jobs <= 1:
        return [fn(t) for t in tasks]
    from concurrent.futures import ProcessPoolExecutor   # 20 ms to import; serial runs skip it
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks, chunksize=math.ceil(len(tasks) / (4 * jobs))))


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
    return _run_tasks(_force_row, tasks, jobs)


def _cmd_sweep(args) -> int:
    _resolve(args)
    spec = SweepSpec(variable=args.variable, min=args.min, max=args.max,
                     points=args.points, spacing=args.spacing, fixed=args.fixed,
                     methods=tuple(_parse_methods(args.method)), tol=args.tol)
    rows = run_sweep(spec, jobs=args.jobs, units=_units(args))
    meta = _meta(args, schema=FORCE_SCHEMA, methods=list(spec.methods),
                 variable=spec.variable, min=spec.min, max=spec.max,
                 points=spec.points, spacing=spec.spacing, fixed=spec.fixed)
    return _emit(rows, FORCE_SCHEMA, args, meta)


def _cmd_asymptote(args) -> int:
    _resolve(args)
    methods = _parse_methods(args.method)
    units = _units(args)
    point = DimensionlessPoint(args.d, args.That)
    rows = [[args.d, args.That, m, units.apply(asymptotic_force(point, m)), 0.0, 0, True,
             units.value] for m in methods]
    return _emit(rows, FORCE_SCHEMA, args, _meta(args, schema=FORCE_SCHEMA))


# ---------------------------------------------------------------- entry point

# the flags some subcommands share; each subcommand takes those it reads
_FLAGS = {
    "--tol": dict(type=float, help="absolute tolerance"),
    "--units": dict(choices=[u.value for u in UnitsConvention],
                    help="output normalization for forces (value and err)"),
    "--out": dict(help="write CSV here plus a .meta.json sidecar"),
    "--json": dict(action="store_true", help="emit records as JSON on stdout"),
    "--jobs": dict(type=int, help="worker pool width (1 = serial; figure 3a is one task)"),
    "--config": dict(help="key=value config file"),
}


def _add_flags(p, *flags):
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


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
    _add_flags(p, "--out", "--json", "--config")
    p.set_defaults(fn=_cmd_scattering)

    p = sub.add_parser("force", help="Casimir force at one (d, That)")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--That", type=float, default=0.0)
    p.add_argument("--method", default="both",
                   help="canonical, lifshitz, both, or a comma list")
    _add_flags(p, "--tol", "--units", "--out", "--json", "--config")
    p.set_defaults(fn=_cmd_force)

    p = sub.add_parser("entropy", help="Casimir entropy at one (d, That), dimensionless")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--That", type=float, required=True)
    p.add_argument("--method", default="both")
    p.add_argument("--lambda", dest="cutoff_lambda", type=float, default=None,
                   help="infrared cutoff Lambda (default 100)")
    p.add_argument("--zero-mode", dest="zero_mode",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="keep the zero-frequency term in the Lifshitz entropy")
    _add_flags(p, "--tol", "--out", "--json", "--config")
    p.set_defaults(fn=_cmd_entropy)

    p = sub.add_parser("figure", help="reproduce the data behind a figure")
    p.add_argument("--id", required=True, choices=list(FIGURES))
    p.add_argument("--out-dir", default=".")
    p.add_argument("--points", type=int, default=None, help="grid size override")
    p.add_argument("--That-set", dest="That_set", default=None,
                   help="comma list of temperatures (default 0.5,1,2)")
    p.add_argument("--lambda", dest="cutoff_lambda", type=float, default=None)
    _add_flags(p, "--tol", "--units", "--json", "--jobs", "--config")
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
    _add_flags(p, "--tol", "--units", "--out", "--json", "--jobs", "--config")
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("asymptote", help="long-distance asymptotic force")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--That", type=float, required=True)
    p.add_argument("--method", default="both")
    _add_flags(p, "--units", "--out", "--json", "--config")
    p.set_defaults(fn=_cmd_asymptote)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    args.argv = argv   # recorded as the metadata's "command"
    try:
        return args.fn(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
