"""Command-line front end.

Subcommands and the shared flags each takes; all five take --json, and
--help lists the rest of their inputs:

    scattering  --out
    force       --tol --out
    entropy     --lambda --tol --out
    sweep       --tol --out
    figure      --lambda --tol        (one CSV per curve, in --out-dir)

Every numeric row echoes its inputs; CSV output uses '.' decimals and 17
significant digits so identical command lines reproduce identical bytes.
A force row's value, err and tol are all in its units convention: raw
dimensionless, except figure 2's 1/(4*pi) normalization; entropy and density
rows are dimensionless.  A metadata sidecar (<out>.meta.json) records the
tool version and the effective value of each flag the command reads.  Exit
codes: 0 success, 2 usage or domain error, 3 numerical non-convergence (rows
are still emitted, flagged converged=false).  Every command computes its
rows in one task, in one process.

Precedence: command-line flags > built-in defaults (the parser's, and each
figure's own tol).
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .errors import DomainError, require_real
from .forces import (
    DEFAULT_CUTOFF_LAMBDA,
    FORCE_TOL,
    LIFSHITZ_TOL,
    METHODS,
    casimir_force,
)
from .model import DimensionlessPoint
from .scattering import coefficients_closed_form, kernel
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


FORCE_SCHEMA = ["d", "That", "method", "value", "err", "evals", "converged", "units"]
ENTROPY_SCHEMA = ["d", "That", "method", "lambda", "value", "err", "evals",
                  "converged", "units"]
DENSITY_SCHEMA = ["dtilde", "That", "value", "err", "evals", "converged"]
SCATTERING_SCHEMA = ["q", "d", "B_re", "B_im", "C_re", "C_im", "D_re", "D_im",
                     "G_re", "G_im", "unitarity", "flux", "kernel"]

# a force row's units cell -> the divisor that puts a dimensionless force in
# those units: figure 2 reports it in units hbar*gamma^2/(4*pi*v^3)
_RAW = "raw_dimensionless"
_UNITS = {_RAW: 1.0, "fig2_scale": 1.0 / (4.0 * math.pi)}


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
    for key in ("tol", "cutoff_lambda"):
        if hasattr(args, key):
            m[key] = getattr(args, key)
    m.update(extra)
    return m


def _parse_methods(text):
    """The methods a --method value names: "both", or a comma list of known
    method names, each named once."""
    if text == "both":
        return list(METHODS)
    methods = [t for t in text.split(",") if t]
    if not methods:
        raise DomainError("empty method set")
    for mth in methods:
        if mth not in METHODS:
            raise DomainError(f"unknown method {mth!r}")
    if len(set(methods)) < len(methods):
        raise DomainError(f"--method {text!r} names a method twice")
    return methods


# ------------------------------------------------- one row function per quantity

def _force_row(d, that, method, tol, units):
    """The FORCE_SCHEMA row at (d, That) by ``method``; value, err and tol
    are all in ``units``, a key of ``_UNITS``."""
    divisor = _UNITS[units]
    est = casimir_force(DimensionlessPoint(d, that), method, tol * divisor).estimate
    return [d, that, method, est.value / divisor, est.abs_error_estimate / divisor,
            est.evaluations, est.converged, units]


def _entropy_row(d, that, method, lam, zero_mode, tol):
    """The ENTROPY_SCHEMA row at (d, That) by ``method`` with cutoff ``lam``."""
    point = DimensionlessPoint(d, that)
    if method == "canonical":
        ev = entropy_canonical(point, lam, tol)
    else:
        # the series are cheap, so never below their default accuracy
        ev = entropy_lifshitz(point, lam, zero_mode, min(tol, LIFSHITZ_TOL))
    est = ev.estimate
    return [d, that, ev.method, lam, ev.value, est.abs_error_estimate, est.evaluations,
            est.converged, _RAW]


def _density_rows(dts, thats, tol):
    """DENSITY_SCHEMA rows at each dtilde of ``dts`` for each That of ``thats``,
    one array call per That."""
    rows = []
    for that in thats:
        dens = entropy_density_canonical(np.array(dts), that, tol)
        cols = zip(dts, dens.value.tolist(), dens.estimate.abs_error_estimate.tolist(),
                   dens.evaluations.tolist(), dens.estimate.converged.tolist())
        rows += [[dt, that, v, e, n, ok] for dt, v, e, n, ok in cols]
    return rows


# ---------------------------------------------------------------- subcommands

def _cmd_scattering(args) -> int:
    q, d = args.q, args.d
    closed = coefficients_closed_form(q, d)
    k = kernel(q, d)
    row = [q, d,
           closed.B.real, closed.B.imag, closed.C.real, closed.C.imag,
           closed.D.real, closed.D.imag, closed.G.real, closed.G.imag,
           abs(closed.B) ** 2 + abs(closed.G) ** 2,
           abs(closed.C) ** 2 - abs(closed.D) ** 2 - abs(closed.G) ** 2,
           k]
    meta = _meta(args, q=q, d=d, schema=SCATTERING_SCHEMA)
    return _emit([row], SCATTERING_SCHEMA, args, meta)


def _cmd_force(args) -> int:
    methods = _parse_methods(args.method)
    rows = [_force_row(args.d, args.That, m, args.tol, _RAW) for m in methods]
    meta = _meta(args, schema=FORCE_SCHEMA, methods=methods, d=args.d, That=args.That)
    return _emit(rows, FORCE_SCHEMA, args, meta)


def _cmd_entropy(args) -> int:
    methods = _parse_methods(args.method)
    rows = [_entropy_row(args.d, args.That, m, args.cutoff_lambda, args.zero_mode, args.tol)
            for m in methods]
    meta = _meta(args, schema=ENTROPY_SCHEMA, methods=methods, d=args.d,
                 That=args.That, zero_mode=args.zero_mode)
    return _emit(rows, ENTROPY_SCHEMA, args, meta)


def _grid(lo, hi, n, spacing):
    if spacing == "log":
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


# id -> (grid axis, min, max, default points, schema, default tol, note, CSV
# name, rows); every grid is log spaced.  Each figure's default tol is its
# quantity's; an explicit flag still wins.  rows(grid, That set, tol, Lambda)
# computes the figure's rows curve by curve, and a row goes to the CSV
# name.format(*row).  A force figure's units are its caption normalization;
# 3a makes one array density call per curve.
FIGURES = {
    "1": ("d", 0.1, 10.0, 60, FORCE_SCHEMA, FORCE_TOL,
          "force in units hbar*gamma^2/v^3 vs dimensionless distance",
          "figure1_{2}.csv", lambda grid, thats, tol, lam: [
              _force_row(d, 0.0, m, tol, _RAW) for m in METHODS for d in grid]),
    "2": ("d", 0.1, 10.0, 60, FORCE_SCHEMA, FORCE_TOL,
          "force in units hbar*gamma^2/(4*pi*v^3); this normalization "
          "differs from figure 1 by 4*pi", "figure2_{2}_That{1:g}.csv",
          lambda grid, thats, tol, lam: [
              _force_row(d, t, m, tol, "fig2_scale")
              for t in thats for m in METHODS for d in grid]),
    "3a": ("dtilde", 0.5, 100.0, 48, DENSITY_SCHEMA, ENTROPY_INNER_TOL,
           "entropy density -dF/dThat vs separation; tail approaches 1/(4*dtilde)",
           "figure3a_That{1:g}.csv",
           lambda grid, thats, tol, lam: _density_rows(grid, thats, tol)),
    "3b": ("d", 0.5, 20.0, 24, ENTROPY_SCHEMA, ENTROPY_TOL,
           "canonical entropy at infrared cutoff Lambda={lam:g}",
           "figure3b_That{1:g}.csv", lambda grid, thats, tol, lam: [
               _entropy_row(d, t, "canonical", lam, True, tol) for t in thats for d in grid]),
}


def _cmd_figure(args) -> int:
    axis, lo, hi, default_points, schema, tol, note, name, figure_rows = FIGURES[args.id]
    if args.tol is None:
        args.tol = tol
    if not os.path.isdir(args.out_dir):
        raise DomainError(f"--out-dir {args.out_dir!r} is not a directory")
    try:
        that_set = tuple(float(t) for t in args.That_set.split(","))
    except ValueError as exc:
        raise DomainError(f"--That-set must be a comma list of numbers, "
                          f"got {args.That_set!r}") from exc
    # force rows take That = 0, the entropy rows need That > 0
    for t in that_set:
        require_real("--That-set", t, inclusive=schema is FORCE_SCHEMA)
    if len({f"{t:g}" for t in that_set}) < len(that_set):
        raise DomainError(f"--That-set {args.That_set!r} gives two curves the same CSV name")
    points = default_points if args.points is None else args.points
    if points < 1:
        raise DomainError(f"--points must be >= 1, got {points}")
    grid = [float(x) for x in _grid(lo, hi, points, "log")]
    if schema is ENTROPY_SCHEMA:   # each entropy integrates its density from d to Lambda
        require_real("--lambda", args.cutoff_lambda, low=max(grid))
    [rows] = _run_tasks(lambda task: figure_rows(*task),
                        [(grid, that_set, args.tol, args.cutoff_lambda)])
    files = {}   # CSV name -> its rows; files follow the order of their first rows
    for r in rows:
        files.setdefault(name.format(*r), []).append(r)
    for csv_name, file_rows in files.items():
        with open(f"{args.out_dir}/{csv_name}", "w", newline="") as fh:
            _write_csv(fh, schema, file_rows)

    meta = _meta(args, figure=args.id, files=list(files),
                 That_set=list(that_set), grid={axis: [lo, hi], "spacing": "log", "points": points},
                 note=note.format(lam=args.cutoff_lambda))
    # every id takes --lambda and --That-set; only entropy rows read the
    # first, and figure 1's rows (all at That = 0) not the second
    if schema is not ENTROPY_SCHEMA:
        del meta["cutoff_lambda"]
    if args.id == "1":
        del meta["That_set"]
    with open(f"{args.out_dir}/figure{args.id}_meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.json:
        _print_json(schema, rows, meta)
    else:
        print("\n".join(f"{args.out_dir}/{f}" for f in files))
    return _exit_code(schema, rows)


def _run_tasks(fn, tasks):
    """fn of each task, in task order: the timing hook around a command's
    rows, which figure and sweep compute in one task.  perfbench's tracer
    wraps it and counts the tasks."""
    return [fn(t) for t in tasks]


def _cmd_sweep(args) -> int:
    methods = _parse_methods(args.method)
    lo, hi = args.min, args.max
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise DomainError("sweep requires min < max")
    if args.points < 2:
        raise DomainError("sweep requires points >= 2")
    if lo <= 0 and (args.spacing == "log" or args.variable == "d"):
        raise DomainError("sweep minimum must be positive for d and for log spacing")
    points = [(float(x), args.fixed) if args.variable == "d" else (args.fixed, float(x))
              for x in _grid(lo, hi, args.points, args.spacing)]
    # rows in grid order, in raw dimensionless units
    [rows] = _run_tasks(lambda pts: [_force_row(d, that, m, args.tol, _RAW)
                                     for d, that in pts for m in methods], [points])
    meta = _meta(args, schema=FORCE_SCHEMA, methods=methods, variable=args.variable,
                 min=lo, max=hi, points=args.points, spacing=args.spacing, fixed=args.fixed)
    return _emit(rows, FORCE_SCHEMA, args, meta)


# ---------------------------------------------------------------- entry point

# the flags some subcommands share; each subcommand takes those it reads
_FLAGS = {
    "--tol": dict(type=float, help="absolute tolerance"),
    "--lambda": dict(dest="cutoff_lambda", type=float, default=DEFAULT_CUTOFF_LAMBDA,
                     help="infrared cutoff Lambda (default %(default)g)"),
    "--out": dict(help="write CSV here plus a .meta.json sidecar"),
    "--json": dict(action="store_true", help="emit records as JSON on stdout"),
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
    _add_flags(p, "--out", "--json")
    p.set_defaults(fn=_cmd_scattering)

    p = sub.add_parser("force", help="Casimir force at one (d, That)")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--That", type=float, default=0.0)
    p.add_argument("--method", default="both",
                   help="canonical, lifshitz, both, or a comma list")
    _add_flags(p, "--tol", "--out", "--json")
    p.set_defaults(fn=_cmd_force, tol=FORCE_TOL)

    p = sub.add_parser("entropy", help="Casimir entropy at one (d, That), dimensionless")
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--That", type=float, required=True)
    p.add_argument("--method", default="both")
    p.add_argument("--zero-mode", dest="zero_mode",
                   action=argparse.BooleanOptionalAction, default=True,
                   help="keep the zero-frequency term in the Lifshitz entropy")
    _add_flags(p, "--lambda", "--tol", "--out", "--json")
    p.set_defaults(fn=_cmd_entropy, tol=ENTROPY_TOL)

    p = sub.add_parser("figure", help="reproduce the data behind a figure")
    p.add_argument("--id", required=True, choices=list(FIGURES))
    p.add_argument("--out-dir", default=".")
    p.add_argument("--points", type=int, default=None, help="grid size override")
    p.add_argument("--That-set", dest="That_set", default="0.5,1,2",
                   help="comma list of temperatures (default %(default)s)")
    # hidden and read by nothing: perfbench/workloads.py's figure command passes it
    p.add_argument("--jobs", type=int, help=argparse.SUPPRESS)
    _add_flags(p, "--lambda", "--tol", "--json")
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
    _add_flags(p, "--tol", "--out", "--json")
    p.set_defaults(fn=_cmd_sweep, tol=FORCE_TOL)

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
