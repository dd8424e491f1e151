"""Inputs, evaluation and correctness checks of the benchmark workloads.

Two workloads run in the benchmark's own process against the library:

* ``force_sweep``: a point is one (d, That) evaluated by both force routes,
  what ``deltacasimir force --d D --That T`` does by default;
* ``entropy_grid``: a point is the canonical entropy plus the Lifshitz
  entropy (zero mode kept) at Lambda = 100.

The third, ``figure_cli``, runs ``deltacasimir figure --id 3a --jobs 2`` in a
fresh process and checks the CSV rows it writes; its input does not depend on
the seed.

Grid coordinates are rounded to float32 so that a point passed as
``np.float32`` carries exactly the value of its float twin: only the input
type differs.  A fixed set of grid points is passed the way library callers
write them (Python ``int`` or ``np.int64`` for an integral That, and one
``np.float32`` point); those points are timed and checked like the others.
Their coordinates are fixed rather than drawn from the seed because a point
that fails fast removes up to 0.8 s of work from an ``entropy_grid`` pass,
which would make the pass time depend on the seed.  The seed sets the order
in which the points are sent.
"""
from __future__ import annotations

import csv
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "deltacasimir" / "__init__.py").is_file():
    # never fall back to an installed copy: the benchmark measures this checkout
    raise SystemExit(f"error: no deltacasimir sources under {SRC}")
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from deltacasimir import (  # noqa: E402
    DimensionlessPoint,
    casimir_force,
    entropy_canonical,
    entropy_lifshitz,
)

CUTOFF_LAMBDA = 100.0
ZERO_T_AGREEMENT = 1e-9       # relative, canonical vs Lifshitz at That = 0
REFERENCE_PATH = HERE / "reference.json"


def _float32_grid(lo, hi, n):
    return [float(np.float32(x)) for x in np.geomspace(lo, hi, n)]


FORCE_D = _float32_grid(0.1, 200.0, 24)
FORCE_THAT = (0.0, 0.5, 1.0, 2.0)
# (input kind, That, index into FORCE_D)
FORCE_TYPED = (("int", 1.0, 4), ("int", 2.0, 12), ("int", 1.0, 20),
               ("int64", 2.0, 8), ("int64", 1.0, 16), ("float32", 2.0, 22))

ENTROPY_D = _float32_grid(0.5, 20.0, 6)
ENTROPY_THAT = (0.01, 0.5, 2.0)
COLD_POINT = (1.0, 0.01)      # acceptance criterion 8's cold point
ENTROPY_TYPED = (("int", 2.0, 5), ("int64", 2.0, 1), ("float32", 2.0, 3))

FIGURE_THAT = (0.5, 1.0, 2.0)   # the CLI's default --That-set for figure 3a
FIGURE_ROWS = 48
ROUTES = ("canonical", "lifshitz")


def _as_kind(x: float, kind: str):
    if kind == "float32":
        return np.float32(x)
    if kind in ("int", "int64") and float(x).is_integer():
        return int(x) if kind == "int" else np.int64(x)
    return x


@dataclass(frozen=True)
class Point:
    """One grid point and the numeric type its coordinates are passed as."""

    d: float
    That: float
    kind: str = "float"

    @property
    def key(self) -> str:
        return f"{self.d!r}/{self.That!r}"

    def inputs(self) -> DimensionlessPoint:
        return DimensionlessPoint(_as_kind(self.d, self.kind), _as_kind(self.That, self.kind))


@dataclass(frozen=True)
class Api:
    """The library entry points a workload calls; tracing swaps in wrappers."""

    force: Callable = casimir_force
    entropy_canonical: Callable = entropy_canonical
    entropy_lifshitz: Callable = entropy_lifshitz


def traced_api(tr) -> Api:
    """Api whose calls open the benchmark's own forces / thermo.entropy spans."""
    from tracer import count_canonical
    return Api(force=tr.span("forces", casimir_force),
               entropy_canonical=tr.span("thermo.entropy", entropy_canonical, count_canonical),
               entropy_lifshitz=tr.span("thermo.entropy", entropy_lifshitz))


def _eval_force(api: Api, p: Point):
    pt = p.inputs()
    return tuple(api.force(pt, route).estimate for route in ROUTES)


def _eval_entropy(api: Api, p: Point):
    pt = p.inputs()
    return (api.entropy_canonical(pt, CUTOFF_LAMBDA).estimate,
            api.entropy_lifshitz(pt, CUTOFF_LAMBDA, include_zero_mode=True).estimate)


def _grid(ds, thats, typed, extra=()):
    kinds = {(ds[i], that): kind for kind, that, i in typed}
    points = [Point(d, that, kinds.get((d, that), "float")) for that in thats for d in ds]
    return points + [Point(d, that) for d, that in extra]


@dataclass(frozen=True)
class InProcess:
    """A workload whose points are library calls in this process."""

    name: str
    grid: tuple[Point, ...]
    evaluate: Callable[[Api, Point], tuple]
    pass_s: float             # a run makes round(seconds / pass_s) passes

    def inputs(self, seed: int) -> list[Point]:
        """The grid in the order the seed sets."""
        order = np.random.default_rng(seed).permutation(len(self.grid))
        return [self.grid[i] for i in order]

    @property
    def first_point(self) -> Point:
        """The point a set-up probe evaluates: the first grid point."""
        return self.grid[0]


FORCE_SWEEP = InProcess(
    "force_sweep", tuple(_grid(FORCE_D, FORCE_THAT, FORCE_TYPED)), _eval_force,
    pass_s=2.5)
ENTROPY_GRID = InProcess(
    "entropy_grid", tuple(_grid(ENTROPY_D, ENTROPY_THAT, ENTROPY_TYPED, [COLD_POINT])),
    # 7 passes in a 15 s run: the tail (ten samples beyond) is then the median
    # of the second-slowest point's samples, not an extreme one
    _eval_entropy, pass_s=2.1)
IN_PROCESS = {w.name: w for w in (FORCE_SWEEP, ENTROPY_GRID)}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


@dataclass(frozen=True)
class Verdict:
    """Outcome of the checks on one point or CSV row."""

    reason: str | None = None   # None when every check passed
    silent: bool = False        # converged=True, yet a value check failed

    @property
    def ok(self) -> bool:
        return self.reason is None


def check_point(workload: str, p: Point, result, reference: dict) -> Verdict:
    """converged on every route, within 2x tol of the float-input reference,
    and at That = 0 the two force routes agree to ZERO_T_AGREEMENT."""
    if isinstance(result, str):
        return Verdict(f"raised {result}")
    for route, est in zip(ROUTES, result):
        if not est.converged:
            return Verdict(f"{route} converged=False after {est.evaluations} evaluations")
    ref = reference[workload]["values"][p.key]
    tol = reference[workload]["tol"]
    for route, est in zip(ROUTES, result):
        dev = abs(est.value - ref[route])
        if not dev <= 2.0 * tol[route]:
            return Verdict(f"{route} is {dev:.3g} from the reference (tol {tol[route]:g})", True)
    if workload == "force_sweep" and p.That == 0.0:
        c, l = result[0].value, result[1].value
        if not abs(c - l) <= ZERO_T_AGREEMENT * abs(l):
            return Verdict(f"routes differ by {abs(c - l) / abs(l):.3g} relative at That = 0")
    return Verdict()


def run_point(workload: InProcess, api: Api, p: Point):
    """Evaluate one point; an exception becomes a string naming it."""
    try:
        return workload.evaluate(api, p)
    except Exception as exc:  # a raising point is a failed point, not a crash
        return f"{type(exc).__name__}: {exc}"


# ------------------------------------------------------------------ figure_cli

CLI_MAIN = "import sys; from deltacasimir.cli import main; sys.exit(main())"


def figure_args(out_dir: str, jobs: int = 2) -> list[str]:
    """``deltacasimir`` arguments of one figure_cli run.  They do not depend
    on the seed: the command is the one users run, with its default grid."""
    return ["figure", "--id", "3a", "--jobs", str(jobs), "--out-dir", out_dir]


def read_figure(out_dir: Path) -> dict[str, list[list[float]]]:
    """Parsed figure 3a CSVs: That -> [[dtilde, value, evals, converged], ...]."""
    rows = {}
    for that in FIGURE_THAT:
        path = out_dir / f"figure3a_That{that:g}.csv"
        if not path.is_file():
            continue
        with open(path, newline="") as fh:
            rows[f"{that:g}"] = [[float(r["dtilde"]), float(r["value"]), int(r["evals"]),
                                  r["converged"] == "true"] for r in csv.DictReader(fh)]
    return rows


def check_figure(rows: dict, reference: dict) -> list[Verdict]:
    """One verdict per expected CSV row (a missing row fails)."""
    ref = reference["figure_cli"]
    tol = ref["tol"]["density"]
    out = []
    for that, ref_rows in ref["values"].items():
        got = rows.get(that, [])
        for i, (dtilde, value) in enumerate(ref_rows):
            if i >= len(got):
                out.append(Verdict(f"That={that} row {i} missing"))
                continue
            g_d, g_v, _, g_conv = got[i]
            if g_d != dtilde:
                out.append(Verdict(f"That={that} row {i} has dtilde {g_d!r}, expected {dtilde!r}"))
            elif not g_conv:
                out.append(Verdict(f"That={that} dtilde={dtilde:g} converged=false"))
            elif not abs(g_v - value) <= 2.0 * tol:
                out.append(Verdict(f"That={that} dtilde={dtilde:g} is {abs(g_v - value):.3g} "
                                   "from the reference", True))
            else:
                out.append(Verdict())
        if len(got) > len(ref_rows):
            out.append(Verdict(f"That={that} has {len(got) - len(ref_rows)} extra rows"))
    return out


def tally(verdicts) -> tuple[int, int, bool]:
    """(attempted, failed, correct): correct is False when any output was
    silently wrong, i.e. reported as converged yet failed a value check."""
    verdicts = list(verdicts)
    failed = sum(not v.ok for v in verdicts)
    return len(verdicts), failed, not any(v.silent for v in verdicts)
