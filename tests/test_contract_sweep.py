"""A seeded contract sweep of every public entry over (d, That, Lambda, tol).

``DRAWS`` points come from the fixed ``SEED``: d log-uniform on [1e-9, 1e5];
That = 0 for one draw in four (and wherever d < 3e-8), else log-uniform on
[1e-9, 1e4] given That d >= 3e-4, which keeps every Matsubara series, the
oracles' included, under about 2e4 terms; Lambda/d log-uniform on [1, 1e4];
and tol log-uniform on [1e-13, 1e-2].  Every entry must meet the contract
at every draw:

* it raises nothing but ``DomainError``, and no RuntimeWarning;
* a value that is not finite has the estimate inf;
* where it converged, the bounds that need no oracle hold within its
  estimate: the forces are <= 0, 0 <= density <= pi That/6 and
  0 <= S_C <= (pi That/6)(Lambda - d) (the ``thermo`` docstrings);
* where it converged, it holds its estimate of an independent value: the
  canonical force of 1/2 (F(d, 0) + F_L), both Lifshitz values at tol/1000
  (where both converge); the density and the canonical entropy of
  ``oracles.density_identity`` and ``entropy_identity`` (plus their
  rounding allowance); the Matsubara entropy without its zero mode, where
  That d >= 0.1, of its direct sum at 40 digits.

The canonical entropy runs only where its densities' tolerance
tol/(4 (Lambda - d)) is at least 1e-14.  Its nested quadrature's cost grows
with Lambda/tol until ROADMAP item 21 takes it onto one ray integral: at
(9.8, 1.8e-4, 4.5e4, 3.3e-11) it took 43 s while its densities ran on the
real axis, and 84,270 evaluations (16 ms) with its densities on the ray.
The real-axis densities could not converge past d = 1e6, and the outer
integral bisected on to 1.8 GB and a MemoryError at (1.6e4, 1.9e-7, 4.7e7,
2.1e-6); there the ray's converge, in 9,660 evaluations, so Lambda has no
gate.

A known miss is a strict xfail of its region, which names the item that
mends it; its draws are the box's in the region and a stated number more,
drawn from the box until they fall in it.  A region whose misses were
mended keeps its draws as an ordinary checked region.  A miss anywhere
else fails.  One
more test draws That as an int, np.int64 or np.float32, whose result must
be the float twin's bit for bit; and one extreme value per entry must give
a DomainError or an unconverged value, never a quiet converged one.
"""
import math
import warnings

import numpy as np
import pytest
from oracles import density_identity, entropy_identity

from deltacasimir import (
    DimensionlessPoint as P,
    DomainError,
    casimir_force,
    entropy_canonical,
    entropy_density_canonical,
    entropy_lifshitz,
    free_energy_lifshitz,
    numerics,
)

SEED = 20261020
DRAWS = 160
TYPED_DRAWS = 12


def _draw(rng):
    """One (d, That, Lambda, tol) from the box."""
    d = 10.0 ** rng.uniform(-9.0, 5.0)
    that = 0.0
    if rng.uniform() >= 0.25 and 3e-4 / d < 1e4:
        that = 10.0 ** rng.uniform(max(-9.0, math.log10(3e-4 / d)), 4.0)
    return d, that, d * 10.0 ** rng.uniform(0.0, 4.0), 10.0 ** rng.uniform(-13.0, -2.0)


_rng = np.random.default_rng(SEED)
POINTS = [_draw(_rng) for _ in range(DRAWS)]

# entry -> its call at (d, That, Lambda, tol); That may be typed
CALLS = {
    "canonical_force": lambda d, t, lam, tol: casimir_force(P(d, t), "canonical", tol),
    "lifshitz_force": lambda d, t, lam, tol: casimir_force(P(d, t), "lifshitz", tol),
    "free_energy": lambda d, t, lam, tol: free_energy_lifshitz(P(d, t), lam, tol),
    "lifshitz_entropy": lambda d, t, lam, tol: entropy_lifshitz(P(d, t), lam, True, tol),
    "lifshitz_entropy_without_zero_mode":
        lambda d, t, lam, tol: entropy_lifshitz(P(d, t), lam, False, tol),
    "density": lambda d, t, lam, tol: entropy_density_canonical(d, t, tol),
    "canonical_entropy": lambda d, t, lam, tol: entropy_canonical(P(d, t), lam, tol),
}


def _runs(entry, p):
    """Whether the sweep runs ``entry`` at p (see the module docstring)."""
    d, _, lam, tol = p
    return entry != "canonical_entropy" or tol >= 4e-14 * (lam - d)


def _call(fn):
    """(result, problem): fn()'s result, or None with what it raised; a
    DomainError is (None, None)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return fn(), None
        except DomainError:
            return None, None
        except Exception as exc:   # the contract allows only DomainError
            return None, f"raised {type(exc).__name__}: {exc}"


def _lifshitz_half_sum(d, that, lam, tol):
    """1/2 (F(d, 0) + F_L(d, That)) and half their estimates, both at
    tol/1000, or (None, 0) unless both converged."""
    zero_t, _ = _call(lambda: casimir_force(P(d), "lifshitz", 1e-3 * tol))
    warm = _call(lambda: casimir_force(P(d, that), "lifshitz", 1e-3 * tol))[0] \
        if that else zero_t
    if not (zero_t and warm and zero_t.estimate.converged and warm.estimate.converged):
        return None, 0.0
    return (0.5 * (zero_t.value + warm.value),
            0.5 * (zero_t.estimate.abs_error_estimate + warm.estimate.abs_error_estimate))


def _entropy_without_zero_mode_mpmath(d, that, lam, tol):
    """sum_n -log(1-y) - a((1+a)d+2) y/((1+a)(1-y)), a = 4 pi n That,
    y = e^{-ad}/(1+a)^2, at 40 digits, to the term below e^{-120} of the
    first; with slack 0, or (None, 0) where That d < 0.1 makes it long."""
    if that * d < 0.1:
        return None, 0.0
    import mpmath
    with mpmath.workdps(40):
        dm, c = mpmath.mpf(d), 4 * mpmath.pi * mpmath.mpf(that)
        total = mpmath.mpf(0)
        for n in range(1, int(120.0 / (4.0 * math.pi * that * d)) + 2):
            a = c * n
            y = mpmath.exp(-a * dm) / (1 + a) ** 2
            total += -mpmath.log1p(-y) - a * ((1 + a) * dm + 2) * y / ((1 + a) * (1 - y))
        return float(total), 0.0


# entry -> (low, high) at (d, That, Lambda): the bounds that need no oracle
BOUNDS = {
    "canonical_force": lambda d, t, lam: (-math.inf, 0.0),
    "lifshitz_force": lambda d, t, lam: (-math.inf, 0.0),
    "density": lambda d, t, lam: (0.0, math.pi * t / 6.0),
    "canonical_entropy": lambda d, t, lam: (0.0, math.pi * t / 6.0 * (lam - d)),
}
# entry -> the independent value at (d, That, Lambda, tol) and its slack, or (None, 0)
ORACLES = {
    "canonical_force": _lifshitz_half_sum,
    "lifshitz_entropy_without_zero_mode": _entropy_without_zero_mode_mpmath,
    "density": lambda d, t, lam, tol: density_identity(d, t),
    "canonical_entropy": lambda d, t, lam, tol: entropy_identity(d, t, lam),
}


def _problem(entry, p):
    """What ``entry`` at the draw p breaks of the contract, or None: it
    raises, warns, gives a value that is not finite with a finite estimate,
    or converges to a value outside its bounds or farther than its estimate
    plus the slack from the oracle's value."""
    got, problem = _call(lambda: CALLS[entry](*p))
    if got is None:
        return problem
    est = got.estimate
    v, e = float(est.value), float(est.abs_error_estimate)
    if not math.isfinite(v) and e != math.inf:
        return f"value {v} with estimate {e}"
    if not est.converged:
        return None
    low, high = BOUNDS[entry](*p[:3]) if entry in BOUNDS else (-math.inf, math.inf)
    if not low - e <= v <= high + e:
        return f"value {v} outside [{low}, {high}] beyond its estimate {e}"
    want, slack = ORACLES[entry](*p) if entry in ORACLES else (None, 0.0)
    if want is not None and abs(v - want) > e + slack:
        return f"{abs(v - want):.3g} off {want!r}, estimate {e:.3g}, slack {slack:.3g}"
    return None


# the large-d region: on the real axis the first cavity dip's nodes carry
# noise of relative size ~eps d^2, and the force's error grows like
# ~2.5e-18 That d
LARGE_D = ("d>=300", lambda d, t, lam, tol: d >= 300.0, 24)
# entry -> [(region, whether a draw lies in it, how many more draws it gets,
# why its misses are known, or None where they were mended)].  The density's
# misses in both regions were the real axis's (at That >= 20, d < 0.05 about
# 1 draw in 60, so that region gets more draws); on the ray they pass
KNOWN = {
    "canonical_force": [(*LARGE_D, "ROADMAP item 10: the canonical route's large-d misses")],
    "density": [(*LARGE_D, None), (
        "That>=20,d<0.05", lambda d, t, lam, tol: t >= 20.0 and d < 0.05, 240, None)],
    "lifshitz_entropy_without_zero_mode": [(
        "That*d>=1", lambda d, t, lam, tol: t * d >= 1.0, 24,
        "ROADMAP item 5: the estimate misses the rounding of e^{-ad}")],
}


def _region(entry, p):
    """The known-miss region of ``entry`` that holds the draw p, or "box"."""
    return next((name for name, inside, _, _ in KNOWN.get(entry, ()) if inside(*p)), "box")


def _region_points(entry, region):
    """The draws of ``entry``'s region that it runs at: the box's, and for a
    known-miss region its number more from the box that fall in it."""
    points = [p for p in POINTS if _region(entry, p) == region and _runs(entry, p)]
    more = next((n for name, _, n, _ in KNOWN.get(entry, ()) if name == region), 0)
    rng = np.random.default_rng([SEED, *f"{entry}/{region}".encode()])
    while more:
        p = _draw(rng)
        if _region(entry, p) == region:
            points.append(p)
            more -= 1
    return points


@pytest.mark.parametrize("entry, region", [(entry, "box") for entry in CALLS] + [
    pytest.param(entry, name, marks=pytest.mark.xfail(strict=True, raises=AssertionError,
                                                      reason=why) if why else ())
    for entry, regions in KNOWN.items() for name, _, _, why in regions])
def test_every_entry_meets_its_contract(entry, region):
    points = _region_points(entry, region)
    misses = [f"{entry}{p}: {m}" for p in points if (m := _problem(entry, p))]
    assert not misses, "\n".join(misses)


def test_every_entry_runs_at_half_the_box_or_more():
    # a gate or region that swallowed the box would leave the sweep empty
    for entry in CALLS:
        assert len(_region_points(entry, "box")) >= DRAWS // 2, entry


def _typed_points():
    """(d, That as an int, np.int64 or np.float32, Lambda, tol) from the box
    with That > 0; an integral That is rounded up, which keeps That d >= 3e-4."""
    rng, out = np.random.default_rng([SEED, *b"typed"]), []
    while len(out) < TYPED_DRAWS:
        d, that, lam, tol = _draw(rng)
        if that:
            typed = (math.ceil(that), np.int64(math.ceil(that)), np.float32(that))[len(out) % 3]
            out.append((d, typed, lam, tol))
    return out


def _key(result):
    est = result.estimate
    return (float(est.value).hex(), float(est.abs_error_estimate).hex(), int(est.evaluations),
            bool(est.converged))


@pytest.mark.parametrize("entry", [
    pytest.param(entry, marks=pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="ROADMAP item 2: the canonical force takes That's dtype"))
    if entry == "canonical_force" else entry for entry in CALLS])
def test_a_typed_that_gives_the_float_bits(entry):
    differ = []
    for d, typed, lam, tol in _typed_points():
        if not _runs(entry, (d, float(typed), lam, tol)):
            continue
        got, problem = _call(lambda: CALLS[entry](d, typed, lam, tol))
        want, _ = _call(lambda: CALLS[entry](d, float(typed), lam, tol))
        if problem or (got and _key(got)) != (want and _key(want)):
            differ.append(f"{entry}({d}, {typed!r}, {lam}, {tol}): {problem or 'other bits'}")
    assert not differ, "\n".join(differ)


# entry -> (d, That, Lambda, tol, what it must give): a DomainError naming
# That, or a value whose estimate is inf, or one that is not converged.  The
# zero mode's log of an underflowing 2 pi That (d+2)/Lambda was a
# ValueError, and below That ~ 2.2e-310 the forces read nan and the free
# energy -inf; the density and the canonical entropy take the forces' That
# domain
EXTREMES = {
    "canonical_force": (1.0, 1e-310, 100.0, 1e-10, DomainError),
    "lifshitz_force": (1.0, 1e-310, 100.0, 1e-10, DomainError),
    "free_energy": (1.0, 1e-200, 1e150, 1e-12, math.inf),
    "lifshitz_entropy": (1.0, 1e-200, 1e150, 1e-12, math.inf),
    "lifshitz_entropy_without_zero_mode": (1.0, 5e-324, 100.0, 1e-12, DomainError),
    "density": (1.0, 1e-310, 100.0, 1e-8, DomainError),
    "canonical_entropy": (1.0, 1e-310, 100.0, 1e-6, DomainError),
}


@pytest.mark.parametrize("entry", CALLS)
def test_an_extreme_value_gives_no_quiet_converged_value(entry, monkeypatch):
    # the Matsubara ratio e^{-4 pi That d} rounds to 1 at That = 1e-200:
    # the series take _MAX_TERMS terms, and fewer do here
    monkeypatch.setattr(numerics, "_MAX_TERMS", 1_000)
    *p, want = EXTREMES[entry]
    if want is DomainError:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="That="):
                CALLS[entry](*p)
        return
    got, problem = _call(lambda: CALLS[entry](*p))
    assert problem is None
    est = got.estimate
    assert not est.converged and (math.isfinite(est.value) or est.abs_error_estimate == math.inf)
    if want == math.inf:
        assert est.abs_error_estimate == math.inf and not math.isfinite(est.value)
