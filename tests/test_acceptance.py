"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines for passing tests too).
"""
import cmath
import math
import time

import numpy as np
import pytest

from deltacasimir import (
    DimensionlessPoint,
    OscillatorySpec,
    coefficients_closed_form,
    coefficients_linear_solve,
    entropy_canonical,
    entropy_density_canonical,
    entropy_lifshitz,
    entropy_lifshitz_temperature_slope,
    force_finite_t_canonical,
    force_finite_t_lifshitz,
    force_zero_t_canonical,
    force_zero_t_lifshitz,
    integrate_oscillatory_tail,
    integrate_smooth_semi_infinite,
    kernel,
)

# extended-precision (mpmath, 40 digit) value of the imaginary-axis integral
# at d = 50, times 24 d^2/pi; the Dirichlet-limit value -1 is approached only
# as d -> inf (the correction is -4/d +O(1/d^2), i.e. ~ -7.4% here)
DIRICHLET_RATIO_ORACLE_D50 = -0.9259949306379484


def _check(capsys, num, name, ok, detail=""):
    with capsys.disabled():
        print(f"\nACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {name} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_zero_t_method_equivalence(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for d in (0.2, 0.5, 1.0, 2.0, 5.0, 10.0):
        fc = force_zero_t_canonical(d)
        fl = force_zero_t_lifshitz(d)
        rel = abs(fc.value - fl.value) / abs(fl.value)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed <= 10.0
    _check(capsys, 1, "zero-T canonical == Lifshitz", ok,
           f"(worst rel diff {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_02_dirichlet_limit(capsys):
    t0 = time.perf_counter()
    ratio = force_zero_t_lifshitz(50.0, tol=1e-12).value * 24.0 * 50.0 ** 2 / math.pi
    elapsed = time.perf_counter() - t0
    ok = abs(ratio - DIRICHLET_RATIO_ORACLE_D50) <= 1e-3 and elapsed <= 1.0
    _check(capsys, 2, "strong-coupling ratio vs extended-precision oracle", ok,
           f"(ratio {ratio:.6f}, oracle {DIRICHLET_RATIO_ORACLE_D50:.6f}, {elapsed:.2f} s)")


def test_criterion_03_long_distance_asymptotics(capsys):
    t0 = time.perf_counter()
    pt = DimensionlessPoint(200.0, 2.0)
    fc = force_finite_t_canonical(pt).value
    fl = force_finite_t_lifshitz(pt).value
    elapsed = time.perf_counter() - t0
    dev = abs(fc - (-2.0 / 800.0)) / (2.0 / 800.0)
    ratio = fl / fc
    ok = dev <= 0.01 and 1.98 <= ratio <= 2.02 and elapsed <= 30.0
    _check(capsys, 3, "F_C -> -That/(4d) and F_L/F_C -> 2", ok,
           f"(dev {dev:.4f}, ratio {ratio:.4f}, {elapsed:.2f} s)")


def _random_sample():
    rng = np.random.default_rng(20250810)
    q = rng.uniform(1e-6, 100.0, size=10000)
    d = rng.uniform(1e-6, 50.0, size=10000)
    return q, d


def test_criterion_04_scattering_identities(capsys):
    q, d = _random_sample()
    worst_unit = worst_flux = worst_diff = 0.0
    for qi, di in zip(q, d):
        a = coefficients_closed_form(float(qi), float(di))
        b = coefficients_linear_solve(float(qi), float(di))
        worst_unit = max(worst_unit, abs(a.unitarity_residual))
        worst_flux = max(worst_flux, abs(a.flux_residual))
        worst_diff = max(worst_diff, abs(a.B - b.B), abs(a.C - b.C),
                         abs(a.D - b.D), abs(a.G - b.G))
    ok = worst_unit <= 1e-12 and worst_flux <= 1e-12 and worst_diff <= 1e-12
    _check(capsys, 4, "flux identities and closed form vs solve (1e4 points)", ok,
           f"(unitarity {worst_unit:.1e}, flux {worst_flux:.1e}, diff {worst_diff:.1e})")


def test_criterion_05_long_wavelength_limits(capsys):
    worst = 0.0
    for d in (0.5, 1.0, 10.0):
        co = coefficients_closed_form(1e-6, d)
        worst = max(worst, abs(co.C - 1.0 / (d + 2.0)), abs(co.D + 1.0 / (d + 2.0)))
    ok = worst <= 1e-5
    _check(capsys, 5, "long-wavelength C, D -> +-1/(d+2)", ok, f"(worst {worst:.2e})")


def test_criterion_06_kernel_algebraic_identity(capsys):
    q, d = _random_sample()
    worst = 0.0
    for qi, di in zip(q, d):
        w = abs(1.0 - cmath.exp(2j * di * qi) * (1.0 + 2j * qi) ** 2) ** 2
        k_complex = 8.0 * qi * qi * (1.0 + 2.0 * qi * qi) / w - 1.0
        worst = max(worst, abs(kernel(float(qi), float(di)).value - k_complex))
    ok = worst <= 1e-12
    _check(capsys, 6, "complex-arithmetic K == expanded real-form K", ok,
           f"(worst {worst:.1e})")


def test_criterion_07_entropy_positivity_and_monotonicity(capsys):
    t0 = time.perf_counter()
    grid_d = (0.5, 1.0, 2.0, 5.0)
    grid_t = (0.25, 0.5, 1.0, 2.0)
    ok = True
    detail = []
    for d in grid_d:
        row = [entropy_canonical(DimensionlessPoint(d, t), 100.0, tol=1e-8) for t in grid_t]
        if any(s.value < 0.0 for s in row):
            ok = False
            detail.append(f"negative at d={d}")
        # increasing in That, resolved to the combined numerical error: beyond
        # d*That ~ 1 the true differences are ~exp(-4 pi d That), below any
        # floating-point tolerance, so equality-within-error must count
        for a, b in zip(row, row[1:]):
            if b.value < a.value - (a.estimate.abs_error_estimate + b.estimate.abs_error_estimate):
                ok = False
                detail.append(f"decrease at d={d}: {a.value!r} -> {b.value!r}")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed <= 300.0
    _check(capsys, 7, "canonical entropy >= 0 and increasing in That", ok,
           f"({'; '.join(detail) or 'all rows monotone'}, {elapsed:.1f} s)")


def _entropy_closed_form_distance(d, that, lam, nodes=200_000):
    """Canonical entropy S(d, That) at cutoff lam, independent of the package.

    The distance integral of the flux deficit is done in closed form.  With
    phi = arctan 2q, k = (1 + 2q^2)/(2q^2) and Theta(theta) = arctan(k tan
    theta) unwrapped across branches,

        int_d^lam flux_deficit(q, x) dx
            = (lam - d) - [Theta(q lam + phi) - Theta(q d + phi)] / q,

    whose q -> 0 limit is (lam - d) - 2 (1/(d+2) - 1/(lam+2)).  The
    remaining q integral, (1/2pi) int_0^inf (u/sinh u)^2 [...] dq with
    u = q/(2 That), has an even, analytic integrand, so one trapezoid rule
    on [0, 60 That] converges spectrally once the node spacing resolves the
    cavity resonances (width about 2q^2/lam, narrowest near q = pi/lam); at
    d = 1, That = 0.01, lam = 100 doubling the nodes from 2e5 moves the
    value by about 1e-16.
    """
    q = np.linspace(0.0, 60.0 * that, nodes + 1)[1:]
    phi = np.arctan(2.0 * q)
    k = (1.0 + 2.0 * q * q) / (2.0 * q * q)

    def unwrapped(theta):
        # Theta - theta = atan2 with a positive second argument: continuous
        s, c = np.sin(theta), np.cos(theta)
        return theta + np.arctan2((k - 1.0) * s * c, c * c + k * s * s)

    dist = (lam - d) - (unwrapped(q * lam + phi) - unwrapped(q * d + phi)) / q
    dist0 = (lam - d) - 2.0 * (1.0 / (d + 2.0) - 1.0 / (lam + 2.0))
    u = q / (2.0 * that)
    f = (u / np.sinh(u)) ** 2 * dist
    return q[0] * (0.5 * dist0 + f[:-1].sum() + 0.5 * f[-1]) / (2.0 * math.pi)


def test_criterion_08_third_law_ratio(capsys):
    # The flux deficit is at most 1 and (1/2pi) int (u/sinh u)^2 dq = pi That/6,
    # so S(d, That) <= (pi That/6)(Lambda - d) at every temperature.  Once
    # That*Lambda << 1 the thermal weight only sees q << 1/Lambda, where the
    # deficit is 1 - 2/(x+2)^2, and S -> (pi That/6)[(Lambda - d)
    # - 2(1/(d+2) - 1/(Lambda+2))]: the entropy vanishes linearly in That
    # (51.497 That at d = 1).  At Lambda = 100 That = 0.01 is the knee of
    # that law (S is 0.79 of the linear value there, S/S_warm = 0.46), so the
    # 0.05 ratio is asserted at That*Lambda = 0.05, inside the linear regime,
    # and the knee value is pinned by the bound and an independent oracle.
    lam, d = 100.0, 1.0
    warm = entropy_canonical(DimensionlessPoint(d, 1.0), lam).value
    that_cold = 0.05 / lam
    cold = entropy_canonical(DimensionlessPoint(d, that_cold), lam).value
    ratio = cold / warm

    slope = math.pi / 6.0 * ((lam - d) - 2.0 * (1.0 / (d + 2.0) - 1.0 / (lam + 2.0)))
    slope_dev = max(abs(cold / that_cold / slope - 1.0),
                    abs(entropy_canonical(DimensionlessPoint(d, 1e-3), lam).value
                        / 1e-3 / slope - 1.0))

    knee = entropy_canonical(DimensionlessPoint(d, 0.01), lam).value
    bound = math.pi * 0.01 / 6.0 * (lam - d)
    oracle_diff = abs(knee - _entropy_closed_form_distance(d, 0.01, lam))

    ok = (cold <= 0.05 * warm and slope_dev <= 1e-3
          and knee <= bound and oracle_diff <= 1e-8)
    _check(capsys, 8, "third law: S(That=0.05/Lambda) <= 0.05 S(That=1) at Lambda=100, "
           "linear law, knee vs oracle", ok,
           f"(cold ratio {ratio:.4f}, slope dev {slope_dev:.1e}, "
           f"S(0.01) {knee:.10f} <= bound {bound:.4f}, oracle diff {oracle_diff:.1e})")


def test_criterion_09_universal_entropy_density_tail(capsys):
    worst = 0.0
    for that in (1.0, 2.0):
        dens = entropy_density_canonical(100.0, that)
        worst = max(worst, abs(dens.value - 0.0025) / 0.0025)
    ok = worst <= 0.02
    _check(capsys, 9, "entropy density at dtilde=100 equals 1/400", ok,
           f"(worst rel dev {worst:.4f})")


def test_criterion_10_lifshitz_entropy_dilemma(capsys):
    vals = [entropy_lifshitz(DimensionlessPoint(1.0, t), 100.0).value
            for t in (0.1, 0.01, 0.001)]
    diverging = vals[0] < vals[1] < vals[2]
    negative = entropy_lifshitz(DimensionlessPoint(5.0, 1.0), 100.0,
                                include_zero_mode=False).value < 0.0
    slope = entropy_lifshitz_temperature_slope(DimensionlessPoint(100.0, 1.0), 100.0, delta=1e-3)
    slope_ok = abs(slope - (-0.5)) <= 0.10 * 0.5
    ok = diverging and negative and slope_ok
    _check(capsys, 10, "Lifshitz entropy dilemma (divergence, sign, slope)", ok,
           f"(trend {vals[0]:.3f}<{vals[1]:.3f}<{vals[2]:.3f}: {diverging}, "
           f"S_L(5,1)<0: {negative}, slope {slope:.4f})")


def test_criterion_11_maxwell_relation(capsys):
    worst = 0.0
    delta = 1e-4
    for dt, that in ((1.0, 0.5), (1.0, 2.0), (10.0, 0.5), (10.0, 2.0)):
        up = force_finite_t_canonical(DimensionlessPoint(dt, that + delta), tol=1e-11).value
        dn = force_finite_t_canonical(DimensionlessPoint(dt, that - delta), tol=1e-11).value
        fd = -(up - dn) / (2.0 * delta)
        dens = entropy_density_canonical(dt, that).value
        worst = max(worst, abs(dens - fd))
    ok = worst <= 1e-4
    _check(capsys, 11, "entropy density == -dF_C/dThat (central difference)", ok,
           f"(worst abs diff {worst:.2e})")


def test_criterion_12_quadrature_error_honesty(capsys):
    sqrt_pi = math.sqrt(math.pi)
    smooth = [
        (lambda x: np.exp(-x), 1.0, 1.0),
        (lambda x: x * np.exp(-x), 1.0, 1.0),
        (lambda x: x ** 2 * np.exp(-x), 1.0, 2.0),
        (lambda x: x ** 3 * np.exp(-x), 1.0, 6.0),
        (lambda x: x ** 4 * np.exp(-x), 1.0, 24.0),
        (lambda x: np.exp(-2.0 * x), 0.5, 0.5),
        (lambda x: x * np.exp(-3.0 * x), 1.0 / 3.0, 1.0 / 9.0),
        (lambda x: np.exp(-x ** 2), 1.0, sqrt_pi / 2.0),
        (lambda x: x * np.exp(-x ** 2), 1.0, 0.5),
        (lambda x: x ** 2 * np.exp(-x ** 2), 1.0, sqrt_pi / 4.0),
        (lambda x: np.exp(-x) * np.cos(x), 1.0, 0.5),
        (lambda x: np.exp(-x) * np.sin(x), 1.0, 0.5),
        (lambda x: 1.0 / np.cosh(x) ** 2, 0.5, 1.0),
        (lambda x: x / np.cosh(x) ** 2, 0.5, math.log(2.0)),
        (lambda x: (1.0 + x) * np.exp(-x), 1.0, 2.0),
    ]

    def masked_sinc(q):
        q = np.asarray(q, float)
        out = np.ones(q.shape)
        m = q > 0
        out[m] = np.sin(q[m]) / q[m]
        return out

    def cos_over_2q(q):
        q = np.asarray(q, float)
        out = np.zeros(q.shape)
        m = q >= 1.0
        out[m] = np.cos(2.0 * q[m]) / (2.0 * q[m])
        return out

    def halfcos_over_q(q):
        q = np.asarray(q, float)
        out = np.zeros(q.shape)
        m = q >= 1.0
        out[m] = np.cos(0.5 * q[m]) / q[m]
        return out

    ci2 = 0.4229808287748649956986
    ci05 = -0.1777840788066129013358   # Ci(0.5), mpmath
    oscillatory = [
        (masked_sinc, OscillatorySpec(1.0, 4.0 * math.pi), math.pi / 2.0),
        (lambda q: np.cos(np.asarray(q, float)) / (1.0 + np.asarray(q, float) ** 2),
         OscillatorySpec(1.0, 4.0 * math.pi), math.pi / (2.0 * math.e)),
        (cos_over_2q, OscillatorySpec(2.0, 10.0), -ci2 / 2.0),
        (halfcos_over_q, OscillatorySpec(0.5, 8.0 * math.pi), -ci05),
        (lambda q: np.exp(-np.asarray(q, float)) * np.sin(2.0 * np.asarray(q, float)),
         OscillatorySpec(2.0, 10.0), 0.4),
    ]

    count = 0
    worst = 0.0
    failures = []
    for i, (f, scale, exact) in enumerate(smooth):
        est = integrate_smooth_semi_infinite(f, scale, 1e-10)
        count += 1
        if est.converged:
            true_err = abs(est.value - exact)
            if est.abs_error_estimate > 1e-10:
                failures.append(f"smooth[{i}]: converged but estimate above tol")
            if true_err > 10.0 * est.abs_error_estimate:
                failures.append(f"smooth[{i}]: true {true_err:.1e} > 10x est {est.abs_error_estimate:.1e}")
            worst = max(worst, true_err / max(est.abs_error_estimate, 1e-300))
        else:
            failures.append(f"smooth[{i}]: did not converge")
    for i, (f, spec, exact) in enumerate(oscillatory):
        est = integrate_oscillatory_tail(f, spec, 1e-9)
        count += 1
        if est.converged:
            true_err = abs(est.value - exact)
            if true_err > 10.0 * est.abs_error_estimate:
                failures.append(f"osc[{i}]: true {true_err:.1e} > 10x est {est.abs_error_estimate:.1e}")
            worst = max(worst, true_err / max(est.abs_error_estimate, 1e-300))
        else:
            failures.append(f"osc[{i}]: did not converge")
    ok = count == 20 and not failures
    _check(capsys, 12, "error honesty on 20 closed-form integrals", ok,
           f"({'; '.join(failures) or f'worst true/est ratio {worst:.2f}'})")
