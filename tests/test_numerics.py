import math
import os
import subprocess
import sys

import numpy as np
import pytest

from deltacasimir import (
    DomainError,
    OscillatorySpec,
    bose_factor,
    cosine_integral,
    integrate_oscillatory_tail,
    integrate_smooth_semi_infinite,
    sum_exponential_series,
    thermal_weight,
)

# mpmath, 40 digits
CI_1 = 0.3374039229009681346626
CI_2 = 0.4229808287748649956986
CI_10 = -0.04545643300445537263453
# integral of z/(e^z (1+z)^2 - 1)/(4 pi) over [0, inf), mpmath
LIFSHITZ_INTEGRAND_D1 = 0.02230693963739628735344


# ------------------------------------------------------- smooth semi-infinite

def test_smooth_exp():
    est = integrate_smooth_semi_infinite(lambda x: np.exp(-x), 1.0, 1e-12)
    assert est.converged
    assert est.abs_error_estimate <= 1e-12
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_smooth_x_exp():
    est = integrate_smooth_semi_infinite(lambda x: x * np.exp(-x), 1.0, 1e-12)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_smooth_lifshitz_integrand():
    d = 1.0

    def f(z):
        z = np.asarray(z, float)
        den = np.expm1(d * z) * (1.0 + z) ** 2 + z * (2.0 + z)
        out = np.full(z.shape, 1.0 / (d + 2.0))
        m = z > 0
        out[m] = z[m] / den[m]
        return out / (4.0 * math.pi)

    # composite-panel oracle at ~10x the engine's node density
    from deltacasimir.numerics import _gk_apply
    edges = np.linspace(0.0, 80.0, 4001)
    vals, _, _ = _gk_apply(f, edges[:-1], edges[1:])
    oracle = float(vals.sum())
    assert oracle == pytest.approx(LIFSHITZ_INTEGRAND_D1, abs=1e-14)

    est = integrate_smooth_semi_infinite(f, 1.0 / d, 1e-12)
    assert est.converged
    assert est.value == pytest.approx(oracle, abs=2e-12)


def test_smooth_zero_function():
    est = integrate_smooth_semi_infinite(lambda x: np.zeros_like(np.asarray(x, float)), 1.0, 1e-10)
    assert est.converged
    assert est.value == 0.0


def test_smooth_rejects_bad_args():
    with pytest.raises(DomainError):
        integrate_smooth_semi_infinite(lambda x: x, 0.0, 1e-10)
    with pytest.raises(DomainError):
        integrate_smooth_semi_infinite(lambda x: x, 1.0, -1e-10)


# ----------------------------------------------------------- oscillatory tail

def test_oscillatory_cos_over_q():
    # f = cos(2q)/(2q) for q >= 1, zero below; integral is -Ci(2)/2
    def f(q):
        q = np.asarray(q, float)
        out = np.zeros(q.shape)
        m = q >= 1.0
        out[m] = np.cos(2.0 * q[m]) / (2.0 * q[m])
        return out

    spec = OscillatorySpec.for_rate(2.0)
    est = integrate_oscillatory_tail(f, spec, 1e-9)
    assert est.converged
    assert est.value == pytest.approx(-CI_2 / 2.0, abs=1e-9)


def test_oscillatory_degenerate_exponential():
    spec = OscillatorySpec(angular_rate=2.0, switch_point=10.0)
    est = integrate_oscillatory_tail(lambda q: np.exp(-np.asarray(q, float)), spec, 1e-10)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-10)


def test_oscillatory_sinc():
    def f(q):
        q = np.asarray(q, float)
        out = np.ones(q.shape)
        m = q > 0
        out[m] = np.sin(q[m]) / q[m]
        return out

    est = integrate_oscillatory_tail(f, OscillatorySpec.for_rate(1.0), 1e-9)
    assert est.converged
    assert est.value == pytest.approx(math.pi / 2.0, abs=2e-9)


def test_oscillatory_lorentz_cos():
    f = lambda q: np.cos(np.asarray(q, float)) / (1.0 + np.asarray(q, float) ** 2)
    est = integrate_oscillatory_tail(f, OscillatorySpec.for_rate(1.0), 1e-9)
    assert est.converged
    assert est.value == pytest.approx(math.pi / (2.0 * math.e), abs=2e-9)


@pytest.mark.parametrize("omega", [0.2, 2.0, 20.0])
@pytest.mark.parametrize("q0", [5.0, 50.0])
def test_oscillatory_closed_form_consistency(omega, q0):
    # acceleration vs the -A*Ci(omega*Q) closed form for pure A cos(omega q)/q
    if q0 < 2.0 * math.pi / omega:
        pytest.skip("switch point below one full period violates the spec invariant")
    amp = 0.7

    def f(q):
        q = np.asarray(q, float)
        out = np.zeros(q.shape)
        m = q >= 1.0
        out[m] = amp * np.cos(omega * q[m]) / q[m]
        return out

    spec = OscillatorySpec(angular_rate=omega, switch_point=q0)
    est = integrate_oscillatory_tail(f, spec, 1e-9)
    # converged implies the internal cross-check against -A Ci(omega Q) passed
    assert est.converged
    expected = -amp * cosine_integral(omega * 1.0)
    assert est.value == pytest.approx(expected, abs=5e-9)


def test_oscillatory_spec_validation():
    with pytest.raises(DomainError):
        OscillatorySpec(angular_rate=0.0, switch_point=10.0)
    with pytest.raises(DomainError):
        OscillatorySpec(angular_rate=0.2, switch_point=5.0)  # < one period
    spec = OscillatorySpec.for_rate(0.2)
    assert spec.switch_point >= 2.0 * math.pi / 0.2


# ------------------------------------------------------------ cosine integral

def test_cosine_integral_small_x_oracle():
    # power series oracle: Ci(x) = gamma + ln x + sum (-1)^k x^{2k}/(2k (2k)!)
    mpmath = pytest.importorskip("mpmath")
    mpmath.mp.dps = 40
    x = mpmath.mpf(1)
    series = mpmath.euler + mpmath.log(x) + mpmath.nsum(
        lambda k: (-1) ** k * x ** (2 * k) / (2 * k * mpmath.factorial(2 * k)), [1, mpmath.inf])
    assert float(series) == pytest.approx(CI_1, rel=1e-15)
    assert cosine_integral(1.0) == pytest.approx(CI_1, rel=1e-12)


def test_cosine_integral_mid_x_panel_oracle():
    # oracle: per-half-period panels of -cos(t)/t from x, Euler-accelerated
    from deltacasimir.numerics import _gk_apply, _wynn_epsilon
    x = 10.0
    m0 = math.ceil(x / math.pi - 0.5)
    z0 = (m0 + 0.5) * math.pi
    while z0 <= x:
        z0 += math.pi
    f = lambda t: -np.cos(np.asarray(t, float)) / np.asarray(t, float)
    stub, _, _ = _gk_apply(f, np.array([x]), np.array([z0]))
    edges = z0 + np.arange(201) * math.pi
    vals, _, _ = _gk_apply(f, edges[:-1], edges[1:])
    est, delta = _wynn_epsilon(list(stub[0] + np.cumsum(vals))[-40:])
    assert delta <= 1e-13
    assert est == pytest.approx(CI_10, abs=1e-12)
    assert cosine_integral(10.0) == pytest.approx(CI_10, rel=1e-12)


def test_cosine_integral_large_x():
    assert abs(cosine_integral(1e12)) <= 1e-10


def test_cosine_integral_domain():
    with pytest.raises(DomainError):
        cosine_integral(0.0)
    with pytest.raises(DomainError):
        cosine_integral(-3.0)


def test_scipy_special_loads_on_first_canonical_force():
    # a fresh interpreter: importing the package (CLI included) leaves
    # scipy.special unloaded; the tail cross-check of the first canonical
    # force loads it, and numerics.sici stays the module attribute it calls
    code = (
        "import sys\n"
        "import deltacasimir.cli\n"
        "from deltacasimir import DimensionlessPoint, casimir_force, numerics\n"
        "print('scipy.special' in sys.modules)\n"
        "casimir_force(DimensionlessPoint(1.0, 0.0), 'canonical')\n"
        "print('scipy.special' in sys.modules, callable(vars(numerics).get('sici')))\n"
    )
    import deltacasimir
    src = os.path.dirname(os.path.dirname(deltacasimir.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out.split("\n")[:2] == ["False", "True True"]


# ------------------------------------------------------------------- series

def test_series_geometric():
    est = sum_exponential_series(lambda n: 0.5 ** n, 1, 1e-12)
    assert est.converged
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_series_zero():
    est = sum_exponential_series(lambda n: 0.0, 1, 1e-12)
    assert est.converged
    assert est.value == 0.0


def test_series_matsubara_force_sum():
    # direct-summation oracle to n = 1e4 (terms die after a handful anyway)
    c = 4.0 * math.pi

    def term(n):
        e = math.exp(-c * n)
        return c * n * e / ((1.0 + c * n) ** 2 - e)

    oracle = sum(term(n) for n in range(1, 10001))
    assert oracle == pytest.approx(2.381101555807226e-07, rel=1e-13)
    est = sum_exponential_series(term, 1, 1e-20)
    assert est.converged
    assert est.value == pytest.approx(oracle, rel=1e-13)


def test_series_nonconvergence_reported():
    est = sum_exponential_series(lambda n: 1.0 / n, 1, 1e-12, max_terms=1000)
    assert not est.converged
    assert est.evaluations == 1000


# ------------------------------------------------------- thermal weight, bose

def test_bose_factor_laurent():
    # 1/(1-e^{-x}) = 1/x + 1/2 + O(x)
    q, that = 1e-8, 1.0
    assert bose_factor(q, that) == pytest.approx(that / q + 0.5, rel=1e-8)


def test_bose_factor_saturation_and_value():
    assert bose_factor(50.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert bose_factor(1.0, 1.0) == pytest.approx(1.0 / (1.0 - math.exp(-1.0)), rel=1e-14)


def test_thermal_weight_limits():
    assert thermal_weight(1e-10, 1.0) == pytest.approx(1.0, abs=1e-10)
    u = 20.0
    assert thermal_weight(2.0 * u, 1.0) == pytest.approx(4.0 * u * u * math.exp(-2.0 * u), rel=1e-10)
    assert thermal_weight(2.0, 1.0) == pytest.approx(1.0 / math.sinh(1.0) ** 2, rel=1e-13)


def test_thermal_weight_range_and_monotonicity():
    that = 1.3
    u = np.geomspace(1e-2, 300.0, 400)   # representable range; deeper u underflows to 0
    w = thermal_weight(2.0 * that * u, that)
    assert np.all(w > 0.0) and np.all(w <= 1.0)
    assert np.all(np.diff(w) < 0.0)
    # graceful underflow far out, never NaN
    assert thermal_weight(5000.0, 1.0) == 0.0
    assert not math.isnan(thermal_weight(1e6, 1.0))


def test_domain_validation():
    with pytest.raises(DomainError):
        bose_factor(0.0, 1.0)
    with pytest.raises(DomainError):
        bose_factor(1.0, 0.0)
    with pytest.raises(DomainError):
        thermal_weight(-1.0, 1.0)
    with pytest.raises(DomainError):
        thermal_weight(1.0, -2.0)


# ------------------------------------------------------------- determinism

def test_bit_identical_reruns():
    f = lambda x: np.exp(-x) * np.cos(3.0 * x)
    a = integrate_smooth_semi_infinite(f, 1.0, 1e-11)
    b = integrate_smooth_semi_infinite(f, 1.0, 1e-11)
    assert a == b

    def g(q):
        q = np.asarray(q, float)
        out = np.ones(q.shape)
        m = q > 0
        out[m] = np.sin(q[m]) / q[m]
        return out

    spec = OscillatorySpec.for_rate(1.0)
    assert integrate_oscillatory_tail(g, spec, 1e-9) == integrate_oscillatory_tail(g, spec, 1e-9)
