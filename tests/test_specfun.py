import math

import mpmath
import numpy as np
import pytest
from scipy.special import loggamma

from relaylink import specfun
from relaylink.errors import NonConvergenceError

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------- ln_gamma

def test_ln_gamma_classic_values():
    assert specfun.ln_gamma(1.0) == pytest.approx(0.0, abs=1e-13)
    assert specfun.ln_gamma(0.5) == pytest.approx(math.log(SQRT_PI), abs=1e-13)
    assert specfun.ln_gamma(10.0) == pytest.approx(math.log(362880.0), abs=1e-13)


def test_ln_gamma_domain():
    for bad in (0.0, -1.0, -0.5):
        with pytest.raises(ValueError):
            specfun.ln_gamma(bad)


# ------------------------------------------------- reg_lower_inc_gamma

def test_reg_lower_inc_gamma_closed_forms():
    # P(1, x) = 1 - e^-x; P(2, x) = 1 - (1 + x) e^-x
    assert specfun.reg_lower_inc_gamma(1.0, 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), abs=1e-12)
    assert specfun.reg_lower_inc_gamma(2.0, 2.0) == pytest.approx(
        1.0 - 3.0 * math.exp(-2.0), abs=1e-12)


def test_reg_lower_inc_gamma_vs_extended_precision_series():
    # brute-force series in 50-digit arithmetic as an independent oracle
    with mpmath.workdps(50):
        for a, x in [(2.21, 0.7), (0.5, 3.0), (7.3, 11.0), (40.0, 35.0), (1.3695, 0.02)]:
            oracle = float(mpmath.gammainc(a, 0, x, regularized=True))
            assert specfun.reg_lower_inc_gamma(a, x) == pytest.approx(oracle, abs=1e-12)


def test_reg_lower_inc_gamma_properties():
    for a in (0.5, 1.0, 2.21, 2.72, 10.0):
        assert specfun.reg_lower_inc_gamma(a, 0.0) == 0.0
        grid = np.geomspace(1e-6, a + 60.0, 200)
        vals = [specfun.reg_lower_inc_gamma(a, x) for x in grid]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(v2 >= v1 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] > 1.0 - 1e-6


def test_reg_lower_inc_gamma_domain():
    with pytest.raises(ValueError):
        specfun.reg_lower_inc_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        specfun.reg_lower_inc_gamma(1.0, -1.0)


# --------------------------------------------- inv_reg_lower_inc_gamma

def test_inverse_closed_forms():
    assert specfun.inv_reg_lower_inc_gamma(1.0, 1.0 - math.exp(-1.0)) == pytest.approx(
        1.0, abs=1e-10)
    assert specfun.inv_reg_lower_inc_gamma(1.0, 0.5) == pytest.approx(
        math.log(2.0), abs=1e-10)


def test_inverse_round_trips():
    ps = [1e-6, 1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-3, 1.0 - 1e-6]
    for a in (0.5, 1.0, 2.21, 2.72, 3.7):
        for p in ps:
            x = specfun.inv_reg_lower_inc_gamma(a, p)
            assert specfun.reg_lower_inc_gamma(a, x) == pytest.approx(p, abs=1e-9)
        for x in (0.01, 0.5, 1.0, a, 3.0 * a):
            p = specfun.reg_lower_inc_gamma(a, x)
            if 0.0 < p < 1.0:
                back = specfun.inv_reg_lower_inc_gamma(a, p)
                assert back == pytest.approx(x, rel=1e-9)


def test_inverse_domain():
    for bad_p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            specfun.inv_reg_lower_inc_gamma(1.0, bad_p)
    with pytest.raises(ValueError):
        specfun.inv_reg_lower_inc_gamma(-1.0, 0.5)


# --------------------------------------------------- Meijer-G CDF kernel

def _mellin_barnes_lower_gamma(mu, z, tmax=200.0, dt=1e-3):
    """Independent contour-integral oracle: the lower incomplete gamma as
    (1/2*pi*i) * integral of Gamma(mu - s) z^s / s ds along Re(s) = c with
    0 < c < mu, evaluated by trapezoid on |Im s| <= tmax."""
    c = 0.5 * min(mu, 1.0)
    t = np.arange(-tmax, tmax + dt / 2, dt)
    s = c + 1j * t
    vals = np.exp(loggamma(mu - s) + s * math.log(z)) / s
    return float((np.trapezoid(vals, dx=dt) / (2.0 * math.pi)).real)


def test_meijer_g_kernel_closed_forms():
    assert specfun.meijer_g_cdf_kernel(0.5, 1.0) == pytest.approx(
        1.0 - math.exp(-0.5), abs=1e-12)
    assert specfun.meijer_g_cdf_kernel(2.0, 2.0) == pytest.approx(
        1.0 - 3.0 * math.exp(-2.0), abs=1e-12)


def test_meijer_g_kernel_vs_mellin_barnes_contour():
    rng = np.random.default_rng(1234)
    points = [(1.3, 2.21)] + [
        (float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.3, 4.0)))
        for _ in range(19)
    ]
    assert len(points) == 20
    for z, mu in points:
        oracle = _mellin_barnes_lower_gamma(mu, z)
        assert specfun.meijer_g_cdf_kernel(z, mu) == pytest.approx(oracle, abs=1e-6)


def test_meijer_g_kernel_domain():
    with pytest.raises(ValueError):
        specfun.meijer_g_cdf_kernel(-0.1, 1.0)
    with pytest.raises(ValueError):
        specfun.meijer_g_cdf_kernel(1.0, 0.0)


# ------------------------------------------------------- Hermite rule

def test_hermite_rule_two_points():
    rule = specfun.hermite_rule(2)
    assert rule.nodes == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                                       abs=1e-14)
    assert rule.weights == pytest.approx([SQRT_PI / 2.0, SQRT_PI / 2.0], abs=1e-14)


@pytest.mark.parametrize("n", [2, 16, 64, 128, 255, 256])
def test_hermite_weight_sum(n):
    rule = specfun.hermite_rule(n)
    assert math.fsum(rule.weights) == pytest.approx(SQRT_PI, abs=1e-12)


def test_hermite_second_moment_n64():
    rule = specfun.hermite_rule(64)
    val = float(np.dot(rule.weights, rule.nodes ** 2))
    assert val == pytest.approx(SQRT_PI / 2.0, abs=1e-12)


def test_hermite_polynomial_exactness_n16():
    # integral of u^k e^{-u^2}: 0 for odd k, Gamma((k+1)/2) for even k
    rule = specfun.hermite_rule(16)
    for k in range(9):
        got = float(np.dot(rule.weights, rule.nodes ** k))
        expect = 0.0 if k % 2 else math.gamma((k + 1) / 2.0)
        assert got == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_hermite_vs_numpy(n):
    from numpy.polynomial.hermite import hermgauss
    rule = specfun.hermite_rule(n)
    xs, ws = hermgauss(n)
    assert np.max(np.abs(rule.nodes - xs)) < 1e-12
    assert np.max(np.abs(rule.weights - ws) / ws) < 1e-10


def test_hermite_rule_range():
    for bad in (1, 0, 257, 512):
        with pytest.raises(ValueError):
            specfun.hermite_rule(bad)


def test_quadrature_rule_invariants():
    with pytest.raises(ValueError):
        specfun.QuadratureRule(nodes=np.array([1.0, 0.0]),
                               weights=np.array([1.0, 1.0]))
    with pytest.raises(ValueError):
        specfun.QuadratureRule(nodes=np.array([0.0, 1.0]),
                               weights=np.array([1.0, 0.0]))


# --------------------------------------------------- adaptive Simpson

def test_adaptive_simpson_polynomial():
    assert specfun.adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-12)


def test_adaptive_simpson_exponential():
    assert specfun.adaptive_simpson(math.exp, 0.0, 2.0) == pytest.approx(
        math.exp(2.0) - 1.0, abs=1e-9)


def test_adaptive_simpson_gaussian_tail():
    val = specfun.adaptive_simpson(lambda u: math.exp(-u * u), 0.0, 12.0)
    assert val == pytest.approx(SQRT_PI / 2.0, abs=1e-10)
