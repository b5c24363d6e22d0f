"""The special functions under the analytic core, each against an independent
oracle: the regularized incomplete gamma P(a, x) behind the alpha-mu CDF,
its inverse `scipy.special.gammaincinv` behind the hop inverse of the
Monte-Carlo test oracles (`oracles.hop_inverse`), which must be within 1e-14
relative of an mpmath quantile, the lower incomplete gamma (Meijer-G)
kernel, SciPy's Gauss-Hermite rule against NumPy's, and the adaptive
Simpson rule of `asep`."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from oracles import (alpha_mu_envelope_cdf, hop_inverse, lower_gamma,
                     mellin_barnes_lower_gamma)
from scipy.special import gammaincinv, roots_hermite

from relaylink import analysis
from relaylink.channels import AlphaMuParams

SQRT_PI = math.sqrt(math.pi)


def reg_lower_inc_gamma(a, x):
    """P(a, x) through the library's alpha-mu CDF in envelope form (alpha = 1,
    Omega = a)."""
    return alpha_mu_envelope_cdf(1.0, a, a, x)


def inv_reg_lower_inc_gamma(a, p):
    """The x with P(a, x) = p through the oracles' hop inverse (alpha = 2,
    mean SNR = mu = a)."""
    return float(hop_inverse(AlphaMuParams(2.0, a, a), p))


# ------------------------------------------------- reg_lower_inc_gamma

def test_reg_lower_inc_gamma_closed_forms():
    # P(1, x) = 1 - e^-x; P(2, x) = 1 - (1 + x) e^-x
    assert reg_lower_inc_gamma(1.0, 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), abs=1e-12)
    assert reg_lower_inc_gamma(2.0, 2.0) == pytest.approx(
        1.0 - 3.0 * math.exp(-2.0), abs=1e-12)


def test_reg_lower_inc_gamma_vs_extended_precision_series():
    # brute-force series in 50-digit arithmetic as an independent oracle
    with mpmath.workdps(50):
        for a, x in [(2.21, 0.7), (0.5, 3.0), (7.3, 11.0), (40.0, 35.0), (1.3695, 0.02)]:
            oracle = float(mpmath.gammainc(a, 0, x, regularized=True))
            assert reg_lower_inc_gamma(a, x) == pytest.approx(oracle, abs=1e-12)


def test_reg_lower_inc_gamma_properties():
    for a in (0.5, 1.0, 2.21, 2.72, 10.0):
        assert reg_lower_inc_gamma(a, 0.0) == 0.0
        vals = reg_lower_inc_gamma(a, np.geomspace(1e-6, a + 60.0, 200))
        assert np.all((vals >= 0.0) & (vals <= 1.0))
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[-1] > 1.0 - 1e-6


def test_reg_lower_inc_gamma_domain():
    with pytest.raises(ValueError):
        reg_lower_inc_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_lower_inc_gamma(1.0, -1.0)
    with pytest.raises(ValueError):
        reg_lower_inc_gamma(1.0, np.array([1.0, -1.0]))


# --------------------------------------------- inv_reg_lower_inc_gamma

def test_inverse_closed_forms():
    assert inv_reg_lower_inc_gamma(1.0, 1.0 - math.exp(-1.0)) == pytest.approx(
        1.0, abs=1e-10)
    assert inv_reg_lower_inc_gamma(1.0, 0.5) == pytest.approx(
        math.log(2.0), abs=1e-10)


def test_inverse_round_trips():
    ps = [1e-6, 1e-3, 0.25, 0.5, 0.75, 1.0 - 1e-3, 1.0 - 1e-6]
    for a in (0.5, 1.0, 2.21, 2.72, 3.7):
        for p in ps:
            x = inv_reg_lower_inc_gamma(a, p)
            assert reg_lower_inc_gamma(a, x) == pytest.approx(p, abs=1e-9)
        for x in (0.01, 0.5, 1.0, a, 3.0 * a):
            p = reg_lower_inc_gamma(a, x)
            if 0.0 < p < 1.0:
                back = inv_reg_lower_inc_gamma(a, p)
                assert back == pytest.approx(x, rel=1e-9)


def test_inverse_domain():
    # hop uniforms lie in [0, 1): u = 0 must give SNR 0, not nan, and every u
    # above it a positive SNR; u = 1 is the infinite end. Values outside
    # [0, 1] give nan, with no RuntimeWarning
    for a in (0.5, 1.0, 2.21, 40.62):
        assert inv_reg_lower_inc_gamma(a, 0.0) == 0.0
        assert inv_reg_lower_inc_gamma(a, 2.0 ** -53) > 0.0
        assert inv_reg_lower_inc_gamma(a, 1.0) == math.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = hop_inverse(AlphaMuParams(2.0, a, a), np.array([-1.0, 2.0, np.nan]))
        assert np.isnan(got).all()


# mpmath quantile oracle at the mu of the tested hops and u from the smallest
# nonzero draw, across 1/2 one ulp either side, to the largest draw
QUANTILE_MUS = (0.3, 0.5803, 1.0, 2.0, 2.703, 40.62, 60.0)
QUANTILE_US = (2.0 ** -53, 1e-12, 1e-3, 0.5 - 2.0 ** -54, 0.5, 0.5 + 2.0 ** -53,
               0.9, 1.0 - 1e-9, 1.0 - 2.0 ** -53)


def mp_gamma_quantile(mu, u):
    """The z with P(mu, z) = u at 40 digits: the root in log z of log P = log u,
    or log Q = log(1 - u) above 1/2 (u and 1 - u are exact), checked to 1e-30."""
    with mpmath.workdps(40):
        mu, u = mpmath.mpf(mu), mpmath.mpf(u)
        if u <= 0.5:
            def f(s):
                return mpmath.log(mpmath.gammainc(mu, 0, mpmath.exp(s),
                                                  regularized=True) / u)
        else:
            def f(s):
                return mpmath.log(mpmath.gammainc(mu, mpmath.exp(s), mpmath.inf,
                                                  regularized=True) / (1 - u))
        s = mpmath.findroot(f, mpmath.log(gammaincinv(float(mu), float(u))))
        assert abs(f(s)) < 1e-30
        return float(mpmath.exp(s))


@pytest.mark.parametrize("mu", QUANTILE_MUS)
def test_inverse_vs_mpmath_quantile(mu):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = hop_inverse(AlphaMuParams(2.0, mu, mu), np.array(QUANTILE_US))
    for u, z in zip(QUANTILE_US, got):
        assert z == pytest.approx(mp_gamma_quantile(mu, u), rel=1e-14, abs=0.0)


# --------------------------------------------------- Meijer-G CDF kernel

def test_meijer_g_kernel_closed_forms():
    assert lower_gamma(0.5, 1.0) == pytest.approx(1.0 - math.exp(-0.5), abs=1e-12)
    assert lower_gamma(2.0, 2.0) == pytest.approx(1.0 - 3.0 * math.exp(-2.0), abs=1e-12)


def test_meijer_g_kernel_vs_mellin_barnes_contour():
    rng = np.random.default_rng(1234)
    points = [(1.3, 2.21)] + [
        (float(rng.uniform(0.1, 5.0)), float(rng.uniform(0.3, 4.0)))
        for _ in range(19)
    ]
    assert len(points) == 20
    for z, mu in points:
        oracle = mellin_barnes_lower_gamma(mu, z)
        assert lower_gamma(z, mu) == pytest.approx(oracle, abs=1e-6)


def test_meijer_g_kernel_domain():
    with pytest.raises(ValueError):
        lower_gamma(-0.1, 1.0)
    with pytest.raises(ValueError):
        lower_gamma(1.0, 0.0)


# ------------------------------------------------------- Hermite rule

def test_hermite_rule_two_points():
    nodes, weights = roots_hermite(2)
    assert nodes == pytest.approx([-1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0)],
                                  abs=1e-14)
    assert weights == pytest.approx([SQRT_PI / 2.0, SQRT_PI / 2.0], abs=1e-14)


@pytest.mark.parametrize("n", [2, 16, 64, 128, 255, 256])
def test_hermite_weight_sum(n):
    _, weights = roots_hermite(n)
    assert math.fsum(weights) == pytest.approx(SQRT_PI, abs=1e-12)


def test_hermite_second_moment_n64():
    nodes, weights = roots_hermite(64)
    val = float(np.dot(weights, nodes ** 2))
    assert val == pytest.approx(SQRT_PI / 2.0, abs=1e-12)


def test_hermite_polynomial_exactness_n16():
    # integral of u^k e^{-u^2}: 0 for odd k, Gamma((k+1)/2) for even k
    nodes, weights = roots_hermite(16)
    for k in range(9):
        got = float(np.dot(weights, nodes ** k))
        expect = 0.0 if k % 2 else math.gamma((k + 1) / 2.0)
        assert got == pytest.approx(expect, abs=1e-10)


@pytest.mark.parametrize("n", [16, 64, 128])
def test_hermite_vs_numpy(n):
    from numpy.polynomial.hermite import hermgauss
    nodes, weights = roots_hermite(n)
    xs, ws = hermgauss(n)
    assert np.max(np.abs(nodes - xs)) < 1e-12
    assert np.max(np.abs(weights - ws) / ws) < 1e-10


# --------------------------------------------------- adaptive Simpson

def test_adaptive_simpson_polynomial():
    assert analysis._adaptive_simpson(lambda x: x * x, 0.0, 1.0) == pytest.approx(
        1.0 / 3.0, abs=1e-12)


def test_adaptive_simpson_exponential():
    assert analysis._adaptive_simpson(np.exp, 0.0, 2.0) == pytest.approx(
        math.exp(2.0) - 1.0, abs=1e-9)


def test_adaptive_simpson_gaussian_tail():
    val = analysis._adaptive_simpson(lambda u: np.exp(-u * u), 0.0, 12.0)
    assert val == pytest.approx(SQRT_PI / 2.0, abs=1e-10)


def test_adaptive_simpson_one_level_at_depth_zero():
    # at max_depth 0 the rule returns the first Richardson value, which is
    # Boole's rule on five nodes: (1/90) (7 f0 + 32 f1 + 12 f2 + 32 f3 + 7 f4)
    # on [0, 1], for x^6 (0 + 32/4096 + 12/64 + 32 * 729/4096 + 7) / 90
    boole = (32.0 / 4096.0 + 12.0 / 64.0 + 32.0 * 729.0 / 4096.0 + 7.0) / 90.0
    assert analysis._adaptive_simpson(lambda x: x ** 6, 0.0, 1.0, max_depth=0) == (
        pytest.approx(boole, rel=1e-15))
    assert analysis._adaptive_simpson(lambda x: x ** 6, 0.0, 1.0) == pytest.approx(
        1.0 / 7.0, abs=1e-12)


def test_adaptive_simpson_refines_to_an_off_grid_kink():
    # the derivative of sqrt|x - 1/3| is unbounded at a point no level's
    # nodes hit; int_0^1 = (2/3) ((1/3)^1.5 + (2/3)^1.5)
    exact = 2.0 / 3.0 * ((1.0 / 3.0) ** 1.5 + (2.0 / 3.0) ** 1.5)
    val = analysis._adaptive_simpson(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0)
    assert val == pytest.approx(exact, abs=1e-9)
