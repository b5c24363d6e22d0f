import math

import mpmath
import numpy as np
import pytest
from oracles import (
    alpha_mu_envelope_cdf,
    alpha_mu_envelope_pdf,
    alpha_mu_moment,
    alpha_mu_snr_pdf,
    gamma_gamma_cdf_meijerg,
    gamma_gamma_moment,
    gamma_gamma_sample,
    quad_value,
)
from scipy.special import gammaincinv

from relaylink.channels import (
    AlphaMuParams,
    GammaGammaParams,
    alpha_mu_snr_cdf,
    gamma_gamma_cdf,
)
from relaylink.ggfit import fit_alpha_mu
from relaylink.mcsim import _snr_of_gamma
from relaylink.selection import SchedulingSpec, downlink_cdf


def rayleigh(mean_snr):
    """Rayleigh fading: the (alpha, mu) = (2, 1) member of the family, whose
    SNR is exponential with the given mean."""
    return AlphaMuParams(2.0, 1.0, mean_snr)


# ------------------------------------------------------------- Rayleigh

def test_rayleigh_pdf_values():
    assert alpha_mu_snr_pdf(rayleigh(1.0), 0.0) == pytest.approx(1.0)
    assert alpha_mu_snr_pdf(rayleigh(2.0), 2.0) == pytest.approx(0.5 * math.exp(-1.0))
    assert alpha_mu_snr_pdf(rayleigh(1.0), 5.0) == pytest.approx(math.exp(-5.0))


def test_rayleigh_cdf_values():
    assert alpha_mu_snr_cdf(rayleigh(1.0), 0.0) == 0.0
    assert alpha_mu_snr_cdf(rayleigh(1.0), 1.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert alpha_mu_snr_cdf(rayleigh(4.0), 2.0) == pytest.approx(1.0 - math.exp(-0.5))


def test_rayleigh_domain():
    with pytest.raises(ValueError):
        rayleigh(0.0)
    with pytest.raises(ValueError):
        alpha_mu_snr_pdf(rayleigh(1.0), -1.0)
    with pytest.raises(ValueError):
        alpha_mu_snr_cdf(rayleigh(1.0), -1.0)


# -------------------------------------------------------- envelope law

def test_envelope_pdf_special_cases():
    # Rayleigh envelope at h=1: 2 e^-1
    assert alpha_mu_envelope_pdf(2.0, 1.0, 1.0, 1.0) == pytest.approx(
        2.0 * math.exp(-1.0), abs=1e-14)
    # exponential envelope at h=2: e^-2
    assert alpha_mu_envelope_pdf(1.0, 1.0, 1.0, 2.0) == pytest.approx(
        math.exp(-2.0), abs=1e-14)


def test_envelope_pdf_one_sided_gaussian_pointwise():
    # (alpha=2, mu=1/2) is a one-sided Gaussian: f(h) = sqrt(2/pi)/s * exp(-h^2/(2 s^2))
    # with E[h^2] = Omega^2 fixing s^2 = Omega^2.
    omega = 1.0
    s2 = omega ** 2
    for h in (0.1, 0.5, 1.0, 2.3):
        direct = math.sqrt(2.0 / (math.pi * s2)) * math.exp(-h * h / (2.0 * s2))
        assert alpha_mu_envelope_pdf(2.0, 0.5, omega, h) == pytest.approx(
            direct, abs=1e-10)


def _integrate_panels(f, scale, tail):
    # graded panels so the adaptive rule cannot step over a narrow peak
    points = [0.0] + list(scale * np.geomspace(1e-4, tail, 16))
    return math.fsum(quad_value(f, a, b) for a, b in zip(points, points[1:]))


@pytest.mark.parametrize("alpha,mu,omega", [
    (2.0, 0.5, 1.0), (2.0, 1.0, 1.3), (1.0, 1.0, 0.7),
    (1.75, 1.0, 1.0), (0.537, 2.022, 1.0), (2.34, 2.21, 2.0),
])
def test_envelope_pdf_normalizes(alpha, mu, omega):
    tail = (80.0 / mu) ** (1.0 / alpha) + 10.0
    mass = _integrate_panels(
        lambda h: alpha_mu_envelope_pdf(alpha, mu, omega, h), omega, tail)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_envelope_cdf_matches_pdf_integral():
    args = (1.68, 1.85, 1.1)
    for h in (0.4, 1.0, 1.9):
        integral = quad_value(lambda t: alpha_mu_envelope_pdf(*args, t), 0.0, h)
        assert alpha_mu_envelope_cdf(*args, h) == pytest.approx(integral, abs=1e-9)


# ------------------------------------------------------------ SNR law

def test_snr_pdf_special_values():
    assert alpha_mu_snr_pdf(AlphaMuParams(2.0, 1.0, 1.0), 1.0) == pytest.approx(
        math.exp(-1.0), abs=1e-14)
    assert alpha_mu_snr_pdf(AlphaMuParams(2.0, 2.0, 1.0), 1.0) == pytest.approx(
        4.0 * math.exp(-2.0), abs=1e-14)


@pytest.mark.parametrize("alpha,mu,gbar", [
    (2.0, 1.0, 1.0), (2.0, 2.0, 3.0), (1.0, 1.0, 10.0),
    (1.68, 1.85, 10.0), (0.579, 2.723, 5.0), (2.73, 2.21, 40.0),
])
def test_snr_pdf_normalizes(alpha, mu, gbar):
    p = AlphaMuParams(alpha, mu, gbar)
    tail = (120.0 / mu) ** (2.0 / alpha) + 100.0
    # handle the integrable singularity at 0 (alpha*mu < 2) analytically:
    # below eps the CDF is z^mu / Gamma(mu+1) + O(z^{mu+1}) with z = mu (g/gbar)^{a/2}
    z0 = 1e-6
    eps = gbar * (z0 / mu) ** (2.0 / alpha)
    head = z0 ** mu / math.gamma(mu + 1.0)
    points = [eps] + list(gbar * np.geomspace(max(1e-4, 2 * eps / gbar), tail, 16))
    mass = head + math.fsum(
        quad_value(lambda g: alpha_mu_snr_pdf(p, g), a, b) for a, b in zip(points, points[1:]))
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_snr_cdf_closed_forms():
    assert alpha_mu_snr_cdf(AlphaMuParams(2.0, 1.0, 1.0), 1.0) == pytest.approx(
        1.0 - math.exp(-1.0), abs=1e-12)
    assert alpha_mu_snr_cdf(AlphaMuParams(2.0, 2.0, 1.0), 1.0) == pytest.approx(
        1.0 - 3.0 * math.exp(-2.0), abs=1e-12)


def test_snr_cdf_equals_pdf_integral_weak_a():
    p = AlphaMuParams(1.68, 1.85, 10.0)
    integral = quad_value(lambda g: alpha_mu_snr_pdf(p, g), 0.0, 1.0)
    assert alpha_mu_snr_cdf(p, 1.0) == pytest.approx(integral, abs=1e-9)


def test_snr_cdf_limits_and_monotone():
    for p in (AlphaMuParams(2.0, 2.0, 1.0), AlphaMuParams(0.537, 2.022, 10.0)):
        assert alpha_mu_snr_cdf(p, 0.0) == 0.0
        assert alpha_mu_snr_cdf(p, 1e6 * p.mean_snr) > 1.0 - 1e-6
        grid = np.geomspace(1e-4, 1e3, 120) * p.mean_snr
        vals = [alpha_mu_snr_cdf(p, g) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_snr_cdf_derivative_matches_pdf():
    p = AlphaMuParams(1.68, 1.85, 10.0)
    grid = np.linspace(0.5, 50.0, 100)
    for g in grid:
        eps = 1e-5 * max(1.0, g)
        fd = (alpha_mu_snr_cdf(p, g + eps) - alpha_mu_snr_cdf(p, g - eps)) / (2 * eps)
        assert fd == pytest.approx(alpha_mu_snr_pdf(p, g), abs=1e-6)


def test_table_special_case_reductions():
    gbar = 2.5
    grid = np.linspace(0.01, 20.0, 40)
    # (2, 1): exponential SNR (Rayleigh envelope)
    for g in grid:
        assert alpha_mu_snr_cdf(AlphaMuParams(2.0, 1.0, gbar), g) == pytest.approx(
            1.0 - math.exp(-g / gbar), abs=1e-10)
    # (2, 2): Nakagami-m (m=2), Gamma(2) SNR with mean gbar
    for g in grid:
        z = 2.0 * g / gbar
        assert alpha_mu_snr_cdf(AlphaMuParams(2.0, 2.0, gbar), g) == pytest.approx(
            1.0 - (1.0 + z) * math.exp(-z), abs=1e-10)
    # (1, 1): exponential envelope
    for h in np.linspace(0.01, 6.0, 25):
        assert alpha_mu_envelope_cdf(1.0, 1.0, 1.0, h) == pytest.approx(
            1.0 - math.exp(-h), abs=1e-10)
    # (2, 0.5): one-sided Gaussian envelope, CDF = erf(h / (Omega sqrt(2)))
    for h in np.linspace(0.01, 4.0, 25):
        assert alpha_mu_envelope_cdf(2.0, 0.5, 1.0, h) == pytest.approx(
            math.erf(h / math.sqrt(2.0)), abs=1e-10)


# -------------------------------------------------------------- sampler
# mcsim's hop sampler maps a Gamma(mu) variate g to the SNR whose CDF is
# P(mu, g), so alpha_mu_snr_cdf of it must give gammainc(mu, g) back

def test_sample_closed_forms():
    # Rayleigh: the SNR is g times the mean, and Gamma(1) has median log 2
    p = rayleigh(2.0)
    assert _snr_of_gamma(p, np.array([1.0, math.log(2.0)])) == pytest.approx(
        [2.0, 2.0 * math.log(2.0)], abs=1e-12)
    assert alpha_mu_snr_cdf(p, float(_snr_of_gamma(p, np.array([math.log(2.0)]))[0])
                            ) == pytest.approx(0.5, abs=1e-12)


def test_sample_round_trip_grid():
    p = AlphaMuParams(1.68, 1.85, 10.0)
    us = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    assert alpha_mu_snr_cdf(p, _snr_of_gamma(p, gammaincinv(p.mu, us))) == pytest.approx(
        us, abs=1e-9)


def test_sample_domain():
    # g = 0 maps to SNR 0, not nan, a tiny and a huge g to a positive and a
    # finite SNR, and g = inf to the infinite end
    p = AlphaMuParams(1.68, 1.85, 10.0)
    g = _snr_of_gamma(p, np.array([0.0, 1e-200, 1e100, math.inf]))
    assert g[0] == 0.0 and g[1] > 0.0 and math.isfinite(g[2]) and g[3] == math.inf


# ------------------------------------------------------- Gamma-Gamma

def test_gamma_gamma_moment_values():
    assert gamma_gamma_moment(GammaGammaParams(21.5, 19.8), 1) == pytest.approx(1.0)
    assert gamma_gamma_moment(GammaGammaParams(2.0, 2.0), 2) == pytest.approx(2.25)


@pytest.mark.parametrize("eta,beta", [(0.019, 5.75e7), (2.0, 1e8), (1e9, 0.5),
                                       (6e7, 6e7), (1e12, 1e-3)])
def test_gamma_gamma_moment_keeps_relative_accuracy(eta, beta):
    # (eta)_n (beta)_n / (eta beta)^n, exact at 50 digits; an lgamma difference
    # loses digits as eta or beta grows (2.9e-8 off at beta = 6e7)
    with mpmath.workdps(50):
        e, b = mpmath.mpf(eta), mpmath.mpf(beta)
        for n in (1, 2, 3, 4):
            exact = mpmath.rf(e, n) * mpmath.rf(b, n) / (e * b) ** n
            got = gamma_gamma_moment(GammaGammaParams(eta, beta), n)
            assert abs(got / exact - 1) <= 1e-14


def test_gamma_gamma_sampling_moments():
    rng = np.random.default_rng(42)
    # unit mean for very weak turbulence
    p = GammaGammaParams(21.5, 19.8)
    x = gamma_gamma_sample(p, rng, 1_000_000)
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - 1.0) < 3.0 * se

    # second moment vs formula
    p2 = GammaGammaParams(9.7, 8.2)
    y = gamma_gamma_sample(p2, rng, 1_000_000) ** 2
    se2 = y.std(ddof=1) / math.sqrt(y.size)
    assert abs(y.mean() - gamma_gamma_moment(p2, 2)) < 3.0 * se2

    # third moment for severe turbulence (heavier tails, wider band)
    p3 = GammaGammaParams(4.0, 1.84)
    z = gamma_gamma_sample(p3, rng, 10_000_000) ** 3
    se3 = z.std(ddof=1) / math.sqrt(z.size)
    assert abs(z.mean() - gamma_gamma_moment(p3, 3)) < 3.0 * se3


def test_gamma_gamma_moments_match_for_n123():
    rng = np.random.default_rng(7)
    p = GammaGammaParams(8.65, 7.14)
    x = gamma_gamma_sample(p, rng, 1_000_000)
    for n in (1, 2, 3):
        xn = x ** n
        se = xn.std(ddof=1) / math.sqrt(xn.size)
        assert abs(xn.mean() - gamma_gamma_moment(p, n)) < 3.0 * se


def test_severe_turbulence_visible_ks_gap_vs_published_fit():
    # the published alpha-mu approximation visibly mismatches severe
    # Gamma-Gamma turbulence: the CDFs differ by more than 0.02 somewhere on a
    # grid, so the KS distance exceeds it
    alpha, mu = 0.537, 2.022  # published approximation for this pair
    # scale the published law to unit mean, as the Gamma-Gamma law has
    mean_unit = math.exp(math.lgamma(mu + 1.0 / alpha)
                         - math.log(mu) / alpha - math.lgamma(mu))
    h = np.linspace(0.001, 8.0, 8000)
    cdf = np.array([alpha_mu_envelope_cdf(alpha, mu, 1.0 / mean_unit, float(v)) for v in h])
    assert np.max(np.abs(gamma_gamma_cdf(GammaGammaParams(4.0, 1.84), h) - cdf)) > 0.02


# the five turbulence rows of acceptance criterion 1 and four pairs that
# `relaylink fit` rejects (exit 3)
GG_PAIRS = [(21.5, 19.8), (9.70, 8.2), (8.65, 7.14), (4.0, 1.84), (4.34, 1.30),
            (0.01, 0.01), (0.2, 5.0), (1.0, 0.05), (0.2, 0.2)]


@pytest.mark.parametrize("eta,beta", GG_PAIRS)
def test_gamma_gamma_cdf_matches_meijerg(eta, beta):
    # at the fitted law's quantiles 1e-3 ... 0.999, where the KS search looks;
    # at (0.01, 0.01) the lower three round to x = 0, where both are 0
    p = GammaGammaParams(eta, beta)
    fit = fit_alpha_mu(p)
    q = np.array([1e-3, 0.1, 0.5, 0.9, 0.999])
    x = (gammaincinv(fit.mu, q) / fit.mu) ** (1.0 / fit.alpha) / fit.rho_bar
    got = gamma_gamma_cdf(p, x)
    for xv, g in zip(x, got):
        assert abs(g - gamma_gamma_cdf_meijerg(eta, beta, xv)) <= 1e-12, xv
        assert g == gamma_gamma_cdf(p, float(xv))  # a value in an array has its own bits


def test_gamma_gamma_cdf_ends_and_domain():
    p = GammaGammaParams(4.0, 1.84)
    assert gamma_gamma_cdf(p, 0.0) == 0.0
    assert gamma_gamma_cdf(p, math.inf) == pytest.approx(1.0, abs=1e-15)
    assert isinstance(gamma_gamma_cdf(p, 1.0), float)
    with pytest.raises(ValueError, match="x must be nonnegative"):
        gamma_gamma_cdf(p, [1.0, -1e-300])


# ------------------------------------------------------------- moments

def test_alpha_mu_moment_values():
    assert alpha_mu_moment(2.0, 1.0, 1.0, 2) == pytest.approx(1.0, abs=1e-14)
    assert alpha_mu_moment(2.0, 1.0, 1.0, 1) == pytest.approx(
        math.sqrt(math.pi) / 2.0, abs=1e-14)


# --------------------------------------------------------- fading models

def test_fading_model_dispatch():
    # the Rayleigh downlink of the scheduling layer and the (2, 1) alpha-mu
    # law are the same distribution
    s = SchedulingSpec(1, 1, 1.0, 2.0)
    g = np.array([0.0, 0.1, 1.0, 5.0])
    assert downlink_cdf(s, g) == pytest.approx(alpha_mu_snr_cdf(rayleigh(2.0), g),
                                               abs=1e-15)


def test_fading_model_named_constructors():
    # named special cases (alpha, mu) of the alpha-mu family against the
    # closed-form SNR CDF of each, at mean SNR 3
    gbar = 3.0
    g = np.linspace(0.01, 20.0, 40)
    x = g / gbar
    cases = {
        "one-sided Gaussian": ((2.0, 0.5), np.vectorize(math.erf)(np.sqrt(x / 2.0))),
        "Rayleigh": ((2.0, 1.0), 1.0 - np.exp(-x)),
        "Weibull": ((1.75, 1.0), 1.0 - np.exp(-x ** 0.875)),
        "Nakagami-m": ((2.0, 2.0), 1.0 - (1.0 + 2.0 * x) * np.exp(-2.0 * x)),
        "exponential": ((1.0, 1.0), 1.0 - np.exp(-np.sqrt(x))),
    }
    for name, ((alpha, mu), expect) in cases.items():
        got = alpha_mu_snr_cdf(AlphaMuParams(alpha, mu, gbar), g)
        assert got == pytest.approx(expect, abs=1e-12), name


def test_fading_model_invariants():
    for bad in ((0.0, 1.0, 1.0), (2.0, -1.0, 1.0), (2.0, 1.0, 0.0)):
        with pytest.raises(ValueError):
            AlphaMuParams(*bad)
    for bad in ((2.0, math.inf, 1.0), (math.inf, 1.0, 1.0), (2.0, math.nan, 1.0),
                (math.nan, 1.0, 1.0), (2.0, 1.0, math.inf)):
        with pytest.raises(ValueError, match="alpha, mu must be finite and positive"):
            AlphaMuParams(*bad)
    # past about 2.5e305 SciPy's gammainc(mu, x) is nan and math.lgamma(mu) overflows
    assert AlphaMuParams(2.0, 1e300, 1.0).mu == 1e300
    for mu in (2.6e305, 1.7e308):
        with pytest.raises(ValueError, match="mu must be at most 1e300"):
            AlphaMuParams(2.0, mu, 1.0)
    for bad in ((0.0, 1.0), (math.inf, 1.0), (1.0, math.nan)):
        with pytest.raises(ValueError, match="finite and positive"):
            GammaGammaParams(*bad)
