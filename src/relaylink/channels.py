"""Fading-distribution primitives.

PDFs, CDFs and moments of the alpha-mu SNR and envelope laws, and moments and
sampler of the Gamma-Gamma turbulence model.

The CDFs take a float or an array and apply the same NumPy and SciPy ufuncs
either way, so a value inside an array gives the bits it gives on its own.
Densities are evaluated in log space internally so large fading parameters
and small SNRs do not overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc


@dataclass(frozen=True)
class AlphaMuParams:
    """alpha-mu faded link at SNR level.

    alpha is the power-nonlinearity parameter, mu the number of multipath
    clusters. mean_snr is the scale g of the SNR CDF P(mu, mu (gamma/g)^(alpha/2));
    the mean SNR is g Gamma(mu + 2/alpha) / (Gamma(mu) mu^(2/alpha)), 2g at (1, 1).
    """

    alpha: float
    mu: float
    mean_snr: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.mu > 0 and self.mean_snr > 0):
            raise ValueError(
                f"alpha, mu, mean_snr must be positive, got "
                f"({self.alpha}, {self.mu}, {self.mean_snr})"
            )


@dataclass(frozen=True)
class GammaGammaParams:
    """Gamma-Gamma turbulence pair: eta (large-scale), beta (small-scale)."""

    eta: float
    beta: float

    def __post_init__(self):
        if not (self.eta > 0 and self.beta > 0):
            raise ValueError(f"eta, beta must be positive, got ({self.eta}, {self.beta})")


def _check_nonneg(name, value):
    if value < 0:
        raise ValueError(f"{name} must be nonnegative, got {value}")


def _nonneg(name, x):
    """x itself if it is a number, else x as a float array; either way with
    no negative value."""
    if isinstance(x, (int, float)):
        _check_nonneg(name, x)
        return x
    arr = np.asarray(x, dtype=float)
    _check_nonneg(name, arr.min(initial=0.0))
    return arr


def _result(value, x):
    """A float for a number x, else the array value."""
    return value if isinstance(x, np.ndarray) else float(value)


def alpha_mu_envelope_pdf(alpha: float, mu: float, omega: float, h: float) -> float:
    """alpha-mu envelope density with envelope scale Omega = E[h^alpha]^(1/alpha)."""
    if not (alpha > 0 and mu > 0 and omega > 0):
        raise ValueError("alpha, mu, omega must be positive")
    _check_nonneg("h", h)
    if h == 0.0:
        # limit: density is 0 unless alpha*mu == 1, where it is alpha*mu^mu/(Gamma(mu)*Omega)
        if alpha * mu == 1.0:
            return alpha * math.exp(mu * math.log(mu) - math.lgamma(mu)) / omega
        return 0.0 if alpha * mu > 1.0 else math.inf
    log_pdf = (math.log(alpha) + mu * math.log(mu) + (alpha * mu - 1.0) * math.log(h)
               - math.lgamma(mu) - alpha * mu * math.log(omega)
               - mu * (h / omega) ** alpha)
    return math.exp(log_pdf)


def alpha_mu_envelope_cdf(alpha: float, mu: float, omega: float, h):
    """P(mu, mu * (h/Omega)^alpha) for a float or an array h."""
    if not (alpha > 0 and mu > 0 and omega > 0):
        raise ValueError("alpha, mu, omega must be positive")
    h = _nonneg("h", h)
    with np.errstate(over="ignore"):  # an infinite argument gives P = 1
        return _result(gammainc(mu, mu * np.power(h / omega, alpha)), h)


def alpha_mu_snr_pdf(p: AlphaMuParams, gamma: float) -> float:
    """SNR density of the alpha-mu law with average SNR p.mean_snr."""
    _check_nonneg("gamma", gamma)
    a, mu, gbar = p.alpha, p.mu, p.mean_snr
    if gamma == 0.0:
        if a * mu == 2.0:
            return math.exp(mu * math.log(mu) - math.lgamma(mu)
                            + math.log(a / 2.0) - (a * mu / 2.0) * math.log(gbar))
        return 0.0 if a * mu > 2.0 else math.inf
    log_pdf = (math.log(a / 2.0) + mu * (math.log(mu) - (a / 2.0) * math.log(gbar))
               - math.lgamma(mu) + (a * mu / 2.0 - 1.0) * math.log(gamma)
               - mu * (gamma / gbar) ** (a / 2.0))
    return math.exp(log_pdf)


def alpha_mu_snr_cdf(p: AlphaMuParams, gamma):
    """P(mu, mu * (gamma/mean_snr)^(alpha/2)) for a float or an array gamma."""
    g = _nonneg("gamma", gamma)
    with np.errstate(over="ignore"):  # an infinite argument gives P = 1
        return _result(gammainc(p.mu, p.mu * np.power(g / p.mean_snr, p.alpha / 2.0)), g)


def gamma_gamma_moment(p: GammaGammaParams, n: int) -> float:
    """n-th moment of the unit-mean Gamma-Gamma law."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    e, b = p.eta, p.beta
    return math.exp(-n * math.log(e * b) + math.lgamma(e + n) + math.lgamma(b + n)
                    - math.lgamma(e) - math.lgamma(b))


def alpha_mu_moment(alpha: float, mu: float, rho_bar: float, n: int) -> float:
    """n-th envelope moment, rho_bar^{-n} Gamma(mu + n/alpha) / (mu^{n/alpha} Gamma(mu))."""
    if not (alpha > 0 and mu > 0 and rho_bar > 0):
        raise ValueError("alpha, mu, rho_bar must be positive")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return math.exp(-n * math.log(rho_bar) + math.lgamma(mu + n / alpha)
                    - (n / alpha) * math.log(mu) - math.lgamma(mu))


def gamma_gamma_sample(p: GammaGammaParams, rng: np.random.Generator, size=None):
    """Draw from the unit-mean Gamma-Gamma law as a product of two independent
    Gamma variates with shapes (eta, beta) and scales (1/eta, 1/beta)."""
    x = rng.gamma(p.eta, 1.0 / p.eta, size)
    y = rng.gamma(p.beta, 1.0 / p.beta, size)
    return x * y
