"""Fading-distribution primitives.

The alpha-mu law, its one CDF and the moments and sampler of the Gamma-Gamma
turbulence model.

alpha_mu_snr_cdf is the SNR form P(mu, mu (gamma/g)^(alpha/2)) of Yacoub's
alpha-mu law. The envelope CDF P(mu, mu (h/Omega)^alpha) is the same function
of AlphaMuParams(2 alpha, mu, Omega), so one CDF serves both forms.

The CDF takes a float or an array and applies the same NumPy and SciPy ufuncs
either way, so a value inside an array gives the bits it gives on its own.
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
    mu is at most 1e300: from about 2.5e305 SciPy's gammainc(mu, x) is nan
    and math.lgamma(mu) overflows.
    """

    alpha: float
    mu: float
    mean_snr: float

    def __post_init__(self):
        if not (0 < self.alpha < math.inf and 0 < self.mu < math.inf and self.mean_snr > 0):
            raise ValueError(f"alpha, mu must be finite and positive and mean_snr positive, "
                             f"got ({self.alpha}, {self.mu}, {self.mean_snr})")
        if self.mu > 1e300:
            raise ValueError(f"mu must be at most 1e300, got {self.mu}")


@dataclass(frozen=True)
class GammaGammaParams:
    """Gamma-Gamma turbulence pair: eta (large-scale), beta (small-scale)."""

    eta: float
    beta: float

    def __post_init__(self):
        if not (0 < self.eta < math.inf and 0 < self.beta < math.inf):
            raise ValueError(
                f"eta, beta must be finite and positive, got ({self.eta}, {self.beta})")


def _nonneg(name, x):
    """x itself if it is a number, else x as a float array; either way with
    no negative value."""
    if isinstance(x, (int, float)):
        low = x
    else:
        x = np.asarray(x, dtype=float)
        low = x.min(initial=0.0)
    if low < 0:
        raise ValueError(f"{name} must be nonnegative, got {low}")
    return x


def _result(value, x):
    """A float for a number x, else the array value."""
    return value if isinstance(x, np.ndarray) else float(value)


def alpha_mu_snr_cdf(p: AlphaMuParams, gamma):
    """P(mu, mu * (gamma/mean_snr)^(alpha/2)) for a float or an array gamma."""
    g = _nonneg("gamma", gamma)
    with np.errstate(over="ignore"):  # an infinite argument gives P = 1
        return _result(gammainc(p.mu, p.mu * np.power(g / p.mean_snr, p.alpha / 2.0)), g)


def gamma_gamma_moment(p: GammaGammaParams, n: int) -> float:
    """n-th moment of the unit-mean Gamma-Gamma law, (eta)_n (beta)_n / (eta beta)^n,
    as the product of (1 + k/eta)(1 + k/beta) over k < n: a few ulps at any eta, beta."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return math.prod(((1.0 + k / p.eta) * (1.0 + k / p.beta) for k in range(1, n)), start=1.0)


def gamma_gamma_sample(p: GammaGammaParams, rng: np.random.Generator, size=None):
    """Draw from the unit-mean Gamma-Gamma law as a product of two independent
    Gamma variates with shapes (eta, beta) and scales (1/eta, 1/beta)."""
    x = rng.gamma(p.eta, 1.0 / p.eta, size)
    y = rng.gamma(p.beta, 1.0 / p.beta, size)
    return x * y
