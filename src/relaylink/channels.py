"""Fading-distribution primitives.

The alpha-mu law and its one CDF, and the CDF of the Gamma-Gamma turbulence
model.

alpha_mu_snr_cdf is the SNR form P(mu, mu (gamma/g)^(alpha/2)) of Yacoub's
alpha-mu law. The envelope CDF P(mu, mu (h/Omega)^alpha) is the same function
of AlphaMuParams(2 alpha, mu, Omega), so one CDF serves both forms.

Each CDF takes a float or an array and applies the same NumPy and SciPy ufuncs
either way, so a value inside an array gives the bits it gives on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc

# double-exponential rule (Takahasi & Mori 1974, Publ. RIMS 9(3)): t in [-4, 3.5]
# with step 1/16, E = exp(pi/2 sinh t) and its derivative times the step
_T = np.arange(-64, 57) / 16.0
_E = np.exp(np.pi / 2.0 * np.sinh(_T))
_DE = _E * np.pi / 32.0 * np.cosh(_T)
_E2 = _E * _E / (1.0 + _E * _E)  # tanh-sinh on [0, 1], with its weights
_DE2 = 2.0 * _E * _DE / (1.0 + _E * _E) ** 2
_EXP_TAIL = 1.0 / np.cumprod(np.arange(1.0, 19.0))[:0:-1]  # 1/18!, ..., 1/2!


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
        if not all(0 < x < math.inf for x in (self.alpha, self.mu, self.mean_snr)):
            raise ValueError(f"alpha, mu must be finite and positive, as must mean_snr, "
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


def gamma_gamma_cdf(p: GammaGammaParams, x):
    """P(I <= x) of the unit-mean Gamma-Gamma law, for a float or an array x. With
    s <= l the shapes, I = (Y/l)(Z/s), Y ~ Gamma(l, 1), Z ~ Gamma(s, 1), so F(x) =
    E[P(s, s x e^-u)] over u = log(Y/l), of density ~ exp(-l (e^u - 1 - u)): one DE rule,
    normalised by itself, split where the density turns (u_d: its mode, or the end of
    its e^(l u) tail for l < 1) and where P(s, .) does (u_c). It is exp-sinh in u to the
    left, in e^u to the right (the density falls as exp(-l e^u)), tanh-sinh between."""
    g = _nonneg("x", x)
    s, l = sorted((p.eta, p.beta))
    # u_c per x, with x clipped into the positive doubles; F(0) = 0 is set below
    uc = np.log(np.clip(g, np.finfo(float).tiny, np.finfo(float).max))[..., None]
    uc, ud = uc + math.log(min(s, 1.0)), -math.log(min(l, 1.0))
    a, b = np.minimum(uc, ud), np.maximum(uc, ud)
    left, right = max(l ** -0.5, 0.5 / l), min(1.0, l ** -0.5)
    u = np.concatenate(np.broadcast_arrays(a - left * _E, a + (b - a) * _E2,
                                           b + np.log1p(right * _E)), axis=-1)
    w = np.concatenate(np.broadcast_arrays(left * _DE, (b - a) * _DE2,
                                           right * _DE / (1.0 + right * _E)), axis=-1)
    with np.errstate(over="ignore"):  # far tail nodes: e^-u = inf gives P = 1, weight 0
        d, small = np.expm1(u) - u, np.abs(u) < 1.0  # e^u - 1 - u, by its series where
        d[small] = u[small] ** 2 * np.polyval(_EXP_TAIL, u[small])  # that would cancel
        w = w * np.exp(-l * d)
        cdf = np.sum(w * gammainc(s, max(s, 1.0) * np.exp(uc - u)), axis=-1)  # P(s, s x e^-u)
    return _result(np.where(g > 0, cdf / np.sum(w, axis=-1), 0.0), g)
