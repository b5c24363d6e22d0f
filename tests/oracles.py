"""Second routes to the library's closed forms, kept as test oracles.

Each one reaches a value the library computes by a different formula: the
expanded inclusion-exclusion form of the total outage, the binomial
expansions of the best-of-K and N-th-best CDFs, and the lower incomplete
gamma function as a Mellin-Barnes contour integral.
"""

import math

import numpy as np
from scipy.special import loggamma

from relaylink.channels import alpha_mu_envelope_cdf, alpha_mu_snr_cdf
from relaylink.selection import downlink_cdf, nth_best_cdf


def total_outage_expanded(c):
    """Total outage expanded over the four link CDFs (inclusion-exclusion
    form of the closed-form expression)."""
    g = c.gamma_th
    fs = (nth_best_cdf(c.scheduling, g), alpha_mu_snr_cdf(c.sr_model, g),
          downlink_cdf(c.scheduling, g), alpha_mu_snr_cdf(c.rs_model, g))
    f1, f2, f3, f4 = fs
    total = math.fsum(fs)
    total -= math.fsum(fs[i] * fs[j] for i in range(4) for j in range(i + 1, 4))
    total += math.fsum(fs[i] * fs[j] * fs[k]
                       for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4))
    total -= f1 * f2 * f3 * f4
    return total


def best_select_cdf_binomial(s, gamma):
    """(1 - e^{-g/gbar})^K expanded through the binomial theorem."""
    k_tot = s.k_total
    terms = [
        math.comb(k_tot - 1, k) * (-1.0) ** k / (k + 1)
        * -math.expm1(-(k + 1) * gamma / s.uplink_mean_snr)
        for k in range(k_tot)
    ]
    return k_tot * math.fsum(terms)


def nth_best_alternating_sum(s, gamma):
    """N-th best CDF as the compensated alternating binomial sum
    K C(K-1, N-1) sum_k C(K-N, k) (-1)^k / (k+N) (1 - e^{-(k+N) g/gbar}).
    It cancels catastrophically at small g and large K."""
    k_tot, n = s.k_total, s.n_order
    terms = [
        math.comb(k_tot - n, k) * (-1.0) ** k / (k + n)
        * -math.expm1(-(k + n) * gamma / s.uplink_mean_snr)
        for k in range(k_tot - n + 1)
    ]
    return k_tot * math.comb(k_tot - 1, n - 1) * math.fsum(terms)


def lower_gamma(z, mu):
    """Lower incomplete gamma gamma(mu, z) = Gamma(mu) P(mu, z), the Meijer-G
    kernel G^{1,1}_{1,2}[z | 1; mu, 0] of the link CDFs, with P taken from
    the library's envelope CDF (alpha = 1, Omega = mu)."""
    return alpha_mu_envelope_cdf(1.0, mu, mu, z) * math.gamma(mu)


def mellin_barnes_lower_gamma(mu, z, tmax=200.0, dt=1e-3):
    """Independent contour-integral oracle: the lower incomplete gamma as
    (1/2*pi*i) * integral of Gamma(mu - s) z^s / s ds along Re(s) = c with
    0 < c < mu, evaluated by trapezoid on |Im s| <= tmax."""
    c = 0.5 * min(mu, 1.0)
    t = np.arange(-tmax, tmax + dt / 2, dt)
    s = c + 1j * t
    vals = np.exp(loggamma(mu - s) + s * math.log(z)) / s
    return float((np.trapezoid(vals, dx=dt) / (2.0 * math.pi)).real)
