"""Reference values for the benchmark's checks, computed apart from relaylink.

Outage: F_tot = 1 - prod(1 - F_i) over the four links. Each link's CDF and
survival function come straight from SciPy (``gammainc``/``gammaincc`` for the
alpha-mu hops, ``betainc`` for the N-th best of K Rayleigh uplinks at every K,
``expm1``/``exp`` for the Rayleigh downlink), and the product is formed as
``-expm1(sum(log S_i))`` so that neither tail loses digits.

ASEP: adaptive Gauss-Kronrod quadrature (QUADPACK, Piessens et al. 1983,
through ``scipy.integrate.quad``) of the CDF-based integral
(a sqrt(b) / 2 sqrt(pi)) int_0^inf e^{-b g} F_tot(g) / sqrt(g) dg, taken as
(a sqrt(b) / sqrt(pi)) int_0^inf e^{-b t^2} F_tot(t^2) dt. It shares no code
with the program's Gauss-Hermite or adaptive-Simpson routes.

Fits: the moment-ratio equations E[X^n] / E[X]^n of the alpha-mu and the
Gamma-Gamma laws for n = 2, 3, evaluated with ``math.lgamma``.

Nothing here imports relaylink; configurations are read through their
attributes only, so plain records with the same fields work too.
"""

from __future__ import annotations

import math

from scipy import integrate, special

_SQRT_PI = math.sqrt(math.pi)


def _log_survival_from(cdf: float, sf: float) -> float:
    # log(1 - F) from whichever of F and 1 - F is the accurate small one
    return math.log1p(-cdf) if cdf < 0.5 else math.log(sf) if sf > 0.0 else -math.inf


def _alpha_mu_log_sf(link, g: float) -> float:
    z = link.mu * (g / link.mean_snr) ** (link.alpha / 2.0)
    return _log_survival_from(float(special.gammainc(link.mu, z)),
                              float(special.gammaincc(link.mu, z)))


def _nth_best_log_sf(sched, g: float) -> float:
    # the N-th largest of K exceeds g iff at least N of the K exceed g:
    # P = I_x(N, K - N + 1) with x = P(one uplink > g); its complement is
    # I_{1-x}(K - N + 1, N)
    k, n = sched.k_total, sched.n_order
    below = -math.expm1(-g / sched.uplink_mean_snr)
    above = math.exp(-g / sched.uplink_mean_snr)
    return _log_survival_from(float(special.betainc(k - n + 1, n, below)),
                              float(special.betainc(n, k - n + 1, above)))


def outage_at(cfg, g: float) -> float:
    """End-to-end outage F_tot(g) of a SystemConfig-like record."""
    if g <= 0.0:
        return 0.0
    sched = cfg.scheduling
    log_sf = (_nth_best_log_sf(sched, g) + _alpha_mu_log_sf(cfg.sr_model, g)
              - g / sched.downlink_mean_snr + _alpha_mu_log_sf(cfg.rs_model, g))
    return -math.expm1(log_sf)


def outage(cfg) -> float:
    """Total outage at the configuration's own threshold."""
    return outage_at(cfg, cfg.gamma_th)


def asep(cfg) -> float:
    """CDF-based average symbol error probability by QUADPACK quadrature."""
    a, b = cfg.mod_a, cfg.mod_b

    def integrand(t):
        return math.exp(-b * t * t) * outage_at(cfg, t * t)

    # breakpoints at the scale of the Gaussian factor; the t^(alpha mu)
    # behaviour at 0 is left to QAGS' extrapolation, the tail to QAGI
    edge = 1.0 / math.sqrt(b)
    total = 0.0
    for lo, hi in ((0.0, edge), (edge, 6.0 * edge), (6.0 * edge, math.inf)):
        val, _ = integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-12,
                                limit=400)
        total += val
    return a * math.sqrt(b) / _SQRT_PI * total


def moment_ratio_residual(eta: float, beta: float, alpha: float, mu: float) -> float:
    """Largest relative residual of the n = 2, 3 moment-ratio equations
    Gamma(mu + n/alpha) Gamma(mu)^(n-1) / Gamma(mu + 1/alpha)^n
    = (eta)_n (beta)_n / (eta beta)^n."""
    worst = 0.0
    for n in (2, 3):
        am = (math.lgamma(mu + n / alpha) + (n - 1) * math.lgamma(mu)
              - n * math.lgamma(mu + 1.0 / alpha))
        gg = (math.lgamma(eta + n) - math.lgamma(eta) + math.lgamma(beta + n)
              - math.lgamma(beta) - n * math.log(eta * beta))
        worst = max(worst, abs(math.expm1(am - gg)))
    return worst
