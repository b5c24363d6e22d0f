"""Order-statistics layer for opportunistic scheduling among K i.i.d.
Rayleigh uplinks: N-th best selection, best-of-K at N = 1.

The CDFs take a float or an array, like those of `channels`."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

from .channels import _nonneg, _result


@dataclass(frozen=True)
class SchedulingSpec:
    """K nodes, relay picks the N-th best uplink SNR."""

    k_total: int
    n_order: int
    uplink_mean_snr: float
    downlink_mean_snr: float

    def __post_init__(self):
        if not (isinstance(self.k_total, int) and isinstance(self.n_order, int)):
            raise ValueError("k_total and n_order must be integers")
        if not 1 <= self.n_order <= self.k_total:
            raise ValueError(
                f"need 1 <= n_order <= k_total, got N={self.n_order}, K={self.k_total}"
            )
        if not (0 < self.uplink_mean_snr < np.inf and 0 < self.downlink_mean_snr < np.inf):
            raise ValueError("mean SNRs must be finite and positive")


def _rayleigh_cdf(g, mean_snr):
    if isinstance(g, np.ndarray):
        # -expm1(-40) is already 1.0; the cap keeps g / mean_snr from
        # overflowing, which a float g does silently
        g = np.minimum(g, 40.0 * mean_snr)
    return -np.expm1(-g / mean_snr)


def nth_best_cdf(s: SchedulingSpec, gamma):
    """CDF of the N-th largest of K i.i.d. exponential SNRs.

    The N-th largest is <= g iff at least K-N+1 of the K are, so the CDF is
    the regularized incomplete beta I_F(K-N+1, N) of the per-node CDF F.
    """
    g = _nonneg("gamma", gamma)
    k_tot, n = s.k_total, s.n_order
    return _result(betainc(k_tot - n + 1, n, _rayleigh_cdf(g, s.uplink_mean_snr)), g)


def downlink_cdf(s: SchedulingSpec, gamma):
    """CDF of the relay-to-selected-node Rayleigh downlink."""
    g = _nonneg("gamma", gamma)
    return _result(_rayleigh_cdf(g, s.downlink_mean_snr), g)
