"""Monte-Carlo verification engine.

Counter-based RNG (Philox) with one independent stream per fixed-size trial
block, so results are bit-identical for a given (seed, trials, batch) no
matter how many worker threads execute the blocks.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaincinv

from .analysis import PerfEstimate, SystemConfig
from .channels import alpha_mu_snr_cdf

DEFAULT_SEED = 20240915
# relative widening of the alpha-mu inversion gate u <= F(m) in _end_to_end_snr
_GATE_MARGIN = 1e-9


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = DEFAULT_SEED
    workers: int = 1
    batch: int = 1_000_000

    def __post_init__(self):
        if not (isinstance(self.trials, int) and self.trials >= 1000):
            raise ValueError(f"trials must be an integer >= 1000, got {self.trials}")
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise ValueError(f"workers must be a positive integer, got {self.workers}")
        if not (isinstance(self.batch, int) and self.batch >= 1):
            raise ValueError(f"batch must be a positive integer, got {self.batch}")


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent reproducible generator for one trial block."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream_id,))))


def _blocks(mc: McConfig):
    """(stream_id, block_size) pairs covering mc.trials in fixed order."""
    out = []
    done = 0
    sid = 0
    while done < mc.trials:
        size = min(mc.batch, mc.trials - done)
        out.append((sid, size))
        done += size
        sid += 1
    return out


def _map_blocks(fn, mc: McConfig):
    """Run fn(stream_id, size) over all blocks, reducing in block order."""
    blocks = _blocks(mc)
    if mc.workers == 1:
        return [fn(sid, size) for sid, size in blocks]
    with ThreadPoolExecutor(max_workers=mc.workers) as pool:
        futures = [pool.submit(fn, sid, size) for sid, size in blocks]
        return [f.result() for f in futures]


def _draw_uniforms(c: SystemConfig, rng: np.random.Generator, size: int):
    """All per-trial uniforms in a fixed draw order: K uplink variates, then
    the S->R, downlink and R->S variates."""
    k_tot = c.scheduling.k_total
    u_up = rng.random((size, k_tot))
    u_sr = rng.random(size)
    u_dn = rng.random(size)
    u_rs = rng.random(size)
    return u_up, u_sr, u_dn, u_rs


def simulate_outage(c: SystemConfig, mc: McConfig) -> PerfEstimate:
    """Empirical outage probability.

    Uses the threshold-comparison form of inverse-transform sampling: a link
    is in outage exactly when its uniform variate falls below the link CDF at
    the threshold, and the N-th best uplink is below the threshold exactly
    when at least K - N + 1 uplink uniforms do.
    """
    sched = c.scheduling
    f_ray = -math.expm1(-c.gamma_th / sched.uplink_mean_snr)
    f_sr = alpha_mu_snr_cdf(c.sr_model, c.gamma_th)
    f_dn = -math.expm1(-c.gamma_th / sched.downlink_mean_snr)
    f_rs = alpha_mu_snr_cdf(c.rs_model, c.gamma_th)
    need = sched.k_total - sched.n_order + 1

    def block(stream_id, size):
        rng = rng_stream(mc.seed, stream_id)
        u_up, u_sr, u_dn, u_rs = _draw_uniforms(c, rng, size)
        up_out = np.count_nonzero(u_up <= f_ray, axis=1) >= need
        out = up_out | (u_sr <= f_sr) | (u_dn <= f_dn) | (u_rs <= f_rs)
        return int(np.count_nonzero(out))

    hits = sum(_map_blocks(block, mc))
    p_hat = hits / mc.trials
    std_error = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / mc.trials)
    return PerfEstimate(p_hat, method="monte_carlo",
                        std_error=std_error, trials=mc.trials)


def _end_to_end_snr(c: SystemConfig, rng: np.random.Generator, size: int):
    """Per-trial end-to-end SNR: the minimum of the N-th best uplink, the two
    alpha-mu hops and the downlink, each drawn by inverse transform from the
    same fixed-order uniforms as the outage path.

    Every transform is monotone in its uniform, so the N-th best uplink is
    the transform of the N-th largest uplink uniform, and an alpha-mu hop can
    lower the running minimum m only where u <= F(m). Only those trials are
    inverted; the result equals the minimum of all four transformed links.
    """
    sched = c.scheduling
    k, n = sched.k_total, sched.n_order
    u_up, u_sr, u_dn, u_rs = _draw_uniforms(c, rng, size)
    # N-th largest of K is the (K - N)-th entry of the ascending order; in
    # place, since np.partition would copy the whole (size, K) block
    u_up.partition(k - n, axis=1)
    u_nth = u_up[:, k - n]
    m = np.minimum(-sched.uplink_mean_snr * np.log1p(-u_nth),
                   -sched.downlink_mean_snr * np.log1p(-u_dn))
    for p, u in ((c.sr_model, u_sr), (c.rs_model, u_rs)):
        # the margin exceeds the gammainc/gammaincinv round-trip error, so a
        # skipped trial's hop SNR is never below m
        f_m = alpha_mu_snr_cdf(p, m)
        hit = np.flatnonzero(u <= f_m * (1.0 + _GATE_MARGIN))
        m[hit] = np.minimum(m[hit], _alpha_mu_bulk(p, u[hit]))
    return m


def _alpha_mu_bulk(p, u):
    # inverse transform of alpha_mu_snr_cdf; the round trip is tested
    return p.mean_snr * (gammaincinv(p.mu, u) / p.mu) ** (2.0 / p.alpha)


def simulate_asep(c: SystemConfig, mc: McConfig) -> PerfEstimate:
    """Empirical average symbol error probability: the mean of the
    conditional error (a/2) erfc(sqrt(b * gamma)) over end-to-end SNR draws."""
    a, b = c.mod_a, c.mod_b

    def block(stream_id, size):
        rng = rng_stream(mc.seed, stream_id)
        g = _end_to_end_snr(c, rng, size)
        pe = 0.5 * a * erfc(np.sqrt(b * g))
        return float(np.sum(pe)), float(np.sum(pe * pe))

    sums = _map_blocks(block, mc)
    s1 = math.fsum(s for s, _ in sums)
    s2 = math.fsum(q for _, q in sums)
    n = mc.trials
    mean = s1 / n
    var = max(s2 / n - mean * mean, 0.0)
    return PerfEstimate(min(max(mean, 0.0), 1.0), method="monte_carlo",
                        std_error=math.sqrt(var / n), trials=n)
