"""Monte-Carlo verification engine.

Trials run in blocks of `_CHUNK`. Block i draws from its own SFC64 stream,
seeded from (seed, i), from its start, so no counter is needed to enter a
stream at an offset: the uplink words, in tiles that are each reduced to
their N-th largest words and freed before the next is drawn, so that a
block's memory does not grow with K; then the downlink words, then the two
hop words (outage) or the two hops' Gamma draws (ASEP). Worker threads take
whole blocks; each returns its partial sums, added in block order, so
results are bit-identical for a given (seed, trials) whatever the number of
workers.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc

from .analysis import PerfEstimate, SystemConfig
from .channels import alpha_mu_snr_cdf

DEFAULT_SEED = 20240915
_CHUNK = 65_536  # trials per block, the unit of work and memory of a worker thread


@dataclass(frozen=True)
class McConfig:
    trials: int
    seed: int = DEFAULT_SEED
    workers: int = 1

    def __post_init__(self):
        if not (isinstance(self.trials, int) and self.trials >= 1000):
            raise ValueError(f"trials must be an integer >= 1000, got {self.trials}")
        if not (isinstance(self.workers, int) and self.workers >= 1):
            raise ValueError(f"workers must be a positive integer, got {self.workers}")


def rng_stream(seed: int, stream_id: int) -> np.random.Generator:
    """Independent reproducible generator for one trial block."""
    return np.random.Generator(
        np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(stream_id,))))


def _map_blocks(fn, mc: McConfig):
    """fn(i, size) for each block i of mc.trials, which holds its size =
    min(_CHUNK, trials - i·_CHUNK) trials, in block order, mapped over at
    most mc.workers threads."""
    blocks = [(i, min(_CHUNK, mc.trials - a)) for i, a in enumerate(range(0, mc.trials, _CHUNK))]
    if mc.workers == 1:
        return [fn(*block) for block in blocks]
    with ThreadPoolExecutor(max_workers=min(mc.workers, len(blocks))) as pool:
        return list(pool.map(fn, *zip(*blocks)))


def _to_uniforms(w):
    """Generator.random's uniforms (w >> 11)·2**-53 of words w, written over w."""
    u = w.view(np.float64)  # in place for a 1-D w; w >> 11 < 2**53 casts exactly
    np.copyto(u, np.right_shift(w, 11, out=w).view(np.int64), casting="unsafe")
    return np.multiply(u, 2.0 ** -53, out=u)


def _word_limit(f):
    """The largest word w with (w >> 11)·2**-53 <= f (a CDF value), exactly."""
    return np.uint64(2 ** 64 - 1 if f >= 1.0 else math.floor(f * 2.0 ** 53) << 11 | 0x7FF)


def simulate_outage(c: SystemConfig, mc: McConfig) -> PerfEstimate:
    """Empirical outage probability: `simulate_outage_grid` of c alone."""
    return simulate_outage_grid([c], mc)[0]


def simulate_outage_grid(configs, mc: McConfig) -> list[PerfEstimate]:
    """Empirical outage probability of each config, all from one draw.

    Uses the threshold-comparison form of inverse-transform sampling: a link,
    the N-th best uplink among them, is in outage exactly when its word
    (`_nth_best_words`) is at most the `_word_limit` of its CDF at the
    threshold. The configs must share K and N, which alone fix those words,
    so each block is drawn and selected once and compared once per config;
    every estimate equals that of a run of its config alone.
    """
    if len({(c.scheduling.k_total, c.scheduling.n_order) for c in configs}) > 1:
        raise ValueError("the configs of one outage grid must share K and N")
    limits = [tuple(map(_word_limit, (
        -math.expm1(-c.gamma_th / c.scheduling.uplink_mean_snr),
        -math.expm1(-c.gamma_th / c.scheduling.downlink_mean_snr),
        alpha_mu_snr_cdf(c.sr_model, c.gamma_th),
        alpha_mu_snr_cdf(c.rs_model, c.gamma_th)))) for c in configs]

    def block(i, size):
        w_nth, w_dn, w_sr, w_rs = _nth_best_words(configs[0], rng_stream(mc.seed, i), size)
        hits = np.zeros(len(limits), np.int64)
        for j, (l_nth, l_dn, l_sr, l_rs) in enumerate(limits):
            hits[j] = np.count_nonzero(
                (w_nth <= l_nth) | (w_dn <= l_dn) | (w_sr <= l_sr) | (w_rs <= l_rs))
        return hits

    hits = sum(_map_blocks(block, mc))
    estimates = []
    for h in hits.tolist():
        p_hat = h / mc.trials
        std_error = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / mc.trials)
        estimates.append(PerfEstimate(p_hat, method="monte_carlo",
                                      std_error=std_error, trials=mc.trials))
    return estimates


def _tile_rows(k):
    """Trials per uplink tile at K users: 65,536 words (512 KiB, an L2 cache's
    worth) up to K = 16, then 4,096, so that a block costs at most 16 tiles."""
    return max(4_096, 65_536 // k)


def _nth_best_words(c: SystemConfig, rng: np.random.Generator, size: int, hops=True):
    """The N-th largest of each trial's K uplink words, then the downlink,
    S->R and R->S words (without the last two when hops is false) of a block
    of `size` trials, drawn in that order from its fresh stream rng. Every
    link SNR is monotone in its word, so the N-th best uplink, which the
    relay serves, is that of the N-th largest word. The uplink words come
    `_tile_rows(K)` trials at a time, as one draw of all size·K words would
    give them, each tile selected into w_nth and freed before the next."""
    k, n = c.scheduling.k_total, c.scheduling.n_order
    bits, rows, w_nth = rng.bit_generator, _tile_rows(k), np.empty(size, np.uint64)
    for a in range(0, size, rows):
        out = w_nth[a:a + rows]
        w_up = bits.random_raw(out.size * k).reshape(out.size, k)
        if n in (1, k):  # by a running maximum (N = 1) or minimum (N = K), at K = 3 in
            pick = np.maximum if n == 1 else np.minimum  # under a tenth of the partition's time
            np.copyto(out, w_up[:, 0])
            for j in range(1, k):
                pick(out, w_up[:, j], out=out)
        else:  # by a partition in place, since np.partition would copy the tile
            w_up.partition(k - n, axis=1)
            np.copyto(out, w_up[:, k - n])
        del w_up  # so that at most one tile is live
    return w_nth, *bits.random_raw((3 if hops else 1) * size).reshape(-1, size)


def _end_to_end_snr(c: SystemConfig, rng: np.random.Generator, size: int):
    """Per-trial end-to-end SNR of a block of `size` trials from its fresh
    stream rng: the minimum of the N-th best uplink and the downlink, by
    inverse transform from the words the outage kernel compares
    (`_nth_best_words`, without the hop words), and of the two alpha-mu hops
    (`_hop_snrs`), drawn from rng after those words."""
    sched = c.scheduling
    u_nth, u_dn = map(_to_uniforms, _nth_best_words(c, rng, size, hops=False))
    m = np.minimum(-sched.uplink_mean_snr * np.log1p(-u_nth),
                   -sched.downlink_mean_snr * np.log1p(-u_dn))
    for g in _hop_snrs(c, rng, size):
        np.minimum(m, g, out=m)
    return m


def _hop_snrs(c: SystemConfig, rng: np.random.Generator, size: int):
    """The S->R and R->S SNRs of `size` trials: `_snr_of_gamma` of
    G ~ Gamma(mu) by rng's `standard_gamma`, S->R first."""
    return [_snr_of_gamma(p, rng.standard_gamma(p.mu, size)) for p in (c.sr_model, c.rs_model)]


def _snr_of_gamma(p, g):
    """mean_snr·(g/mu)**(2/alpha) of alpha-mu hop p, written over the float
    array g, ufunc by ufunc: the hop SNR whose CDF is P(mu, g)."""
    np.power(np.divide(g, p.mu, out=g), 2.0 / p.alpha, out=g)
    return np.multiply(g, p.mean_snr, out=g)


def simulate_asep(c: SystemConfig, mc: McConfig) -> PerfEstimate:
    """Empirical average symbol error probability: the mean of the
    conditional error (a/2) erfc(sqrt(b * gamma)) over end-to-end SNR draws;
    `simulate_asep_grid` of c at scale 1."""
    return simulate_asep_grid(c, [1.0], mc)[0]


def simulate_asep_grid(c: SystemConfig, scales, mc: McConfig) -> list[PerfEstimate]:
    """Empirical ASEP of c with all four link scales multiplied by s, for
    each s of scales, all from one pass of `_end_to_end_snr` at c.

    Each link SNR is computed as its scale times a variate that depends on
    the block's stream alone, a uniform or a Gamma(mu) draw (the alpha-mu law
    is a scale family in its scale, and so is the exponential). When c's
    four scales are 1, those variates are its link SNRs, and rounding is
    monotone, so s times its end-to-end SNR (a minimum of link SNRs) is, bit
    for bit, that of c with its scales set to s: the estimate for s equals
    `simulate_asep` of that config. Each block computes its SNRs once,
    writes the errors of each scale in turn into one block-sized buffer and
    returns their pairwise `np.sum` and sum of squares; the estimate is the
    `math.fsum` of those over all blocks.
    """
    a, b = c.mod_a, c.mod_b

    def block(i, size):
        g = _end_to_end_snr(c, rng_stream(mc.seed, i), size)
        pe = np.empty_like(g)  # the errors of each scale in turn, as g serves them all
        sums = []
        for s in scales:  # (a/2) erfc(sqrt(b·s·g)), ufunc by ufunc
            np.multiply(g, s, out=pe)
            np.multiply(pe, b, out=pe)
            np.sqrt(pe, out=pe)
            erfc(pe, out=pe)
            np.multiply(pe, 0.5 * a, out=pe)
            sums.append((float(np.sum(pe)), float(np.sum(np.square(pe, out=pe)))))
        return sums

    per_block = _map_blocks(block, mc)
    n = mc.trials
    estimates = []
    for sums in zip(*per_block):
        mean = math.fsum(s for s, _ in sums) / n
        var = max(math.fsum(q for _, q in sums) / n - mean * mean, 0.0)
        estimates.append(PerfEstimate(min(max(mean, 0.0), 1.0), method="monte_carlo",
                                      std_error=math.sqrt(var / n), trials=n))
    return estimates
