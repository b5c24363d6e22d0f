"""Monte-Carlo verification engine.

Counter-based RNG (Philox) with one independent stream per fixed-size trial
block, which worker threads share in chunks of raw words drawn at their exact
stream offsets, and the ASEP kernel draws each chunk's alpha-mu hops from
its own counter range. Each chunk returns its partial sums, added in chunk
order, so results are bit-identical for a given (seed, trials, batch) and
chunk size whatever the number of workers.
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
_CHUNK = 65_536  # trials per chunk, the unit of work of a worker thread


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
    """fn(stream_id, size, start, stop) for the chunks start..stop-1 of every
    block, in block and chunk order, mapped over at most mc.workers threads."""
    chunks = [(sid, size, a, min(a + _CHUNK, size))
              for sid, size in _blocks(mc) for a in range(0, size, _CHUNK)]
    if mc.workers == 1:
        return [fn(*chunk) for chunk in chunks]
    with ThreadPoolExecutor(max_workers=min(mc.workers, len(chunks))) as pool:
        return list(pool.map(fn, *zip(*chunks)))


def _draw_words(c: SystemConfig, rng: np.random.Generator, size: int,
                start=0, stop=None, hops=True):
    """The raw 64-bit Philox words of trials start..stop-1 (default: all) of
    a block of `size` trials, as drawn in order from its fresh stream rng: K
    uplink words a trial, then the S->R, downlink and R->S words of all
    trials; without the S->R and R->S words when hops is false. A counter
    step makes four words, so the word at offset i is drawn from rng's key
    after i // 4 steps and i % 4 discarded words."""
    k, key = c.scheduling.k_total, rng.bit_generator.state["state"]["key"]
    stop = size if stop is None else stop

    def draw(offset, n):
        bits = np.random.Philox(key=key).advance(offset // 4)
        bits.random_raw(offset % 4)
        return bits.random_raw(n)

    n = stop - start
    return (draw(start * k, n * k).reshape(n, k),
            *(draw(size * (k + j) + start, n) for j in ((0, 1, 2) if hops else (1,))))


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
    so each chunk is drawn and selected once and compared once per config;
    every estimate equals that of a run of its config alone.
    """
    if len({(c.scheduling.k_total, c.scheduling.n_order) for c in configs}) > 1:
        raise ValueError("the configs of one outage grid must share K and N")
    limits = [tuple(map(_word_limit, (
        -math.expm1(-c.gamma_th / c.scheduling.uplink_mean_snr),
        alpha_mu_snr_cdf(c.sr_model, c.gamma_th),
        -math.expm1(-c.gamma_th / c.scheduling.downlink_mean_snr),
        alpha_mu_snr_cdf(c.rs_model, c.gamma_th)))) for c in configs]

    def block(stream_id, size, start, stop):
        w_nth, w_sr, w_dn, w_rs = _nth_best_words(
            configs[0], rng_stream(mc.seed, stream_id), size, start, stop)
        hits = np.zeros(len(limits), np.int64)
        for j, (l_nth, l_sr, l_dn, l_rs) in enumerate(limits):
            hits[j] = np.count_nonzero(
                (w_nth <= l_nth) | (w_sr <= l_sr) | (w_dn <= l_dn) | (w_rs <= l_rs))
        return hits

    hits = sum(_map_blocks(block, mc))
    estimates = []
    for h in hits.tolist():
        p_hat = h / mc.trials
        std_error = math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / mc.trials)
        estimates.append(PerfEstimate(p_hat, method="monte_carlo",
                                      std_error=std_error, trials=mc.trials))
    return estimates


def _nth_best_words(c: SystemConfig, rng: np.random.Generator, size: int,
                    start=0, stop=None, hops=True):
    """The N-th largest of each trial's K uplink words (`_draw_words`), a
    column of the uplink block selected in place, and its S->R, downlink and
    R->S words (the downlink word alone when hops is false), for trials
    start..stop-1 (default: all) of a block. Every link SNR is monotone in
    its word, so the N-th best uplink, which the relay serves, is that of
    the N-th largest word."""
    k, n = c.scheduling.k_total, c.scheduling.n_order
    w_up, *links = _draw_words(c, rng, size, start, stop, hops)
    w_nth = w_up[:, k - n]  # the N-th largest word, (K - N)-th in ascending order
    if n in (1, k):  # by a running maximum (N = 1) or minimum (N = K), at K = 3 in
        pick = np.maximum if n == 1 else np.minimum  # under a tenth of the partition's time;
        for j in range(k):  # by index, so no column view outlives the block
            if j != k - n:
                pick(w_nth, w_up[:, j], out=w_nth)
    else:  # by a partition in place, since np.partition would copy the block
        w_up.partition(k - n, axis=1)
    return w_nth, *links


def _end_to_end_snr(c: SystemConfig, rng: np.random.Generator, size: int,
                    start=0, stop=None):
    """Per-trial end-to-end SNR of trials start..stop-1 (default: all) of a
    block, which lie in one chunk of `_map_blocks`: the minimum of the N-th
    best uplink and the downlink, by inverse transform from the words the
    outage kernel compares (`_nth_best_words`, without the hop words), and
    of the two alpha-mu hops (`_hop_snrs`)."""
    sched = c.scheduling
    u_nth, u_dn = map(_to_uniforms, _nth_best_words(c, rng, size, start, stop, hops=False))
    m = np.minimum(-sched.uplink_mean_snr * np.log1p(-u_nth),
                   -sched.downlink_mean_snr * np.log1p(-u_dn))
    for g in _hop_snrs(c, rng, start, m.size):
        np.minimum(m, g, out=m)
    return m


def _hop_snrs(c: SystemConfig, rng: np.random.Generator, start: int, n: int):
    """The S->R and R->S SNRs of n trials from start, a chunk start of a
    block: `_snr_of_gamma` of G ~ Gamma(mu) by `standard_gamma`, S->R first,
    from the chunk's own generator: the key of the block's stream rng at
    counter (1 + start // _CHUNK)·2**128, so no two chunks share draws and
    none reads the block's words, whose counters stay far below 2**128."""
    gen = np.random.Generator(np.random.Philox(
        key=rng.bit_generator.state["state"]["key"], counter=(1 + start // _CHUNK) << 128))
    return [_snr_of_gamma(p, gen.standard_gamma(p.mu, n)) for p in (c.sr_model, c.rs_model)]


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
    is a scale family in its scale, and so is the exponential). When c's four scales are 1, those variates are
    its link SNRs, and rounding is monotone, so s times its end-to-end SNR
    (a minimum of link SNRs) is, bit for bit, that of c with its scales set
    to s: the estimate for s equals `simulate_asep` of that config. Each
    chunk computes its SNRs once, writes the errors of each scale in turn
    into one chunk-sized buffer and returns their pairwise `np.sum` and sum
    of squares; the estimate is the `math.fsum` of those over all chunks.
    """
    a, b = c.mod_a, c.mod_b

    def block(stream_id, size, start, stop):
        g = _end_to_end_snr(c, rng_stream(mc.seed, stream_id), size, start, stop)
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

    per_chunk = _map_blocks(block, mc)
    n = mc.trials
    estimates = []
    for sums in zip(*per_chunk):
        mean = math.fsum(s for s, _ in sums) / n
        var = max(math.fsum(q for _, q in sums) / n - mean * mean, 0.0)
        estimates.append(PerfEstimate(min(max(mean, 0.0), 1.0), method="monte_carlo",
                                      std_error=math.sqrt(var / n), trials=n))
    return estimates
