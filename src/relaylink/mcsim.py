"""Monte-Carlo verification engine.

Counter-based RNG (Philox) with one independent stream per fixed-size trial
block, which worker threads share in chunks of raw words drawn at their exact
stream offsets. Each chunk returns its partial sums, and they are added in
chunk order, so results are bit-identical for a given (seed, trials, batch)
whatever the number of workers.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import (erfc, expit, gammainc, gammaincc, gammainccinv, gammaincinv,
                           gammaln)

from .analysis import PerfEstimate, SystemConfig
from .channels import AlphaMuParams, alpha_mu_snr_cdf

DEFAULT_SEED = 20240915
# alpha-mu gate (_hop_floors): the relative shrink of each floor's quantile,
# and a guard in table cells, far above the rounding of a cell position
_GATE_MARGIN = 1e-9
_GATE_GUARD = 1e-9
_CHUNK = 65_536  # trials per chunk, the unit of work of a worker thread
# Gamma quantile (_gamma_quantile): table points, evenly spaced in logit u
# between the two ends, u = 2**-54 and 1 - 2**-53; and the largest Halley
# step, relative to its result, that is accepted rather than handed to
# gammaincinv
_QUANTILE_POINTS = 16_385
_QUANTILE_ENDS = (math.log(2.0 ** -54) - math.log1p(-2.0 ** -54),
                  math.log1p(-2.0 ** -53) - math.log(2.0 ** -53))
_HALLEY_LIMIT = 1e-5


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
                start=0, stop=None):
    """The raw 64-bit Philox words of trials start..stop-1 (default: all) of
    a block of `size` trials, as drawn in order from its fresh stream rng: K
    uplink words a trial, then the S->R, downlink and R->S words of all
    trials. A counter step makes four words, so the word at offset i is
    drawn from rng's key after i // 4 steps and i % 4 discarded words."""
    k, key = c.scheduling.k_total, rng.bit_generator.state["state"]["key"]
    stop = size if stop is None else stop

    def draw(offset, n):
        bits = np.random.Philox(key=key).advance(offset // 4)
        bits.random_raw(offset % 4)
        return bits.random_raw(n)

    n = stop - start
    return (draw(start * k, n * k).reshape(n, k),
            *(draw(size * (k + j) + start, n) for j in range(3)))


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
                    start=0, stop=None):
    """The N-th largest of each trial's K uplink words (`_draw_words`), a
    column of the uplink block selected in place, and its S->R, downlink and
    R->S words, for trials start..stop-1 (default: all) of a block. Every
    link SNR is monotone in its word, so the N-th best uplink, which the
    relay serves, is that of the N-th largest word."""
    k, n = c.scheduling.k_total, c.scheduling.n_order
    w_up, w_sr, w_dn, w_rs = _draw_words(c, rng, size, start, stop)
    w_nth = w_up[:, k - n]  # the N-th largest word, (K - N)-th in ascending order
    if n == 1:  # by a running maximum, at K = 3 under a tenth of the partition's time;
        for j in range(k - 1):  # by index, so no column view outlives the block
            np.maximum(w_nth, w_up[:, j], out=w_nth)
    else:  # by a partition in place, since np.partition would copy the block
        w_up.partition(k - n, axis=1)
    return w_nth, w_sr, w_dn, w_rs


def _end_to_end_snr(c: SystemConfig, rng: np.random.Generator, size: int,
                    start=0, stop=None):
    """Per-trial end-to-end SNR of trials start..stop-1 (default: all) of a
    block: the minimum of the N-th best uplink, the two alpha-mu hops and
    the downlink, each drawn by inverse transform from the words the outage
    kernel compares (`_nth_best_words`).

    The Rayleigh links set a running minimum m; each alpha-mu hop inverts,
    from the gate's table positions, only the trials `_may_lower` passes,
    which evaluates no CDF: it skips a trial only when a floor of the hop
    SNR, read at u from the inverse's own table, exceeds m. So m is the
    minimum of all four links.
    """
    sched = c.scheduling
    u_nth, u_sr, u_dn, u_rs = map(_to_uniforms, _nth_best_words(c, rng, size, start, stop))
    m = np.minimum(-sched.uplink_mean_snr * np.log1p(-u_nth),
                   -sched.downlink_mean_snr * np.log1p(-u_dn))
    del u_nth, u_dn
    for p, u in ((c.sr_model, u_sr), (c.rs_model, u_rs)):
        x = _table_position(p.mu, u)
        hit = np.flatnonzero(_may_lower(p, u, m, x))
        m[hit] = np.minimum(m[hit], _alpha_mu_bulk(p, u[hit], x[hit]))
    return m


def _may_lower(p: AlphaMuParams, u, m, x):
    """Boolean mask of the trials whose hop-p SNR may lie below m: floor <= m,
    for the floor (`_hop_floors`) of the last table point at or below u, read
    at u's `_table_position` x less a guard against rounding."""
    floors = _hop_floors(p)
    x = x + (1.0 - _GATE_GUARD)
    np.fmin(np.fmax(x, 0.0, out=x), floors.size - 1, out=x)
    return floors[x.astype(np.intp)] <= m


@functools.lru_cache(maxsize=128)  # 128 KiB a table
def _hop_floors(p: AlphaMuParams):
    """Floors of hop p's SNR, built once per hop: floors[0] = 0 for u below
    the first point of `_quantile_table`, and floors[j + 1] the SNR of
    z_j·(1 - _GATE_MARGIN), z_j = exp(log_z[j]), at each point j but the last.

    For u at or above point j, `_gamma_quantile` is at least z_j less about
    1e-13 relative. Division and multiplication round correctly and np.power
    is monotone in its base, so through the same ufuncs (`_snr_of_gamma`) the
    floor is at most u's computed SNR, also where the power underflows.
    """
    z = np.exp(_quantile_table(p.mu)[2][:-1]) * (1.0 - _GATE_MARGIN)
    floors = np.concatenate(([0.0], _snr_of_gamma(p, z)))
    floors.flags.writeable = False
    return floors


def _alpha_mu_bulk(p, u, x=None):
    # inverse transform of alpha_mu_snr_cdf (round trip tested); x: a 1-D u's _table_position
    return _snr_of_gamma(p, _gamma_quantile(p.mu, u) if x is None else _quantile_at(p.mu, u, x))


def _snr_of_gamma(p, z):
    # the hop SNR of a Gamma(mu) variate z. The ufunc np.power, because ** on
    # a NumPy scalar can differ from the array loop in the last ulp
    return p.mean_snr * np.power(z / p.mu, 2.0 / p.alpha)


def _table_position(mu, u):
    # (logit u - lo)/h: the position of each u of an array on the points of
    # mu's _quantile_table, in cells; u = 0 gives -inf, below every cell
    lo, inv_h = _quantile_table(mu)[:2]
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.log(u)
        x -= np.log1p(-u)
    x -= lo
    x *= inv_h
    return x


def _gamma_quantile(mu, u):
    """The z with P(mu, z) = u for each u of a float or an array, as an
    array of u's shape: gammaincinv's value to within about 2e-14 relative.

    The start interpolates log z linearly in logit u between the points of
    `_quantile_table`; it is within about 6.5e-7/mu relative for mu <= 1,
    and less above. One Halley step then solves P(mu, z) - u = 0, or
    (1 - u) - Q(mu, z) = 0 for u > 1/2, where 1 - u is exact and Q keeps the
    upper tail's relative accuracy. The step's cubic convergence leaves the
    rounding of P or Q as the only error (the tests check 1e-14 against
    mpmath). A step larger than _HALLEY_LIMIT·z, a non-finite one and u
    outside (0, 1) take gammaincinv instead. Each value depends on (mu, u)
    alone, never on the array around it, so chunks, workers and the
    full-construction oracle agree bit for bit.
    """
    shape = np.shape(u)
    u = np.asarray(u, dtype=float).ravel()
    return _quantile_at(mu, u, _table_position(mu, u)).reshape(shape)


def _quantile_at(mu, u, x):
    # _gamma_quantile of a 1-D u, from its _table_position x, which it overwrites
    log_z, slope = _quantile_table(mu)[2:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # the table's cells; nan (u outside [0, 1]) reads cell 0
        np.fmin(np.fmax(x, 0.0, out=x), log_z.size - 1, out=x)
        j = x.astype(np.intp)
        x -= j
        x *= slope[j]
        x += log_z[j]
        z = np.exp(x)
        upper = u > 0.5
        i_lo, i_up = np.flatnonzero(~upper), np.flatnonzero(upper)
        f = np.empty_like(z)
        f[i_lo] = gammainc(mu, z[i_lo]) - u[i_lo]
        f[i_up] = (1.0 - u[i_up]) - gammaincc(mu, z[i_up])
        # Halley, with f' = z**(mu - 1) e**-z / Gamma(mu) and f''/f' =
        # (mu - 1)/z - 1; f becomes the Newton step f/f'
        f *= np.exp(z + gammaln(mu) - (mu - 1.0) * x)
        step = f / (1.0 - 0.5 * f * ((mu - 1.0) / z - 1.0))
        z -= step
        ok = (np.abs(step) <= _HALLEY_LIMIT * z) & (u > 0.0) & (u < 1.0)
        bad = np.flatnonzero(~ok)
    if bad.size:
        z[bad] = gammaincinv(mu, u[bad])
    return z


@functools.lru_cache(maxsize=32)  # 256 KiB a table
def _quantile_table(mu):
    """Start of `_gamma_quantile` for Gamma(mu), built once per mu:
    (lo, 1/h, log_z, slope).

    log_z[j] is the log of the quantile at logit u = lo + h·j, j = 0 ..
    _QUANTILE_POINTS - 1, from gammaincinv at u <= 1/2 and from
    gammainccinv at 1 - u above, and slope[j] is log_z[j + 1] - log_z[j]
    (0 at the last point). A quantile that underflows to 0 gives -inf and
    nan entries, whose starts fail the Halley check.
    """
    lo, hi = _QUANTILE_ENDS
    t = np.linspace(lo, hi, _QUANTILE_POINTS)
    z = np.empty_like(t)
    low = t <= 0.0
    z[low] = gammaincinv(mu, expit(t[low]))
    z[~low] = gammainccinv(mu, expit(-t[~low]))
    with np.errstate(divide="ignore", invalid="ignore"):
        log_z = np.log(z)
        slope = np.append(np.diff(log_z), 0.0)
    log_z.flags.writeable = slope.flags.writeable = False
    return lo, 1.0 / (t[1] - t[0]), log_z, slope


def simulate_asep(c: SystemConfig, mc: McConfig) -> PerfEstimate:
    """Empirical average symbol error probability: the mean of the
    conditional error (a/2) erfc(sqrt(b * gamma)) over end-to-end SNR draws;
    `simulate_asep_grid` of c at scale 1."""
    return simulate_asep_grid(c, [1.0], mc)[0]


def simulate_asep_grid(c: SystemConfig, scales, mc: McConfig) -> list[PerfEstimate]:
    """Empirical ASEP of c with all four link scales multiplied by s, for
    each s of scales, all from one pass of `_end_to_end_snr` at c.

    Each link SNR is computed as its scale times a variate that depends on
    the uniforms alone (the alpha-mu law is a scale family in its scale, and
    so is the exponential). When c's four scales are 1, those variates are
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
