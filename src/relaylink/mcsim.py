"""Monte-Carlo verification engine.

Counter-based RNG (Philox) with one independent stream per fixed-size trial
block, so results are bit-identical for a given (seed, trials, batch) no
matter how many worker threads execute the blocks.
"""

from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import erfc, gammaincinv

from .analysis import PerfEstimate, SystemConfig
from .channels import AlphaMuParams, alpha_mu_snr_cdf

DEFAULT_SEED = 20240915
# relative widening of the alpha-mu inversion gate u <= F(m) in _end_to_end_snr
_GATE_MARGIN = 1e-9
# bracket of that gate (_gate_table): cells on a uniform grid in log m; the
# log-space guard, far above the rounding of a computed cell position; and
# the relative widening of each tabulated bound
_GATE_CELLS = 4096
_GATE_GUARD = 1e-9
_GATE_SLACK = 1e-12


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

    `_hop_gate` decides u <= F(m) without evaluating F on almost every
    trial. A cached table of F on a log-m grid bounds F(m) by its values at
    the grid points either side of m: u at or below the lower bound is a
    certain hit, u above the upper one a certain skip. The bounds are
    conservative (see `_gate_bounds`), so the decision equals the exact
    test. Only trials with u between them, about 900 to 2,400 per 1e6 on
    the benchmark's points, call `gammainc`.
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
    del u_up, u_nth, u_dn
    for p, u in ((c.sr_model, u_sr), (c.rs_model, u_rs)):
        hit = np.flatnonzero(_hop_gate(p, u, m))
        m[hit] = np.minimum(m[hit], _alpha_mu_bulk(p, u[hit]))
    return m


def _hop_gate(p: AlphaMuParams, u, m):
    """Boolean mask of u <= F(m)·(1 + _GATE_MARGIN), the trials where hop p
    can lower the running minimum m.

    The margin exceeds the gammainc/gammaincinv round-trip error, so a
    skipped trial's hop SNR is never below m. The bounds of `_gate_bounds`
    settle every trial with u outside them; only the rest evaluate F.
    """
    lower, upper = _gate_bounds(p, m)
    hit = u <= lower
    open_ = np.flatnonzero((u <= upper) & ~hit)
    hit[open_] = u[open_] <= alpha_mu_snr_cdf(p, m[open_]) * (1.0 + _GATE_MARGIN)
    return hit


def _gate_bounds(p: AlphaMuParams, m):
    """(lower, upper) arrays with lower <= F(m)·(1 + _GATE_MARGIN) <= upper
    for each m, read from the table of `_gate_table`.

    The cell position of m is rounded down for the lower bound and up for
    the upper one, each past a log-space guard, so the grid point read lies
    on the right side of m even after rounding. m = 0 and m below the grid
    read -1 and F at the first point; m above it, F at the last point and 2.
    """
    lo, h, lower_tab, upper_tab = _gate_table(p)
    cells = lower_tab.size - 1
    with np.errstate(divide="ignore"):  # log(0) = -inf reads the first cell
        t = np.log(m)
    t *= 1.0 / h
    t -= lo / h - 1.0  # 1 + the position of m in grid cells
    guard = _GATE_GUARD / h
    pos = np.subtract(t, guard)
    np.clip(pos, 0.5, cells + 0.5, out=pos)
    lower = lower_tab[pos.astype(np.int32)]
    t += guard
    np.clip(t, 0.5, cells + 0.5, out=t)
    upper = upper_tab[t.astype(np.int32)]
    return lower, upper


@functools.lru_cache(maxsize=128)
def _gate_table(p: AlphaMuParams):
    """Bracket of the gate F(m)·(1 + _GATE_MARGIN) of hop p, built once per
    hop: (lo, h, lower, upper).

    The grid points exp(lo + h·j), j = 0.._GATE_CELLS, run from the 1e-18 to
    the 1 - 2**-53 quantile of the hop SNR. lower[j] is the gate at grid
    point j - 1 and upper[j] at grid point j, each widened by _GATE_SLACK,
    which covers last-ulp non-monotonicity of the computed F; lower[0] = -1
    and upper[-1] = 2 stand for the points beyond the two ends.
    """
    with np.errstate(divide="ignore", over="ignore"):
        ends = np.log(_alpha_mu_bulk(p, np.array([1e-18, 1.0 - 2.0 ** -53])))
    # finite ends, so that every grid point is a positive finite m; a hop
    # whose quantiles coincide (or clip alike) gets a short grid
    lo, hi = np.clip(ends, -700.0, 700.0)
    h = (hi - lo) / _GATE_CELLS or 1e-3
    gate = alpha_mu_snr_cdf(p, np.exp(lo + h * np.arange(_GATE_CELLS + 1)))
    gate *= 1.0 + _GATE_MARGIN
    lower = np.concatenate(([-1.0], gate * (1.0 - _GATE_SLACK)))
    upper = np.concatenate((gate * (1.0 + _GATE_SLACK), [2.0]))
    lower.flags.writeable = upper.flags.writeable = False
    return lo, h, lower, upper


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
