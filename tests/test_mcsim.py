import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from oracles import (blocks, end_to_end_snr_full, end_to_end_snr_inverse,
                     simulate_asep_blocks, simulate_outage_blocks)
from scipy.special import gammainc
from scipy.stats import ks_2samp, kstest

from relaylink import cli, mcsim
from relaylink.analysis import SystemConfig, asep, at_snr_db, sweep, total_outage
from relaylink.channels import AlphaMuParams, GammaGammaParams, alpha_mu_snr_cdf
from relaylink.ggfit import fit_alpha_mu
from relaylink.mcsim import DEFAULT_SEED, McConfig, rng_stream, simulate_asep, simulate_outage
from relaylink.selection import SchedulingSpec, nth_best_cdf


def config(k=1, n=1, alpha=2.0, mu=1.0, snr=1.0, gamma_th=1.0):
    return SystemConfig(
        scheduling=SchedulingSpec(k, n, snr, snr),
        sr_model=AlphaMuParams(alpha, mu, snr),
        rs_model=AlphaMuParams(alpha, mu, snr),
        gamma_th=gamma_th)


# -------------------------------------------------------------- streams

def test_rng_stream_determinism():
    a = rng_stream(123, 0).random(1000)
    b = rng_stream(123, 0).random(1000)
    assert np.array_equal(a, b)


def test_rng_stream_distinct_ids_differ():
    a = rng_stream(123, 0).random(1000)
    b = rng_stream(123, 1).random(1000)
    assert not np.array_equal(a, b)


def test_rng_streams_statistically_independent():
    a = rng_stream(2024, 0).random(1_000_000)
    b = rng_stream(2024, 1).random(1_000_000)
    assert ks_2samp(a, b).pvalue > 0.01


# ------------------------------------------------------------ raw words

WORD_MAX = 2 ** 64 - 1


@settings(derandomize=True, max_examples=300, deadline=None)
@given(f=st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 - 2.0 ** -53, 2.0 ** -53]),
                   st.integers(0, 2 ** 53).map(lambda k: k * 2.0 ** -53),
                   st.floats(0.0, 1.0)))
def test_word_limit_is_exact(f):
    # w <= L(f) exactly when the uniform (w >> 11)·2**-53 of w is <= f, for f,
    # its float neighbours (those that can be CDF values, f >= 0) and words
    # at L(f) - 1, L(f), L(f) + 1 and both ends of the word range
    for g in (math.nextafter(f, -math.inf), f, math.nextafter(f, math.inf)):
        if g < 0.0:
            continue
        limit = mcsim._word_limit(g)
        assert limit.dtype == np.uint64
        words = sorted({min(max(int(limit) + d, 0), WORD_MAX) for d in (-1, 0, 1)}
                       | {0, WORD_MAX})
        expect = [(w >> 11) * 2.0 ** -53 <= g for w in words]
        w = np.array(words, np.uint64)
        assert (w <= limit).tolist() == expect
        assert (mcsim._to_uniforms(w) <= g).tolist() == expect


@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.one_of(st.integers(0, 70), st.sampled_from([4_095, 65_537])),
       skip=st.integers(0, 7), seed=st.integers(0, 2**32 - 1))
def test_words_convert_in_place_to_generator_uniforms(n, skip, seed):
    # the words of a block's stream after `skip` discarded ones, and n of them
    expect = rng_stream(seed, 0).random(skip + 3 * n)[skip:]
    words = rng_stream(seed, 0).bit_generator.random_raw(skip + 3 * n)[skip:]
    u = mcsim._to_uniforms(words[:n])
    assert np.array_equal(u, expect[:n])
    assert n == 0 or np.shares_memory(u, words)
    # and a strided column of an (n, 2) block
    col = mcsim._to_uniforms(words[n:].reshape(n, 2)[:, 1])
    assert np.array_equal(col, expect[n:].reshape(n, 2)[:, 1])


def test_word_conversion_needs_no_temporary():
    words = rng_stream(3, 0).bit_generator.random_raw(1_000_003)
    tracemalloc.start()
    try:
        mcsim._to_uniforms(words)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < words.nbytes // 100


# -------------------------------------------------------- determinism

def test_simulate_outage_repeatable():
    c = config(k=3, n=2, snr=4.0)
    m = McConfig(trials=50_000, seed=7)
    assert simulate_outage(c, m) == simulate_outage(c, m)


def test_simulate_asep_repeatable():
    c = config(k=2, n=1, alpha=2.0, mu=2.0, snr=10.0)
    m = McConfig(trials=20_000, seed=7)
    assert simulate_asep(c, m) == simulate_asep(c, m)


# trials in 8 blocks of 5,000 (outage) or 3,000 (ASEP), the last one partial
@pytest.mark.parametrize("workers", [2, 4, 8])
def test_partition_invariance_outage(workers, monkeypatch):
    monkeypatch.setattr(mcsim, "_CHUNK", 5_000)
    c = config(k=3, n=2, snr=4.0)
    base = simulate_outage(c, McConfig(trials=37_003, seed=11, workers=1))
    other = simulate_outage(c, McConfig(trials=37_003, seed=11, workers=workers))
    assert base == other


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_partition_invariance_asep(workers, monkeypatch):
    monkeypatch.setattr(mcsim, "_CHUNK", 3_000)
    c = config(k=2, n=1, alpha=2.0, mu=2.0, snr=10.0)
    base = simulate_asep(c, McConfig(trials=23_999, seed=11, workers=1))
    other = simulate_asep(c, McConfig(trials=23_999, seed=11, workers=workers))
    assert base.value == other.value
    assert base.std_error == other.std_error


def test_block_layout_fixed_by_trials():
    # block i is stream i and holds min(_CHUNK, trials - i·_CHUNK) trials
    layout = mcsim._map_blocks(lambda i, size: (i, size), McConfig(trials=140_003, workers=2))
    assert layout == [(0, 65_536), (1, 65_536), (2, 8_931)]
    assert layout == blocks(McConfig(trials=140_003))


# ----------------------------------------------------------- estimates

def test_degenerate_threshold_gives_zero_outage():
    c = config(gamma_th=1e-300)
    est = simulate_outage(c, McConfig(trials=10_000, seed=3))
    assert est.value == 0.0


def test_outage_matches_closed_form_all_exponential():
    c = config()  # K=N=1, all exponential, gamma_th = mean = 1
    est = simulate_outage(c, McConfig(trials=1_000_000, seed=5))
    expect = 1.0 - math.exp(-4.0)
    assert abs(est.value - expect) < 3.0 * est.std_error


def test_outage_matches_analytic_general_config():
    c = config(k=4, n=2, alpha=1.68, mu=1.85, snr=8.0)
    est = simulate_outage(c, McConfig(trials=1_000_000, seed=5, workers=4))
    assert abs(est.value - total_outage(c).value) < 3.0 * est.std_error


def test_estimator_unbiased_coverage():
    # analytic value inside the 95% CI approximately 95 times out of 100
    c = config(k=3, n=1, alpha=2.0, mu=2.0, snr=3.0)
    truth = total_outage(c).value
    hits = 0
    for rep in range(100):
        est = simulate_outage(c, McConfig(trials=100_000, seed=1000 + rep))
        if abs(est.value - truth) <= 1.96 * est.std_error:
            hits += 1
    assert 88 <= hits <= 100


# ----------------------------------------------------- sampler parity

def test_bulk_alpha_mu_sampler_matches_scalar():
    # the kernel's hops, drawn and transformed as arrays, against the same
    # generator's Gamma draws taken and transformed one value at a time;
    # each hop SNR inverts through the CDF to P(mu, G)
    c = SystemConfig(scheduling=SchedulingSpec(3, 1, 10.0, 10.0),
                     sr_model=AlphaMuParams(1.68, 1.85, 10.0),
                     rs_model=AlphaMuParams(*SEVERE_B, 3.7), gamma_th=1.0)
    bulk = mcsim._hop_snrs(c, rng_stream(5, 0), 500)
    gen = rng_stream(5, 0)
    for p, hop in zip((c.sr_model, c.rs_model), bulk):
        gs = [gen.standard_gamma(p.mu) for _ in range(hop.size)]
        for g, x in zip(gs, hop):
            assert x == mcsim._snr_of_gamma(p, np.array([g]))[0]
        assert alpha_mu_snr_cdf(p, hop) == pytest.approx(gammainc(p.mu, gs), rel=1e-10)


def test_per_link_marginals_match_cdfs():
    # validates the samplers inside the protocol loop: transforming each
    # simulated per-link SNR through its analytic CDF must give uniforms
    c = config(k=5, n=3, alpha=0.537, mu=2.022, snr=6.0)
    rng = rng_stream(77, 0)
    trials = 200_000
    u_up = rng.random((trials, 5))
    u_sr = rng.random(trials)
    u_dn = rng.random(trials)
    u_rs = rng.random(trials)
    ks_bound = 1.36 / math.sqrt(trials)

    g_up = np.sort(-c.scheduling.uplink_mean_snr * np.log1p(-u_up), axis=1)[:, 5 - 3]
    pit = np.sort([nth_best_cdf(c.scheduling, float(g)) for g in g_up[:50_000]])
    n = pit.size
    ks = max(np.max(np.arange(1, n + 1) / n - pit),
             np.max(pit - np.arange(0, n) / n))
    assert ks < 1.36 / math.sqrt(n)

    g_sr = mcsim._hop_snrs(c, rng_stream(77, 0), 50_000)[0]
    pit = np.sort([alpha_mu_snr_cdf(c.sr_model, float(g)) for g in g_sr])
    n = pit.size
    ks = max(np.max(np.arange(1, n + 1) / n - pit),
             np.max(pit - np.arange(0, n) / n))
    assert ks < 1.36 / math.sqrt(n)

    g_dn = -c.scheduling.downlink_mean_snr * np.log1p(-u_dn)
    pit = np.sort(1.0 - np.exp(-g_dn / c.scheduling.downlink_mean_snr))
    ks = max(np.max(np.arange(1, trials + 1) / trials - pit),
             np.max(pit - np.arange(0, trials) / trials))
    assert ks < ks_bound
    assert u_rs.shape == (trials,)


def test_indicator_fast_path_equals_snr_path(monkeypatch):
    # the threshold-comparison fast path and the SNRs inverted from the same
    # words must flag exactly the same trials, block by block
    monkeypatch.setattr(mcsim, "_CHUNK", 10_000)
    c = config(k=4, n=2, alpha=1.68, mu=1.85, snr=8.0, gamma_th=2.0)
    m = McConfig(trials=30_000, seed=21)
    fast = simulate_outage(c, m)
    hits = 0
    for sid, size in blocks(m):
        g = end_to_end_snr_inverse(c, rng_stream(m.seed, sid), size)
        hits += int(np.count_nonzero(g <= c.gamma_th))
    assert fast.value == hits / m.trials


@pytest.mark.parametrize("alpha,mu", [(0.537, 2.022), (0.5007, 40.62), (0.3, 0.3)])
def test_kernel_hop_snrs_follow_the_alpha_mu_law(alpha, mu):
    # the hop SNRs the ASEP kernel draws, one block of each hop at unequal
    # scales, against the alpha-mu CDF; at alpha = mu = 0.3 they span about
    # 150 decades below the median
    c = SystemConfig(scheduling=SchedulingSpec(3, 1, 10.0, 10.0),
                     sr_model=AlphaMuParams(alpha, mu, 10.0),
                     rs_model=AlphaMuParams(alpha, mu, 0.01), gamma_th=1.0)
    hops = mcsim._hop_snrs(c, rng_stream(DEFAULT_SEED, 0), mcsim._CHUNK)
    for p, g in zip((c.sr_model, c.rs_model), hops):
        assert kstest(g, lambda x, p=p: alpha_mu_snr_cdf(p, x)).pvalue > 1e-3


SEVERE_B = (0.5803, 2.703)     # fitted severe (b) hop, alpha * mu < 2
VERY_WEAK = (0.5007, 40.62)    # fitted very-weak hop


@pytest.mark.parametrize("k,n,sr,rs,snr_db", [
    (1, 1, SEVERE_B, SEVERE_B, 0.0),        # K = 1
    (5, 1, SEVERE_B, SEVERE_B, 60.0),       # N = 1
    (5, 3, VERY_WEAK, VERY_WEAK, 0.0),      # 1 < N < K
    (5, 5, VERY_WEAK, VERY_WEAK, 60.0),     # N = K
    (4, 2, SEVERE_B, VERY_WEAK, 0.0),       # unequal hops
    (4, 2, VERY_WEAK, SEVERE_B, 60.0),
    (12, 7, (2.0, 1.0), (0.3, 60.0), 30.0),
    (3, 2, (8.0, 0.3), (1.68, 1.85), 10.0),
])
def test_end_to_end_snr_equals_full_construction(k, n, sr, rs, snr_db):
    snr = 10.0 ** (snr_db / 10.0)
    c = SystemConfig(scheduling=SchedulingSpec(k, n, snr, 0.5 * snr),
                     sr_model=AlphaMuParams(*sr, 2.0 * snr),
                     rs_model=AlphaMuParams(*rs, snr), gamma_th=1.0)
    for sid, size in [(0, 25_000), (1, 15_000)]:  # blocks of two streams
        (fast,) = mcsim._end_to_end_snr([c], rng_stream(31, sid), size)
        full = end_to_end_snr_full(c, rng_stream(31, sid), size)
        assert np.array_equal(fast, full)


@pytest.mark.parametrize("sr_scale,rs_scale", [(1e-6, 1e6), (1e6, 1e-6)])
def test_end_to_end_snr_equals_full_construction_at_extreme_scales(sr_scale, rs_scale):
    # hop scales 1e-6x and 1e6x the Rayleigh means: the small-scale hop sets
    # nearly every trial's minimum, the large-scale hop almost none
    snr = 10.0
    c = SystemConfig(scheduling=SchedulingSpec(4, 2, snr, 0.5 * snr),
                     sr_model=AlphaMuParams(*VERY_WEAK, sr_scale * snr),
                     rs_model=AlphaMuParams(*VERY_WEAK, rs_scale * snr), gamma_th=1.0)
    for sid, size in [(0, 25_000), (1, 15_000)]:
        (fast,) = mcsim._end_to_end_snr([c], rng_stream(31, sid), size)
        full = end_to_end_snr_full(c, rng_stream(31, sid), size)
        assert np.array_equal(fast, full)


HOP_LAWS = st.tuples(st.floats(0.3, 8.0), st.floats(0.3, 60.0))
LINK_DB = st.one_of(st.floats(-30.0, 60.0), st.sampled_from([-30.0, 60.0]))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(k=st.integers(1, 12), data=st.data(), sr=HOP_LAWS, rs=HOP_LAWS,
       dbs=st.lists(st.tuples(LINK_DB, LINK_DB, LINK_DB, LINK_DB), min_size=1, max_size=4),
       seed=st.integers(0, 2**32 - 1))
def test_end_to_end_snr_scales_with_the_link_scales(k, data, sr, rs, dbs, seed):
    # the property the ASEP pass rests on: configs that share K, N and the hop
    # laws, each at four link scales of its own, take from one draw of a block
    # the end-to-end SNRs of a run of each alone, and of the full construction,
    # element by element
    n = data.draw(st.integers(1, k))
    configs = [SystemConfig(scheduling=SchedulingSpec(k, n, *scales[:2]),
                            sr_model=AlphaMuParams(*sr, scales[2]),
                            rs_model=AlphaMuParams(*rs, scales[3]), gamma_th=1.0)
               for scales in (10.0 ** (np.array(four) / 10.0) for four in dbs)]
    shared = [g.copy() for g in mcsim._end_to_end_snr(configs, rng_stream(seed, 0), 3_001)]
    assert len(shared) == len(configs)
    for c, g in zip(configs, shared):
        (alone,) = mcsim._end_to_end_snr([c], rng_stream(seed, 0), 3_001)
        assert np.array_equal(g, alone)
        assert np.array_equal(g, end_to_end_snr_full(c, rng_stream(seed, 0), 3_001))


# 30 (alpha, mu) pairs, from deep fades (0.3, 0.3) to near-deterministic hops
GATE_PAIRS = [(alpha, mu)
              for alpha in (0.3, SEVERE_B[0], VERY_WEAK[0], 1.0, 2.0, 8.0)
              for mu in (0.3, 1.0, SEVERE_B[1], VERY_WEAK[1], 60.0)]


def block_hops(c, rng, size):
    """The kernel's S->R and R->S SNRs of a block of `size` trials: its hop
    draws, which follow the uplink and downlink words in its fresh stream rng."""
    mcsim._nth_best_words(c, rng, size, hops=False)
    return mcsim._hop_snrs(c, rng, size)


def test_alpha_mu_gate_never_skips_a_lower_hop():
    # the kernel gates no hop out of the minimum: with the uplink and downlink
    # means at 1e300, every trial's end-to-end SNR is its lower hop
    for alpha, mu in GATE_PAIRS:
        c = SystemConfig(scheduling=SchedulingSpec(3, 2, 1e300, 1e300),
                         sr_model=AlphaMuParams(alpha, mu, 3.7),
                         rs_model=AlphaMuParams(alpha, mu, 0.5), gamma_th=1.0)
        (g,) = mcsim._end_to_end_snr([c], rng_stream(13, 1), 3_000)
        g_sr, g_rs = block_hops(c, rng_stream(13, 1), 3_000)
        assert np.array_equal(g, np.minimum(g_sr, g_rs))


@pytest.mark.parametrize("scale", [3.7, 1e-200, 1e200])
@pytest.mark.parametrize("alpha,mu", GATE_PAIRS)
def test_hop_floor_gate_at_table_points(alpha, mu, scale):
    # each hop floors the end-to-end SNR, which no gate may skip, at scales
    # where small-alpha hops underflow to 0 (1e-200) or overflow to inf
    # (1e200): the kernel's SNRs equal the full construction, lie at or
    # below both hops, and are never nan
    c = SystemConfig(scheduling=SchedulingSpec(4, 2, 10.0, 5.0),
                     sr_model=AlphaMuParams(alpha, mu, scale),
                     rs_model=AlphaMuParams(alpha, mu, scale), gamma_th=1.0)
    size = 4_000
    (g,) = mcsim._end_to_end_snr([c], rng_stream(17, 0), size)
    assert np.array_equal(g, end_to_end_snr_full(c, rng_stream(17, 0), size))
    g_sr, g_rs = block_hops(c, rng_stream(17, 0), size)
    assert np.all((g <= g_sr) & (g <= g_rs) & (g >= 0.0))


def test_asep_matches_quadrature():
    c = config(k=2, n=1, alpha=2.0, mu=2.0, snr=10.0)
    est = simulate_asep(c, McConfig(trials=500_000, seed=9, workers=2))
    assert abs(est.value - asep(c).value) < 4.0 * est.std_error


def test_asep_matches_quadrature_at_small_alpha_mu():
    # alpha = mu = 0.3: each hop CDF grows like g^0.045 from 0, so the hop
    # draws spread over more than a hundred decades below the mean
    c = config(k=2, n=1, alpha=0.3, mu=0.3, snr=10.0)
    est = simulate_asep(c, McConfig(trials=500_000, seed=9, workers=2))
    assert abs(est.value - asep(c).value) < 4.0 * est.std_error


@pytest.mark.parametrize("hop", ["nakagami", "fitted severe (b)"])
def test_asep_matches_quadrature_at_qpsk_weights(hop):
    # (a, b) = (2, 1/2) scales the conditional error and its SNR, which
    # a = b = 1 leaves unchecked; the seed was fixed before the first run
    c = config(k=3, n=1, alpha=2.0, mu=2.0, snr=10.0)
    if hop != "nakagami":
        fit = fit_alpha_mu(GammaGammaParams(4.34, 1.30))
        link = AlphaMuParams(fit.alpha, fit.mu, 10.0)
        c = dataclasses.replace(c, sr_model=link, rs_model=link)
    c = dataclasses.replace(c, mod_a=2.0, mod_b=0.5)
    est = simulate_asep(c, McConfig(trials=200_000, seed=2026, workers=2))
    assert abs(est.value - asep(c).value) < 5.0 * est.std_error


ITEM_HOPS = st.tuples(st.floats(0.2, 20.0), st.floats(0.1, 31.6))


@seed(20261022)
@settings(derandomize=True, max_examples=50, deadline=None)
@given(k=st.integers(1, 59), data=st.data(), sr=ITEM_HOPS, rs=ITEM_HOPS,
       dbs=st.tuples(*[st.floats(-20.0, 30.0)] * 4), gamma_th=st.floats(0.1, 10.0),
       a=st.sampled_from([1.0, 2.0]), b=st.sampled_from([1.0, 0.5, 0.1]),
       mc_seed=st.integers(0, 2**32 - 1))
def test_mc_agrees_with_analytic_on_random_configs(k, data, sr, rs, dbs, gamma_th, a, b,
                                                   mc_seed):
    # random configs over the ranges the API is used at, each link at a scale
    # of its own: the outage estimate passes the CLI's binomial tail test and
    # the ASEP estimate lies within 5 standard errors of the quadrature
    up, dn, s_sr, s_rs = (10.0 ** (db / 10.0) for db in dbs)
    c = SystemConfig(scheduling=SchedulingSpec(k, data.draw(st.integers(1, k)), up, dn),
                     sr_model=AlphaMuParams(*sr, s_sr), rs_model=AlphaMuParams(*rs, s_rs),
                     gamma_th=gamma_th, mod_a=a, mod_b=b)
    mc = McConfig(trials=200_000, seed=mc_seed, workers=2)
    for metric in ("outage", "asep"):
        row = next(sweep([(0.0, c)], metric, mc))
        assert cli._selfcheck_failure(row) is None, (metric, c, mc_seed)


# ------------------------------------------------------------ blocks

# (trials, block size `_CHUNK`): one block, or several with a partial last
# one, of sizes that are mostly multiples of neither 4 nor 65,536; blocks
# of one trial cost a stream each, so they run on two of the (K, N) pairs
# only
ORDERS = [(1, 1), (3, 1), (3, 3), (10, 4), (7, 6), (16, 1), (16, 16)]
CHUNK_CASES = ([(1_001, 1, 3, 1), (1_001, 1, 16, 16)]
               + [(trials, chunk, k, n)
                  for trials, chunk in [(23_333, 4_999), (1_003, 1_000_000),
                                        (65_536, 1_000_000), (140_003, 1_000_000)]
                  for k, n in ORDERS])


def test_chunk_cases_cross_tile_boundaries():
    # for each selection branch, some case has a block of two or more uplink
    # tiles with a partial last one, checked against the whole-block oracles
    crossed = set()
    for trials, chunk, k, n in CHUNK_CASES:
        rows = mcsim._tile_rows(k)
        sizes = (min(chunk, trials - a) for a in range(0, trials, chunk))
        if any(size > rows and size % rows for size in sizes):
            crossed.add("K = 1" if k == 1 else "N = 1" if n == 1 else "N = K" if n == k
                        else "1 < N < K")
    assert crossed == {"K = 1", "N = 1", "N = K", "1 < N < K"}


def unequal_hops(k, n):
    return SystemConfig(scheduling=SchedulingSpec(k, n, 4.0, 2.5),
                        sr_model=AlphaMuParams(*SEVERE_B, 6.0),
                        rs_model=AlphaMuParams(*VERY_WEAK, 3.0), gamma_th=1.0)


@pytest.mark.parametrize("trials,chunk,k,n", CHUNK_CASES)
def test_chunked_estimates_equal_whole_block_oracle(trials, chunk, k, n, monkeypatch):
    monkeypatch.setattr(mcsim, "_CHUNK", chunk)
    c = unequal_hops(k, n)
    m = McConfig(trials=trials, seed=17)
    outage = simulate_outage_blocks(c, m)
    asep = simulate_asep_blocks(c, m)
    for workers in (1, 2, 4):
        mw = McConfig(trials=trials, seed=17, workers=workers)
        est = simulate_outage(c, mw)
        assert (est.value, est.std_error) == outage
        est = simulate_asep(c, mw)
        assert (est.value, est.std_error) == asep


def test_chunked_estimates_equal_oracle_over_full_blocks():
    # at the real block size: 15 full blocks and a partial one of 16,963
    c = unequal_hops(3, 3)
    m = McConfig(trials=1_000_003, seed=23, workers=4)
    est = simulate_outage(c, m)
    assert (est.value, est.std_error) == simulate_outage_blocks(c, m)
    est = simulate_asep(c, m)
    assert (est.value, est.std_error) == simulate_asep_blocks(c, m)


# (outage hits, ASEP mean, ASEP standard error) of 150,003 trials at seed 41
# on 2 workers, in blocks of 65,536, 65,536 and 18,931 trials: the hits as
# each block's SFC64 stream gives them, the ASEP with the hops drawn from
# each block's generator after its uplink and downlink words
PINNED_STREAMS = [
    ("nakagami_K3", 19_069, 0.03215635672208372, 0.00016872219046714775),
    ("nakagami_K10", 18_876, 0.03185642697320209, 0.0001686920534663157),
    ("unequal_hops_K4_N2", 84_155, 0.14009762605755088, 0.00032466399153695285),
]


def nakagami(k):
    # rf_backup_baseline at 10 dB: alpha = 2, mu = m = 2 hops, N = 1
    return SystemConfig(scheduling=SchedulingSpec(k, 1, 10.0, 10.0),
                        sr_model=AlphaMuParams(2.0, 2.0, 10.0),
                        rs_model=AlphaMuParams(2.0, 2.0, 10.0), gamma_th=1.0)


@pytest.mark.parametrize("name,hits,mean,std_error", PINNED_STREAMS,
                         ids=[row[0] for row in PINNED_STREAMS])
def test_pinned_streams(name, hits, mean, std_error):
    # a change to the streams or to how the kernels read them fails here, and
    # must name the new figures
    c = {"nakagami_K3": nakagami(3), "nakagami_K10": nakagami(10),
         "unequal_hops_K4_N2": unequal_hops(4, 2)}[name]
    m = McConfig(trials=150_003, seed=41, workers=2)
    assert simulate_outage(c, m).value == hits / m.trials
    est = simulate_asep(c, m)
    assert est.value == pytest.approx(mean, rel=1e-13, abs=0.0)
    assert est.std_error == pytest.approx(std_error, rel=1e-13, abs=0.0)


def snr_points(c):
    return [(db, at_snr_db(c, db)) for db in range(0, 32, 2)]  # 16 points


def outage_sweep(c, m):
    return sweep(snr_points(c), "outage", m)  # the MC column, without reading a row


def asep_sweep(c, m):
    return sweep(snr_points(c), "asep", m)


@pytest.mark.parametrize("simulate", [simulate_outage, simulate_asep, outage_sweep,
                                      asep_sweep])
def test_block_working_set_stays_small(simulate):
    # a K = 10 run of 1e6 trials on one worker, at one point or for a
    # 16-point sweep: the working set is one block's, since each block
    # returns its partial sums and no buffer spans the run
    c = config(k=10, n=1, alpha=2.0, mu=2.0, snr=10.0)
    simulate(c, McConfig(trials=1_000))  # first calls outside the measurement
    tracemalloc.start()
    try:
        simulate(c, McConfig(trials=1_000_000, workers=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


@pytest.mark.parametrize("simulate", [simulate_outage, simulate_asep])
def test_block_working_set_does_not_grow_with_k(simulate):
    # one block at K = 256 on one worker: its 128 MiB of uplink words are
    # drawn and selected one tile at a time, so the block holds one tile
    # (8 MiB) and its per-trial arrays
    c = config(k=256, n=1, alpha=2.0, mu=2.0, snr=10.0)
    simulate(c, McConfig(trials=1_000))  # first calls outside the measurement
    tracemalloc.start()
    try:
        simulate(c, McConfig(trials=mcsim._CHUNK, workers=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20


# ----------------------------------------------------------- validation

def test_outage_grid_configs_share_k_and_n():
    # configs of three (K, N) pairs, interleaved, at other thresholds and
    # scales: the grid gives each the estimate of a run of its config alone
    configs = [unequal_hops(4, 2), unequal_hops(4, 1), unequal_hops(3, 2),
               dataclasses.replace(unequal_hops(4, 2), gamma_th=2.5),
               at_snr_db(unequal_hops(4, 1), 7.0)]
    for workers in (1, 2):
        m = McConfig(trials=70_001, seed=8, workers=workers)
        assert mcsim.simulate_outage_grid(configs, m) == [simulate_outage(c, m) for c in configs]


def test_thread_pool_bounded_by_blocks_and_cpus(monkeypatch):
    # the pool is no larger than the workers asked for, the blocks or the CPUs
    # (1 where their number is unknown); the estimates do not depend on it.
    # The recorded pools run their blocks in this thread
    sizes = []

    class Pool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(mcsim, "ThreadPoolExecutor", Pool)
    for cpus, trials, workers, expect in [(2, 10**9, 20_000, 2), (None, 10**9, 20_000, 1),
                                          (8, 140_003, 20, 3), (8, 140_003, 2, 2),
                                          (3, 10**6, 20, 3)]:
        monkeypatch.setattr(mcsim.os, "cpu_count", lambda cpus=cpus: cpus)
        layout = mcsim._map_blocks(lambda i, size: size, McConfig(trials=trials, workers=workers))
        assert sum(layout) == trials and sizes.pop() == expect


def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=999)
    with pytest.raises(ValueError):
        McConfig(trials=1000, workers=0)
    with pytest.raises(ValueError, match="seed must be a nonnegative integer, got -1"):
        McConfig(trials=1000, seed=-1)


def test_estimate_metadata():
    c = config()
    est = simulate_outage(c, McConfig(trials=10_000, seed=1))
    assert est.method == "monte_carlo"
    assert est.trials == 10_000
    assert est.std_error == pytest.approx(
        math.sqrt(est.value * (1.0 - est.value) / 10_000))
