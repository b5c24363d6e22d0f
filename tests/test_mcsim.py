import math

import numpy as np
import pytest
from scipy.special import gammainc
from scipy.stats import ks_2samp

from relaylink import mcsim
from relaylink.analysis import SystemConfig, total_outage
from relaylink.channels import AlphaMuParams, alpha_mu_snr_cdf
from relaylink.mcsim import McConfig, rng_stream, simulate_asep, simulate_outage
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


# -------------------------------------------------------- determinism

def test_simulate_outage_repeatable():
    c = config(k=3, n=2, snr=4.0)
    m = McConfig(trials=50_000, seed=7)
    assert simulate_outage(c, m) == simulate_outage(c, m)


def test_simulate_asep_repeatable():
    c = config(k=2, n=1, alpha=2.0, mu=2.0, snr=10.0)
    m = McConfig(trials=20_000, seed=7)
    assert simulate_asep(c, m) == simulate_asep(c, m)


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_partition_invariance_outage(workers):
    c = config(k=3, n=2, snr=4.0)
    base = simulate_outage(c, McConfig(trials=40_000, seed=11, workers=1,
                                       batch=5_000))
    other = simulate_outage(c, McConfig(trials=40_000, seed=11, workers=workers,
                                        batch=5_000))
    assert base == other


@pytest.mark.parametrize("workers", [2, 4, 8])
def test_partition_invariance_asep(workers):
    c = config(k=2, n=1, alpha=2.0, mu=2.0, snr=10.0)
    base = simulate_asep(c, McConfig(trials=24_000, seed=11, workers=1,
                                     batch=5_000))
    other = simulate_asep(c, McConfig(trials=24_000, seed=11, workers=workers,
                                      batch=5_000))
    assert base.value == other.value
    assert base.std_error == other.std_error


def test_block_layout_fixed_by_trials_and_batch():
    m = McConfig(trials=10_500, seed=1, batch=4_000)
    assert mcsim._blocks(m) == [(0, 4000), (1, 4000), (2, 2500)]


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
    # the sampler inverts the CDF, on an array and one value at a time
    p = AlphaMuParams(1.68, 1.85, 10.0)
    us = np.linspace(1e-6, 1.0 - 1e-6, 500)
    bulk = mcsim._alpha_mu_bulk(p, us)
    assert alpha_mu_snr_cdf(p, bulk) == pytest.approx(us, rel=1e-10)
    for u, g in zip(us, bulk):
        assert g == pytest.approx(mcsim._alpha_mu_bulk(p, float(u)), rel=1e-12)


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

    g_sr = mcsim._alpha_mu_bulk(c.sr_model, u_sr)
    pit = np.sort([alpha_mu_snr_cdf(c.sr_model, float(g)) for g in g_sr[:50_000]])
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


def test_indicator_fast_path_equals_snr_path():
    # the threshold-comparison fast path and the explicit SNR construction
    # must flag exactly the same trials, block by block
    c = config(k=4, n=2, alpha=1.68, mu=1.85, snr=8.0, gamma_th=2.0)
    m = McConfig(trials=30_000, seed=21, batch=10_000)
    fast = simulate_outage(c, m)
    hits = 0
    for sid, size in mcsim._blocks(m):
        g = mcsim._end_to_end_snr(c, rng_stream(m.seed, sid), size)
        hits += int(np.count_nonzero(g <= c.gamma_th))
    assert fast.value == hits / m.trials


def _end_to_end_snr_full(c, rng, size):
    # oracle: log1p on all K uplink columns, a full sort, and the inverse
    # transform of both alpha-mu hops on every trial
    sched = c.scheduling
    u_up, u_sr, u_dn, u_rs = mcsim._draw_uniforms(c, rng, size)
    g_up_all = -sched.uplink_mean_snr * np.log1p(-u_up)
    g_up = np.sort(g_up_all, axis=1)[:, sched.k_total - sched.n_order]
    g_sr = mcsim._alpha_mu_bulk(c.sr_model, u_sr)
    g_dn = -sched.downlink_mean_snr * np.log1p(-u_dn)
    g_rs = mcsim._alpha_mu_bulk(c.rs_model, u_rs)
    return np.minimum(np.minimum(g_up, g_sr), np.minimum(g_dn, g_rs))


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
    m = McConfig(trials=40_000, seed=31, batch=25_000)  # two blocks
    assert len(mcsim._blocks(m)) == 2
    for sid, size in mcsim._blocks(m):
        fast = mcsim._end_to_end_snr(c, rng_stream(m.seed, sid), size)
        full = _end_to_end_snr_full(c, rng_stream(m.seed, sid), size)
        assert np.array_equal(fast, full)


@pytest.mark.parametrize("sr_scale,rs_scale", [(1e-6, 1e6), (1e6, 1e-6)])
def test_end_to_end_snr_equals_full_construction_at_table_ends(sr_scale, rs_scale):
    # hop means 1e-6x and 1e6x the Rayleigh means: every m the large-mean
    # hop meets lies below the first point of its gate table, and nearly
    # every m the small-mean hop meets lies above the last point of its own
    snr = 10.0
    c = SystemConfig(scheduling=SchedulingSpec(4, 2, snr, 0.5 * snr),
                     sr_model=AlphaMuParams(*VERY_WEAK, sr_scale * snr),
                     rs_model=AlphaMuParams(*VERY_WEAK, rs_scale * snr), gamma_th=1.0)
    small, large = sorted((c.sr_model, c.rs_model), key=lambda p: p.mean_snr)
    # the largest Rayleigh SNR a uniform below 1 gives is 36.7 means
    assert mcsim._gate_bounds(large, np.array([37.0 * snr]))[0][0] == -1.0
    assert mcsim._gate_bounds(small, np.array([1e-3 * snr]))[1][0] == 2.0
    m = McConfig(trials=40_000, seed=31, batch=25_000)
    for sid, size in mcsim._blocks(m):
        fast = mcsim._end_to_end_snr(c, rng_stream(m.seed, sid), size)
        full = _end_to_end_snr_full(c, rng_stream(m.seed, sid), size)
        assert np.array_equal(fast, full)


# 30 (alpha, mu) pairs for the alpha-mu gate tests
GATE_PAIRS = [(alpha, mu)
              for alpha in (0.3, SEVERE_B[0], VERY_WEAK[0], 1.0, 2.0, 8.0)
              for mu in (0.3, 1.0, SEVERE_B[1], VERY_WEAK[1], 60.0)]


def test_alpha_mu_gate_never_skips_a_lower_hop():
    # random draws almost never land next to F(m), so probe the boundary:
    # the smallest draw the gate skips (Generator.random() returns multiples
    # of 2**-53) must invert to a hop SNR of at least m
    ulp = 2.0 ** -53
    m = np.geomspace(1e-12, 1e9, 4001)
    for alpha, mu in GATE_PAIRS:
        p = AlphaMuParams(alpha, mu, 3.7)
        f_m = gammainc(mu, mu * (m / p.mean_snr) ** (alpha / 2.0))
        u = (np.floor(f_m * (1.0 + mcsim._GATE_MARGIN) / ulp) + 1.0) * ulp
        inside = u < 1.0
        assert np.all(mcsim._alpha_mu_bulk(p, u[inside]) >= m[inside])


@pytest.mark.parametrize("alpha,mu", GATE_PAIRS)
def test_hop_gate_bracket_equals_exact_gate(alpha, mu):
    # the table bounds must bracket the exact gate wherever rounding could
    # tip it: m at the grid points and 1 ulp either side, at cell midpoints,
    # at 0 and beyond both ends; u at the gate and at both bounds, 1 ulp
    # either side
    p = AlphaMuParams(alpha, mu, 3.7)
    lo, h, lower_tab, _ = mcsim._gate_table(p)
    j = np.arange(lower_tab.size - 1)
    grid = np.exp(lo + h * j)
    m = np.concatenate([grid, np.nextafter(grid, 0.0), np.nextafter(grid, np.inf),
                        np.exp(lo + h * (j[:-1] + 0.5)),
                        [0.0, 5e-324, 0.5 * grid[0], 2.0 * grid[-1], 1e300]])
    gate = alpha_mu_snr_cdf(p, m) * (1.0 + mcsim._GATE_MARGIN)
    lower, upper = mcsim._gate_bounds(p, m)
    assert np.all(lower <= gate) and np.all(gate <= upper)
    assert np.any(lower == -1.0) and np.any(upper == 2.0)
    for v in (gate, lower, upper):
        for u in (np.nextafter(v, -1.0), v, np.nextafter(v, 2.0)):
            u = np.clip(u, 0.0, 1.0 - 2.0 ** -53)  # the range of Generator.random
            assert np.array_equal(mcsim._hop_gate(p, u, m), u <= gate)


def test_asep_matches_quadrature():
    from relaylink.analysis import asep
    c = config(k=2, n=1, alpha=2.0, mu=2.0, snr=10.0)
    est = simulate_asep(c, McConfig(trials=500_000, seed=9, workers=2))
    assert abs(est.value - asep(c).value) < 4.0 * est.std_error


# ----------------------------------------------------------- validation

def test_mc_config_validation():
    with pytest.raises(ValueError):
        McConfig(trials=999)
    with pytest.raises(ValueError):
        McConfig(trials=1000, workers=0)
    with pytest.raises(ValueError):
        McConfig(trials=1000, batch=0)


def test_estimate_metadata():
    c = config()
    est = simulate_outage(c, McConfig(trials=10_000, seed=1))
    assert est.method == "monte_carlo"
    assert est.trials == 10_000
    assert est.std_error == pytest.approx(
        math.sqrt(est.value * (1.0 - est.value) / 10_000))
