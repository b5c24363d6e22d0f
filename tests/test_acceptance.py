"""Acceptance suite: eight end-to-end criteria, each emitting one PASS/FAIL
line on stderr. Tolerances are stated inline; every expected value comes from
an independent oracle (closed forms, contour integration, Monte Carlo, an
mpmath root of the moment system) or the published parameter tables."""

import dataclasses
import math
import sys
import time

import conftest
import mpmath
import numpy as np
import pytest
from oracles import (best_select_cdf, best_select_cdf_binomial, lower_gamma,
                     mellin_barnes_lower_gamma)

from relaylink import analysis, cli
from relaylink.analysis import (
    SystemConfig,
    asep,
    classify_asymptotics,
    total_outage,
)
from relaylink.channels import AlphaMuParams, GammaGammaParams
from relaylink.ggfit import fit_alpha_mu
from relaylink.mcsim import McConfig, simulate_asep
from relaylink.selection import SchedulingSpec, nth_best_cdf


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" - {detail}" if detail else ""
    line = f"ACCEPTANCE CRITERION {num}: {status}{tail}"
    print(line, file=sys.__stderr__)
    conftest.ACCEPTANCE_LINES.append(line)


def config(k, n, alpha, mu, snr=1.0, gamma_th=1.0):
    return SystemConfig(scheduling=SchedulingSpec(k, n, snr, snr),
                        sr_model=AlphaMuParams(alpha, mu, snr),
                        rs_model=AlphaMuParams(alpha, mu, snr),
                        gamma_th=gamma_th)


# The six outage configs used by criteria 2 and 5: the three backup-RF fading
# laws at K=3 with best and worst selection, and two optical-hop alpha-mu
# points, one with alpha*mu/2 > 1 and one below. Neither is a moment fit of
# its turbulence pair (criterion 1 holds the fits): (2.7312, 2.21) carries the
# very-weak row's published mu with an alpha of unrecorded origin, and
# (0.579, 2.022) pairs severe (b)'s published alpha with severe (a)'s mu.
OUTAGE_CONFIGS = [
    ("nakagami K3 N1", config(3, 1, 2.0, 2.0)),
    ("nakagami K3 N3", config(3, 3, 2.0, 2.0)),
    ("exponential K3 N1", config(3, 1, 1.0, 1.0)),
    ("rayleigh K3 N1", config(3, 1, 2.0, 1.0)),
    ("alpha-mu (2.7312, 2.21) K3 N1", config(3, 1, 2.7312, 2.21)),
    ("alpha-mu (0.579, 2.022) K3 N3", config(3, 3, 0.579, 2.022)),
]


# ------------------------------------------------------------ criterion 1

# Oracle for criterion 1: (alpha, mu) is the root of the two moment-ratio
# equations
#     Gamma(mu + n/alpha) Gamma(mu)^(n-1) / Gamma(mu + 1/alpha)^n
#         = (eta)_n (beta)_n / (eta beta)^n,        n = 2, 3,
# i.e. E[X^n]/E[X]^n of the alpha-mu envelope equals E[I^n]/E[I]^n of the
# Gamma-Gamma irradiance ((x)_n is the rising factorial). With the scale fixed
# by the first moment, this is the three-moment system fit_alpha_mu solves.
# Each root was found by mpmath.findroot in (log alpha, log mu) at 30 digits,
# with eta and beta taken as the exact decimals in the table, and printed to
# 25 digits. A 400-start scipy.optimize.fsolve multistart over alpha in
# [0.1, 10], mu in [0.1, 300] finds no other root for any row. The test checks
# the constants against the equations itself, with mpmath only.
#
# The published (alpha, mu) are kept for reference. Only severe (b) is a
# moment fit of its row. The others miss E[I^2]/E[I]^2 and E[I^3]/E[I]^3 by:
#   very weak  -1.0% / -3.9%     weak (a)  -3.2% / -11%
#   weak (b)   -6.0% / -19%      severe (a) +52% / +178%
# and their KS distance to 4e5 Gamma-Gamma draws is 0.038 / 0.039 / 0.057 /
# 0.150, against <= 0.0022 for the fits. Severe (a)'s published alpha equals
# the fit to three digits while its mu is about half the fitted value.
FIT_TABLE = [
    # name, eta, beta, oracle (alpha, mu), published (alpha, mu), published
    # pair is a moment fit
    ("very weak", 21.5, 19.8, "0.5007048876785631483890075",
     "40.62157174430664042011491", 2.34, 2.21, False),
    ("weak (a)", 9.70, 8.2, "0.5025396494777900060030494",
     "17.1148561586329330586863", 1.68, 1.85, False),
    ("weak (b)", 8.65, 7.14, "0.503230298422269968596877",
     "14.9686752369412294478266", 2.0, 1.3695, False),
    ("severe (a)", 4.0, 1.84, "0.537320182851718375543036",
     "4.003431872182798025004434", 0.537, 2.022, False),
    ("severe (b)", 4.34, 1.30, "0.5802679291325512850842319",
     "2.702867182673746372214504", 0.579, 2.723, True),
]


def _moment_ratio_residual(eta, beta, alpha, mu):
    """Largest relative residual of the n = 2, 3 moment-ratio equations, in
    30-digit mpmath arithmetic; eta and beta are read as exact decimals."""
    with mpmath.workdps(30):
        e, b = mpmath.mpf(repr(eta)), mpmath.mpf(repr(beta))
        a, m = mpmath.mpf(alpha), mpmath.mpf(mu)
        lg_m, lg_1 = mpmath.loggamma(m), mpmath.loggamma(m + 1 / a)
        worst = mpmath.mpf(0)
        for n in (2, 3):
            am = mpmath.exp(mpmath.loggamma(m + n / a) + (n - 1) * lg_m - n * lg_1)
            gg = mpmath.rf(e, n) * mpmath.rf(b, n) / (e * b) ** n
            worst = max(worst, abs(am / gg - 1))
        return float(worst)


def test_criterion_1_published_fit_table():
    """Fitted (alpha, mu) within 1e-9 relative of the mpmath root of the
    moment system for all five turbulence rows (the test first checks each
    root to <= 1e-20), within +/-0.05 of the published pair where that pair
    is a moment fit, residuals <= 1e-8, under 1 second total."""
    start = time.perf_counter()
    fits = [fit_alpha_mu(GammaGammaParams(eta, beta))
            for _, eta, beta, *_ in FIT_TABLE]
    elapsed = time.perf_counter() - start
    failures = []
    for fit, row in zip(fits, FIT_TABLE):
        name, eta, beta, alpha_ref, mu_ref, alpha_pub, mu_pub, pub_is_fit = row
        oracle_resid = _moment_ratio_residual(eta, beta, alpha_ref, mu_ref)
        if oracle_resid > 1e-20:
            failures.append(f"{name}: oracle residual {oracle_resid:.2e} > 1e-20")
        if fit.residual_norm > 1e-8:
            failures.append(f"{name}: residual {fit.residual_norm:.2e} > 1e-8")
        alpha_ref, mu_ref = float(alpha_ref), float(mu_ref)
        if (abs(fit.alpha / alpha_ref - 1.0) > 1e-9
                or abs(fit.mu / mu_ref - 1.0) > 1e-9):
            failures.append(
                f"{name}: fitted (alpha={fit.alpha:.12g}, mu={fit.mu:.12g}) vs "
                f"oracle ({alpha_ref:.12g}, {mu_ref:.12g}) beyond 1e-9 relative")
        if pub_is_fit and (abs(fit.alpha - alpha_pub) > 0.05
                           or abs(fit.mu - mu_pub) > 0.05):
            failures.append(
                f"{name}: fitted (alpha={fit.alpha:.4f}, mu={fit.mu:.4f}) vs "
                f"published ({alpha_pub}, {mu_pub}) beyond +/-0.05")
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(1, not failures,
            failures[0] + f" (+{len(failures) - 1} more)" if failures
            else "all five rows within 1e-9 of the moment-system oracle, "
                 "severe (b) within +/-0.05 of its published pair, "
                 "residuals <= 1e-8")
    assert not failures, "\n".join(failures)


# ------------------------------------------------------------ criterion 2

# The MC outage hits of criterion 2's points, at 5, 10, ..., 40 dB, as one
# simulate_outage run per point gave them (1e7 trials in 153 blocks, seed 101).
# Each config's points share one pass of the sweep engine, which must give
# every point the estimate of its own run.
CRITERION_2_HITS = {
    "nakagami K3 N1": [4627667, 1273370, 348473, 103373, 31740, 10022, 3187, 1063],
    "nakagami K3 N3": [7878322, 3530794, 1222578, 396534, 126303, 40171, 12787, 4010],
    "exponential K3 N1": [7679897, 5197847, 3212753, 1895922, 1092714, 623169, 352988,
                          199848],
    "rayleigh K3 N1": [6205302, 2599389, 905932, 296355, 94642, 29941, 9486, 3049],
    "alpha-mu (2.7312, 2.21) K3 N1": [3601340, 997082, 312402, 99502, 31392, 9987, 3180,
                                      1063],
    "alpha-mu (0.579, 2.022) K3 N3": [9044152, 6450033, 3877959, 2166277, 1172318, 625169,
                                      329766, 172655],
}


def test_criterion_2_outage_vs_monte_carlo():
    """|exact - MC| <= 3 sigma at 1e7 trials for every swept SNR point with
    outage >= 1e-5, on the six representative configs; each config's MC
    column comes from one sweep."""
    mc = McConfig(trials=10_000_000, seed=101, workers=4)
    failures = []
    checked = 0
    for name, base in OUTAGE_CONFIGS:
        points = [(db, c) for db in np.arange(5.0, 41.0, 5.0)
                  if total_outage(c := analysis.at_snr_db(base, db)).value >= 1e-5]
        rows = list(analysis.sweep(points, "outage", mc))
        if [row.mc.value for row in rows] != [h / mc.trials for h in CRITERION_2_HITS[name]]:
            failures.append(f"{name}: the sweep's MC column differs from the recorded hits")
        for (db, _), row in zip(points, rows):
            exact, est = row.exact.value, row.mc
            checked += 1
            if abs(est.value - exact) > 3.0 * est.std_error:
                failures.append(
                    f"{name} @ {db:g} dB: exact {exact:.3e} vs MC {est.value:.3e} "
                    f"(3 sigma = {3 * est.std_error:.2e})")
    _report(2, not failures,
            failures[0] if failures else
            f"{checked} swept points within 3 sigma at 1e7 trials")
    assert not failures, "\n".join(failures)


# ------------------------------------------------------------ criterion 3

def test_criterion_3_degenerate_closed_form():
    """All-exponential K=N=1: total outage equals 1 - exp(-4*gamma_th/gbar)
    to machine precision across a 60 dB sweep."""
    base = config(1, 1, 2.0, 1.0)
    worst = 0.0
    for db in np.arange(0.0, 60.1, 2.0):
        c = analysis.at_snr_db(base, db)
        gbar = 10.0 ** (db / 10.0)
        expect = -math.expm1(-4.0 * c.gamma_th / gbar)
        worst = max(worst, abs(total_outage(c).value - expect))
    ok = worst < 1e-14
    _report(3, ok, f"max abs deviation {worst:.2e} over 0-60 dB")
    assert ok


# ------------------------------------------------------------ criterion 4

def test_criterion_4_asep_cross_validation():
    """Quadrature vs MC ASEP within 2% relative (ASEP >= 1e-5) for the
    RF-fading K in {1,10} and turbulence K in {1,5} configs; the
    all-exponential mean-40 config hits the closed-form oracle within
    3 sigma."""
    cases = (
        # backup-RF fading laws, best selection, K from 1 to 10
        [(f"{nm} K{k}", config(k, 1, al, mu)) for nm, al, mu in
         [("nakagami", 2.0, 2.0), ("rayleigh", 2.0, 1.0),
          ("one-sided gaussian", 2.0, 0.5)] for k in (1, 10)]
        # alpha-mu points near the published very-weak and weak (b) rows
        # (not moment fits, see criterion 1), K from 1 to 5
        + [(f"{nm} K{k}", config(k, 1, al, mu)) for nm, al, mu in
           [("alpha-mu (2.73, 2.21)", 2.73, 2.21), ("alpha-mu (2.00, 1.37)", 2.00, 1.37)]
           for k in (1, 5)]
    )
    failures = []
    for name, base in cases:
        c = analysis.at_snr_db(base, 10.0)
        quad = asep(c).value
        if quad < 1e-5:
            continue
        est = simulate_asep(c, McConfig(trials=10_000_000, seed=202, workers=4))
        rel = abs(est.value - quad) / quad
        if rel > 0.02:
            failures.append(f"{name}: quadrature {quad:.4e} vs MC {est.value:.4e} "
                            f"({100 * rel:.2f}% > 2%)")

    # exact oracle: four i.i.d. exponential-SNR links at mean 40 make the
    # end-to-end SNR exponential with mean 10, giving the closed form
    # 0.5 * (1 - sqrt(10/11)) ~= 0.023277
    c = config(1, 1, 2.0, 1.0, snr=40.0)
    oracle = 0.5 * (1.0 - math.sqrt(10.0 / 11.0))
    est = simulate_asep(c, McConfig(trials=10_000_000, seed=203, workers=4))
    if abs(est.value - oracle) > 3.0 * est.std_error:
        failures.append(f"exponential mean-40 oracle: MC {est.value:.6f} vs "
                        f"{oracle:.6f} beyond 3 sigma")
    quad = asep(c).value
    if abs(quad - oracle) > 1e-6:
        failures.append(f"exponential mean-40 oracle: quadrature {quad:.8f} vs "
                        f"closed form {oracle:.8f}")
    _report(4, not failures,
            failures[0] if failures else
            "quadrature within 2% of MC on all configs; closed-form oracle hit")
    assert not failures, "\n".join(failures)


# ------------------------------------------------------------ criterion 5

def test_criterion_5_diversity_order_slopes():
    """Fitted log-log slope over the top decade of a 60 dB sweep equals
    min(K-N+1, alpha*mu/2, 1) within 5% for the six configs."""
    failures = []
    details = []
    for name, base in OUTAGE_CONFIGS:
        rep = classify_asymptotics(analysis.at_snr_db(base, 0.0))
        dbs = np.arange(50.0, 60.1, 1.0)  # top decade
        logs = np.log10([total_outage(analysis.at_snr_db(base, db)).value for db in dbs])
        slope = -np.polyfit(dbs / 10.0, logs, 1)[0]
        rel = abs(slope - rep.diversity_order) / rep.diversity_order
        details.append(f"{name}: {slope:.4f} vs {rep.diversity_order:.4f}")
        if rel > 0.05:
            failures.append(f"{name}: slope {slope:.4f} vs diversity "
                            f"{rep.diversity_order:.4f} ({100 * rel:.1f}% > 5%)")
    _report(5, not failures,
            failures[0] if failures else "; ".join(details))
    assert not failures, "\n".join(failures)


# ------------------------------------------------------------ criterion 6

def _snr_db_at_outage(base, target, lo=0.0, hi=90.0):
    f = lambda db: total_outage(analysis.at_snr_db(base, db)).value - target
    assert f(lo) > 0 > f(hi)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_6_figure_level_checks():
    """N-sweep coding loss at outage 1e-3: 5 +/- 1.5 dB for the Nakagami
    config and 2 +/- 1 dB for the severe-turbulence config (with the severe
    parameters refit from its turbulence pair); K-sweep gain beyond K=5
    below 0.2 dB."""
    failures = []
    # Nakagami backup RF, K=3: loss from best (N=1) to worst (N=3) selection
    nak_loss = (_snr_db_at_outage(config(3, 3, 2.0, 2.0), 1e-3)
                - _snr_db_at_outage(config(3, 1, 2.0, 2.0), 1e-3))
    if not 3.5 <= nak_loss <= 6.5:
        failures.append(f"nakagami N-sweep loss {nak_loss:.2f} dB not in 5 +/- 1.5")

    # severe turbulence, K=3: the optical hop dominates, so the loss shrinks
    sev_fit = fit_alpha_mu(GammaGammaParams(4.0, 1.84))
    sev_loss = (_snr_db_at_outage(config(3, 3, sev_fit.alpha, sev_fit.mu), 1e-3)
                - _snr_db_at_outage(config(3, 1, sev_fit.alpha, sev_fit.mu), 1e-3))
    if not 1.0 <= sev_loss <= 3.0:
        failures.append(f"severe N-sweep loss {sev_loss:.2f} dB not in 2 +/- 1")

    # K-sweep saturation: extra nodes beyond K=5 buy < 0.2 dB
    for name, al, mu in [("alpha-mu (2.73, 2.21)", 2.73, 2.21), ("nakagami", 2.0, 2.0)]:
        gain = (_snr_db_at_outage(config(5, 1, al, mu), 1e-3)
                - _snr_db_at_outage(config(10, 1, al, mu), 1e-3))
        if not -0.01 <= gain < 0.2:
            failures.append(f"{name} K-sweep gain beyond K=5 is {gain:.3f} dB")

    _report(6, not failures,
            failures[0] if failures else
            f"nakagami loss {nak_loss:.2f} dB, severe loss {sev_loss:.2f} dB, "
            f"K>5 gain < 0.2 dB")
    assert not failures, "\n".join(failures)


# ------------------------------------------------------------ criterion 7

def test_criterion_7_identity_suite():
    """Meijer-G kernel Gamma(mu) P(mu, z), with P from the library's CDF, vs
    Mellin-Barnes contour at 20 points (1e-6); order-N CDF at N=1 vs the
    binomial expansion of the best-selection CDF (1e-12) and vs its product
    form (1e-12)."""
    failures = []
    rng = np.random.default_rng(77)
    for _ in range(20):
        z = float(rng.uniform(0.1, 5.0))
        mu = float(rng.uniform(0.3, 4.0))
        got = lower_gamma(z, mu)
        oracle = mellin_barnes_lower_gamma(mu, z)
        if abs(got - oracle) > 1e-6:
            failures.append(f"Meijer-G kernel ({z:.3f}, {mu:.3f}): "
                            f"{got:.9f} vs contour {oracle:.9f}")

    for k in (1, 2, 5, 8, 12):
        s = SchedulingSpec(k, 1, 1.7, 1.7)
        for g in np.linspace(0.0, 10.0, 50):
            if abs(best_select_cdf_binomial(s, g) - nth_best_cdf(s, g)) > 1e-12:
                failures.append(f"N=1 vs binomial mismatch at K={k}, g={g:.2f}")
            if abs(nth_best_cdf(s, g) - best_select_cdf(s, g)) > 1e-12:
                failures.append(f"N=1 reduction mismatch at K={k}, g={g:.2f}")
    _report(7, not failures,
            failures[0] if failures else
            "contour, binomial and order-statistics identities all hold")
    assert not failures, "\n".join(failures)


# ------------------------------------------------------------ criterion 8

# 500,000 trials: 7 blocks of 65,536 and a partial eighth of 41,248
SCENARIO_TEXT = """\
[scheduling]
k_total = 3
n_order = 2
gamma_th = 1.0

[uplink]
mean_snr_db = 10

[downlink]
mean_snr_db = 10

[sr_link]
alpha = 2
mu = 2
mean_snr_db = 10

[rs_link]
alpha = 2
mu = 2
mean_snr_db = 10

[mc]
trials = 500000
"""


def test_criterion_8_determinism(tmp_path):
    """Identical CSV bytes for repeated runs with the same seed and worker
    count; identical bytes across workers in {1, 2, 4, 8}."""
    scn = tmp_path / "scn.ini"
    scn.write_text(SCENARIO_TEXT, encoding="utf-8")
    failures = []

    def run(path, workers):
        code = cli.main(["outage", str(scn), "--sweep-snr", "0:20:5",
                         "--seed", "4242", "--workers", str(workers),
                         "--out", str(path)])
        if code != 0:
            failures.append(f"exit code {code} for workers={workers}")
        return path.read_bytes()

    first = run(tmp_path / "w1a.csv", 1)
    if first != run(tmp_path / "w1b.csv", 1):
        failures.append("repeated identical runs produced different bytes")
    for w in (2, 4, 8):
        if run(tmp_path / f"w{w}.csv", w) != first:
            failures.append(f"workers={w} changed the CSV bytes")
    _report(8, not failures,
            failures[0] if failures else
            "byte-identical CSVs across repeats and workers 1/2/4/8")
    assert not failures, "\n".join(failures)
