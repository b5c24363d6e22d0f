"""Pin the benchmark's reference (reference.py) to mpmath at 30 digits.

    python3 -m pytest -q bench/test_reference.py     (from the repository root)

mpmath integrates in the other variable (g, with tanh-sinh quadrature) and
builds F_tot as 1 - prod(1 - F_i) directly, so it shares neither algorithm
nor floating-point route with the reference. The points include those where
relaylink's ``asep`` is off today: severe (b) at 36 dB and severe (a) at 0 and
20 dB, with the hops set to the moment-system roots of acceptance criterion 1.
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import mpmath
import pytest

import reference

# (alpha, mu) moment-system roots, 25 digits, from tests/test_acceptance.py
SEVERE_A = (0.537320182851718375543036, 4.003431872182798025004434)
SEVERE_B = (0.5802679291325512850842319, 2.702867182673746372214504)
VERY_WEAK = (0.5007048876785631483890075, 40.62157174430664042011491)


def config(db, hops=(2.0, 2.0), k=3, n=1, gamma_th=1.0, a=1.0, b=1.0):
    snr = 10.0 ** (db / 10.0)
    hop = SimpleNamespace(alpha=hops[0], mu=hops[1], mean_snr=snr)
    sched = SimpleNamespace(k_total=k, n_order=n, uplink_mean_snr=snr,
                            downlink_mean_snr=snr)
    return SimpleNamespace(scheduling=sched, sr_model=hop, rs_model=hop,
                           gamma_th=gamma_th, mod_a=a, mod_b=b)


def mp_outage_at(cfg, g):
    s = cfg.scheduling
    g = mpmath.mpf(g)
    below = 1 - mpmath.exp(-g / s.uplink_mean_snr)
    f_up = mpmath.betainc(s.k_total - s.n_order + 1, s.n_order, 0, below,
                          regularized=True)
    f_dn = 1 - mpmath.exp(-g / s.downlink_mean_snr)
    survive = (1 - f_up) * (1 - f_dn)
    for hop in (cfg.sr_model, cfg.rs_model):
        z = hop.mu * (g / hop.mean_snr) ** (mpmath.mpf(hop.alpha) / 2)
        survive *= 1 - mpmath.gammainc(hop.mu, 0, z, regularized=True)
    return 1 - survive


def mp_asep(cfg):
    a, b = mpmath.mpf(cfg.mod_a), mpmath.mpf(cfg.mod_b)

    def f(g):
        return mpmath.exp(-b * g) * mp_outage_at(cfg, g) / mpmath.sqrt(g)

    integral = mpmath.quad(f, [0, 1 / b, 10 / b, 40 / b, mpmath.inf])
    return a * mpmath.sqrt(b) / (2 * mpmath.sqrt(mpmath.pi)) * integral


ASEP_POINTS = {
    "severe_b@36dB": config(36, SEVERE_B),
    "severe_a@0dB": config(0, SEVERE_A),
    "severe_a@20dB": config(20, SEVERE_A),
    "very_weak@0dB": config(0, VERY_WEAK),
    "nakagami@10dB": config(10),
    "exponential_hops@40dB": config(40, (1.0, 1.0)),
    "optical_severe_ini@0dB": config(0, (0.579, 2.022), k=3, n=3),
    "K=16,N=1@10dB": config(10, k=16, n=1),
    "K=13,N=13@10dB": config(10, k=13, n=13),
}


@pytest.mark.parametrize("name", sorted(ASEP_POINTS))
def test_asep_matches_mpmath(name):
    cfg = ASEP_POINTS[name]
    with mpmath.workdps(30):
        expected = float(mp_asep(cfg))
    got = reference.asep(cfg)
    assert abs(got / expected - 1.0) < 1e-12, (got, expected)


def test_severe_b_36db_pins_the_known_value():
    # relaylink's asep returns 2.30944e-3 here; the true value is 2.30893e-3
    with mpmath.workdps(30):
        expected = float(mp_asep(ASEP_POINTS["severe_b@36dB"]))
    assert abs(expected - 2.30893e-3) < 5e-9


@pytest.mark.parametrize("db,k,n,hops", [
    (0, 3, 1, (2.0, 2.0)), (40, 3, 1, (2.0, 2.0)), (40, 16, 1, (2.0, 2.0)),
    (10, 16, 16, (2.0, 2.0)), (10, 12, 1, SEVERE_A), (40, 3, 3, VERY_WEAK),
    (-20, 3, 1, (0.579, 2.022)),
])
def test_outage_matches_mpmath(db, k, n, hops):
    cfg = config(db, hops, k=k, n=n)
    with mpmath.workdps(30):
        expected = float(mp_outage_at(cfg, cfg.gamma_th))
    assert abs(reference.outage(cfg) / expected - 1.0) < 1e-13


def test_moment_ratio_residual_accepts_roots_and_rejects_others():
    for (alpha, mu), (eta, beta) in ((SEVERE_A, (4.0, 1.84)), (SEVERE_B, (4.34, 1.30)),
                                     (VERY_WEAK, (21.5, 19.8))):
        assert reference.moment_ratio_residual(eta, beta, alpha, mu) < 1e-11
        assert reference.moment_ratio_residual(eta, beta, alpha * (1 + 1e-6), mu) > 1e-8
    # the published severe (a) pair is not a moment fit
    assert reference.moment_ratio_residual(4.0, 1.84, 0.537, 2.022) > 0.1


def test_outage_at_zero_and_saturation():
    cfg = config(10)
    assert reference.outage_at(cfg, 0.0) == 0.0
    assert reference.outage_at(cfg, 1e6) == 1.0
    assert math.isclose(reference.outage_at(cfg, 1e-30), 0.0, abs_tol=1e-30)
