import dataclasses
import functools
import inspect
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import asep_quad, simpson_recursive, total_outage_expanded

from relaylink import analysis
from relaylink.analysis import (
    PerfEstimate,
    SystemConfig,
    asep,
    asymptotic_outage,
    classify_asymptotics,
    phase1_outage,
    phase2_outage,
    sweep,
    total_outage,
)
from relaylink.channels import AlphaMuParams, GammaGammaParams, alpha_mu_snr_cdf
from relaylink.ggfit import fit_alpha_mu
from relaylink.scenario import load_scenario
from relaylink.selection import SchedulingSpec, downlink_cdf, nth_best_cdf

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the Gamma-Gamma (eta, beta) rows of acceptance criterion 1
GG_ROWS = {"very weak": (21.5, 19.8), "weak (a)": (9.70, 8.2), "weak (b)": (8.65, 7.14),
           "severe (a)": (4.0, 1.84), "severe (b)": (4.34, 1.30)}


def config(k=1, n=1, alpha=2.0, mu=1.0, snr=1.0, gamma_th=1.0, a=1.0, b=1.0,
           alpha2=None, mu2=None):
    return SystemConfig(
        scheduling=SchedulingSpec(k, n, snr, snr),
        sr_model=AlphaMuParams(alpha, mu, snr),
        rs_model=AlphaMuParams(alpha2 or alpha, mu2 or mu, snr),
        gamma_th=gamma_th, mod_a=a, mod_b=b)


ALL_EXP = dict(alpha=2.0, mu=1.0)  # every link an exponential SNR


# -------------------------------------------------------------- outage

def test_phase1_min_of_two_exponentials():
    c = config(**ALL_EXP)
    assert phase1_outage(c) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-14)


def test_phase1_vanishing_threshold():
    c = config(**ALL_EXP, gamma_th=1e-14)
    assert phase1_outage(c) == pytest.approx(0.0, abs=1e-12)


def test_phase1_compositional():
    c = config(k=3, n=2, alpha=1.68, mu=1.85, snr=10.0)
    f1 = nth_best_cdf(c.scheduling, 1.0)
    f2 = alpha_mu_snr_cdf(c.sr_model, 1.0)
    assert phase1_outage(c) == pytest.approx(1.0 - (1.0 - f1) * (1.0 - f2),
                                             abs=1e-12)


def test_phase2_min_of_two_exponentials():
    c = config(**ALL_EXP)
    assert phase2_outage(c) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-14)


def test_phase2_vanishing_threshold():
    c = config(**ALL_EXP, gamma_th=1e-14)
    assert phase2_outage(c) == pytest.approx(0.0, abs=1e-12)


def test_phase2_compositional():
    c = config(alpha=0.579, mu=2.723, snr=10.0)
    f_dn = downlink_cdf(c.scheduling, 1.0)
    f_rs = alpha_mu_snr_cdf(c.rs_model, 1.0)
    assert phase2_outage(c) == pytest.approx(
        1.0 - (1.0 - f_dn) * (1.0 - f_rs), abs=1e-14)


def test_total_outage_min_of_four_exponentials():
    c = config(**ALL_EXP)
    assert total_outage(c).value == pytest.approx(1.0 - math.exp(-4.0), abs=1e-14)
    c2 = config(**ALL_EXP, gamma_th=0.01)
    assert total_outage(c2).value == pytest.approx(1.0 - math.exp(-0.04), abs=1e-14)


def test_total_outage_two_assembly_paths_agree():
    cases = [
        config(**ALL_EXP),
        config(k=3, n=1, alpha=2.0, mu=2.0, snr=10.0),
        config(k=5, n=3, alpha=1.68, mu=1.85, snr=31.6, gamma_th=2.0),
        config(k=4, n=2, alpha=0.537, mu=2.022, snr=100.0, gamma_th=0.5),
    ]
    for c in cases:
        st1, st2 = phase1_outage(c), phase2_outage(c)
        v = total_outage(c).value
        assert v == pytest.approx(st1 + st2 - st1 * st2, abs=1e-15)
        assert v == pytest.approx(total_outage_expanded(c), abs=1e-12)
        assert v == pytest.approx(1.0 - (1.0 - st1) * (1.0 - st2), abs=1e-12)


def test_total_outage_monotone_in_snr_and_threshold():
    base = config(k=3, n=2, alpha=2.0, mu=2.0, snr=1.0)
    vals = [total_outage(analysis.at_snr_db(base, db)).value
            for db in np.linspace(0.0, 40.0, 30)]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))
    vals_th = [total_outage(dataclasses.replace(base, gamma_th=g)).value
               for g in np.linspace(0.01, 10.0, 30)]
    assert all(b >= a - 1e-15 for a, b in zip(vals_th, vals_th[1:]))


# ---------------------------------------------------------------- ASEP

def test_asep_degenerate_always_outage_limit():
    # at a mean SNR of 1e-300 every link is in outage at all but a vanishing
    # range of SNRs, so F_tot is 1 and the error integral is the Gaussian
    # integral: the estimate is a/2 for any (a, b), to the relative
    # tolerance of the quadrature
    for a, b in ((1.0, 1.0), (2.0, 0.5), (1.7, 3.0)):
        c = config(**ALL_EXP, snr=1e-300, a=a, b=b)
        assert asep(c).value == pytest.approx(a / 2.0, rel=analysis.ASEP_RTOL)


def test_asep_exponential_closed_form_oracle():
    # four i.i.d. exponential links at mean s: the end-to-end SNR is
    # exponential with mean x = s/4, for which the BPSK average error is
    # 0.5 * (1 - sqrt(x / (1 + x))), taken in its cancellation-free form
    # (the textbook form is already 3.3e-5 off at x = 2.5e11). The range
    # spans means whose CDF varies far below and far above the scale of the
    # Gaussian factor
    for snr in np.geomspace(1e-9, 1e15, 49):
        x = snr / 4.0
        oracle = 0.5 / ((1.0 + x) * (1.0 + math.sqrt(x / (1.0 + x))))
        assert asep(config(**ALL_EXP, snr=snr)).value == pytest.approx(oracle, rel=1e-8)


def test_asep_resolves_a_cdf_far_below_the_coarsest_panel():
    # a mean SNR far below 1 puts the whole variation of F_tot on a scale
    # far below the coarsest Simpson panel; the relative stopping rule must
    # still refine down to it rather than return the a/2 plateau or a value
    # in between
    for snr in (1e-9, 1e-12, 1e-15):
        x = snr / 4.0
        oracle = 0.5 / ((1.0 + x) * (1.0 + math.sqrt(x / (1.0 + x))))
        val = asep(config(**ALL_EXP, snr=snr)).value
        assert val == pytest.approx(oracle, rel=1e-8)
        assert val < 0.5


def test_asep_range_and_monotone_in_snr():
    prev = 0.5
    for db in (0.0, 5.0, 10.0, 15.0, 20.0):
        c = config(k=2, n=1, alpha=2.0, mu=2.0, snr=10.0 ** (db / 10.0))
        val = asep(c).value
        assert 0.0 < val < 0.5
        assert val <= prev + 1e-12
        prev = val


def test_asep_scales_with_mod_a():
    c1 = config(k=2, n=1, alpha=2.0, mu=2.0, snr=10.0, a=1.0, b=1.0)
    c2 = dataclasses.replace(c1, mod_a=2.0)
    assert asep(c2).value == pytest.approx(2.0 * asep(c1).value, rel=1e-9)


@pytest.mark.parametrize("c", [
    config(k=3, n=1, alpha=2.0, mu=2.0, snr=10.0),   # smooth CDF (alpha*mu = 4)
    config(k=1, n=1, alpha=2.0, mu=1.0, snr=5.0),    # alpha*mu = 2 boundary
    config(k=2, n=2, alpha=2.0, mu=2.0, snr=31.6, b=2.0),
])
def test_asep_matches_quadpack_for_smooth_cdfs(c):
    assert asep(c).value == pytest.approx(asep_quad(c), rel=1e-8)


def test_asep_matches_quadpack_for_kinked_cdfs():
    # alpha*mu < 2 puts a fractional-power kink at gamma = 0, which the
    # adaptive rule resolves by refining towards it
    c = config(k=1, n=1, alpha=1.0, mu=1.0, snr=40.0)
    assert asep(c).value == pytest.approx(asep_quad(c), rel=1e-8)


@pytest.mark.parametrize("db", [50, 60, 70, 80])
def test_asep_high_snr_matches_quadpack(db):
    # the tolerance is relative to the integral, so it holds as the ASEP
    # falls towards 1e-9; an absolute one let 1.6e-3 relative through at
    # 60 dB on rf_backup_exponential
    configs = dict(_scenario_curves())
    configs["severe (b) QPSK"] = dataclasses.replace(configs["severe (b)"], mod_a=2.0,
                                                     mod_b=0.5)
    for name, system in configs.items():
        c = analysis.at_snr_db(system, db)
        assert asep(c).value == pytest.approx(asep_quad(c), rel=1e-8), name


def test_asep_matches_recursive_simpson():
    # the level-by-level rule takes the leaves and nodes of the recursive one,
    # so only the order of summation and np.exp for math.exp move bits
    tols = []
    real = analysis._adaptive_simpson

    def spy(f, a, b, tol):
        tols.append(tol)
        return real(f, a, b, tol)

    for name, system in _scenario_curves():
        for db in range(0, 41, 4):
            c = analysis.at_snr_db(system, db)
            a, b = c.mod_a, c.mod_b
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(analysis, "_adaptive_simpson", spy)
                value = asep(c).value
            expect = a * math.sqrt(b) / math.sqrt(math.pi) * simpson_recursive(
                lambda t: math.exp(-b * t * t) * analysis._total_outage_value(c, t * t),
                0.0, math.sqrt(40.0 / b), tols.pop())
            assert value == pytest.approx(expect, rel=1e-13, abs=0.0), (name, db)


def test_asep_calls_the_core_once_per_level(monkeypatch):
    # one array call for the scale grid, and one per Simpson level
    calls = []
    core = analysis._total_outage_value

    def counted(c, gamma):
        calls.append(type(gamma))
        return core(c, gamma)

    monkeypatch.setattr(analysis, "_total_outage_value", counted)
    max_depth = inspect.signature(analysis._adaptive_simpson).parameters["max_depth"].default
    for name, system in _scenario_curves():
        for db in (0, 20, 40):
            calls.clear()
            asep(analysis.at_snr_db(system, db))
            assert set(calls) == {np.ndarray}, (name, db)
            assert len(calls) <= max_depth + 2, (name, db)


# ---------------------------------------------------------- asymptotics

def test_asymptotic_direct_evaluation():
    # K=N=1, alpha=2, mu=1, threshold/mean = 0.01: terms 0.01 + 0.02 + 0.01
    c = config(**ALL_EXP, snr=100.0, gamma_th=1.0)
    assert asymptotic_outage(c).value == pytest.approx(0.04, abs=1e-15)
    # exact value for comparison: 1 - e^{-0.04}, relative gap ~2.1%
    assert abs(asymptotic_outage(c).value / total_outage(c).value - 1.0) < 0.025
    # far below the high-SNR regime a term overflows (100**400 here): the
    # value is the cap, as it is for terms that sum past 1
    far = config(k=400, n=1, alpha=2.0, mu=2.0, snr=1.0, gamma_th=100.0)
    assert asymptotic_outage(far).value == 1.0
    # an uplink coefficient C(K, N - 1) beyond the float range keeps its
    # term, formed from its log, and a curve row shows it
    wide = config(k=1100, n=550, alpha=2.0, mu=2.0, snr=10.0)
    assert next(sweep([(10.0, wide)])).asymptotic == asymptotic_outage(wide)


@pytest.mark.parametrize("k,n,alpha,mu,snr", [
    (3, 1, 2.9, 800.0, 2.0),     # hop coefficient mu^(mu-1)/Gamma(mu) about e^797
    (1100, 550, 2.0, 2.0, 4.0),  # uplink coefficient C(1100, 549) about e^758
])
def test_asymptotic_terms_beyond_float_range(k, n, alpha, mu, snr):
    # each term coef * lam^order against mpmath at 30 digits; lam is chosen
    # so that the term whose coefficient overflows adds 0.08% and 1.2% of the sum
    c = config(k=k, n=n, alpha=alpha, mu=mu, snr=snr)
    with mpmath.workdps(30):
        lam = 1 / mpmath.mpf(snr)
        log_hop = (mu - 1) * mpmath.log(mu) - mpmath.loggamma(mu)
        terms = {"T1": (k - n + 1, mpmath.log(mpmath.binomial(k, n - 1))),
                 "T2": (alpha * mu / 2, log_hop + mpmath.log(2)),  # two equal hops
                 "T3": (1, mpmath.mpf(0))}
        expect = float(mpmath.fsum(mpmath.exp(log_c) * lam ** d
                                   for d, log_c in terms.values()))
    assert asymptotic_outage(c).value == pytest.approx(expect, rel=1e-12)
    # every gain reproduces its term, (gain * snr)^-order, compared in logs
    gains = classify_asymptotics(c).coding_gain_terms
    for t, (order, log_c) in terms.items():
        assert -order * math.log(gains[t] * snr) == pytest.approx(
            float(log_c + order * mpmath.log(lam)), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("alpha", [5e-324, 0.01, 2.0, 100.0])
def test_largest_mu_gives_finite_values(alpha):
    # mu = 1e300, the largest AlphaMuParams accepts, on both hops; at the least
    # alpha the T2 gain divides a log coefficient of about 1e300 by the order 2.5e-24
    c = config(k=3, n=1, alpha=alpha, mu=1e300, snr=10.0)
    report = classify_asymptotics(c)
    assert all(math.isfinite(v) for v in (total_outage(c).value, asymptotic_outage(c).value,
                                          asep(c).value, report.diversity_order,
                                          *report.coding_gain_terms.values()))


def test_asymptotic_vanishing_threshold():
    c = config(**ALL_EXP, snr=1.0, gamma_th=1e-12)
    assert asymptotic_outage(c).value == pytest.approx(0.0, abs=1e-10)


def test_asymptotic_ratio_tends_to_one():
    c = config(k=3, n=1, alpha=2.0, mu=2.0, snr=1e4, gamma_th=1.0)
    ratio = asymptotic_outage(c).value / total_outage(c).value
    assert 0.9 < ratio < 1.1


def unequal(k=3, n=1, up=100.0, down=400.0, sr=(2.0, 2.0, 110.0), rs=(1.0, 3.0, 50.0),
            gamma_th=1.0):
    """A config whose four links each have their own scale."""
    return SystemConfig(scheduling=SchedulingSpec(k, n, up, down), sr_model=AlphaMuParams(*sr),
                        rs_model=AlphaMuParams(*rs), gamma_th=gamma_th)


def test_asymptotic_sums_each_link_at_its_own_scale():
    # C(K, N-1) (g/up)^(K-N+1) + mu^(mu-1)/Gamma(mu) (g/scale)^(alpha mu/2) per
    # hop + g/down, each link at its own scale
    c = unequal(gamma_th=2.0)
    expect = (2.0 / 100.0) ** 3 + 2.0 * (2.0 / 110.0) ** 2 \
        + 3.0 ** 2 / math.gamma(3.0) * (2.0 / 50.0) ** 1.5 + 2.0 / 400.0
    assert asymptotic_outage(c).value == pytest.approx(expect, rel=1e-14)
    assert next(sweep([(0.0, c)])).asymptotic == asymptotic_outage(c)


@functools.cache
def _hop_laws():
    """The (alpha, mu) of the hops of the five scenario INIs and the five fitted rows."""
    return sorted({(hop.alpha, hop.mu) for _, c in _scenario_curves()
                   for hop in (c.sr_model, c.rs_model)})


@settings(derandomize=True, max_examples=500, deadline=None)
@given(k=st.integers(1, 10), n_at=st.floats(0.0, 1.0), data=st.data(),
       ratios=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       gamma_th=st.floats(0.1, 10.0))
def test_asymptote_converges_at_unequal_scales(k, n_at, data, ratios, gamma_th):
    # each link's scale 10^(db/10) times its own ratio, log-uniform in [0.1, 10]:
    # |asymptote / exact - 1| does not grow from 60 to 80 to 100 dB and is at
    # most 0.03 at 100 dB (0.0203 at worst in 3,000 random draws, on two hop
    # terms of close orders)
    sr, rs = (data.draw(st.sampled_from(_hop_laws())) for _ in range(2))
    errors = []
    for db in (60.0, 80.0, 100.0):
        up, down, s1, s2 = (10.0 ** (db / 10.0 + r) for r in ratios)
        c = unequal(k=k, n=1 + round(n_at * (k - 1)), up=up, down=down, sr=(*sr, s1),
                    rs=(*rs, s2), gamma_th=gamma_th)
        errors.append(abs(asymptotic_outage(c).value / total_outage(c).value - 1.0))
    assert errors[0] >= errors[1] >= errors[2]
    assert errors[2] <= 0.03


def test_classify_nakagami_selection():
    rep = classify_asymptotics(config(k=3, n=1, alpha=2.0, mu=2.0, snr=10.0))
    assert rep.diversity_order == pytest.approx(1.0)
    assert rep.dominant == frozenset({"T3"})


def test_classify_severe_turbulence_fso_dominates():
    rep = classify_asymptotics(config(k=3, n=3, alpha=0.579, mu=2.022, snr=10.0))
    assert rep.diversity_order == pytest.approx(0.579 * 2.022 / 2.0)
    assert rep.diversity_order < 1.0
    assert rep.dominant == frozenset({"T2"})


def test_classify_fully_symmetric():
    rep = classify_asymptotics(config(**ALL_EXP, snr=10.0))
    assert rep.diversity_order == pytest.approx(1.0)
    assert rep.dominant == frozenset({"T1", "T2", "T3"})


def test_classify_coding_gains_reproduce_terms():
    # each gain must satisfy term(snr) = (gain * snr)^(-order), snr the uplink scale
    c = config(k=4, n=2, alpha=2.0, mu=2.0, snr=1e3, gamma_th=0.7)
    rep = classify_asymptotics(c)
    lam_gth = c.gamma_th / 1e3
    k_tot, n = 4, 2
    psi1 = math.comb(k_tot - 1, n - 1) * k_tot / (k_tot - n + 1)
    t1 = psi1 * lam_gth ** (k_tot - n + 1)
    assert (rep.coding_gain_terms["T1"] * 1e3) ** -(k_tot - n + 1) == pytest.approx(
        t1, rel=1e-12)
    # T2 gain reproduces the combined term of both optical hops (factor 2),
    # each mu^(mu-1) / Gamma(mu) * lam^(alpha mu / 2)
    t2 = 2.0 * 2.0 ** 1.0 / math.gamma(2.0) * lam_gth ** 2.0
    assert (rep.coding_gain_terms["T2"] * 1e3) ** -2.0 == pytest.approx(t2, rel=1e-12)
    assert (rep.coding_gain_terms["T3"] * 1e3) ** -1.0 == pytest.approx(
        lam_gth, rel=1e-12)
    # at unequal scales, with two hops of order 2 at scales 110 and 70: T2 is
    # their summed term, and each term is referenced to the uplink scale 100
    c = unequal(sr=(2.0, 2.0, 110.0), rs=(4.0, 1.0, 70.0), gamma_th=0.7)
    gains = classify_asymptotics(c).coding_gain_terms
    terms = {"T1": (3, (0.7 / 100.0) ** 3),
             "T2": (2, 2.0 * (0.7 / 110.0) ** 2 + (0.7 / 70.0) ** 2),
             "T3": (1, 0.7 / 400.0)}
    for t, (order, term) in terms.items():
        assert (gains[t] * 100.0) ** -order == pytest.approx(term, rel=1e-12), t


def test_asymptotic_generalizes_to_distinct_optical_laws():
    # with different S->R / R->S laws each contributes its own power term
    # mu^(mu-1) / Gamma(mu) * lam^(alpha mu / 2)
    c = config(k=1, n=1, alpha=2.0, mu=1.0, snr=100.0, alpha2=2.0, mu2=2.0)
    lam = 0.01
    expect = lam + 1.0 ** 0.0 / math.gamma(1.0) * lam \
        + 2.0 ** 1.0 / math.gamma(2.0) * lam ** 2.0 + lam
    assert asymptotic_outage(c).value == pytest.approx(expect, rel=1e-12)


def test_asymptotic_keeps_mu_power_factor():
    # P(mu, z) ~ z^mu / Gamma(mu + 1) with z = mu lam^(alpha/2): dropping the
    # mu^mu factor leaves the ratio at 1.5^-1.5 = 0.544 for this hop
    c = config(k=3, n=1, alpha=1.0, mu=1.5, snr=1e12, gamma_th=1.0)
    ratio = asymptotic_outage(c).value / total_outage(c).value
    assert ratio == pytest.approx(1.0, abs=0.01)


def test_asymptotic_threshold_underflowing_to_zero():
    # gamma_th / mean_snr underflows to 0, where mu = 1000 gives the S->R hop
    # the coefficient exp(995) = inf, and inf * 0 is nan: every order is
    # positive, so the asymptote is 0, as it is with a finite coefficient
    for mu in (1000.0, 2.0):
        c = config(k=3, n=1, alpha=2.0, mu=mu, snr=1e200, gamma_th=1e-200, mu2=2.0)
        assert asymptotic_outage(c).value == 0.0
        assert next(sweep([(1.0, c)])).asymptotic.value == 0.0


def test_asymptotic_infinite_order_at_unit_threshold_ratio():
    # alpha mu / 2 = 5e309 overflows to inf, where exp(log_coef + inf * log 1)
    # and abs(inf - inf) are nan: the hop is refused. At the largest orders it
    # accepts, about 8.5e307, the asymptote at gamma_th / scale = 1 reads 1 and
    # the T2 gain is finite
    with pytest.raises(ValueError, match="overflows to inf"):
        AlphaMuParams(1e10, 1e300, 1.0)
    hop = AlphaMuParams(1.7e8, 1e300, 1.0)
    for rs in (hop, AlphaMuParams(2.0, 2.0, 1.0)):
        c = SystemConfig(SchedulingSpec(3, 1, 1.0, 1.0), hop, rs, gamma_th=1.0)
        assert asymptotic_outage(c).value == 1.0
        assert next(sweep([(0.0, c)])).asymptotic.value == 1.0
        assert math.isfinite(classify_asymptotics(c).coding_gain_terms["T2"])


@pytest.mark.parametrize("up,down,sr,rs,gamma_th", [
    (1e-200, 1.0, 1e200, 1e100, 1e100),    # hop scale / uplink scale 1e400 and 1e300
    (1e200, 1.0, 1e-200, 1e-100, 1e-250),  # and 1e-400 and 1e-300
    (1e-100, 1.0, 1e100, 1e61, 1.0),       # R->S coefficient (1e-161)^2, subnormal
])
def test_classify_gains_at_scale_ratios_beyond_float_range(up, down, sr, rs, gamma_th):
    # K = 3, N = 1 and two hops of order 2, (2, 2) and (4, 1), whose folded
    # coefficients leave the normal float range: each gain G still reproduces its
    # term, (G up)^-order, compared in logs against mpmath at 30 digits
    c = unequal(up=up, down=down, sr=(2.0, 2.0, sr), rs=(4.0, 1.0, rs), gamma_th=gamma_th)
    gains = classify_asymptotics(c).coding_gain_terms
    with mpmath.workdps(30):
        g = mpmath.mpf(gamma_th)
        terms = {"T1": (3, (g / up) ** 3), "T2": (2, 2 * (g / sr) ** 2 + (g / rs) ** 2),
                 "T3": (1, g / down)}
        for t, (order, term) in terms.items():
            assert -order * (math.log(gains[t]) + math.log(up)) == pytest.approx(
                float(mpmath.log(term)), rel=1e-12), t


@pytest.mark.parametrize("sr_scale", [11.5, 11.95])
def test_classify_gain_from_a_subnormal_scale_power(sr_scale):
    # the S->R fold (1 / sr_scale)^300 is subnormal, and the coefficient
    # 300^299 / Gamma(300), about e^300, would lift its lost digits into the
    # normal range: the T2 gain against mpmath at 50 digits (the R->S hop has
    # order 400, so the S->R term is T2 alone)
    c = unequal(up=1.0, down=1.0, sr=(2.0, 300.0, sr_scale), rs=(2.0, 400.0, 1.0))
    with mpmath.workdps(50):
        mu = mpmath.mpf(300)
        term = mu ** (mu - 1) / mpmath.gamma(mu) / mpmath.mpf(sr_scale) ** 300
        expect = float(term ** (-1 / mu))
    assert classify_asymptotics(c).coding_gain_terms["T2"] == pytest.approx(expect, rel=1e-12)


def test_classify_gain_beyond_float_range_is_inf():
    # the R->S order 5e-7 raises a coefficient below 1 to the power -2e6
    rep = classify_asymptotics(config(alpha=2.0, mu=2.0, alpha2=0.001, mu2=0.001))
    assert rep.diversity_order == pytest.approx(5e-7)
    assert rep.coding_gain_terms == {"T1": 1.0, "T2": math.inf, "T3": 1.0}


SCALE = st.one_of(st.floats(-50.0, 150.0).map(analysis.db_to_linear),
                  st.sampled_from([5e-324, 1e-300, 1e300, 1.7976931348623157e308]))


@settings(derandomize=True, max_examples=500, deadline=None)
@given(k=st.integers(1, 2000), n_at=st.floats(0.0, 1.0),
       hops=st.lists(st.floats(-2.0, 4.0), min_size=4, max_size=4),
       scales=st.lists(SCALE, min_size=4, max_size=4), gamma_th_db=st.floats(-50.0, 150.0))
def test_asymptotics_stay_in_range(k, n_at, hops, scales, gamma_th_db):
    # alpha and mu of both hops log-uniform in [1e-2, 1e4], K up to 2,000, the
    # threshold from -50 to 150 dB and each link's scale its own, from -50 to
    # 150 dB or at the ends of the float range: neither function raises (no
    # OverflowError), the asymptote is a probability and each gain is in
    # [0, inf], the ends for gains beyond the float range. The same config built
    # from NumPy scalars gives the same results, and no warning
    a1, m1, a2, m2 = (10.0 ** h for h in hops)
    up, down, sr, rs = scales
    c, c_np = (unequal(k=k, n=1 + round(n_at * (k - 1)), up=f(up), down=f(down),
                       sr=(f(a1), f(m1), f(sr)), rs=(f(a2), f(m2), f(rs)),
                       gamma_th=f(analysis.db_to_linear(gamma_th_db)))
               for f in (float, np.float64))
    assert 0.0 <= asymptotic_outage(c).value <= 1.0
    rep = classify_asymptotics(c)
    assert rep.diversity_order > 0.0
    assert all(0.0 <= g <= math.inf for g in rep.coding_gain_terms.values())
    assert (asymptotic_outage(c_np), classify_asymptotics(c_np)) == (asymptotic_outage(c), rep)


def test_classify_reads_both_hops():
    # the R->S hop (alpha mu / 2 = 0.25) sets the diversity, not S->R (2)
    c = config(k=3, n=1, alpha=2.0, mu=2.0, snr=1e3, alpha2=1.0, mu2=0.5)
    rep = classify_asymptotics(c)
    assert rep.diversity_order == pytest.approx(0.25)
    assert rep.dominant == frozenset({"T2"})
    # the exact outage falls with that slope at high SNR
    lo, hi = (total_outage(analysis.at_snr_db(c, db)).value
              for db in (80.0, 100.0))
    assert -math.log10(hi / lo) / 2.0 == pytest.approx(0.25, abs=1e-3)
    # and the gain reproduces the R->S term alone
    mu = 0.5
    t2 = mu ** (mu - 1.0) / math.gamma(mu) * (c.gamma_th / 1e3) ** 0.25
    assert (rep.coding_gain_terms["T2"] * 1e3) ** -0.25 == pytest.approx(t2, rel=1e-12)


# ------------------------------------------------------------ array core

def _fitted_hop(row, mean_snr):
    fit = fit_alpha_mu(GammaGammaParams(*GG_ROWS[row]))
    return AlphaMuParams(fit.alpha, fit.mu, mean_snr)


def test_array_core_matches_scalar_calls_bit_for_bit():
    gammas = np.concatenate([[0.0], np.geomspace(1e-9, 1e6, 150)])
    hops = [_fitted_hop("very weak", 10.0), _fitted_hop("severe (b)", 10.0)]
    for k in range(1, 17):
        for n in sorted({1, k}):
            for hop in hops:
                c = SystemConfig(scheduling=SchedulingSpec(k, n, 10.0, 10.0),
                                 sr_model=hop, rs_model=hop, gamma_th=1.0)
                for fn in (lambda g: nth_best_cdf(c.scheduling, g),
                           lambda g: downlink_cdf(c.scheduling, g),
                           lambda g: alpha_mu_snr_cdf(hop, g),
                           lambda g: analysis._total_outage_value(c, g)):
                    scalar = [fn(float(g)) for g in gammas]
                    assert all(type(v) is float for v in scalar)
                    assert np.array_equal(fn(gammas), np.array(scalar))


def _scenario_curves():
    """The five scenario INIs, and each fitted row on both hops of the RF side."""
    for path in sorted(SCENARIOS.glob("*.ini")):
        yield path.stem, load_scenario(path).system
    rf_side = load_scenario(SCENARIOS / "rf_backup_baseline.ini").system
    for row in GG_ROWS:
        hop = _fitted_hop(row, rf_side.sr_model.mean_snr)
        yield row, dataclasses.replace(rf_side, sr_model=hop, rs_model=hop)


def test_core_emits_no_warnings():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for name, system in _scenario_curves():
            for db in range(0, 41, 2):
                c = analysis.at_snr_db(system, db)
                total_outage(c)
                # gamma = 0 and the far tails of every link
                analysis._total_outage_value(c, np.array([0.0, 5e-324, 1e-300, 1e300]))
                assert 0.0 < asep(c).value < 0.5, (name, db)


# ---------------------------------------------------------------- sweep

def point(base, variable, g):
    """base with one sweep variable at g: mean_snr_db by at_snr_db, K, N and
    gamma_th by dataclasses.replace, as the CLI's ksweep builds its points."""
    if variable == "mean_snr_db":
        return analysis.at_snr_db(base, g)
    if variable == "gamma_th":
        return dataclasses.replace(base, gamma_th=g)
    field = {"K": "k_total", "N": "n_order"}[variable]
    return dataclasses.replace(base, scheduling=dataclasses.replace(base.scheduling, **{field: g}))


def points(base, variable, grid):
    """The (value, config) pairs of a one-variable sweep of base."""
    return [(g, point(base, variable, g)) for g in grid]


def test_sweep_snr_monotone_and_asymptotic_column():
    base = config(k=3, n=2, alpha=2.0, mu=2.0)
    rows = list(sweep(points(base, "mean_snr_db", np.arange(0.0, 41.0, 5.0))))
    vals = [r.exact.value for r in rows]
    assert all(b <= a for a, b in zip(vals, vals[1:]))
    assert all(r.asymptotic is not None for r in rows)
    assert all(r.mc is None for r in rows)


def test_sweep_k_nonincreasing_for_best_selection():
    base = config(k=1, n=1, alpha=2.0, mu=2.0, snr=10.0)
    rows = list(sweep(points(base, "K", range(1, 11))))
    vals = [r.exact.value for r in rows]
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_sweep_k_saturates_beyond_five():
    base = config(k=1, n=1, alpha=2.0, mu=2.0, snr=10.0)
    rows = list(sweep(points(base, "K", range(1, 11))))
    assert rows[4].exact.value / rows[9].exact.value < 1.05


def test_sweep_gamma_th_nondecreasing():
    base = config(k=2, n=1, alpha=2.0, mu=2.0, snr=10.0)
    rows = list(sweep(points(base, "gamma_th", np.linspace(0.1, 5.0, 12))))
    vals = [r.exact.value for r in rows]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_sweep_with_mc_column():
    from relaylink.mcsim import McConfig
    base = config(k=2, n=1, alpha=2.0, mu=2.0, snr=3.0)
    rows = list(sweep(points(base, "mean_snr_db", [0.0, 10.0]),
                      mc=McConfig(trials=50_000)))
    for r in rows:
        assert r.mc is not None and r.mc.method == "monte_carlo"
        assert abs(r.mc.value - r.exact.value) < 5.0 * r.mc.std_error


def test_at_snr_db_and_sweep_reject_bad_input():
    c = config(**ALL_EXP)
    for db in (4000.0, np.float64(4000.0)):
        with pytest.raises(ValueError, match="^4000.0 dB"):
            analysis.at_snr_db(c, db)
    with pytest.raises(ValueError, match="metric"):  # at the call, before any row is read
        sweep(points(c, "mean_snr_db", [0.0]), metric="capacity")


def test_sweep_asep_equals_per_point_asep_bit_for_bit():
    base = config(k=3, n=2, alpha=2.0, mu=2.0)
    grid = [0.0, 7.5, 15.0, 30.0]
    rows = list(sweep(points(base, "mean_snr_db", grid), metric="asep"))
    assert [r.value for r in rows] == grid
    for db, row in zip(grid, rows):
        expected = asep(analysis.at_snr_db(base, db))
        assert row.exact == expected and row.exact.method == "quadrature"
        assert row.asymptotic is None and row.mc is None
    base = config(k=4, n=1, alpha=2.0, mu=1.5, snr=10.0)
    rows = list(sweep(points(base, "K", range(1, 5)), metric="asep"))
    assert [r.exact.value for r in rows] == [
        asep(point(base, "K", k)).value for k in range(1, 5)]


def scaled(c, up, down, sr, rs):
    """c with its four link scales set one by one."""
    return dataclasses.replace(
        c, scheduling=dataclasses.replace(c.scheduling, uplink_mean_snr=up,
                                          downlink_mean_snr=down),
        sr_model=dataclasses.replace(c.sr_model, mean_snr=sr),
        rs_model=dataclasses.replace(c.rs_model, mean_snr=rs))


# the MC column of sweep() against simulate_outage / simulate_asep point by
# point: (trials, block size `mcsim._CHUNK`, workers), in 8 blocks of 2,999
# trials with a partial last one, then in the real blocks of 65,536
SWEEP_MC = [(23_333, 2_999, 1), (23_333, 2_999, 2), (23_333, 2_999, 3),
            (140_003, 65_536, 2)]
_UNEQUAL_HOPS = config(k=3, n=2, alpha=0.5803, mu=2.703, alpha2=2.0, mu2=2.0)
_NAKAGAMI = config(k=3, n=2, alpha=2.0, mu=2.0)
# outage points of three K values, interleaved, at equal and unequal scales
MIXED_K = list(enumerate([
    analysis.at_snr_db(_UNEQUAL_HOPS, 5.0),
    config(k=1, n=1, alpha=2.0, mu=2.0, snr=0.5),
    config(k=3, n=1, alpha=2.0, mu=2.0, snr=3.0, gamma_th=0.4),
    scaled(config(k=4, n=4, alpha=1.68, mu=1.85, alpha2=0.5007, mu2=40.62),
           2.0, 30.0, 5.0, 0.7),
    config(k=1, n=1, alpha=2.0, mu=2.0, snr=100.0),
    scaled(_UNEQUAL_HOPS, 8.0, 8.0, 1.5, 8.0),
]))
# ASEP points of two hop-law pairs at the same K and N, at equal scales,
# interleaved with points of each at unequal scales, the last two also at
# other (a, b)
MIXED_SCALES = list(enumerate([
    analysis.at_snr_db(_NAKAGAMI, 0.0),
    analysis.at_snr_db(_UNEQUAL_HOPS, 10.0),
    scaled(_NAKAGAMI, 3.0, 3.0, 5.0, 3.0),
    analysis.at_snr_db(_NAKAGAMI, 7.5),
    analysis.at_snr_db(_UNEQUAL_HOPS, -2.0),
    scaled(_UNEQUAL_HOPS, 1.0, 2.0, 3.0, 4.0),
    _NAKAGAMI,
    dataclasses.replace(scaled(_UNEQUAL_HOPS, 0.2, 40.0, 2.5, 1e-3), mod_a=2.0, mod_b=0.5),
    dataclasses.replace(scaled(_NAKAGAMI, 60.0, 0.7, 1e4, 9.0), mod_a=0.5, mod_b=0.1),
]))
SWEEP_GRIDS = [
    # unequal hop laws (one with alpha*mu < 2), 1 < N < K, and negative,
    # fractional and extreme SNR points
    (_UNEQUAL_HOPS, "mean_snr_db", [-30.0, -7.5, 0.0, 2.5, 13.3, 60.0]),
    (config(k=1, n=1, alpha=2.7312, mu=2.21), "mean_snr_db", [-4.0, 0.1, 17.0]),
    (config(k=4, n=4, alpha=1.68, mu=1.85, alpha2=0.5007, mu2=40.62),
     "mean_snr_db", [-12.25, 3.0, 31.0]),
    (config(k=3, n=1, alpha=2.0, mu=2.0, snr=3.0), "gamma_th", [0.1, 1.0, 3.7]),
    (config(k=4, n=1, alpha=0.5803, mu=2.703, snr=5.0, alpha2=2.0, mu2=2.0),
     "N", [1, 2, 3, 4]),
    (config(k=1, n=1, alpha=2.0, mu=2.0, snr=5.0, alpha2=1.0, mu2=1.0),
     "K", [1, 2, 5]),
    # point lists that no one-variable sweep gives
    (None, "points", MIXED_K),
    (None, "points", MIXED_SCALES),
]


@pytest.mark.parametrize("metric", ["outage", "asep"])
@pytest.mark.parametrize("base,variable,grid", SWEEP_GRIDS)
def test_sweep_mc_equals_per_point_bit_for_bit(base, variable, grid, metric, monkeypatch):
    from relaylink import mcsim
    simulate, simulate_grid = (
        (mcsim.simulate_outage, mcsim.simulate_outage_grid) if metric == "outage"
        else (mcsim.simulate_asep, mcsim.simulate_asep_grid))
    pts = grid if base is None else points(base, variable, grid)
    for trials, chunk, workers in SWEEP_MC:
        monkeypatch.setattr(mcsim, "_CHUNK", chunk)
        mc = mcsim.McConfig(trials=trials, seed=41, workers=workers)
        assert simulate_grid([c for _, c in pts], mc) == [simulate(c, mc) for _, c in pts]
    # whole rows
    expected = [dataclasses.replace(next(sweep([(v, c)], metric)), mc=simulate(c, mc))
                for v, c in pts]
    assert list(sweep(pts, metric, mc)) == expected


def test_sweep_mc_shares_passes(monkeypatch):
    # one outage pass per (K, N), one ASEP pass per (K, N, hop laws), each
    # block drawn once per pass from a stream of its own: one block, so one
    # stream a pass; and one grid call per sweep
    from relaylink import mcsim
    sizes, streams, calls = [], [], []

    def grouped(*args, _run=mcsim._passes):
        passes = _run(*args)
        sizes.extend(len(p) for p in passes)
        return passes

    def stream(*args, _run=mcsim.rng_stream):
        streams.append(args)
        return _run(*args)

    monkeypatch.setattr(mcsim, "_passes", grouped)
    monkeypatch.setattr(mcsim, "rng_stream", stream)
    for name in ("simulate_outage_grid", "simulate_asep_grid"):
        def counted(configs, mc, _run=getattr(mcsim, name)):
            calls.append(len(configs))
            return _run(configs, mc)
        monkeypatch.setattr(mcsim, name, counted)
    mc = mcsim.McConfig(trials=1_000, seed=2)
    sweep(MIXED_K, "outage", mc)  # the Monte-Carlo column, without reading a row
    assert (sorted(sizes), streams, calls) == ([1, 1, 2, 2], [(2, 0)] * 4, [6])
    for log in (sizes, streams, calls):
        log.clear()
    sweep(MIXED_SCALES, "asep", mc)
    assert (sorted(sizes), streams, calls) == ([4, 5], [(2, 0)] * 2, [9])


def test_sweep_takes_any_iterable_grid():
    from relaylink.mcsim import McConfig
    pts = points(config(k=2, n=1, alpha=2.0, mu=2.0), "mean_snr_db", [0.0, 5.0])
    mc = McConfig(trials=2_000, seed=3)
    for metric in ("outage", "asep"):
        assert (list(sweep((p for p in pts), metric, mc))
                == list(sweep(pts, metric, mc)))
        assert list(sweep([], metric, mc)) == []


# ----------------------------------------------------------- estimates

def test_perf_estimate_validation():
    with pytest.raises(ValueError):
        PerfEstimate(1.2, method="exact")
    with pytest.raises(ValueError):
        PerfEstimate(0.5, method="monte_carlo")  # missing std_error/trials
    with pytest.raises(ValueError):
        PerfEstimate(0.5, method="exact", std_error=0.1)
    ok = PerfEstimate(0.5, method="monte_carlo", std_error=0.01, trials=1000)
    assert ok.trials == 1000


def test_system_config_validation():
    with pytest.raises(ValueError):
        config(**ALL_EXP, gamma_th=0.0)
    with pytest.raises(ValueError):
        config(**ALL_EXP, a=-1.0)
    with pytest.raises(ValueError, match="finite"):  # not clipped to an ASEP of 1
        config(**ALL_EXP, a=math.inf)
