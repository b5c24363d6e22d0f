import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import alpha_mu_moment, gamma_gamma_moment, ks_distance_oracle, moment_fit_root

from relaylink import ggfit
from relaylink.channels import (AlphaMuParams, GammaGammaParams, alpha_mu_snr_cdf,
                                gamma_gamma_cdf)
from relaylink.errors import NonConvergenceError
from relaylink.ggfit import fit_alpha_mu, fit_diagnostics

TURBULENCE_PAIRS = [
    (21.5, 19.8),   # very weak
    (9.70, 8.2),    # weak (a)
    (8.65, 7.14),   # weak (b)
    (4.0, 1.84),    # severe (a)
    (4.34, 1.30),   # severe (b)
]


def _assert_moments_match(eta, beta):
    fit = fit_alpha_mu(GammaGammaParams(eta, beta))
    assert fit.converged
    assert fit.residual_norm <= 1e-8
    assert fit.alpha > 0 and fit.mu > 0 and fit.rho_bar > 0
    # substituting back: all three raw moment equations hold
    p = GammaGammaParams(eta, beta)
    for n in (1, 2, 3):
        lhs = alpha_mu_moment(fit.alpha, fit.mu, fit.rho_bar, n)
        assert lhs == pytest.approx(gamma_gamma_moment(p, n), rel=1e-8)


@pytest.mark.parametrize("eta,beta", TURBULENCE_PAIRS)
def test_fit_converges_and_is_self_consistent(eta, beta):
    _assert_moments_match(eta, beta)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(log_eta=st.floats(-3.0, 4.0), log_beta=st.floats(-3.0, 4.0))
def test_fit_converges_over_log_uniform_domain(log_eta, log_beta):
    _assert_moments_match(10.0 ** log_eta, 10.0 ** log_beta)


@pytest.mark.parametrize("eta,beta", [(0.019, 5.75e7), (2.0, 1e8), (1e9, 0.5)])
def test_fit_converges_with_one_large_parameter(eta, beta):
    # the moments keep their relative accuracy at large eta or beta, so the
    # residual check reads the moments the fit solved for
    fit = fit_alpha_mu(GammaGammaParams(eta, beta))
    assert fit.converged and fit.residual_norm <= 1e-8


def test_fit_converges_with_both_parameters_large():
    # the root has mu ~ 2.3e6, where the log-gamma difference of the moment
    # ratios must keep its relative accuracy (by poch) for a 1e-8 residual
    fit = fit_alpha_mu(GammaGammaParams(1e7, 3e6))
    assert fit.converged and fit.residual_norm <= 1e-8


FIT_GRID = [1e-2, 0.1, 1.0, 10.0, 1e2, 1e3, 3e4, 1e5, 1e6, 1e8, 1e10, 1e12]


def test_fit_matches_mpmath_root_over_log_grid():
    # Both parameters large is where the log-gamma differences of the moment
    # ratios cancel, and where alpha shows only in r3 / r2^3 - 1 ~ 1/eta^2 + 1/beta^2;
    # 1e-8 is where log(1 - 1/(eta + 1)^2) loses its digits as log1p
    pairs = [*itertools.product(FIT_GRID, repeat=2), (1e15, 1e15), (1e20, 1e20), (1e-8, 1.0)]
    wrong = []
    for eta, beta in pairs:
        try:
            fit = fit_alpha_mu(GammaGammaParams(eta, beta))
        except NonConvergenceError:
            continue
        alpha, mu = moment_fit_root(eta, beta)
        err = max(abs(fit.alpha / alpha - 1.0), abs(fit.mu / mu - 1.0))
        if err > 1e-9:
            wrong.append(f"({eta:g}, {beta:g}): fit ({fit.alpha:.12g}, {fit.mu:.12g}) vs "
                         f"root ({alpha:.12g}, {mu:.12g}), {err:.1e} relative")
    assert not wrong, f"{len(wrong)} of {len(pairs)} fits off the root:\n" + "\n".join(wrong)


@pytest.mark.parametrize("eta,beta", itertools.product([1e-300, 1e-20, 1e12, 1e300],
                                                       repeat=2))
def test_fit_extreme_pairs_fail_only_by_nonconvergence(eta, beta):
    # moments that leave the float range, or a start whose mu overflows,
    # surface as NonConvergenceError, never as a converged non-finite fit
    try:
        fit = fit_alpha_mu(GammaGammaParams(eta, beta))
    except NonConvergenceError as err:
        assert err.best.converged is False
    else:
        assert fit.converged
        assert all(map(math.isfinite, (fit.alpha, fit.mu, fit.rho_bar)))


@pytest.mark.parametrize("eta,beta", TURBULENCE_PAIRS)
def test_fit_scale_consistency(eta, beta):
    # recovering rho_bar from any of the three moments gives the same value
    fit = fit_alpha_mu(GammaGammaParams(eta, beta))
    p = GammaGammaParams(eta, beta)
    for n in (1, 2, 3):
        core = math.exp(math.lgamma(fit.mu + n / fit.alpha)
                        - (n / fit.alpha) * math.log(fit.mu) - math.lgamma(fit.mu))
        rho_n = (core / gamma_gamma_moment(p, n)) ** (1.0 / n)
        assert rho_n == pytest.approx(fit.rho_bar, rel=1e-8)


def test_fit_runtime_is_fast():
    import time
    start = time.perf_counter()
    for eta, beta in TURBULENCE_PAIRS:
        fit_alpha_mu(GammaGammaParams(eta, beta))
    assert time.perf_counter() - start < 1.0


def test_fit_emits_no_warnings():
    # trial points far from the root overflow the residual norm; the solver
    # rejects them, and the overflow must not leak out as a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for eta, beta in TURBULENCE_PAIRS:
            fit_alpha_mu(GammaGammaParams(eta, beta))


def test_fit_diagnostics_weak_turbulence_close():
    fit = fit_alpha_mu(GammaGammaParams(21.5, 19.8))
    diag = fit_diagnostics(fit, GammaGammaParams(21.5, 19.8))
    assert diag.ks_distance < 0.02

    fit_a = fit_alpha_mu(GammaGammaParams(9.70, 8.2))
    diag_a = fit_diagnostics(fit_a, GammaGammaParams(9.70, 8.2))
    assert diag_a.ks_distance < 0.03


def test_fit_diagnostics_monotone_sanity():
    # three-moment approximation degrades from very weak to severe turbulence
    ks = {}
    for eta, beta in [(21.5, 19.8), (4.0, 1.84)]:
        fit = fit_alpha_mu(GammaGammaParams(eta, beta))
        ks[(eta, beta)] = fit_diagnostics(fit, GammaGammaParams(eta, beta)).ks_distance
    assert ks[(21.5, 19.8)] <= ks[(4.0, 1.84)]


def test_fit_diagnostics_reports_fourth_moment_gap():
    p = GammaGammaParams(4.0, 1.84)
    fit = fit_alpha_mu(p)
    diag = fit_diagnostics(fit, p)
    # first three moments match by construction; the fourth does not
    assert diag.fourth_moment_rel_error > 0.0
    # the distance is the gap of the two CDFs at the x it names
    law = AlphaMuParams(2.0 * fit.alpha, fit.mu, 1.0 / fit.rho_bar)
    x = diag.ks_at
    assert diag.ks_distance == abs(gamma_gamma_cdf(p, x) - alpha_mu_snr_cdf(law, x))


def test_fit_diagnostics_requires_convergence():
    fit = fit_alpha_mu(GammaGammaParams(21.5, 19.8))
    bad = fit.__class__(alpha=fit.alpha, mu=fit.mu, rho_bar=fit.rho_bar,
                        residual_norm=1.0, iterations=0, converged=False)
    with pytest.raises(ValueError):
        fit_diagnostics(bad, GammaGammaParams(21.5, 19.8))


def test_fit_diagnostics_ignores_draws_and_rng():
    # the distance is computed, not sampled: callers that still pass a sample
    # size and a generator get the same result, and no warning
    p = GammaGammaParams(4.34, 1.30)
    fit = fit_alpha_mu(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fit_diagnostics(fit, p, draws=200_000, rng=np.random.default_rng(7))
    assert got == fit_diagnostics(fit, p)


@pytest.mark.parametrize("eta,beta", TURBULENCE_PAIRS)
def test_ks_distance_matches_quadpack_oracle(eta, beta):
    # QUADPACK F_GG on 200 fitted quantiles with golden-section refinement
    p = GammaGammaParams(eta, beta)
    fit = fit_alpha_mu(p)
    oracle = ks_distance_oracle(fit.alpha, fit.mu, fit.rho_bar, eta, beta)
    assert abs(fit_diagnostics(fit, p).ks_distance - oracle) <= 1e-9


KS_GRID = [1e-2, 0.1, 1.0, 10.0, 1e2, 1e3, 1e4, 1e6, 1e8, 1e10, 1e12]


def test_ks_distance_finite_over_log_grid():
    # where the fit converges, the distance is a number in [0, 1] with no
    # warning, out to equal shapes of 1e40 (where every draw of a sample
    # rounded to 1.0 and read 0.5)
    pairs = [*itertools.product(KS_GRID, repeat=2), (1e20, 1e20), (1e40, 1e40)]
    checked = 0
    for eta, beta in pairs:
        p = GammaGammaParams(eta, beta)
        try:
            fit = fit_alpha_mu(p)
        except NonConvergenceError:
            continue
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            diag = fit_diagnostics(fit, p)
        assert 0.0 <= diag.ks_distance <= 1.0, (eta, beta)
        assert math.isfinite(diag.fourth_moment_rel_error), (eta, beta)
        checked += 1
    assert checked >= 100
    fit = fit_alpha_mu(GammaGammaParams(1e40, 1e40))
    assert fit_diagnostics(fit, GammaGammaParams(1e40, 1e40)).ks_distance < 1e-6


@pytest.mark.parametrize("eta,beta", [*TURBULENCE_PAIRS, (1e20, 1e20), (1e40, 1e40)])
def test_fourth_moment_error_matches_mpmath(eta, beta):
    # |r4 / r4_GG - 1| from log r4 = lgamma(mu + 4h) + 3 lgamma(mu) - 4 lgamma(mu + h),
    # h = 1/alpha, at 150 digits. The library's log r4 is as good as SciPy's poch,
    # about 1e-14 relative at weak (a), and the error's log is a difference of
    # two such logs: so the bound is relative to log r4, not to the error itself
    p = GammaGammaParams(eta, beta)
    fit = fit_alpha_mu(p)
    with mpmath.workdps(150):
        a, m, e, b = map(mpmath.mpf, (fit.alpha, fit.mu, eta, beta))
        log_r4 = (mpmath.loggamma(m + 4 / a) + 3 * mpmath.loggamma(m)
                  - 4 * mpmath.loggamma(m + 1 / a))
        log_gg = sum(mpmath.log1p(k / e) + mpmath.log1p(k / b) for k in (1, 2, 3))
        exact = abs(mpmath.expm1(log_r4 - log_gg))
    got = fit_diagnostics(fit, p).fourth_moment_rel_error
    assert math.isfinite(got)
    assert abs(got - float(exact)) <= 1e-13 * float(log_r4)


def test_fit_grid_fallback_reaches_extreme_pair():
    # weak turbulence: the root (alpha ~ 0.5, mu ~ 90) lies far from the
    # alpha = 1 start, with no fallback to help
    fit = fit_alpha_mu(GammaGammaParams(50.0, 45.0))
    assert fit.converged and fit.residual_norm <= 1e-8


def test_nonconvergence_carries_best_iterate(monkeypatch):
    monkeypatch.setattr(ggfit, "MAX_ITER", 1)
    with pytest.raises(NonConvergenceError) as err:
        fit_alpha_mu(GammaGammaParams(21.5, 19.8))
    assert err.value.best is not None
    assert err.value.best.converged is False


def test_nonconvergence_names_the_failed_check(monkeypatch):
    # the residual is solved, but rho_bar is not finite: the message blames rho_bar alone
    monkeypatch.setattr(ggfit, "_rho_bar", lambda alpha, mu: math.inf)
    with pytest.raises(NonConvergenceError, match="rho_bar inf is not finite") as err:
        fit_alpha_mu(GammaGammaParams(21.5, 19.8))
    assert err.value.best.residual_norm <= ggfit.TOL
    assert "residual" not in str(err.value)


@pytest.mark.parametrize("eta", [1e154, 1e156, 1e157])
def test_rho_bar_where_mu_to_the_h_overflows(eta):
    # mu ~ 2 eta, h = 1/alpha ~ 2: mu^h overflows, so rho_bar comes from the zeta
    # series of log Gamma(mu + h) - log Gamma(mu) - h log mu, not from poch
    fit = fit_alpha_mu(GammaGammaParams(eta, eta))
    assert fit.converged and fit.residual_norm <= ggfit.TOL
    with mpmath.workdps(250):
        h, mu = 1 / mpmath.mpf(fit.alpha), mpmath.mpf(fit.mu)
        exact = mpmath.exp(mpmath.loggamma(mu + h) - mpmath.loggamma(mu) - h * mpmath.log(mu))
    assert abs(fit.rho_bar / exact - 1) <= 1e-12


@pytest.mark.parametrize("eta,beta", [(1.0, 1.0), (0.5, 0.3), (0.2, 5.0),
                                      (0.05, 2.0), (0.01, 0.01)])
def test_fit_strong_turbulence_converges(eta, beta):
    # the search probes log-parameters whose exp overflows; those probes are
    # rejected like any other infeasible point instead of escaping as an error
    fit = fit_alpha_mu(GammaGammaParams(eta, beta))
    assert fit.converged and fit.residual_norm <= 1e-8
