"""Moment-based approximation of the Gamma-Gamma turbulence law by the
alpha-mu distribution.

The first three moments of both laws are equated. The envelope scale rho_bar
is eliminated through the first-moment equation, leaving two scale-free
moment-ratio equations. They are solved in (log alpha, log mu), on the log
ratios, by Newton's method with the exact digamma Jacobian and a halving line
search, started at the alpha = 1 law with the same second-moment ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import poch, psi

from .channels import (
    AlphaMuParams,
    GammaGammaParams,
    alpha_mu_snr_cdf,
    gamma_gamma_moment,
    gamma_gamma_sample,
)
from .errors import NonConvergenceError

TOL = 1e-8  # on the largest relative residual of the three moment equations
MAX_ITER = 200


@dataclass(frozen=True)
class FitResult:
    alpha: float
    mu: float
    rho_bar: float
    residual_norm: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class FitDiagnostics:
    ks_distance: float
    fourth_moment_rel_error: float
    draws: int


def _am_core(alpha, mu, n):
    # scale-free alpha-mu moment factor Gamma(mu + n/alpha) / (mu^{n/alpha} Gamma(mu)),
    # its gamma ratio by poch, which keeps its relative accuracy at large mu
    return math.exp(math.log(poch(mu, n / alpha)) - (n / alpha) * math.log(mu))


def _log_ratio_residual(x, log_r):
    """F_n = log(E[X^n] / E[X]^n) - log r_n for n = 2, 3 and its Jacobian,
    both in x = (log alpha, log mu)."""
    a, m = np.exp(x)
    k = np.array([1.0, 2.0, 3.0]) / a
    lp, dg, dg_m = np.log(poch(m, k)), psi(m + k), psi(m)  # lp = lgamma(m + k) - lgamma(m)
    n = np.array([2.0, 3.0])
    f = lp[1:] - n * lp[0] - log_r
    jac = np.column_stack([n / a * (dg[0] - dg[1:]),
                           m * (dg[1:] + (n - 1.0) * dg_m - n * dg[0])])
    return f, jac


def fit_alpha_mu(p: GammaGammaParams) -> FitResult:
    """Fit (alpha, mu, rho_bar) so the first three alpha-mu moments match the
    Gamma-Gamma moments of p. Raises NonConvergenceError (with the best
    iterate attached) if the residual stays above TOL or is nan, or alpha,
    mu or rho_bar is not finite."""
    log_r = np.log([gamma_gamma_moment(p, n) for n in (2, 3)])  # r_n = E[I^n], as E[I] = 1
    iters = 0
    with np.errstate(all="ignore"):  # an infeasible trial point gives inf or nan, rejected
        # start at the alpha = 1 law with the same second-moment ratio 1 + 1/mu
        x = np.log([1.0, 1.0 / np.expm1(log_r[0])])
        f, jac = _log_ratio_residual(x, log_r)
        # Newton down to the rounding floor, not just to TOL: the equations are
        # ill-conditioned in weak turbulence, where |F| = 1e-11 leaves mu 1e-8 off.
        # Within TOL only full steps are taken, so the floor ends it at once.
        while iters < MAX_ITER and np.any(f):
            try:
                dx = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                break
            step = 1.0
            for _ in range(60 if np.max(np.abs(f)) > TOL else 1):  # halve until the norm drops
                xn = x + step * dx
                fn, jn = _log_ratio_residual(xn, log_r)
                if np.all(np.isfinite(fn)) and np.linalg.norm(fn) < np.linalg.norm(f):
                    break
                step *= 0.5
            else:
                break
            x, f, jac = xn, fn, jn
            iters += 1
        alpha, mu = (float(v) for v in np.exp(x))

    try:
        rho_bar = _am_core(alpha, mu, 1) / gamma_gamma_moment(p, 1)  # E[X] = core(1) / rho_bar
        residual_norm = _full_residual(p, alpha, mu, rho_bar)
    except (ArithmeticError, ValueError):  # the moments leave the float range
        rho_bar, residual_norm = math.nan, math.inf
    converged = residual_norm <= TOL and all(map(math.isfinite, (alpha, mu, rho_bar)))
    result = FitResult(alpha, mu, rho_bar, residual_norm, iters, converged)
    if not converged:
        raise NonConvergenceError(
            f"fit_alpha_mu(eta={p.eta}, beta={p.beta}): residual {residual_norm:.3e} "
            f"at alpha {alpha:.6g}, mu {mu:.6g}, not within tol {TOL:.1e}", best=result)
    return result


def _full_residual(p, alpha, mu, rho_bar):
    # max relative residual of the three raw moment equations; nan if any is nan
    return float(np.max([abs(rho_bar ** -n * _am_core(alpha, mu, n) / gamma_gamma_moment(p, n)
                             - 1.0) for n in (1, 2, 3)]))


def fit_diagnostics(fit: FitResult, p: GammaGammaParams, draws: int,
                    rng: np.random.Generator) -> FitDiagnostics:
    """Kolmogorov-Smirnov distance between Gamma-Gamma samples and the fitted
    alpha-mu envelope CDF, plus the relative error of the first unmatched
    (fourth) moment."""
    if not fit.converged:
        raise ValueError("fit_diagnostics requires a converged fit")
    x = np.sort(gamma_gamma_sample(p, rng, draws))
    # the envelope CDF with scale Omega = 1/rho_bar is the SNR-form CDF with exponent 2 alpha
    cdf = alpha_mu_snr_cdf(AlphaMuParams(2.0 * fit.alpha, fit.mu, 1.0 / fit.rho_bar), x)
    n = draws
    hi = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(hi - cdf)), np.max(np.abs(lo - cdf)))
    m4_fit = fit.rho_bar ** -4 * _am_core(fit.alpha, fit.mu, 4)
    m4_gg = gamma_gamma_moment(p, 4)
    return FitDiagnostics(ks_distance=float(ks),
                          fourth_moment_rel_error=abs(m4_fit / m4_gg - 1.0),
                          draws=draws)
