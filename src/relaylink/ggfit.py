"""Moment-based approximation of the Gamma-Gamma turbulence law by the
alpha-mu distribution.

The first three moments of both laws are equated. The envelope scale rho_bar
is eliminated through the first-moment equation, leaving two scale-free
moment-ratio equations in (alpha, mu) that are solved by damped Newton with a
numerical Jacobian; a coarse log-grid search plus Newton polish is the
fallback when Newton diverges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channels import (
    AlphaMuParams,
    GammaGammaParams,
    alpha_mu_snr_cdf,
    gamma_gamma_moment,
    gamma_gamma_sample,
)
from .errors import NonConvergenceError


@dataclass(frozen=True)
class FitOptions:
    tol: float = 1e-8
    max_iter: int = 200
    initial: tuple = (2.0, 1.5)
    # fallback grid; mu range is wide because weak-turbulence roots sit near mu ~ 40
    grid_alpha: tuple = (0.2, 6.0)
    grid_mu: tuple = (0.2, 200.0)
    grid_points: int = 60


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
    # scale-free alpha-mu moment factor Gamma(mu + n/alpha) / (mu^{n/alpha} Gamma(mu))
    return math.exp(math.lgamma(mu + n / alpha) - (n / alpha) * math.log(mu)
                    - math.lgamma(mu))


def _am_ratio(alpha, mu, n):
    # E[X^n] / E[X]^n, independent of the envelope scale
    return math.exp(math.lgamma(mu + n / alpha) - n * math.lgamma(mu + 1.0 / alpha)
                    + (n - 1.0) * math.lgamma(mu))


def fit_alpha_mu(p: GammaGammaParams, opts: FitOptions = FitOptions()) -> FitResult:
    """Fit (alpha, mu, rho_bar) so the first three alpha-mu moments match the
    Gamma-Gamma moments of p. Raises NonConvergenceError (with the best
    iterate attached) if the residual stays above tolerance."""
    g1 = gamma_gamma_moment(p, 1)
    r2 = gamma_gamma_moment(p, 2) / g1 ** 2
    r3 = gamma_gamma_moment(p, 3) / g1 ** 3

    def resid(x):
        try:
            a, m = math.exp(x[0]), math.exp(x[1])
            return np.array([_am_ratio(a, m, 2) / r2 - 1.0,
                             _am_ratio(a, m, 3) / r3 - 1.0])
        except OverflowError:
            # probe point far outside the feasible region; reject in line search
            return np.array([math.inf, math.inf])

    # trial points far from the root give huge finite residuals whose norm
    # overflows to inf; the solvers already reject those, so the overflow is
    # expected and must not surface as a RuntimeWarning
    with np.errstate(over="ignore"):
        x, r, iters = _damped_newton(resid, np.log(np.array(opts.initial)), opts)
        if np.max(np.abs(r)) > opts.tol:
            x_grid = _grid_best(resid, opts)
            x2, r2_, it2 = _damped_newton(resid, x_grid, opts)
            if np.max(np.abs(r2_)) < np.max(np.abs(r)):
                x, r, iters = x2, r2_, iters + it2

    alpha, mu = math.exp(x[0]), math.exp(x[1])
    rho_bar = _am_core(alpha, mu, 1) / g1  # scale from the first moment: E[X] = core(1) / rho_bar
    residual_norm = _full_residual(p, alpha, mu, rho_bar)
    converged = residual_norm <= opts.tol
    result = FitResult(alpha, mu, rho_bar, residual_norm, iters, converged)
    if not converged:
        raise NonConvergenceError(
            f"fit_alpha_mu(eta={p.eta}, beta={p.beta}): residual {residual_norm:.3e} "
            f"> tol {opts.tol:.1e}", best=result)
    return result


def _full_residual(p, alpha, mu, rho_bar):
    # max relative residual of the three raw moment equations
    worst = 0.0
    for n in (1, 2, 3):
        lhs = rho_bar ** -n * _am_core(alpha, mu, n)
        rhs = gamma_gamma_moment(p, n)
        worst = max(worst, abs(lhs / rhs - 1.0))
    return worst


def _damped_newton(resid, x0, opts):
    x = np.asarray(x0, dtype=float)
    r = resid(x)
    iters = 0
    for iters in range(1, opts.max_iter + 1):
        if np.max(np.abs(r)) <= opts.tol:
            break
        jac = np.empty((2, 2))
        h = 1e-7
        for j in range(2):
            xp = x.copy()
            xp[j] += h
            jac[:, j] = (resid(xp) - r) / h
        try:
            dx = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError:
            break
        step = 1.0
        for _ in range(60):  # halve until the residual norm decreases
            rn = resid(x + step * dx)
            if np.all(np.isfinite(rn)) and np.linalg.norm(rn) < np.linalg.norm(r):
                x = x + step * dx
                r = rn
                break
            step *= 0.5
        else:
            break
    return x, r, iters


def _grid_best(resid, opts):
    best_x, best_norm = None, math.inf
    for la in np.log(np.geomspace(*opts.grid_alpha, opts.grid_points)):
        for lm in np.log(np.geomspace(*opts.grid_mu, opts.grid_points)):
            r = resid(np.array([la, lm]))
            norm = np.linalg.norm(r)
            if np.isfinite(norm) and norm < best_norm:
                best_norm, best_x = norm, np.array([la, lm])
    return best_x


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
