"""Moment-based approximation of the Gamma-Gamma turbulence law by the
alpha-mu distribution.

The first three moments of both laws are equated. With rho_bar fixed by the
first, two scale-free equations remain, on D = (log r2, S), r_n = E[X^n]/E[X]^n
and S = log r3 - 3 log r2 (Nicolas's second-kind statistics, Traitement du
Signal 19(3), 2002), each side evaluated without cancellation. One relative
residual drives Newton's method in (log alpha, log mu), with its exact Jacobian
and a halving line search from the alpha = 1 law with the same r2, and decides
convergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv, poch, psi, zeta

from .channels import AlphaMuParams, GammaGammaParams, alpha_mu_snr_cdf, gamma_gamma_cdf
from .errors import NonConvergenceError

TOL = 1e-8  # on the largest relative residual of D, max |D / target - 1|
MAX_ITER = 200
_W = np.array([[-2.0, 1.0, 0.0], [3.0, -3.0, 1.0]])  # D = _W (L(h), L(2h), L(3h))
_J = np.arange(2.0, 40.0)
_C = _W @ np.arange(1.0, 4.0)[:, None] ** _J * (-1.0) ** _J / _J  # c_j (j-1)! (-1)^j
_C4 = (4.0 ** _J - 4.0) * (-1.0) ** _J / _J  # the same for log r4 = L(4h) - 4 L(h)
_L = (-1.0) ** _J / _J  # the same for L(h) itself


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
    ks_at: float  # the x where the KS distance is taken


def _residual(x, target):
    """f = D / target - 1 and its Jacobian in x = (log alpha, log mu). With
    h = 1/alpha and L(t) = lgamma(mu + t) - lgamma(mu), D = _W (L(h), L(2h), L(3h)).
    Where 12 h <= mu, D is the Taylor series of L about mu, the sum over j >= 2
    of c_j psi^(j-1)(mu) h^j = _C_j zeta(j, mu) h^j, which cancels nothing;
    below that, D comes from poch, where the differences cancel little."""
    h, m = np.exp(x * [-1.0, 1.0])  # h = 1/alpha
    if 12.0 * h <= m:
        ch, z = _C * h ** _J, zeta(_J, m)
        # m zeta(j+1, m) >= (j-1)/j zeta(j, m), equal as m -> inf, where zeta(j+1, m) underflows
        mz = np.maximum(m * zeta(_J + 1.0, m), z * (_J - 1.0) / _J)
        d, jac = ch @ z, np.column_stack([-(ch * _J) @ z, -(ch * _J) @ mz])
    else:
        k = np.array([1.0, 2.0, 3.0]) * h
        dg, d = psi(m + k), _W @ np.log(poch(m, k))
        jac = np.column_stack([-_W @ (k * dg), m * _W @ (dg - psi(m))])
    return d / target - 1.0, jac / target[:, None]


def _rho_bar(alpha, mu):
    """rho_bar from E[X] = Gamma(mu + h) / (mu^h Gamma(mu) rho_bar) = E[I] = 1, h = 1/alpha:
    log rho_bar = L(h) - h log mu, split as in _residual. Where 12 h <= mu it is h (psi(mu) -
    log mu) + sum_j _L_j zeta(j, mu) h^j, finite where mu^h overflows; below, it comes from
    poch. nan where the moment leaves the float range."""
    h = 1.0 / alpha
    try:
        return math.exp(h * (psi(mu) - math.log(mu)) + float((_L * h ** _J) @ zeta(_J, mu))
                        if 12.0 * h <= mu else math.log(poch(mu, h)) - h * math.log(mu))
    except (ArithmeticError, ValueError):
        return math.nan


def fit_alpha_mu(p: GammaGammaParams) -> FitResult:
    """Fit (alpha, mu, rho_bar) so the first three alpha-mu moments match the
    Gamma-Gamma moments of p. Raises NonConvergenceError (with the best
    iterate attached) if the residual stays above TOL or is nan, or alpha,
    mu or rho_bar is not finite."""
    iters = 0
    with np.errstate(all="ignore"):  # an infeasible trial point gives inf or nan, rejected
        # D of the unit-mean Gamma-Gamma law: log r2 = log((1 + 1/eta)(1 + 1/beta)) and
        # S = sum of log(1 - u^2), u = 1/(eta + 1) and 1/(beta + 1), with 1 - u = eta u
        v = np.array([p.eta, p.beta])
        u = 1.0 / (v + 1.0)
        s = np.where(v < 1.0, np.log(v * u * (1.0 + u)), np.log1p(-u * u))
        target = np.array([np.sum(np.log1p(1.0 / v)), np.sum(s)])
        # start at the alpha = 1 law with the same second-moment ratio 1 + 1/mu
        x = np.log([1.0, 1.0 / np.expm1(target[0])])
        f, jac = _residual(x, target)
        # Newton down to the rounding floor, not just to TOL: f's Jacobian has a
        # condition number near 18, so |f| = 1e-8 can leave alpha or mu 2e-7 off.
        # Within TOL only full steps are taken, so the floor ends it at once.
        while iters < MAX_ITER and np.any(f):
            try:
                dx = np.linalg.solve(jac, -f)
            except np.linalg.LinAlgError:
                break
            step = 1.0
            for _ in range(60 if np.max(np.abs(f)) > TOL else 1):  # halve until the norm drops
                xn = x + step * dx
                fn, jn = _residual(xn, target)
                if np.all(np.isfinite(fn)) and np.linalg.norm(fn) < np.linalg.norm(f):
                    break
                step *= 0.5
            else:
                break
            x, f, jac = xn, fn, jn
            iters += 1
        alpha, mu = (float(v) for v in np.exp(x))
        residual_norm = float(np.max(np.abs(f)))  # nan if either is nan
        rho_bar = _rho_bar(alpha, mu)
    failed = [f"{name} {v} is not finite" for name, v in
              (("alpha", alpha), ("mu", mu), ("rho_bar", rho_bar)) if not math.isfinite(v)]
    if not residual_norm <= TOL:  # nan included
        failed.insert(0, f"residual {residual_norm:.3e} is not within tol {TOL:.1e}")
    result = FitResult(alpha, mu, rho_bar, residual_norm, iters, converged=not failed)
    if failed:
        raise NonConvergenceError(f"fit_alpha_mu(eta={p.eta}, beta={p.beta}): {', '.join(failed)}, "
                                  f"at alpha {alpha:.6g}, mu {mu:.6g}", best=result)
    return result


def fit_diagnostics(fit: FitResult, p: GammaGammaParams, draws=None, rng=None) -> FitDiagnostics:
    """KS distance sup |F_GG - F_am| over the positive doubles, the x where it is taken,
    and the relative error of the unmatched fourth moment. 32 quantiles of the fitted law
    find the sup within 1/32; six rounds then put 9 points, each round a fifth as far
    apart, around the largest gap. draws and rng are ignored: nothing is sampled."""
    if not fit.converged:
        raise ValueError("fit_diagnostics requires a converged fit")
    # the envelope CDF with scale Omega = 1/rho_bar is the SNR-form CDF with exponent 2 alpha
    law = AlphaMuParams(2.0 * fit.alpha, fit.mu, 1.0 / fit.rho_bar)

    def gaps(q):
        with np.errstate(over="ignore"):  # a quantile past the doubles is clipped to them
            x = (gammaincinv(fit.mu, q) / fit.mu) ** (1.0 / fit.alpha) / fit.rho_bar
        x = np.clip(x, np.finfo(float).tiny, np.finfo(float).max)
        return x, np.abs(gamma_gamma_cdf(p, x) - alpha_mu_snr_cdf(law, x))

    q = (np.arange(32) + 0.5) / 32.0
    x, gap = gaps(q)
    for k in range(1, 7):  # each round keeps the best point, so the largest gap never drops
        q = np.clip(q[np.argmax(gap)] + np.arange(-4.0, 5.0) / (32.0 * 5.0 ** k), 0.0, 1.0)
        x, gap = gaps(q)
    best = np.argmax(gap)
    # log r4 = log E[X^4]/E[X]^4 = L(4h) - 4 L(h), split as in _residual, against the GG's
    h = 1.0 / fit.alpha
    log_r4 = (float((_C4 * h ** _J) @ zeta(_J, fit.mu)) if 12.0 * h <= fit.mu else
              math.log(poch(fit.mu, 4.0 * h)) - 4.0 * math.log(poch(fit.mu, h)))
    log_gg = sum(math.log1p(k / p.eta) + math.log1p(k / p.beta) for k in (1, 2, 3))
    return FitDiagnostics(float(gap[best]), abs(math.expm1(log_r4 - log_gg)), float(x[best]))
