"""Second routes to the library's closed forms, kept as test oracles.

Each one reaches a value the library computes by a different formula: the
expanded inclusion-exclusion form of the total outage, the best-of-K CDF
(the N-th-best CDF at N = 1) as a product and as a binomial expansion, the
binomial expansion of the N-th-best CDF, the lower incomplete gamma function
as a Mellin-Barnes contour integral, and the Monte-Carlo estimators with
each block drawn in sequence and built whole, the alpha-mu hops either
drawn from the block's Gamma variates, as the kernel draws them, or inverted
from the block's hop uniforms. The alpha-mu SNR and
envelope densities and the envelope moments are here too: the library needs
none of them, and the tests integrate the densities against its CDF and
substitute the moments into its fits. The envelope CDF is the library's one
alpha-mu CDF, called in its envelope parameters. The root of the moment
system that the fit solves is found here by mpmath, at a precision that
outlasts the cancellation of its log-gamma differences. The Gamma-Gamma law
has its moments and sampler here, its CDF as a Meijer G-function by mpmath and by
QUADPACK, and the Kolmogorov-Smirnov distance of a fit by a dense quantile
grid and golden-section search, none of it the library's code. The ASEP
integral is taken by QUADPACK over an end-to-end CDF built here from SciPy's
incomplete gamma and beta functions. Scalar densities are integrated by
QUADPACK too, and the recursive adaptive Simpson rule, one node per call,
checks the library's level-by-level one.
"""

import math

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import (betainc, erfc, gammainc, gammaincc, gammaincinv, gammaln,
                           loggamma)

from relaylink import mcsim
from relaylink.channels import AlphaMuParams, alpha_mu_snr_cdf
from relaylink.selection import downlink_cdf, nth_best_cdf


def total_outage_expanded(c):
    """Total outage expanded over the four link CDFs (inclusion-exclusion
    form of the closed-form expression)."""
    g = c.gamma_th
    fs = (nth_best_cdf(c.scheduling, g), alpha_mu_snr_cdf(c.sr_model, g),
          downlink_cdf(c.scheduling, g), alpha_mu_snr_cdf(c.rs_model, g))
    f1, f2, f3, f4 = fs
    total = math.fsum(fs)
    total -= math.fsum(fs[i] * fs[j] for i in range(4) for j in range(i + 1, 4))
    total += math.fsum(fs[i] * fs[j] * fs[k]
                       for i in range(4) for j in range(i + 1, 4) for k in range(j + 1, 4))
    total -= f1 * f2 * f3 * f4
    return total


def _log_survival(cdf, sf):
    # log(1 - F) from whichever of F and 1 - F is the accurate small one
    return math.log1p(-cdf) if cdf < 0.5 else math.log(sf) if sf > 0.0 else -math.inf


def total_outage_direct(c, g):
    """F_tot(g) = 1 - prod(1 - F_i) over the four links, formed as
    -expm1(sum(log S_i)): the N-th best of K uplinks by betainc, the alpha-mu
    hops by gammainc and gammaincc, the Rayleigh downlink by exp."""
    if g <= 0.0:
        return 0.0
    s = c.scheduling
    k, n = s.k_total, s.n_order
    log_sf = _log_survival(float(betainc(k - n + 1, n, -math.expm1(-g / s.uplink_mean_snr))),
                           float(betainc(n, k - n + 1, math.exp(-g / s.uplink_mean_snr))))
    log_sf -= g / s.downlink_mean_snr
    for hop in (c.sr_model, c.rs_model):
        with np.errstate(over="ignore"):  # z = inf: the hop is surely in outage
            z = hop.mu * np.float64(g / hop.mean_snr) ** (hop.alpha / 2.0)
        log_sf += _log_survival(float(gammainc(hop.mu, z)), float(gammaincc(hop.mu, z)))
    return -math.expm1(log_sf)


def asep_quad(c):
    """The CDF-based ASEP (a sqrt(b) / sqrt(pi)) int_0^inf e^{-b t^2}
    F_tot(t^2) dt by QUADPACK at epsrel 1e-12, split at the Gaussian scale
    and, inside it, at each hop's 1e-9, 0.5 and 1 - 1e-9 quantiles: a hop with
    large alpha mu steps from 0 to 1 over a width no Gauss-Kronrod node of a
    wide piece need land in (alpha = mu = 100 steps within 0.3% of t = 1)."""
    a, b = c.mod_a, c.mod_b

    def f(t):
        return math.exp(-b * t * t) * total_outage_direct(c, t * t)

    edge = 1.0 / math.sqrt(b)
    with np.errstate(over="ignore", under="ignore"):
        steps = {math.sqrt(hop.mean_snr)
                 * np.float64(gammaincinv(hop.mu, q) / hop.mu) ** (1.0 / hop.alpha)
                 for hop in (c.sr_model, c.rs_model) for q in (1e-9, 0.5, 1.0 - 1e-9)}
    ends = sorted({0.0, edge, 6.0 * edge, math.inf}
                  | {t for t in steps if 0.0 < t < 6.0 * edge})
    return a * math.sqrt(b / math.pi) * math.fsum(
        quad(f, lo, hi, epsabs=0.0, epsrel=1e-12, limit=400)[0]
        for lo, hi in zip(ends, ends[1:]))


def quad_value(f, a, b):
    """int_a^b f of a scalar f by QUADPACK at 1e-13, absolute or relative, in u
    with x = a + (b - a) u^2, which smooths a power singularity at or just
    below a. In x, QUADPACK's extrapolation takes a density going as x^-1/2
    from 0 to be singular at a itself: over [1e-11, 1e-3] it adds 1e-6."""
    return quad(lambda u: 2.0 * (b - a) * u * f(a + (b - a) * u * u), 0.0, 1.0,
                epsabs=1e-13, epsrel=1e-13, limit=400)[0]


def simpson_recursive(f, a, b, tol=1e-10, max_depth=60):
    """Adaptive Simpson integration of a scalar f over [a, b], depth first:
    an interval at depth d is accepted, at its Richardson value, when its
    halves agree with it to 15 tol / 2^d, or at depth max_depth."""
    fa, fb = f(a), f(b)
    fm = f(0.5 * (a + b))
    return _simpson_step(f, a, b, fa, fm, fb, (b - a) / 6.0 * (fa + 4.0 * fm + fb),
                         tol, max_depth)


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_simpson_step(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _simpson_step(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def best_select_cdf(s, gamma):
    """CDF of the best of K i.i.d. exponential SNRs: (1 - e^{-g/gbar})^K."""
    return (-math.expm1(-gamma / s.uplink_mean_snr)) ** s.k_total


def best_select_cdf_binomial(s, gamma):
    """(1 - e^{-g/gbar})^K expanded through the binomial theorem."""
    k_tot = s.k_total
    terms = [
        math.comb(k_tot - 1, k) * (-1.0) ** k / (k + 1)
        * -math.expm1(-(k + 1) * gamma / s.uplink_mean_snr)
        for k in range(k_tot)
    ]
    return k_tot * math.fsum(terms)


def nth_best_alternating_sum(s, gamma):
    """N-th best CDF as the compensated alternating binomial sum
    K C(K-1, N-1) sum_k C(K-N, k) (-1)^k / (k+N) (1 - e^{-(k+N) g/gbar}).
    It cancels catastrophically at small g and large K."""
    k_tot, n = s.k_total, s.n_order
    terms = [
        math.comb(k_tot - n, k) * (-1.0) ** k / (k + n)
        * -math.expm1(-(k + n) * gamma / s.uplink_mean_snr)
        for k in range(k_tot - n + 1)
    ]
    return k_tot * math.comb(k_tot - 1, n - 1) * math.fsum(terms)


def alpha_mu_envelope_cdf(alpha, mu, omega, h):
    """The envelope CDF P(mu, mu (h/Omega)^alpha) as the library evaluates it:
    its SNR-form CDF with exponent 2 alpha and scale Omega."""
    return alpha_mu_snr_cdf(AlphaMuParams(2.0 * alpha, mu, omega), h)


def alpha_mu_envelope_pdf(alpha: float, mu: float, omega: float, h: float) -> float:
    """alpha-mu envelope density with envelope scale Omega = E[h^alpha]^(1/alpha)."""
    if not (alpha > 0 and mu > 0 and omega > 0):
        raise ValueError("alpha, mu, omega must be positive")
    if h < 0:
        raise ValueError(f"h must be nonnegative, got {h}")
    if h == 0.0:
        # limit: density is 0 unless alpha*mu == 1, where it is alpha*mu^mu/(Gamma(mu)*Omega)
        if alpha * mu == 1.0:
            return alpha * math.exp(mu * math.log(mu) - math.lgamma(mu)) / omega
        return 0.0 if alpha * mu > 1.0 else math.inf
    log_pdf = (math.log(alpha) + mu * math.log(mu) + (alpha * mu - 1.0) * math.log(h)
               - math.lgamma(mu) - alpha * mu * math.log(omega)
               - mu * (h / omega) ** alpha)
    return math.exp(log_pdf)


def alpha_mu_snr_pdf(p: AlphaMuParams, gamma: float) -> float:
    """SNR density of the alpha-mu law p, evaluated in log space so large
    fading parameters and small SNRs do not overflow."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    a, mu, gbar = p.alpha, p.mu, p.mean_snr
    if gamma == 0.0:
        if a * mu == 2.0:
            return math.exp(mu * math.log(mu) - math.lgamma(mu)
                            + math.log(a / 2.0) - (a * mu / 2.0) * math.log(gbar))
        return 0.0 if a * mu > 2.0 else math.inf
    log_pdf = (math.log(a / 2.0) + mu * (math.log(mu) - (a / 2.0) * math.log(gbar))
               - math.lgamma(mu) + (a * mu / 2.0 - 1.0) * math.log(gamma)
               - mu * (gamma / gbar) ** (a / 2.0))
    return math.exp(log_pdf)


def alpha_mu_moment(alpha: float, mu: float, rho_bar: float, n: int) -> float:
    """n-th envelope moment, rho_bar^{-n} Gamma(mu + n/alpha) / (mu^{n/alpha} Gamma(mu))."""
    if not (alpha > 0 and mu > 0 and rho_bar > 0):
        raise ValueError("alpha, mu, rho_bar must be positive")
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return math.exp(-n * math.log(rho_bar) + math.lgamma(mu + n / alpha)
                    - (n / alpha) * math.log(mu) - math.lgamma(mu))


def lower_gamma(z, mu):
    """Lower incomplete gamma gamma(mu, z) = Gamma(mu) P(mu, z), the Meijer-G
    kernel G^{1,1}_{1,2}[z | 1; mu, 0] of the link CDFs, with P taken from
    the library's CDF (alpha = 2, mean SNR = mu)."""
    return alpha_mu_snr_cdf(AlphaMuParams(2.0, mu, mu), z) * math.gamma(mu)


def mellin_barnes_lower_gamma(mu, z, tmax=200.0, dt=1e-3):
    """Independent contour-integral oracle: the lower incomplete gamma as
    (1/2*pi*i) * integral of Gamma(mu - s) z^s / s ds along Re(s) = c with
    0 < c < mu, evaluated by trapezoid on |Im s| <= tmax."""
    c = 0.5 * min(mu, 1.0)
    t = np.arange(-tmax, tmax + dt / 2, dt)
    s = c + 1j * t
    vals = np.exp(loggamma(mu - s) + s * math.log(z)) / s
    return float((np.trapezoid(vals, dx=dt) / (2.0 * math.pi)).real)


def blocks(mc):
    """(stream id, trials) of each block of mc.trials: as many full blocks
    of `mcsim._CHUNK` trials as fit, then one of the rest, if any."""
    full, rest = divmod(mc.trials, mcsim._CHUNK)
    return [(i, mcsim._CHUNK) for i in range(full)] + ([(full, rest)] if rest else [])


def block_uniforms(c, rng, size):
    """A block's uniforms drawn in sequence from its stream rng: K uplink
    variates a trial, then the downlink, S->R and R->S variates of all
    trials."""
    return (rng.random((size, c.scheduling.k_total)), rng.random(size),
            rng.random(size), rng.random(size))


def end_to_end_snr_full(c, rng, size):
    """End-to-end SNR of a block of `size` trials from its fresh stream rng,
    with every link transformed: log1p on all K uplink variates, drawn as
    in `block_uniforms`, a full sort, the downlink, and then the S->R and
    R->S hops mean_snr·(G/mu)**(2/alpha) of Gamma(mu) variates G drawn in
    turn from rng."""
    sched = c.scheduling
    u_up, u_dn = rng.random((size, sched.k_total)), rng.random(size)
    g_up_all = -sched.uplink_mean_snr * np.log1p(-u_up)
    g_up = np.sort(g_up_all, axis=1)[:, sched.k_total - sched.n_order]
    g_dn = -sched.downlink_mean_snr * np.log1p(-u_dn)
    g_sr, g_rs = (p.mean_snr * np.power(rng.standard_gamma(p.mu, size) / p.mu, 2.0 / p.alpha)
                  for p in (c.sr_model, c.rs_model))
    return np.minimum(np.minimum(g_up, g_sr), np.minimum(g_dn, g_rs))


def hop_inverse(p, u):
    """The SNR x of alpha-mu hop p with alpha_mu_snr_cdf(p, x) = u, through
    `scipy.special.gammaincinv`."""
    return p.mean_snr * (gammaincinv(p.mu, u) / p.mu) ** (2.0 / p.alpha)


def end_to_end_snr_inverse(c, rng, size):
    """End-to-end SNR of a block of `size` trials with every link inverted
    from its uniform of `block_uniforms`, the alpha-mu hops by `hop_inverse`:
    the SNR whose threshold test is the outage kernel's word compare."""
    sched = c.scheduling
    u_up, u_dn, u_sr, u_rs = block_uniforms(c, rng, size)
    g_up = np.sort(-sched.uplink_mean_snr * np.log1p(-u_up), axis=1)[
        :, sched.k_total - sched.n_order]
    g_dn = -sched.downlink_mean_snr * np.log1p(-u_dn)
    g_sr, g_rs = hop_inverse(c.sr_model, u_sr), hop_inverse(c.rs_model, u_rs)
    return np.minimum(np.minimum(g_up, g_sr), np.minimum(g_dn, g_rs))


def simulate_outage_blocks(c, mc):
    """(value, std_error) of the outage estimate, one whole block at a time
    from `block_uniforms`, with the uplink outages counted row by row."""
    sched = c.scheduling
    f_ray = -math.expm1(-c.gamma_th / sched.uplink_mean_snr)
    f_sr = alpha_mu_snr_cdf(c.sr_model, c.gamma_th)
    f_dn = -math.expm1(-c.gamma_th / sched.downlink_mean_snr)
    f_rs = alpha_mu_snr_cdf(c.rs_model, c.gamma_th)
    need = sched.k_total - sched.n_order + 1
    hits = 0
    for sid, size in blocks(mc):
        u_up, u_dn, u_sr, u_rs = block_uniforms(c, mcsim.rng_stream(mc.seed, sid), size)
        up_out = np.count_nonzero(u_up <= f_ray, axis=1) >= need
        out = up_out | (u_sr <= f_sr) | (u_dn <= f_dn) | (u_rs <= f_rs)
        hits += int(np.count_nonzero(out))
    p_hat = hits / mc.trials
    return p_hat, math.sqrt(max(p_hat * (1.0 - p_hat), 0.0) / mc.trials)


def simulate_asep_blocks(c, mc):
    """(value, std_error) of the ASEP estimate, one whole block at a time
    from `end_to_end_snr_full`."""
    a, b = c.mod_a, c.mod_b
    sums = []
    for sid, size in blocks(mc):
        pe = 0.5 * a * erfc(np.sqrt(b * end_to_end_snr_full(
            c, mcsim.rng_stream(mc.seed, sid), size)))
        sums.append((float(np.sum(pe)), float(np.sum(pe * pe))))
    n = mc.trials
    mean = math.fsum(s for s, _ in sums) / n
    var = max(math.fsum(q for _, q in sums) / n - mean * mean, 0.0)
    return min(max(mean, 0.0), 1.0), math.sqrt(var / n)


def moment_fit_root(eta, beta):
    """(alpha, mu) of the alpha-mu law whose moment ratios r_n = E[X^n]/E[X]^n
    equal the Gamma-Gamma ones, (eta)_n (beta)_n / (eta beta)^n, for n = 2, 3:
    the root of criterion 1's two equations, by mpmath.findroot in (log alpha,
    log mu) on (log r2, log r3 - 3 log r2), each relative to its Gamma-Gamma
    value, and checked to 1e-20 of it. The alpha-mu side is a sum of
    log-gammas of size mu log mu, mu ~ 4 eta beta / (eta + beta), that cancels
    down to r3 / r2^3 - 1 ~ 1/eta^2 + 1/beta^2, so about three digits a decade
    of the larger parameter are lost; the precision grows to match."""
    digits = 30 + 3 * max(0, math.ceil(math.log10(max(eta, beta))))
    with mpmath.workdps(digits):
        e, b = mpmath.mpf(eta), mpmath.mpf(beta)
        gg2, gg3 = (mpmath.log(mpmath.rf(e, n) * mpmath.rf(b, n) / (e * b) ** n) for n in (2, 3))
        target = (gg2, gg3 - 3 * gg2)
        w = ((-2, 1, 0), (3, -3, 1))  # (log r2, log r3 - 3 log r2) from L(h), L(2h), L(3h)

        def f(log_a, log_m):  # L(t) = lgamma(mu + t) - lgamma(mu), h = 1/alpha
            h, m = mpmath.exp(-log_a), mpmath.exp(log_m)
            lg = [mpmath.loggamma(m + k * h) - mpmath.loggamma(m) for k in (1, 2, 3)]
            return [mpmath.fdot(row, lg) / t - 1 for row, t in zip(w, target)]

        def jac(log_a, log_m):
            h, m = mpmath.exp(-log_a), mpmath.exp(log_m)
            dg = [mpmath.digamma(m + k * h) for k in (1, 2, 3)]
            cols = ([-k * h * g for k, g in zip((1, 2, 3), dg)],
                    [m * (g - mpmath.digamma(m)) for g in dg])
            return mpmath.matrix([[mpmath.fdot(row, col) / t for col in cols]
                                  for row, t in zip(w, target)])

        # start from the large-mu law: log r2 ~ h^2 / mu, r3 / r2^3 - 1 ~ -h^3 / mu^2
        h = target[0] ** 2 / -target[1]
        root = mpmath.findroot(f, [-mpmath.log(h), mpmath.log(h * h / target[0])], J=jac,
                               tol=mpmath.mpf(10) ** -40, maxsteps=50, verify=False)
        worst = max(abs(v) for v in f(*root))
        if worst > mpmath.mpf("1e-20"):
            raise ArithmeticError(f"moment_fit_root({eta}, {beta}): residual {worst}")
        return float(mpmath.exp(root[0])), float(mpmath.exp(root[1]))


def gamma_gamma_moment(p, n):
    """n-th moment of the unit-mean Gamma-Gamma law, (eta)_n (beta)_n / (eta beta)^n,
    as the product of (1 + k/eta)(1 + k/beta) over k < n: a few ulps at any eta, beta."""
    if n < 1:
        raise ValueError(f"n must be a positive integer, got {n}")
    return math.prod(((1.0 + k / p.eta) * (1.0 + k / p.beta) for k in range(1, n)), start=1.0)


def gamma_gamma_sample(p, rng, size=None):
    """Draw from the unit-mean Gamma-Gamma law as a product of two independent
    Gamma variates with shapes (eta, beta) and scales (1/eta, 1/beta)."""
    x = rng.gamma(p.eta, 1.0 / p.eta, size)
    y = rng.gamma(p.beta, 1.0 / p.beta, size)
    return x * y


def gamma_gamma_cdf_meijerg(eta, beta, x):
    """P(I <= x) of the unit-mean Gamma-Gamma law at 30 digits,
    G^{2,1}_{1,3}(eta beta x | 1; eta, beta, 0) / (Gamma(eta) Gamma(beta))."""
    with mpmath.workdps(30):
        e, b = mpmath.mpf(eta), mpmath.mpf(beta)
        g = mpmath.meijerg([[1], []], [[e, b], [0]], e * b * mpmath.mpf(x))
        return float(g / (mpmath.gamma(e) * mpmath.gamma(b)))


def gamma_gamma_cdf_quad(eta, beta, x):
    """P(I <= x) = E[P(beta, eta beta x / Y)], Y ~ Gamma(eta, 1), by QUADPACK in
    t = log Y, split at the mode of Y and at the step of the inner CDF."""
    if x == 0.0:
        return 0.0

    def f(t):  # at the far ends e^t or e^-t is inf, and the term 0
        return np.exp(eta * t - np.exp(t) - gammaln(eta)) * gammainc(beta, eta * beta * x
                                                                     * np.exp(-t))

    ends = [-math.inf, *sorted((math.log(eta), math.log(eta * x))), math.inf]
    with np.errstate(over="ignore"):
        return math.fsum(quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13, limit=200)[0]
                         for lo, hi in zip(ends, ends[1:]))


def ks_distance_oracle(alpha, mu, rho_bar, eta, beta, grid=200):
    """sup over x of |F_GG(x) - F(x)|, F the alpha-mu envelope CDF
    P(mu, mu (rho_bar x)^alpha): QUADPACK F_GG on `grid` quantiles of F, then
    a golden-section search around each of the two largest local maxima."""
    def gap(q):
        x = (gammaincinv(mu, q) / mu) ** (1.0 / alpha) / rho_bar
        return abs(gamma_gamma_cdf_quad(eta, beta, x) - gammainc(mu, mu * (rho_bar * x) ** alpha))

    q = (np.arange(grid) + 0.5) / grid
    d = np.array([gap(v) for v in q])
    peaks = [i for i in range(grid) if d[i] >= d[max(i - 1, 0)] and d[i] >= d[min(i + 1, grid - 1)]]
    best = float(d.max())
    for i in sorted(peaks, key=lambda i: -d[i])[:2]:
        lo, hi = q[max(i - 1, 0)], q[min(i + 1, grid - 1)]
        r = (math.sqrt(5.0) - 1.0) / 2.0
        while hi - lo > 1e-10:
            a, b = hi - r * (hi - lo), lo + r * (hi - lo)
            if gap(a) >= gap(b):
                hi = b
            else:
                lo = a
        best = max(best, gap(0.5 * (lo + hi)))
    return best
