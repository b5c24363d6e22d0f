"""End-to-end analytic performance of the two-way relay system.

Exact outage probability of the two transmission phases, CDF-based average
symbol error probability by quadrature, and high-SNR asymptotics with
diversity-order / coding-gain classification.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import selection
from .channels import AlphaMuParams, alpha_mu_snr_cdf
from .selection import SchedulingSpec

_SQRT_PI = math.sqrt(math.pi)
ASEP_RTOL = 1e-8  # asep's tolerance, relative to the integral
_ROUGH_POINTS = 129  # the fixed grid of the scale estimate
_TINY = np.finfo(float).tiny  # the least normal float


@dataclass(frozen=True)
class SystemConfig:
    """Full two-way relay scenario.

    sr_model / rs_model are the alpha-mu laws of the S->R and R->S hops
    (FSO or backup RF); uplink/downlink Rayleigh parameters live in
    scheduling. gamma_th is the outage threshold, (mod_a, mod_b) the
    CDF-based ASEP modulation constants (BPSK: a = b = 1).
    """

    scheduling: SchedulingSpec
    sr_model: AlphaMuParams
    rs_model: AlphaMuParams
    gamma_th: float
    mod_a: float = 1.0
    mod_b: float = 1.0

    def __post_init__(self):
        if not (0 < self.gamma_th < math.inf and 0 < self.mod_a < math.inf and 0 < self.mod_b
                and 0 < math.sqrt(40.0 / self.mod_b) < math.inf):  # asep's upper limit
            raise ValueError(f"gamma_th, mod_a, sqrt(40 / mod_b) must be finite and positive, "
                             f"got ({self.gamma_th}, {self.mod_a}, {self.mod_b})")

    def all_mean_snrs(self):
        return (self.scheduling.uplink_mean_snr, self.scheduling.downlink_mean_snr,
                self.sr_model.mean_snr, self.rs_model.mean_snr)


@dataclass(frozen=True)
class PerfEstimate:
    """A probability estimate with its provenance."""

    value: float
    method: str  # exact | asymptotic | quadrature | monte_carlo
    std_error: float | None = None
    trials: int | None = None

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability out of range: {self.value}")
        if self.method == "monte_carlo":
            if self.std_error is None or self.trials is None:
                raise ValueError("monte_carlo estimates carry std_error and trials")
        elif self.std_error is not None:
            raise ValueError("std_error only applies to monte_carlo estimates")


@dataclass(frozen=True)
class AsymptoticReport:
    diversity_order: float
    coding_gain_terms: dict
    dominant: frozenset


def _either(f1, f2):
    """Probability that at least one of two independent events occurs."""
    return f1 + f2 - f1 * f2


def _phase1(c: SystemConfig, gamma):
    return _either(selection.nth_best_cdf(c.scheduling, gamma),
                   alpha_mu_snr_cdf(c.sr_model, gamma))


def _phase2(c: SystemConfig, gamma):
    return _either(selection.downlink_cdf(c.scheduling, gamma),
                   alpha_mu_snr_cdf(c.rs_model, gamma))


def phase1_outage(c: SystemConfig) -> float:
    """Outage of the uplink phase: N-th best RF uplink and S->R hop."""
    return _phase1(c, c.gamma_th)


def phase2_outage(c: SystemConfig) -> float:
    """Outage of the broadcast phase: R->N* downlink and R->S hop."""
    return _phase2(c, c.gamma_th)


def total_outage(c: SystemConfig) -> PerfEstimate:
    """Total two-phase outage ST1 + ST2 - ST1*ST2."""
    return PerfEstimate(_total_outage_value(c, c.gamma_th), method="exact")


def _total_outage_value(c: SystemConfig, gamma):
    """End-to-end outage F_tot at threshold gamma, a float or an array."""
    return _either(_phase1(c, gamma), _phase2(c, gamma))


def asep(c: SystemConfig) -> PerfEstimate:
    """Average symbol error probability by quadrature of the CDF-based
    integral (a sqrt(b) / 2 sqrt(pi)) * int e^{-b g} F_tot(g) / sqrt(g) dg.

    The substitution g = t^2 removes the endpoint singularity exactly,
    leaving (a sqrt(b) / sqrt(pi)) * int_0^T e^{-b t^2} F_tot(t^2) dt with
    e^{-b T^2} = e^{-40}, which adaptive Simpson evaluates to ASEP_RTOL
    relative to the integral, on the scale of a composite Simpson sum on a
    fixed grid: one array call of the core, like each level of the adaptive
    rule. Near g = 0, F_tot goes as g^(alpha mu / 2), which no fixed rule
    resolves for every alpha mu; the adaptive rule refines there as far as it must.
    """
    a, b = c.mod_a, c.mod_b
    top = math.sqrt(40.0 / b)

    def integrand(t):
        return np.exp(-b * t * t) * _total_outage_value(c, t * t)

    f = integrand(np.linspace(0.0, top, _ROUGH_POINTS))
    rough = top / (3.0 * (_ROUGH_POINTS - 1)) * float(
        f[0] + 4.0 * f[1::2].sum() + 2.0 * f[2:-1:2].sum() + f[-1])
    value = (a * math.sqrt(b) / _SQRT_PI
             * _adaptive_simpson(integrand, 0.0, top, tol=ASEP_RTOL * rough))
    return PerfEstimate(min(max(value, 0.0), 1.0), method="quadrature")


def _adaptive_simpson(f, a: float, b: float, tol: float = 1e-10,
                      max_depth: int = 60) -> float:
    """Adaptive Simpson integration of f over [a, b], level by level: f maps an
    array of nodes to their values, and one call takes the quarter points of
    every open interval (the first also a, b and the midpoint). An interval at
    depth d is accepted at its Richardson value when |delta| <= 15 tol / 2^d or
    d = max_depth: the recursive rule's leaves and nodes, summed exactly."""
    m = 0.5 * (a + b)
    fa, fm, fb, *quarters = f(np.array([a, m, b, 0.5 * (a + m), 0.5 * (m + b)]))
    open_ = np.array([[a], [b], [fa], [fm], [fb], [(b - a) / 6.0 * (fa + 4.0 * fm + fb)]])
    accepted, depth = [], 0
    while open_.size:
        lo, hi, fa, fm, fb, whole = open_
        mid = 0.5 * (lo + hi)
        quarters = f(np.concatenate([0.5 * (lo + mid), 0.5 * (mid + hi)])) if depth else quarters
        flm, frm = np.reshape(quarters, (2, -1))
        left = (mid - lo) / 6.0 * (fa + 4.0 * flm + fm)
        right = (hi - mid) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        done = (np.abs(delta) <= 15.0 * (tol / 2.0 ** depth)) | (depth >= max_depth)
        accepted.extend(left[done] + right[done] + delta[done] / 15.0)
        open_ = np.hstack([np.array([lo, mid, fa, flm, fm, left]),
                           np.array([mid, hi, fm, frm, fb, right])])[:, np.tile(~done, 2)]
        depth += 1
    return math.fsum(accepted)


def _finite_or_inf(f, x):
    """f(x), or inf where the result leaves the float range."""
    try:
        return f(x)
    except OverflowError:
        return math.inf


def _hop_term(link: AlphaMuParams):
    """(order, coefficient, log coefficient, scale) of an alpha-mu hop's
    high-SNR outage term: with lam = gamma_th / mean_snr, P(mu, mu lam^(alpha/2))
    ~ z^mu / Gamma(mu + 1) = mu^(mu-1) / Gamma(mu) * lam^(alpha mu / 2)."""
    mu = link.mu
    log_coef = (mu - 1.0) * math.log(mu) - math.lgamma(mu)
    return link.alpha * mu / 2.0, _finite_or_inf(math.exp, log_coef), log_coef, link.mean_snr


def _outage_terms(c: SystemConfig):
    """(order, coefficient, log coefficient, scale) of each high-SNR outage
    term coef * lam^order, lam = gamma_th / scale with scale its own link's, in
    summation order: the N-th best uplink (T1), the S->R and R->S hops, and
    the downlink (T3); a coefficient beyond the float range is inf. The uplink
    coefficient is Psi1 = C(K-1, N-1) K / (K-N+1) = C(K, N-1), rounded once;
    Psi2 = Gamma(mu, 0)/Gamma(mu) - 1 is identically zero and is dropped."""
    s = c.scheduling
    psi1 = math.comb(s.k_total, s.n_order - 1)
    uplink = (s.k_total - s.n_order + 1, _finite_or_inf(float, psi1), math.log(psi1))
    return [(*uplink, s.uplink_mean_snr), _hop_term(c.sr_model), _hop_term(c.rs_model),
            (1, 1.0, 0.0, s.downlink_mean_snr)]


def _power_term(order, coef, log_coef, lam):
    """coef * lam^order; where that overflows, exp(log_coef + order log lam)
    (inf where this does too), and 0 at lam = 0: every order is positive."""
    try:
        value = coef * lam ** order
    except OverflowError:
        value = math.inf
    return (value if math.isfinite(value) else 0.0 if not lam
            else _finite_or_inf(math.exp, log_coef + order * math.log(lam)))


def _ties(order, best):
    return abs(order - best) <= 1e-9 * max(best, 1.0)


def asymptotic_outage(c: SystemConfig) -> PerfEstimate:
    """High-SNR outage approximation: the sum of the per-link terms, each at
    its own link's scale."""
    value = 0.0  # a loop, not sum(): from Python 3.12 sum() compensates, changing bits
    for order, coef, log_coef, scale in _outage_terms(c):
        value += _power_term(order, coef, log_coef, c.gamma_th / scale)
    return PerfEstimate(min(value, 1.0), method="asymptotic")


def classify_asymptotics(c: SystemConfig) -> AsymptoticReport:
    """Diversity order and per-term coding gains of the high-SNR law
    Gc * SNR^{-Gd}.

    SNR is the uplink scale: each coefficient takes the factor (uplink scale /
    its link's scale)^order, and its log the log of that from the two scales'.
    T2 is the optical term: its order is the smaller alpha*mu/2 of the two
    hops, and its gain is derived from the asymptotic expression itself, from
    the hop or hops of that order, so that (Gc * SNR)^{-Gd} reproduces their
    summed term exactly (`_gain`). A gain beyond the float range is inf, and
    one below it 0.
    """
    ref = c.scheduling.uplink_mean_snr
    t1, *hops, t3 = [(order, _power_term(order, coef, log_coef, ref / scale),
                      log_coef + order * (math.log(ref) - math.log(scale)))
                     for order, coef, log_coef, scale in _outage_terms(c)]
    t2_order = min(order for order, _, _ in hops)
    tied = [(coef, log_coef) for order, coef, log_coef in hops if _ties(order, t2_order)]
    t2 = (t2_order, sum(coef for coef, _ in tied), logsumexp([lc for _, lc in tied]))
    terms = {"T1": t1, "T2": t2, "T3": t3}
    orders = {t: float(order) for t, (order, _, _) in terms.items()}
    diversity = min(orders.values())
    dominant = frozenset(t for t, d in orders.items() if _ties(d, diversity))
    gains = {t: _gain(*term, c.gamma_th) for t, term in terms.items()}
    return AsymptoticReport(diversity, gains, dominant)


def _gain(order, coef, log_coef, gamma_th):
    """coef^(-1/order) / gamma_th; from log_coef where coef is 0, subnormal or
    inf, and where the quotient leaves the float range (inf above it, 0 below)."""
    gain = (_finite_or_inf(functools.partial(pow, coef), -1.0 / order) if _TINY <= coef < math.inf
            else _finite_or_inf(math.exp, -log_coef / order)) / gamma_th
    return (gain if 0.0 < gain < math.inf
            else _finite_or_inf(math.exp, -log_coef / order - math.log(gamma_th)))


@dataclass(frozen=True)
class SweepRow:
    """One curve point: exact is the analytic value (the exact outage, or the
    ASEP by quadrature; its method says which), asymptotic the high-SNR
    outage of an outage row and None for an ASEP row."""

    value: float
    exact: PerfEstimate
    asymptotic: PerfEstimate | None
    mc: PerfEstimate | None


def _checked(metric: str) -> str:
    if metric not in ("outage", "asep"):
        raise ValueError(f"metric must be 'outage' or 'asep', got {metric!r}")
    return metric


def evaluate(c: SystemConfig, value, metric: str = "outage") -> SweepRow:
    """The analytic curve row of c at the swept value: metric "outage" gives
    the exact outage and its asymptote, at any link scales, "asep" the ASEP by
    quadrature and no asymptote."""
    exact, asym = ((total_outage(c), asymptotic_outage(c)) if _checked(metric) == "outage"
                   else (asep(c), None))
    return SweepRow(value=float(value), exact=exact, asymptotic=asym, mc=None)


def sweep(points, metric: str = "outage", mc=None):
    """The curve rows of points, (value, SystemConfig) pairs: an iterator
    that evaluate()s each row as it is read. mc, an optional McConfig, adds
    the Monte-Carlo column, which is computed in full by this call, from as
    few passes as the points allow (`_mc_column`)."""
    _checked(metric)
    points = list(points)
    column = [None] * len(points) if mc is None else _mc_column(points, metric, mc)
    return (dataclasses.replace(evaluate(c, value, metric), mc=est)
            for (value, c), est in zip(points, column))


def _mc_column(points, metric: str, mc) -> list[PerfEstimate]:
    """The Monte-Carlo estimate of each point, equal bit for bit to a run of
    its config alone. Outage points that share (K, N) share one pass; ASEP
    points whose four link scales are equal share one pass at their
    unit-scale config; any other ASEP point is a pass of its own config at scale 1."""
    from . import mcsim  # here, not at the top: mcsim imports this module
    groups = {}  # pass key -> [(index, config or scale)]
    for i, (_, c) in enumerate(points):
        if metric == "outage":
            groups.setdefault((c.scheduling.k_total, c.scheduling.n_order), []).append((i, c))
        elif len(set(snrs := c.all_mean_snrs())) == 1:  # at unit scale, scale snrs[0]
            groups.setdefault(configure(c, "mean_snr_db", 0.0), []).append((i, snrs[0]))
        else:
            groups.setdefault(c, []).append((i, 1.0))
    column = [None] * len(points)
    for key, members in groups.items():
        index, args = zip(*members)
        estimates = (mcsim.simulate_outage_grid(args, mc) if metric == "outage"
                     else mcsim.simulate_asep_grid(key, args, mc))
        for i, est in zip(index, estimates):
            column[i] = est
    return column


def db_to_linear(x_db: float) -> float:
    try:
        return 10.0 ** (float(x_db) / 10.0)
    except OverflowError:
        raise ValueError(f"{float(x_db)!r} dB is too large for a float") from None


def configure(c: SystemConfig, variable: str, value) -> SystemConfig:
    """c with one sweep variable set to value: mean_snr_db sets all four link
    averages (i.i.d. equal-power assumption), K / N the scheduling, or
    gamma_th the outage threshold."""
    if variable == "mean_snr_db":
        snr = db_to_linear(value)
        sched = dataclasses.replace(c.scheduling, uplink_mean_snr=snr,
                                    downlink_mean_snr=snr)
        return dataclasses.replace(
            c, scheduling=sched,
            sr_model=dataclasses.replace(c.sr_model, mean_snr=snr),
            rs_model=dataclasses.replace(c.rs_model, mean_snr=snr))
    if variable in ("K", "N"):
        if not float(value).is_integer():
            raise ValueError(f"{variable} must be an integer, got {value!r}")
        field = "k_total" if variable == "K" else "n_order"
        return dataclasses.replace(
            c, scheduling=dataclasses.replace(c.scheduling, **{field: int(value)}))
    if variable == "gamma_th":
        return dataclasses.replace(c, gamma_th=float(value))
    raise ValueError(f"variable must be mean_snr_db, K, N or gamma_th, got {variable!r}")
