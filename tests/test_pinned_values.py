"""Values pinned bit for bit, compared by repr: the fit diagnostic of the five
criterion-1 turbulence rows at fixed fitted parameters, and the high-SNR
outage and its classification on configurations with mixed hops and N > 1.
A rewrite of either CDF, of the KS search or of the high-SNR term table that
changes any bit fails here."""

import pytest

from relaylink.analysis import SystemConfig, asymptotic_outage, classify_asymptotics
from relaylink.channels import AlphaMuParams, GammaGammaParams
from relaylink.ggfit import FitResult, fit_diagnostics
from relaylink.selection import SchedulingSpec

# (eta, beta): fitted (alpha, mu, rho_bar) that the diagnostics below are pinned
# at; criterion 1 of the acceptance suite pins the fit itself
FITTED = {
    (21.5, 19.8): (0.5007048857891302, 40.62157205643522, 1.024512887707613),
    (9.7, 8.2): (0.5025396494980429, 17.1148561572114, 1.0575320121154574),
    (8.65, 7.14): (0.5032302983760161, 14.96867523973583, 1.0655022456738297),
    (4.0, 1.84): (0.5373201817338552, 4.003431888223959, 1.1976252253430701),
    (4.34, 1.3): (0.5802679291324885, 2.702867182674198, 1.2229713417239703),
}

# (eta, beta): (ks_distance, fourth_moment_rel_error, ks_at), all computed
FIT_DIAGNOSTICS = {
    (21.5, 19.8): (2.0654251421947656e-06, 4.5648410357810494e-07,
        0.8364747205536021),
    (9.7, 8.2): (1.8207853925700235e-05, 1.3748964489871854e-05,
        0.7933564425955294),
    (8.65, 7.14): (2.6378528633352882e-05, 2.3454468516774987e-05,
        0.7878073585161136),
    (4.0, 1.84): (0.0018380389451887608, 0.0021019000826701,
        0.11647053006532451),
    (4.34, 1.3): (0.004726953012106155, 0.005222758609137665,
        0.08861526672722934),
}

# (K, N, S->R (alpha, mu), R->S (alpha, mu), mean SNR, gamma_th):
# (asymptotic outage, diversity order, (T1, T2, T3) coding gains, dominant terms)
ASYMPTOTICS = {
    (3, 2, (2.0, 1.0), (1.68, 1.85), 1000.0, 1.0):
        (0.00204184931561894, 1.0, (0.5773502691896257, 1.0, 1.0), ("T2", "T3")),
    (5, 3, (0.5373201817338552, 4.003431888223959), (2.0, 2.0), 316.22776601683796, 2.0):
        (0.05256128817892264, 1.0, (0.23207944168063896, 0.05520068539571879, 0.5),
         ("T3",)),
    (4, 4, (1.0, 0.5), (3.0, 0.7), 10000.0, 0.5):
        (0.0673699540780525, 0.25, (0.5, 4.934802200544686, 2.0), ("T2",)),
    (2, 1, (2.0, 1.0), (2.0, 1.0), 100.0, 1.0):
        (0.030100000000000002, 1.0, (1.0, 0.5, 1.0), ("T2", "T3")),
    (6, 2, (0.579, 2.723), (4.1, 0.3), 100000.0, 3.0):
        (0.0022851526252209925, 0.6149999999999999,
         (0.23294237292385975, 0.5029812022366534, 0.3333333333333333), ("T2",)),
    (8, 5, (2.7312, 2.21), (0.9, 2.5), 1000000.0, 0.25):
        (3.6116199260987935e-07, 1.0, (1.382883138567764, 1.5183509212987447, 4.0),
         ("T3",)),
}


@pytest.mark.parametrize("eta,beta", list(FIT_DIAGNOSTICS))
def test_fit_diagnostics_pinned(eta, beta):
    p = GammaGammaParams(eta, beta)
    fit = FitResult(*FITTED[(eta, beta)], residual_norm=0.0, iterations=0, converged=True)
    diag = fit_diagnostics(fit, p)
    got = (repr(diag.ks_distance), repr(diag.fourth_moment_rel_error), repr(diag.ks_at))
    assert got == tuple(map(repr, FIT_DIAGNOSTICS[(eta, beta)]))


@pytest.mark.parametrize("key", list(ASYMPTOTICS))
def test_asymptotics_pinned(key):
    k, n, sr, rs, snr, gamma_th = key
    c = SystemConfig(SchedulingSpec(k, n, snr, snr), AlphaMuParams(*sr, snr),
                     AlphaMuParams(*rs, snr), gamma_th)
    report = classify_asymptotics(c)
    got = (repr(asymptotic_outage(c).value), repr(report.diversity_order),
           tuple(repr(report.coding_gain_terms[t]) for t in ("T1", "T2", "T3")),
           tuple(sorted(report.dominant)))
    value, diversity, gains, dominant = ASYMPTOTICS[key]
    assert got == (repr(value), repr(diversity), tuple(map(repr, gains)), dominant)
