import math
import warnings

import numpy as np
import pytest
from oracles import best_select_cdf, best_select_cdf_binomial, nth_best_alternating_sum

from relaylink.selection import SchedulingSpec, downlink_cdf, nth_best_cdf


def spec(k, n, up=1.0, down=1.0):
    return SchedulingSpec(k_total=k, n_order=n, uplink_mean_snr=up,
                          downlink_mean_snr=down)


# ------------------------------------------------------------ N-th best

def test_nth_best_closed_forms():
    # worst of 2 = min of two exponentials
    assert nth_best_cdf(spec(2, 2), 1.0) == pytest.approx(1.0 - math.exp(-2.0),
                                                          abs=1e-12)
    # N=1 is best selection
    assert nth_best_cdf(spec(3, 1), 1.0) == pytest.approx(
        (1.0 - math.exp(-1.0)) ** 3, abs=1e-12)


def test_nth_best_reduces_to_best_select():
    for k in (1, 2, 5, 9, 20):
        s = spec(k, 1, up=1.7)
        for g in np.linspace(0.0, 15.0, 40):
            assert nth_best_cdf(s, g) == pytest.approx(best_select_cdf(s, g),
                                                       abs=1e-12)


def test_best_select_product_equals_binomial_sum():
    # the best-of-K CDF (nth_best_cdf at N = 1) against its binomial expansion
    for k, gbar in [(1, 1.0), (2, 1.0), (5, 2.0), (10, 0.7)]:
        s = spec(k, 1, up=gbar)
        for g in np.linspace(0.0, 12.0, 60):
            assert nth_best_cdf(s, g) == pytest.approx(
                best_select_cdf_binomial(s, g), abs=1e-12)


def test_nth_best_exact_order_statistic():
    # closed form via binomial tail: P(N-th largest <= g) =
    # sum_{j=K-N+1}^{K} C(K,j) F^j (1-F)^{K-j}
    for k, n in [(3, 2), (5, 3), (7, 4), (12, 6), (20, 8), (40, 5)]:
        s = spec(k, n, up=1.3)
        for g in np.linspace(0.05, 10.0, 25):
            f = 1.0 - math.exp(-g / 1.3)
            expect = math.fsum(math.comb(k, j) * f ** j * (1.0 - f) ** (k - j)
                               for j in range(k - n + 1, k + 1))
            assert nth_best_cdf(s, g) == pytest.approx(expect, abs=1e-10)


def test_nth_best_monte_carlo_order_statistics():
    # empirical CDF of the 3rd largest of 5 exponentials
    rng = np.random.default_rng(314)
    trials = 10_000_000
    draws = rng.exponential(1.0, (trials, 5))
    third = np.sort(draws, axis=1)[:, 5 - 3]
    g = 0.8
    p_hat = np.count_nonzero(third <= g) / trials
    se = math.sqrt(p_hat * (1 - p_hat) / trials)
    assert abs(nth_best_cdf(spec(5, 3), g) - p_hat) < 3.0 * se


def test_nth_best_valid_cdf_grids():
    grid = np.linspace(0.0, 25.0, 200)
    for k in range(1, 11):
        for n in range(1, k + 1):
            s = spec(k, n, up=1.0)
            vals = [nth_best_cdf(s, g) for g in grid]
            assert vals[0] == 0.0
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(b >= a - 1e-14 for a, b in zip(vals, vals[1:]))
            assert vals[-1] > 1.0 - 1e-6


def test_nth_best_stochastic_ordering():
    grid = np.linspace(0.1, 8.0, 60)
    for k in (3, 6, 10):
        for g in grid:
            vals = [nth_best_cdf(spec(k, n), g) for n in range(1, k + 1)]
            assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))


def test_large_k_branch_continuity():
    # the incomplete-beta form agrees with the binomial-tail oracle on both
    # sides of K = 12, where an alternating-sum route would hand over to it
    for g in np.linspace(0.5, 6.0, 30):
        f = 1.0 - math.exp(-g)
        for k, n in [(12, 4), (13, 4)]:
            expect = math.fsum(math.comb(k, j) * f ** j * (1 - f) ** (k - j)
                               for j in range(k - n + 1, k + 1))
            assert nth_best_cdf(spec(k, n), g) == pytest.approx(expect, rel=1e-9)


def test_small_probability_absolute_accuracy():
    # at tiny arguments the alternating sum cancels; the incomplete-beta
    # form must stay near machine noise in absolute terms
    g = 0.1
    f = 1.0 - math.exp(-g)
    for k, n in [(12, 4), (13, 4)]:
        expect = math.fsum(math.comb(k, j) * f ** j * (1 - f) ** (k - j)
                           for j in range(k - n + 1, k + 1))
        assert nth_best_cdf(spec(k, n), g) == pytest.approx(expect, abs=1e-10)


def test_nth_best_matches_alternating_sum():
    # the compensated alternating binomial sum is an independent closed form;
    # where it is well conditioned (K <= 12, g >= 0.5) it must agree
    for k in range(1, 13):
        for n in range(1, k + 1):
            s = spec(k, n, up=1.3)
            for g in np.linspace(0.5, 12.0, 12):
                assert nth_best_cdf(s, g) == pytest.approx(
                    nth_best_alternating_sum(s, g), abs=1e-10)


# -------------------------------------------------------------- downlink

def test_downlink_cdf_values():
    assert downlink_cdf(spec(1, 1), 0.0) == 0.0
    assert downlink_cdf(spec(1, 1), 1.0) == pytest.approx(1.0 - math.exp(-1.0))
    assert downlink_cdf(spec(1, 1, down=3.0), 1.0) == pytest.approx(
        1.0 - math.exp(-1.0 / 3.0))


def test_rayleigh_cdfs_of_huge_array_gamma_emit_no_warning():
    # gamma / mean above the largest double must not overflow with a warning
    s = SchedulingSpec(3, 1, 0.01, 0.01)
    g = np.array([1e307])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert downlink_cdf(s, g).tolist() == [1.0]
        assert nth_best_cdf(s, g).tolist() == [1.0]


# ------------------------------------------------------------ validation

def test_scheduling_spec_validation():
    with pytest.raises(ValueError):
        SchedulingSpec(3, 4, 1.0, 1.0)
    with pytest.raises(ValueError):
        SchedulingSpec(0, 0, 1.0, 1.0)
    with pytest.raises(ValueError):
        SchedulingSpec(3, 1, -1.0, 1.0)
    for up, down in ((math.inf, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="finite and positive"):
            SchedulingSpec(3, 1, up, down)


def test_negative_gamma_rejected():
    s = spec(3, 2)
    for fn in (nth_best_cdf, downlink_cdf):
        with pytest.raises(ValueError):
            fn(s, -0.5)
