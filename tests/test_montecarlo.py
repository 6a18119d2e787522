"""Chunked Monte Carlo estimators and the z-score gate."""

import numpy as np
import pytest

from wickchaos.chaos import ChaosVector, inner_product, l2_norm
from wickchaos.errors import DomainError, MismatchError
from wickchaos.montecarlo import (ZSCORE_THRESHOLD, Estimate,
                                  estimate_expectation, estimate_lp_norm,
                                  estimate_pair_expectation, mean_estimate,
                                  zscore_check)
from wickchaos.multiindex import MultiIndex
from wickchaos.renormalization import PolySeries, wick_order_icopy_mc


def random_chaos(rng, dim, degree, max_order=None, n_terms=5):
    if max_order is None:
        max_order = degree
    terms = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        alpha = MultiIndex.from_indices(tuple(rng.integers(0, dim, size=d)))
        terms[alpha] = terms.get(alpha, 0.0) + float(rng.normal())
    return ChaosVector(dim, max_order, terms)


def test_mean_estimate_deterministic():
    fn = lambda x: x[:, 0] ** 2
    a = mean_estimate(fn, dim=1, n=50000, seed=3)
    b = mean_estimate(fn, dim=1, n=50000, seed=3)
    assert a.value == b.value and a.std_error == b.std_error
    assert a.n_samples == 50000 and a.seed == 3
    c = mean_estimate(fn, dim=1, n=50000, seed=4)
    assert c.value != a.value


def test_worker_count_does_not_change_bits():
    fn = lambda x: np.cos(x[:, 0]) + x[:, 1]
    n = 3 * (1 << 16) + 777  # several chunks plus a ragged tail
    serial = mean_estimate(fn, dim=2, n=n, seed=7, workers=None)
    for workers in (1, 2, 4):
        par = mean_estimate(fn, dim=2, n=n, seed=7, workers=workers)
        assert par.value == serial.value
        assert par.std_error == serial.std_error


def test_mean_estimate_accuracy():
    # E[cos(Z)] = exp(-1/2)
    est = mean_estimate(lambda x: np.cos(x[:, 0]), dim=1, n=200000, seed=1)
    assert abs(est.value - np.exp(-0.5)) < 4 * est.std_error
    assert est.std_error < 1e-2


def test_validation():
    with pytest.raises(ValueError):
        mean_estimate(lambda x: x[:, 0], dim=1, n=1, seed=0)
    F = ChaosVector.constant(1.0, 1, 1)
    for p in (0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="p must be"):
            estimate_lp_norm(F, p, n=100, seed=0)


@pytest.mark.filterwarnings("error")
def test_an_overflowing_sum_is_loud():
    # 1e160 H_1 is finite at every sample, but its square overflows: the
    # sum of squares is inf, which must not read as a zero standard error
    F = ChaosVector(1, 1, {MultiIndex([(0, 1)]): 1e160})
    for estimate in (lambda: estimate_expectation(F, 4096, 0),
                     lambda: estimate_expectation(F, 3 * (1 << 16) + 5, 0, workers=2),
                     lambda: estimate_lp_norm(F, 2.0, 4096, 0),
                     lambda: mean_estimate(lambda x: np.full(len(x), np.nan), 1, 100, 0),
                     lambda: wick_order_icopy_mc(
                         PolySeries(1, {MultiIndex([(0, 200)]): 1.0}, truncation=200),
                         None, [[30.0]], 1000, 1)):
        with pytest.raises(DomainError, match="not finite"):
            estimate()
    # both sums of 1e151 + 1e140 H_1 over 4096 samples are finite, but the
    # square of the sum in the variance is not
    G = ChaosVector(1, 1, {MultiIndex([]): 1e151, MultiIndex([(0, 1)]): 1e140})
    with pytest.raises(DomainError, match="not finite"):
        estimate_expectation(G, 4096, 0)


def test_estimate_expectation_constant_has_zero_se():
    F = ChaosVector.constant(2.5, 2, 3)
    est = estimate_expectation(F, n=1000, seed=0)
    assert est.value == 2.5
    assert est.std_error == 0.0
    assert zscore_check(est, 2.5) == 0.0
    with pytest.raises(MismatchError):
        zscore_check(est, 2.4)


def test_estimate_expectation_of_hermite():
    # every nonconstant basis element has mean zero
    F = ChaosVector(1, 3, {MultiIndex([(0, 3)]): 1.0})
    est = estimate_expectation(F, n=100000, seed=5)
    assert abs(est.value) < 4 * est.std_error


def test_pair_expectation_matches_inner_product():
    rng = np.random.default_rng(6)
    for trial in range(5):
        F = random_chaos(rng, 2, 3)
        G = random_chaos(rng, 2, 3)
        est = estimate_pair_expectation(F, G, n=200000, seed=20 + trial)
        exact = inner_product(F, G)
        assert abs(est.value - exact) < 4.5 * est.std_error


def test_lp_norm_estimator():
    rng = np.random.default_rng(7)
    F = random_chaos(rng, 2, 2)
    est = estimate_lp_norm(F, 2.0, n=400000, seed=9)
    assert abs(est.value - l2_norm(F)) < 4 * est.std_error
    # delta method keeps the standard error finite and positive
    assert 0 < est.std_error < 0.1


def test_se_scales_like_sqrt_n():
    fn = lambda x: np.exp(x[:, 0] / 2.0)
    small = mean_estimate(fn, dim=1, n=10 ** 4, seed=11)
    large = mean_estimate(fn, dim=1, n=10 ** 6, seed=11)
    ratio = large.std_error / small.std_error
    assert abs(ratio - 0.1) < 0.02


def test_zscore_definition():
    est = Estimate(value=1.5, std_error=0.25, n_samples=100, seed=0)
    assert est.zscore(1.0) == 2.0
    assert zscore_check(est, 1.0) == 2.0
    assert ZSCORE_THRESHOLD == 3.0


@pytest.mark.heavy
def test_mc_identity_battery():
    rng = np.random.default_rng(8)
    for trial in range(10):
        F = random_chaos(rng, 3, 3)
        est = estimate_expectation(F, n=10 ** 6, seed=1000 + trial)
        exact = F.coeff(MultiIndex(()))
        assert abs(est.value - exact) < 5 * max(est.std_error, 1e-12)


@pytest.mark.heavy
def test_pair_identity_battery():
    # E[FG] = <F, G>, F and G read by one joint contraction per chunk
    rng = np.random.default_rng(12)
    for trial in range(10):
        F = random_chaos(rng, 3, 3)
        G = random_chaos(rng, 3, 3)
        est = estimate_pair_expectation(F, G, n=10 ** 6, seed=2000 + trial)
        assert abs(est.value - inner_product(F, G)) < 5 * max(est.std_error, 1e-12)
