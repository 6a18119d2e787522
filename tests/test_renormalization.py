"""Wick ordering of polynomials and the Wick exponential."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import wickchaos.montecarlo as montecarlo
from wickchaos.chaos import (ChaosVector, add, coeff_distance, evaluate_at,
                             gamma_norm, l2_norm, scale, wick_product)
from wickchaos.errors import (DimensionMismatchError, DivergenceError,
                              DomainError, OrderOverflowError)
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.renormalization import (PolySeries, chaos_to_poly,
                                       negative_definite, poly_add, poly_eval,
                                       poly_mul, poly_power, poly_scale,
                                       poly_to_chaos, renorm_product_check,
                                       series_condition, wick_exp_I2,
                                       wick_exp_square, wick_order_icopy_exact,
                                       wick_order_icopy_mc, wick_order_poly)
from wickchaos.sampling import chunk_layout
from wickchaos.tensors import SymTensor

from helpers import expect_1d, hermite_np


def random_poly(rng, dim, degree, n_terms=5, truncation=None):
    if truncation is None:
        truncation = degree
    terms = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        alpha = MultiIndex.from_indices(tuple(rng.integers(0, dim, size=d)))
        terms[alpha] = terms.get(alpha, 0.0) + float(rng.normal())
    return PolySeries(dim, terms, truncation)


def x_var(i=0, dim=1, truncation=8):
    return PolySeries.variable(i, dim, truncation)


def test_poly_basics():
    p = PolySeries(2, {MultiIndex([(0, 2)]): 1.0, EMPTY: -3.0}, truncation=4)
    assert poly_eval(p, [2.0, 9.0]) == 1.0
    assert p.degree() == 2
    with pytest.raises(OrderOverflowError):
        PolySeries(1, {MultiIndex([(0, 3)]): 1.0}, truncation=2)
    with pytest.raises(DimensionMismatchError):
        PolySeries(1, {MultiIndex([(1, 1)]): 1.0})
    # zero coefficients are dropped
    assert PolySeries(1, {EMPTY: 0.0}).terms == {}
    with pytest.raises(ValueError):
        PolySeries(1, {}, truncation=-1)


def test_poly_series_shares_the_chaos_store():
    p = PolySeries(2, {MultiIndex([(0, 1)]): 2.0, EMPTY: 1.0}, truncation=4)
    assert type(add(p, p)) is PolySeries
    assert type(scale(p, 2.0)) is PolySeries
    assert type(poly_mul(p, p)) is PolySeries
    assert type(poly_power(p, 3)) is PolySeries
    # same terms, different basis: a polynomial is never a chaos vector
    F = ChaosVector(2, 4, p.terms, prune=0.0)
    assert F.terms == p.terms
    assert p != F and F != p


def test_poly_arithmetic_pointwise():
    rng = np.random.default_rng(0)
    for _ in range(20):
        p = random_poly(rng, 2, 3, truncation=12)
        q = random_poly(rng, 2, 3, truncation=12)
        x = rng.normal(size=2)
        assert abs(poly_eval(poly_add(p, q), x)
                   - poly_eval(p, x) - poly_eval(q, x)) < 1e-10
        prod = poly_mul(p, q)
        assert abs(poly_eval(prod, x)
                   - poly_eval(p, x) * poly_eval(q, x)) < 1e-8
        assert abs(poly_eval(poly_scale(p, -2.5), x)
                   + 2.5 * poly_eval(p, x)) < 1e-10
        cube = poly_power(p, 3)
        assert abs(poly_eval(cube, x) - poly_eval(p, x) ** 3) < 1e-6 * max(
            1.0, abs(poly_eval(p, x)) ** 3)


def test_poly_mul_overflow_and_clip():
    p = PolySeries(1, {MultiIndex([(0, 2)]): 1.0}, truncation=3)
    with pytest.raises(OrderOverflowError):
        poly_mul(p, p)
    clipped = poly_mul(p, p, clip=True)
    assert clipped.terms == {}


def test_wick_order_monomials_unit_variance():
    # :x^n: = H_n at unit variance
    for n in range(7):
        p = PolySeries(1, {MultiIndex([(0, n)]): 1.0}, truncation=8)
        F = wick_order_poly(p)
        want = {MultiIndex([(0, n)]) if n else EMPTY: 1.0}
        assert F.terms == want


def test_wick_order_with_variances():
    # :x^n: at variance v has coefficient sigma^n on H_n(x / sigma)
    v = 1.7
    for n in range(1, 6):
        p = PolySeries(1, {MultiIndex([(0, n)]): 1.0}, truncation=8)
        F = wick_order_poly(p, [v])
        assert abs(F.coeff(MultiIndex([(0, n)])) - v ** (n / 2.0)) < 1e-12
    with pytest.raises(DomainError):
        wick_order_poly(p, [0.0])
    with pytest.raises(DomainError):
        wick_order_poly(p, [-1.0])


def test_wick_order_example():
    # :x1^2 - x2: keeps the Hermite coefficients 1 and -1
    p = PolySeries(2, {MultiIndex([(0, 2)]): 1.0, MultiIndex([(1, 1)]): -1.0})
    F = wick_order_poly(p)
    assert F.terms == {MultiIndex([(0, 2)]): 1.0, MultiIndex([(1, 1)]): -1.0}


def test_wick_order_is_hermite_in_the_sample():
    # evaluate :x^4: at x and compare H_4 against the quadrature identity
    # E[:X^4: f(X)] computed two ways is overkill; pointwise suffices
    p = PolySeries(1, {MultiIndex([(0, 4)]): 1.0}, truncation=8)
    F = wick_order_poly(p)
    for x in np.linspace(-2, 2, 9):
        assert abs(evaluate_at(F, [x]) - hermite_np(4, x)) < 1e-10


def test_poly_chaos_conversions_roundtrip():
    rng = np.random.default_rng(1)
    for _ in range(20):
        p = random_poly(rng, 3, 4)
        F = poly_to_chaos(p)
        q = chaos_to_poly(F)
        x = rng.normal(size=3)
        assert abs(poly_eval(q, x) - poly_eval(p, x)) < 1e-9
        assert abs(evaluate_at(F, x) - poly_eval(p, x)) < 1e-9
        back = poly_to_chaos(q)
        assert coeff_distance(F, back) < 1e-10


def test_icopy_exact_known_polynomials():
    # E[(x+iY)^2] = x^2 - v and E[(x+iY)^4] = x^4 - 6v x^2 + 3v^2
    p2 = PolySeries(1, {MultiIndex([(0, 2)]): 1.0}, truncation=4)
    p4 = PolySeries(1, {MultiIndex([(0, 4)]): 1.0}, truncation=4)
    for v in (1.0, 0.6, 2.3):
        for x in (-1.5, 0.0, 0.8):
            got2 = wick_order_icopy_exact(p2, [v], [x])
            got4 = wick_order_icopy_exact(p4, [v], [x])
            assert abs(got2 - (x * x - v)) < 1e-12
            assert abs(got4 - (x ** 4 - 6 * v * x * x + 3 * v * v)) < 1e-10


def test_icopy_exact_matches_wick_order():
    rng = np.random.default_rng(2)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        p = random_poly(rng, dim, 4)
        v = rng.uniform(0.3, 2.0, size=dim)
        F = wick_order_poly(p, v)
        x = rng.normal(size=dim)
        # F lives in the normalized variables x / sigma
        want = evaluate_at(F, x / np.sqrt(v))
        got = wick_order_icopy_exact(p, v, x)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_icopy_mc_agrees():
    p = PolySeries(1, {MultiIndex([(0, 3)]): 1.0, MultiIndex([(0, 1)]): -2.0},
                   truncation=4)
    pts = [[-1.0], [0.5], [1.2]]
    ests = wick_order_icopy_mc(p, [1.5], pts, n=100000, seed=21)
    assert len(ests) == 3
    for est, x in zip(ests, pts):
        exact = wick_order_icopy_exact(p, [1.5], x)
        assert abs(est.value - exact) < 4 * max(est.std_error, 1e-12)
    again = wick_order_icopy_mc(p, [1.5], pts, n=100000, seed=21)
    assert [e.value for e in again] == [e.value for e in ests]
    with pytest.raises(DimensionMismatchError):
        wick_order_icopy_mc(p, [1.5], [[0.0, 0.0]], n=100, seed=0)


def test_icopy_mc_points_are_independent_calls():
    # several chunks, so the pairwise reduction has more than one level
    p = PolySeries(2, {MultiIndex([(0, 2), (1, 1)]): 0.7, MultiIndex([(1, 3)]): -1.1,
                       EMPTY: 0.3}, truncation=4)
    pts = [[0.2, -0.5], [1.0, 0.0], [-1.5, 2.0]]
    together = wick_order_icopy_mc(p, [0.8, 1.4], pts, n=200_000, seed=9)
    alone = [wick_order_icopy_mc(p, [0.8, 1.4], [x], n=200_000, seed=9)[0] for x in pts]
    assert together == alone


def test_icopy_mc_draws_each_chunk_once(monkeypatch):
    p = PolySeries(2, {MultiIndex([(0, 2), (1, 1)]): 0.7, EMPTY: 0.3}, truncation=4)
    drawn = []
    real = montecarlo.chunk_normals

    def spy(dim, seed, chunk_index, n_rows):
        drawn.append(chunk_index)
        return real(dim, seed, chunk_index, n_rows)

    monkeypatch.setattr(montecarlo, "chunk_normals", spy)
    n = 200_000
    ests = wick_order_icopy_mc(p, [0.8, 1.4], [[0.2, -0.5], [1.0, 0.0], [-1.5, 2.0]], n, seed=9)
    assert len(ests) == 3
    assert drawn == [idx for idx, _ in chunk_layout(n)] and len(drawn) > 1


def test_series_condition_is_squared_norm():
    rng = np.random.default_rng(3)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        p = random_poly(rng, dim, 4)
        v = rng.uniform(0.3, 2.0, size=dim)
        lhs = series_condition(p, v)
        rhs = l2_norm(wick_order_poly(p, v)) ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_overflow_raises_domain_error():
    x4 = PolySeries(1, {MultiIndex([(0, 4)]): 1.0}, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: wick_order_icopy_exact(x4, [1.0], [1e200]),
                     lambda: series_condition(x4, [1e200]),
                     lambda: wick_order_poly(x4, [1e200])):
            with pytest.raises(DomainError):
                call()
        # finite results keep their bits
        assert wick_order_poly(x4, [3.0]).coeff(MultiIndex([(0, 4)])) == math.sqrt(3.0) ** 4
        assert series_condition(x4, [3.0]) == 24.0 * math.sqrt(3.0) ** 8


def test_renorm_product_law():
    rng = np.random.default_rng(4)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        p = random_poly(rng, dim, 4, n_terms=3, truncation=8)
        q = random_poly(rng, dim, 4, n_terms=3, truncation=8)
        v = rng.uniform(0.3, 2.0, size=dim)
        assert renorm_product_check(p, q, v) < 1e-9
    # the textbook instance :x: <> :x: = :x^2:
    x = PolySeries(1, {MultiIndex([(0, 1)]): 1.0}, truncation=4)
    F = wick_order_poly(x)
    assert coeff_distance(wick_product(F, F),
                          wick_order_poly(poly_mul(x, x))) == 0.0


def test_wick_exp_square_series_vs_closed():
    for lam in (-0.5, -0.2, 0.2, 0.5):
        W = wick_exp_square(lam, K=40)
        for x in np.linspace(-2, 2, 9):
            closed = W.closed(x)
            series = evaluate_at(W.series, [x])
            assert abs(series - closed) < 1e-6
    # near the radius of convergence a deeper truncation is needed
    for lam in (-0.8, 0.8):
        W = wick_exp_square(lam, K=80)
        for x in np.linspace(-2, 2, 9):
            assert abs(evaluate_at(W.series, [x]) - W.closed(x)) < 1e-6


def test_wick_exp_square_pinned_value():
    W = wick_exp_square(0.5, K=40)
    assert abs(W.closed(1.0) - 0.9645767379481667) < 1e-15
    assert abs(evaluate_at(W.series, [1.0]) - 0.9645767379481667) < 1e-10


def test_evaluation_overflow_is_loud():
    # the Hermite recurrence overflows at order 600 and x = 4, where the
    # closed form is 35.29: raise instead of returning NaN
    W = wick_exp_square(0.95, K=300)
    assert abs(W.closed(4.0) - 35.29) < 0.01
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DomainError):
        evaluate_at(W.series, [4.0])


def test_evaluation_overflow_raises_without_warnings():
    # the overflow is reported once, by DomainError, not also by numpy
    W = wick_exp_square(0.95, K=300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            evaluate_at(W.series, [4.0])


def test_l2_norm_past_the_factorial_cap():
    # degree 172 > 170: alpha! overflows a double, alpha! c^2 does not
    series = wick_exp_square(0.5, K=90).series
    assert series.degree() > 170
    assert abs(l2_norm(series) - (1 - 0.5 ** 2) ** -0.25) <= 1e-12


def test_weighted_sums_past_the_factorial_cap():
    # at lam = 0.99 the terms above degree 170 carry 0.8% of the mass, and
    # c^2 alone underflows there; the truncated sum is
    # sum_k lam^2k C(2k, k) / 4^k
    lam, K = 0.99, 90
    series = wick_exp_square(lam, K=K).series
    want = float(sum(Fraction(lam) ** (2 * k) * math.comb(2 * k, k) / 4 ** k
                     for k in range(K + 1)))
    for got in (l2_norm(series) ** 2, gamma_norm(series, 1.0) ** 2,
                series_condition(PolySeries(1, series.terms, 2 * K))):
        assert abs(got - want) <= 1e-12 * want


def test_wick_exp_square_edges():
    # K = 0 keeps only the constant, at cap 0
    W = wick_exp_square(0.5, K=0).series
    assert (W.terms, W.max_order) == ({EMPTY: 1.0}, 0)
    # at lam = 0.95 the coefficients underflow past k = 154 and are dropped,
    # as they are when built term by term; test_evaluation_overflow_is_loud
    # needs the degree-308 term that survives
    W = wick_exp_square(0.95, K=300).series
    assert (W.n_terms(), W.degree(), W.max_order) == (155, 308, 600)
    with pytest.raises(ValueError):
        wick_exp_square(0.5, K=-1)


def test_wick_exp_square_tail_weight():
    # the quoted L2 tail must bound the dropped mass and shrink with K
    w40 = wick_exp_square(0.5, K=40).tail_weight
    w60 = wick_exp_square(0.5, K=60).tail_weight
    assert 0 < w60 < w40 < 1e-10
    # heavier lambda needs a deeper truncation for the same tail
    assert wick_exp_square(0.8, K=40).tail_weight > 1e-7
    assert wick_exp_square(0.8, K=80).tail_weight < 1e-8


def test_wick_exp_square_moment_identity():
    # E[exp_wick(lam x^2/2)] = 1: the series has mean 1 by construction
    for lam in (-0.5, 0.3):
        W = wick_exp_square(lam, K=40)
        got = expect_1d(lambda x: np.array([W.closed(v) for v in x]), 80)
        assert abs(got - 1.0) < 1e-8


def test_wick_exp_square_divergence():
    for lam in (1.0, -1.0, 1.5, -2.0):
        with pytest.raises(DivergenceError):
            wick_exp_square(lam)


def test_wick_exp_I2_one_dimensional():
    f = SymTensor(1, 2, {(0, 0): 0.5})  # matrix [[0.5]], lambda = 0.5
    W = wick_exp_I2(f, K=40)
    assert np.allclose(W.eigenvalues, [0.5])
    assert abs(W.closed([1.0]) - 0.7512131188464936) < 1e-15
    assert abs(evaluate_at(W.series, [1.0]) - 0.7512131188464936) < 1e-9


def test_wick_exp_I2_rotated():
    # a 2x2 quadratic form, matching the closed form pointwise
    f = SymTensor(2, 2, {(0, 0): 0.15, (0, 1): 0.1, (1, 1): -0.05})
    W = wick_exp_I2(f, K=40)
    rng = np.random.default_rng(5)
    for _ in range(10):
        x = rng.normal(size=2)
        series = evaluate_at(W.series, x)
        assert abs(series - W.closed(x)) < 1e-8
    # eigenvalues are those of the symmetric coefficient matrix
    m = np.array([[0.15, 0.1], [0.1, -0.05]])
    assert np.allclose(np.sort(W.eigenvalues), np.linalg.eigvalsh(m))


def test_wick_exp_I2_without_series_terms():
    # K = 0 holds only the prefactor exp(-tr M/2), still at cap 2
    f = SymTensor(2, 2, {(0, 0): 0.2, (0, 1): 0.1, (1, 1): -0.3})
    W = wick_exp_I2(f, K=0).series
    assert (W.terms, W.max_order) == ({EMPTY: math.exp(0.05)}, 2)
    with pytest.raises(ValueError):
        wick_exp_I2(f, K=-1)


def test_wick_exp_I2_error_conditions():
    with pytest.raises(DomainError):
        wick_exp_I2(SymTensor(1, 2, {(0, 0): -1.5}))
    with pytest.raises(DivergenceError):
        wick_exp_I2(SymTensor(1, 2, {(0, 0): 1.5}))
    # the domain check precedes the divergence check
    f = SymTensor(2, 2, {(0, 0): -1.2, (1, 1): 0.55})
    with pytest.raises(DomainError):
        wick_exp_I2(f)
    with pytest.raises(ValueError):
        wick_exp_I2(SymTensor(1, 3, {(0, 0, 0): 0.1}))


def test_negative_definite():
    assert negative_definite(SymTensor(2, 2, {(0, 0): -1.0, (1, 1): -0.5}))
    assert not negative_definite(SymTensor(2, 2, {(0, 0): 1.0}))
    assert negative_definite(SymTensor(2, 2, {}))  # zero matrix is boundary


@pytest.mark.heavy
def test_icopy_mc_battery():
    rng = np.random.default_rng(6)
    for trial in range(5):
        dim = int(rng.integers(1, 3))
        p = random_poly(rng, dim, 4, n_terms=3)
        v = rng.uniform(0.5, 1.5, size=dim)
        pts = [rng.normal(size=dim) for _ in range(3)]
        ests = wick_order_icopy_mc(p, v, pts, n=10 ** 6, seed=300 + trial)
        for est, x in zip(ests, pts):
            exact = wick_order_icopy_exact(p, v, x)
            assert abs(est.value - exact) < 5 * max(est.std_error, 1e-12)
