"""S-transform and translation operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickchaos.chaos import (ChaosVector, coeff_distance, evaluate_at,
                             exponential_vector, wick_product)
from wickchaos.errors import DimensionMismatchError, DomainError
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.renormalization import PolySeries, poly_eval
from wickchaos.stransform import s_transform, s_transform_mc, translate

from helpers import absolute, assert_coeffs_close, signed, vectors

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def random_chaos(rng, dim, degree, max_order=None, n_terms=6):
    if max_order is None:
        max_order = degree
    terms = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        alpha = MultiIndex.from_indices(tuple(rng.integers(0, dim, size=d)))
        terms[alpha] = terms.get(alpha, 0.0) + float(rng.normal())
    return ChaosVector(dim, max_order, terms)


def test_s_transform_monomials():
    # S maps the basis element to the monomial xi^alpha
    F = ChaosVector(2, 5, {MultiIndex([(0, 2), (1, 1)]): 3.0})
    assert s_transform(F, [2.0, 0.5]) == 3.0 * 4.0 * 0.5
    assert s_transform(ChaosVector.constant(7.0, 2, 1), [9.0, 9.0]) == 7.0
    with pytest.raises(DimensionMismatchError):
        s_transform(F, [1.0])


def test_s_transform_non_finite_raises():
    x2 = MultiIndex([(0, 2)])
    with pytest.raises(DomainError):  # xi_0 ** 2 overflows
        s_transform(ChaosVector(1, 2, {x2: 1.0}), [1e200])
    with pytest.raises(DomainError):  # the term overflows to inf
        s_transform(ChaosVector(1, 2, {x2: 1e300}), [1e10])
    inf_minus_inf = ChaosVector(2, 1, {MultiIndex([(0, 1)]): 1e300,
                                       MultiIndex([(1, 1)]): -1e300})
    with pytest.raises(DomainError):
        s_transform(inf_minus_inf, [1e10, 1e10])
    with pytest.raises(DomainError):  # the same sum on monomial labels
        poly_eval(PolySeries(1, {x2: 1e300}, 2), [1e10])
    # finite values near the edge are returned unchanged
    assert s_transform(ChaosVector(1, 2, {x2: 1e300}), [1e4]) == 1e300 * 1e4 ** 2
    assert s_transform(inf_minus_inf, [1.0, 1.0]) == 0.0


def test_s_transform_linear():
    rng = np.random.default_rng(0)
    F = random_chaos(rng, 2, 3)
    G = random_chaos(rng, 2, 3)
    xi = rng.normal(size=2)
    assert abs(s_transform(F + G, xi) - s_transform(F, xi) - s_transform(G, xi)) < 1e-12


def test_s_transform_multiplicative_under_wick():
    rng = np.random.default_rng(1)
    for _ in range(25):
        F = random_chaos(rng, 3, 3, max_order=6)
        G = random_chaos(rng, 3, 3, max_order=6)
        xi = rng.normal(size=3) * 0.7
        lhs = s_transform(wick_product(F, G), xi)
        rhs = s_transform(F, xi) * s_transform(G, xi)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def points(dim):
    return st.lists(st.one_of(st.just(0.0), signed(1e-3, 2.0)), min_size=dim, max_size=dim)


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 4))
def test_s_transform_multiplicative_property(data, dim):
    # S(F <> G)(xi) = S(F)(xi) S(G)(xi); the cap holds the whole product
    F, G = (data.draw(vectors(dim, 6, degree=3, prune=0.0)) for _ in "FG")
    xi = data.draw(points(dim))
    size = [abs(v) for v in xi]
    bound = s_transform(absolute(F), size) * s_transform(absolute(G), size)
    got = s_transform(wick_product(F, G), xi)
    assert abs(got - s_transform(F, xi) * s_transform(G, xi)) <= 1e-13 * bound


def test_s_transform_of_exponential_vector():
    # S(eps(f))(xi) = exp(<f, xi>), up to truncation of the series
    f = np.array([0.3, -0.2])
    E = exponential_vector(f.tolist(), 40)
    xi = np.array([0.5, 0.4])
    assert abs(s_transform(E, xi) - math.exp(float(f @ xi))) < 1e-12


def test_translate_known_case():
    # H_2(x1) shifted by (1, 0): H_2(x+1) = H_2 + 2 H_1 + 1
    F = ChaosVector(2, 4, {MultiIndex([(0, 2)]): 1.0})
    T = translate(F, [1.0, 0.0])
    assert T.terms == {MultiIndex([(0, 2)]): 1.0, MultiIndex([(0, 1)]): 2.0,
                       EMPTY: 1.0}


def test_translate_pointwise():
    rng = np.random.default_rng(2)
    for _ in range(20):
        F = random_chaos(rng, 2, 3, n_terms=5)
        y = rng.normal(size=2)
        T = translate(F, y)
        for _ in range(4):
            x = rng.normal(size=2)
            want = evaluate_at(F, x + y)
            got = evaluate_at(T, x)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))


def test_translate_composes():
    rng = np.random.default_rng(3)
    F = random_chaos(rng, 2, 3)
    y, z = rng.normal(size=2), rng.normal(size=2)
    assert coeff_distance(translate(translate(F, y), z),
                          translate(F, y + z)) < 1e-10


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 4), order=st.integers(0, 6))
def test_translate_group_law_property(data, dim, order):
    # translate(translate(F, y), z) = translate(F, y + z)
    F = data.draw(vectors(dim, order, prune=0.0))
    y, z = data.draw(points(dim)), data.draw(points(dim))
    yz = [a + b for a, b in zip(y, z)]
    bound = translate(absolute(F), [abs(a) + abs(b) for a, b in zip(y, z)])
    assert_coeffs_close(translate(translate(F, y), z), translate(F, yz), bound)


def test_shift_law():
    # S(translate(F, y))(eta) = S(F)(y + eta)
    rng = np.random.default_rng(4)
    for _ in range(25):
        F = random_chaos(rng, 2, 3)
        y = rng.normal(size=2)
        eta = rng.normal(size=2)
        lhs = s_transform(translate(F, y), eta)
        rhs = s_transform(F, y + eta)
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(lhs), abs(rhs))


def test_s_transform_mc_consistent():
    rng = np.random.default_rng(5)
    F = random_chaos(rng, 2, 3)
    xi = [0.4, -0.3]
    est = s_transform_mc(F, xi, n=200000, seed=9)
    exact = s_transform(F, xi)
    assert est.std_error > 0
    assert abs(est.value - exact) < 4 * est.std_error
    # the estimator stream is deterministic
    again = s_transform_mc(F, xi, n=200000, seed=9)
    assert again.value == est.value and again.std_error == est.std_error


@pytest.mark.heavy
def test_s_transform_mc_battery():
    rng = np.random.default_rng(6)
    for trial in range(10):
        F = random_chaos(rng, 2, 3)
        xi = rng.normal(size=2) * 0.5
        est = s_transform_mc(F, xi, n=10 ** 6, seed=100 + trial)
        assert abs(est.value - s_transform(F, xi)) < 5 * est.std_error
