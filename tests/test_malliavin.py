"""Derivative, divergence, and the product formulas built from them."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickchaos.chaos import (ChaosVector, add, coeff_distance, expectation,
                             inner_product, l2_norm, ordinary_product, scale,
                             wick_product)
from wickchaos.malliavin import (HValuedChaos, derivative_dir,
                                 directional_derivative, divergence, gradient,
                                 higher_derivative, ou_apply,
                                 product_via_wick_gradients, sobolev_norm,
                                 wick_via_malliavin, wick_with_gaussian)
from wickchaos.multiindex import EMPTY, MultiIndex

from helpers import absolute, assert_coeffs_close, vectors

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def H(i, n, dim, max_order):
    return ChaosVector(dim, max_order, {MultiIndex([(i, n)]): 1.0})


def random_chaos(rng, dim, degree, max_order=None, n_terms=6):
    if max_order is None:
        max_order = degree
    terms = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        alpha = MultiIndex.from_indices(tuple(rng.integers(0, dim, size=d)))
        terms[alpha] = terms.get(alpha, 0.0) + float(rng.normal())
    return ChaosVector(dim, max_order, terms)


def test_derivative_lowers_hermite():
    # D_1 H_n(x1) = n H_{n-1}(x1), D_2 kills it
    for n in range(1, 6):
        F = H(0, n, 2, 6)
        DF = derivative_dir(F, 0)
        assert DF.terms == {MultiIndex([(0, n - 1)]): float(n)}
        assert derivative_dir(F, 1).n_terms() == 0
    assert derivative_dir(ChaosVector.constant(2.0, 2, 3), 0).n_terms() == 0


def test_derivative_product_rule():
    rng = np.random.default_rng(0)
    for _ in range(20):
        F = random_chaos(rng, 2, 2, max_order=6)
        G = random_chaos(rng, 2, 2, max_order=6)
        for j in range(2):
            lhs = derivative_dir(ordinary_product(F, G), j)
            rhs = add(ordinary_product(derivative_dir(F, j), G),
                      ordinary_product(F, derivative_dir(G, j)))
            assert coeff_distance(lhs, rhs) < 1e-10


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 4))
def test_derivative_leibniz_property(data, dim):
    # D_j(FG) = (D_j F) G + F (D_j G); the cap holds the whole product
    F, G = (data.draw(vectors(dim, 6, degree=3, prune=0.0)) for _ in "FG")
    A, B = absolute(F), absolute(G)
    for j in range(dim):
        lhs = derivative_dir(ordinary_product(F, G), j)
        rhs = add(ordinary_product(derivative_dir(F, j), G),
                  ordinary_product(F, derivative_dir(G, j)))
        assert_coeffs_close(lhs, rhs, derivative_dir(ordinary_product(A, B), j))


def test_derivative_wick_leibniz():
    rng = np.random.default_rng(1)
    for _ in range(20):
        F = random_chaos(rng, 2, 2, max_order=6)
        G = random_chaos(rng, 2, 2, max_order=6)
        for j in range(2):
            lhs = derivative_dir(wick_product(F, G), j)
            rhs = add(wick_product(derivative_dir(F, j), G),
                      wick_product(F, derivative_dir(G, j)))
            assert coeff_distance(lhs, rhs) < 1e-10


def test_gradient_and_directional():
    rng = np.random.default_rng(2)
    F = random_chaos(rng, 3, 3)
    DF = gradient(F)
    assert isinstance(DF, HValuedChaos)
    assert len(DF.components) == 3
    g = rng.normal(size=3)
    want = ChaosVector.zero(3, 3)
    for j in range(3):
        want = add(want, scale(DF.components[j], float(g[j])))
    assert coeff_distance(directional_derivative(F, g), want) < 1e-12


def test_divergence_of_gaussian_gradient():
    # delta(e_j as constant field) = x_j
    dim = 2
    u = HValuedChaos((ChaosVector.constant(1.0, dim, 3),
                      ChaosVector.zero(dim, 3)))
    d = divergence(u)
    assert d.terms == {MultiIndex([(0, 1)]): 1.0}


def test_divergence_adjoint_to_gradient():
    # E[<DF, u>] = E[F delta(u)]
    rng = np.random.default_rng(3)
    for _ in range(20):
        F = random_chaos(rng, 2, 3, max_order=8)
        u = HValuedChaos(tuple(random_chaos(rng, 2, 3, max_order=8)
                               for _ in range(2)))
        lhs = sum(inner_product(derivative_dir(F, j), u.components[j])
                  for j in range(2))
        rhs = inner_product(F, divergence(u))
        assert abs(lhs - rhs) < 1e-9


def test_number_operator():
    rng = np.random.default_rng(4)
    F = random_chaos(rng, 2, 4)
    # delta D = sum_n n P_n, eigenvectors are the homogeneous parts
    N = ou_apply(F)
    for alpha, c in F.items():
        assert abs(N.coeff(alpha) - alpha.degree * c) < 1e-12
    assert coeff_distance(N, divergence(gradient(F))) < 1e-12


def test_higher_derivative_structure():
    rng = np.random.default_rng(5)
    F = random_chaos(rng, 2, 3)
    assert list(higher_derivative(F, 0)) == [()]
    assert coeff_distance(higher_derivative(F, 0)[()], F) == 0.0
    d2 = higher_derivative(F, 2)
    for t, G in d2.items():
        assert len(t) == 2 and tuple(sorted(t)) == t
        manual = derivative_dir(derivative_dir(F, t[0]), t[1])
        assert coeff_distance(G, manual) < 1e-12
    with pytest.raises(ValueError):
        higher_derivative(F, -1)


def test_sobolev_norm():
    rng = np.random.default_rng(6)
    F = random_chaos(rng, 2, 3)
    assert abs(sobolev_norm(F, 0) - l2_norm(F)) < 1e-12
    # adding derivative layers never decreases the norm
    norms = [sobolev_norm(F, k) for k in range(4)]
    assert all(norms[i] <= norms[i + 1] + 1e-12 for i in range(3))
    # H_2(x1): ||F||^2 = 2, ||DF||^2 = 4, k=1 norm sqrt(6)
    G = H(0, 2, 1, 4)
    assert abs(sobolev_norm(G, 1) - math.sqrt(6.0)) < 1e-12


def test_wick_via_malliavin_matches_convolution():
    rng = np.random.default_rng(7)
    for _ in range(25):
        F = random_chaos(rng, 3, 3, max_order=6)
        G = random_chaos(rng, 3, 3, max_order=6)
        assert coeff_distance(wick_via_malliavin(F, G),
                              wick_product(F, G)) < 1e-9


def test_product_via_wick_gradients_matches_linearization():
    rng = np.random.default_rng(8)
    for _ in range(25):
        F = random_chaos(rng, 3, 3, max_order=6)
        G = random_chaos(rng, 3, 3, max_order=6)
        assert coeff_distance(product_via_wick_gradients(F, G),
                              ordinary_product(F, G)) < 1e-9


def test_wick_with_gaussian_three_ways():
    rng = np.random.default_rng(9)
    for _ in range(25):
        F = random_chaos(rng, 2, 3, max_order=6)
        g = rng.normal(size=2)
        lin = ChaosVector.linear(g.tolist(), max_order=6)
        a = wick_with_gaussian(F, g)
        b = wick_product(F, lin)
        c = add(ordinary_product(F, lin), scale(directional_derivative(F, g), -1.0))
        u = HValuedChaos(tuple(scale(F, float(g[j])) for j in range(2)))
        d = divergence(u)
        assert coeff_distance(a, b) < 1e-10
        assert coeff_distance(a, c) < 1e-10
        assert coeff_distance(a, d) < 1e-10


def test_expectation_of_divergence_vanishes():
    rng = np.random.default_rng(10)
    for _ in range(10):
        u = HValuedChaos(tuple(random_chaos(rng, 2, 2, max_order=4)
                               for _ in range(2)))
        assert abs(expectation(divergence(u))) < 1e-12
