"""Derivative, divergence, and the product formulas built from them."""

import math
from collections import Counter
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickchaos import malliavin, tensors
from wickchaos.chaos import (ChaosVector, add, coeff_distance, expectation,
                             inner_product, l2_norm, ordinary_product, scale,
                             to_tensor, wick_product)
from wickchaos.malliavin import (HValuedChaos, derivative_dir,
                                 directional_derivative, divergence, gradient,
                                 higher_derivative, ou_apply,
                                 product_via_wick_gradients, sobolev_norm,
                                 wick_via_malliavin, wick_with_gaussian)
from wickchaos.errors import DomainError
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.tensors import basis_tensor, contract_vector, contraction_1

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
    with pytest.raises(ValueError):
        sobolev_norm(F, -1)


def test_sobolev_norm_overflow_raises_domain_error():
    big = ChaosVector(1, 4, {MultiIndex([(0, 1)]): 1e200})
    for k in (0, 1):
        with pytest.raises(DomainError):
            sobolev_norm(big, k)


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


# -- the level recursion against the rebuild-every-tuple algorithm ----------

def _rebuilt_derivative(F, j):
    """D_j F with every label and the store built by the validating
    constructors."""
    out = {}
    for alpha, c in F.items():
        m = alpha.multiplicity(j)
        if m:
            counts = dict(alpha.entries)
            counts[j] -= 1
            out[MultiIndex(counts.items())] = m * c
    return ChaosVector(F.dim, F.max_order, out, prune=F.prune)


def _rebuilt_higher(F, p):
    """D^p F with every sorted tuple rebuilt from F, one derivative per
    direction, stopping at a zero."""
    out = {}
    for t in combinations_with_replacement(range(F.dim), p):
        G = F
        for j in t:
            G = _rebuilt_derivative(G, j)
            if G.n_terms() == 0:
                break
        if p == 0 or G.n_terms():
            out[t] = G
    return out


def _rebuilt_sobolev(F, k):
    total = 0.0
    for i in range(k + 1):
        for t, DtF in _rebuilt_higher(F, i).items():
            total += MultiIndex.from_indices(t).ordered_count() * inner_product(DtF, DtF)
    return math.sqrt(total)


def _rebuilt_pairing(F, G, product, sign):
    order = max(F.max_order, G.max_order)
    out = ChaosVector.zero(F.dim, order)
    for p in range(min(F.degree(), G.degree()) + 1):
        DG = _rebuilt_higher(G, p)
        for t, DtF in _rebuilt_higher(F, p).items():
            if t in DG:
                w = sign ** p / MultiIndex.from_indices(t).factorial()
                prod = product(DtF.with_max_order(order), DG[t].with_max_order(order))
                out = add(out, scale(prod, w))
    return out


def _bits(x):
    """Everything a result holds, coefficients as exact bit patterns, in
    storage order."""
    if isinstance(x, float):
        return x.hex()
    if isinstance(x, dict):
        return tuple((t, _bits(v)) for t, v in x.items())
    if isinstance(x, (tuple, HValuedChaos)):
        return tuple(_bits(v) for v in getattr(x, "components", x))
    return (type(x).__name__, x.dim, x.max_order, x.prune,
            tuple((a.entries, a.degree, c.hex()) for a, c in x.items()))


def _inputs(data):
    """Generated vectors of degree <= 4 on up to 3 coordinates, one on the
    non-contiguous coordinates 1 and 4 of 6, and the zero vector."""
    dim = data.draw(st.integers(1, 3))
    F, G = (data.draw(vectors(dim, 8, degree=4)) for _ in "FG")
    gap = data.draw(vectors(6, 8, indices=(1, 4), degree=4))
    return [(F, G), (gap, data.draw(vectors(6, 8, indices=(1, 4, 5), degree=4))),
            (ChaosVector.zero(dim, 8), G), (F, ChaosVector.zero(dim, 8))]


@SETTINGS
@given(data=st.data())
def test_levels_reproduce_the_rebuilt_derivatives_bit_for_bit(data):
    for F, G in _inputs(data):
        for p in range(6):
            assert _bits(higher_derivative(F, p)) == _bits(_rebuilt_higher(F, p))
            assert _bits(sobolev_norm(F, p)) == _bits(_rebuilt_sobolev(F, p))
        assert _bits(wick_via_malliavin(F, G)) == _bits(
            _rebuilt_pairing(F, G, ordinary_product, -1.0))
        assert _bits(product_via_wick_gradients(F, G)) == _bits(
            _rebuilt_pairing(F, G, wick_product, 1.0))
        assert _bits(ou_apply(F)) == _bits(ChaosVector(
            F.dim, F.max_order, {a: a.degree * c for a, c in F.items()}, prune=F.prune))


def _tensor(F, n):
    """The degree-n tensor of F, or a basis tensor where F has none."""
    f = to_tensor(F, n)
    return f if f.n_terms() else basis_tensor(F.dim, (0,) * n)


@SETTINGS
@given(data=st.data())
def test_operators_on_derivatives_reproduce_the_rebuilt_ones(data):
    """gradient, directional_derivative, divergence and the tensor
    contractions give the same bits with the rebuilt D_j in their place."""
    for F, G in _inputs(data):
        g = [float(v) for v in np.linspace(-1.0, 2.0, F.dim)]
        f, h = _tensor(F, 3), _tensor(G, 2)
        runs = [(lambda: gradient(F)), (lambda: directional_derivative(F, g)),
                (lambda: divergence(gradient(G))), (lambda: contraction_1(f, h)),
                (lambda: tuple(contract_vector(f, k) for k in range(F.dim)))]
        fast = [_bits(run()) for run in runs]
        with pytest.MonkeyPatch.context() as m:
            m.setattr(malliavin, "derivative_dir", _rebuilt_derivative)
            m.setattr(tensors, "derivative_dir", _rebuilt_derivative)
            assert [_bits(run()) for run in runs] == fast
        for j in range(F.dim):
            assert _bits(derivative_dir(F, j)) == _bits(_rebuilt_derivative(F, j))


def _expected_calls(F, p_max):
    """(D_t F, j) for every nonzero D_t F with |t| < p_max and j >= t[-1]."""
    calls = []
    for p in range(p_max):
        for t, DtF in _rebuilt_higher(F, p).items():
            if DtF.n_terms():
                calls += [(_bits(DtF), j) for j in range(t[-1] if t else 0, F.dim)]
    return Counter(calls)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_each_derivative_is_taken_once_from_its_prefix(data):
    seen = Counter()

    def spy(F, j):
        seen[_bits(F), j] += 1
        return derivative_dir(F, j)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(malliavin, "derivative_dir", spy)
        for F, G in _inputs(data):
            for p in range(5):
                seen.clear()
                higher_derivative(F, p)
                assert seen == _expected_calls(F, p)
            seen.clear()
            sobolev_norm(F, 3)
            assert seen == _expected_calls(F, 3)
            p_max = min(F.degree(), G.degree())
            for pairing in (wick_via_malliavin, product_via_wick_gradients):
                seen.clear()
                pairing(F, G)
                assert seen == _expected_calls(F, p_max) + _expected_calls(G, p_max)
