"""Sparse symmetric tensors against dense ndarray oracles."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickchaos.errors import DimensionMismatchError, DomainError
from wickchaos.tensors import (SymTensor, basis_tensor, contract_vector,
                               contraction_1, independent, ordered_count,
                               sym_product)
from wickchaos.stratonovich import trace

from helpers import dense_contract_last, dense_sym_outer, dense_tensor, dense_trace


def random_sym(rng, dim, order, n_terms=4):
    vals = {}
    for _ in range(n_terms):
        t = tuple(sorted(rng.integers(0, dim, size=order)))
        vals[t] = float(rng.normal())
    return SymTensor(dim, order, vals, prune=0.0)


def test_ordered_count():
    assert ordered_count(()) == 1.0
    assert ordered_count((0,)) == 1.0
    assert ordered_count((0, 0)) == 1.0
    assert ordered_count((0, 1)) == 2.0
    assert ordered_count((0, 0, 1)) == 3.0
    assert ordered_count((0, 1, 2)) == 6.0
    # multinomial count over a random multiset, checked by enumeration
    rng = np.random.default_rng(0)
    for _ in range(20):
        t = tuple(sorted(rng.integers(0, 3, size=rng.integers(0, 6))))
        assert ordered_count(t) == len(set(itertools.permutations(t)))


def test_constructor_canonicalizes():
    f = SymTensor(3, 2, {(2, 0): 1.5, (0, 2): 0.5})
    assert f.values == {(0, 2): 2.0}
    assert f.value((2, 0)) == 2.0
    assert f.value((1, 1)) == 0.0
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(0,): 1.0})
    with pytest.raises(DimensionMismatchError):
        SymTensor(2, 2, {(0, 5): 1.0})
    with pytest.raises(ValueError):
        SymTensor(0, 1)
    assert SymTensor(2, 1, {(0,): 1e-20}).is_zero()
    assert not SymTensor(2, 1, {(0,): 1e-20}, prune=0.0).is_zero()
    # tuples that sort alike are summed before pruning: this one cancels
    assert SymTensor(3, 2, {(2, 0): 1.5, (0, 2): -1.5}).is_zero()
    with pytest.raises(DimensionMismatchError):
        SymTensor(2, 2, {(-1, 0): 1.0})
    # equality sees the order even when there are no values
    assert SymTensor(2, 0, {}) != SymTensor(2, 1, {})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_non_finite(bad):
    # a NaN used to fail the prune test and vanish, an inf to be stored
    with pytest.raises(DomainError):
        SymTensor(2, 1, {(0,): bad, (1,): 2.0})
    with pytest.raises(DomainError):
        SymTensor(2, 1, {(0,): bad}, prune=0.0)


def test_norm_matches_dense():
    rng = np.random.default_rng(1)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(0, 5))
        f = random_sym(rng, dim, order)
        dense = dense_tensor(f)
        assert abs(f.norm_sq() - float((dense ** 2).sum())) < 1e-10
        assert abs(f.norm() - math.sqrt(max(0.0, f.norm_sq()))) < 1e-12


def test_add_scale():
    rng = np.random.default_rng(2)
    f = random_sym(rng, 3, 2)
    g = random_sym(rng, 3, 2)
    h = f.add(g.scale(-1.0)).add(g)
    assert np.allclose(dense_tensor(h), dense_tensor(f), atol=1e-12)
    with pytest.raises(ValueError):
        f.add(random_sym(rng, 3, 3))
    with pytest.raises(DimensionMismatchError):
        f.add(random_sym(rng, 2, 2))


def test_basis_tensor_and_contract_vector():
    f = basis_tensor(3, (1, 1, 2))
    assert f.values == {(1, 1, 2): 1.0}
    assert contract_vector(f, 2).values == {(1, 1): 1.0}
    assert contract_vector(f, 0).is_zero()
    with pytest.raises(ValueError):
        contract_vector(SymTensor(2, 0, {(): 1.0}), 0)
    for k in (-1, 3, 7):
        with pytest.raises(DimensionMismatchError):
            contract_vector(f, k)


def test_contract_vector_matches_dense():
    rng = np.random.default_rng(3)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        f = random_sym(rng, dim, order)
        dense = dense_tensor(f)
        for k in range(dim):
            got = dense_tensor(contract_vector(f, k))
            want = dense[..., k]
            assert np.allclose(got, want, atol=1e-12)


def test_sym_product_matches_dense():
    rng = np.random.default_rng(4)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        p = int(rng.integers(0, 3))
        q = int(rng.integers(0, 5 - p))
        a = random_sym(rng, dim, p)
        b = random_sym(rng, dim, q)
        got = dense_tensor(sym_product(a, b))
        want = dense_sym_outer(dense_tensor(a), dense_tensor(b))
        assert np.allclose(got, want, atol=1e-10)


def test_sym_product_commutes():
    rng = np.random.default_rng(5)
    a = random_sym(rng, 3, 2)
    b = random_sym(rng, 3, 3)
    assert np.allclose(dense_tensor(sym_product(a, b)),
                       dense_tensor(sym_product(b, a)), atol=1e-12)


def test_contraction_matches_dense():
    rng = np.random.default_rng(6)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        f = random_sym(rng, dim, p)
        g = random_sym(rng, dim, q)
        got = dense_tensor(contraction_1(f, g))
        want = dense_contract_last(dense_tensor(f), dense_tensor(g))
        assert np.allclose(got, want, atol=1e-10)
    with pytest.raises(ValueError):
        contraction_1(SymTensor(2, 0, {(): 1.0}), basis_tensor(2, (0,)))


def test_independence_criterion():
    # the verdict does not depend on the scale of the tensors
    for scale in (1.0, 1e-7, 1e7):
        f = basis_tensor(4, (0, 0)).scale(scale)
        g = basis_tensor(4, (1, 2)).scale(scale)
        assert independent(f, g)
        assert not independent(f, basis_tensor(4, (0, 1)).scale(scale))
        # one Gaussian is never independent of itself
        x = SymTensor(2, 1, {(0,): scale})
        assert not independent(x, x)
        # disjoint supports always pass, overlapping ones generically fail
        rng = np.random.default_rng(7)
        for _ in range(20):
            a = SymTensor(4, 2, {(0, int(rng.integers(0, 2))): scale * float(rng.normal())})
            b = SymTensor(4, 2, {(2, int(rng.integers(2, 4))): scale * float(rng.normal())})
            assert independent(a, b)
            assert not independent(a, a)


def test_norm_and_independence_overflow_raise_domain_error():
    # the two integrals share e~_0; unchecked, the test read inf <= inf and
    # called them independent
    f = SymTensor(2, 2, {(0, 1): 1e200})
    g = SymTensor(2, 1, {(0,): 1.0})
    with pytest.raises(DomainError):
        f.norm()
    with pytest.raises(DomainError):
        independent(f, g)
    assert not independent(f.scale(1e-50), g)


# -- generated tensors against the dense oracles ------------------------------------

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# small integers make exact cancellations
values = st.one_of(st.integers(-3, 3).map(float),
                   st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(1e-3, 4.0))
                   .map(lambda t: t[0] * t[1]))


@st.composite
def tensors(draw, dim, order):
    index = st.lists(st.integers(0, dim - 1), min_size=order, max_size=order)
    return SymTensor(dim, order, draw(st.dictionaries(index.map(tuple), values, max_size=5)),
                     prune=0.0)


@st.composite
def tensor_pairs(draw, lo, top):
    """Two tensors of one dim in 1-4, of orders lo-4 with sum <= top."""
    dim = draw(st.integers(1, 4))
    p = draw(st.integers(lo, min(4, top - lo)))
    q = draw(st.integers(lo, min(4, top - p)))
    return draw(tensors(dim, p)), draw(tensors(dim, q))


@SETTINGS
@given(pair=tensor_pairs(0, 4))
def test_sym_product_property(pair):
    a, b = pair
    got = sym_product(a, b)
    assert got.order == a.order + b.order
    want = dense_sym_outer(dense_tensor(a), dense_tensor(b))
    assert np.allclose(dense_tensor(got), want, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(pair=tensor_pairs(1, 6))
def test_contraction_property(pair):
    f, g = pair
    got = contraction_1(f, g)
    assert got.order == f.order + g.order - 2
    want = dense_contract_last(dense_tensor(f), dense_tensor(g))
    assert np.allclose(dense_tensor(got), want, rtol=1e-12, atol=1e-12)


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 4), order=st.integers(1, 4))
def test_contract_vector_property(data, dim, order):
    f = data.draw(tensors(dim, order))
    k = data.draw(st.integers(0, dim - 1))
    got = contract_vector(f, k)
    assert got.order == order - 1
    assert np.allclose(dense_tensor(got), dense_tensor(f)[..., k], rtol=1e-12, atol=1e-12)


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 4), order=st.integers(2, 4))
def test_trace_property(data, dim, order):
    f = data.draw(tensors(dim, order))
    got = trace(f)
    assert got.order == order - 2
    assert np.allclose(dense_tensor(got), dense_trace(dense_tensor(f)), rtol=1e-12, atol=1e-12)
