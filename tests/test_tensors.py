"""Sparse symmetric tensors against dense ndarray oracles."""

import itertools
import math

import numpy as np
import pytest

from wickchaos.errors import DimensionMismatchError, DomainError
from wickchaos.tensors import (SymTensor, basis_tensor, contract_vector,
                               contraction_1, independent, ordered_count,
                               sym_product)

from helpers import dense_contract_last, dense_sym_outer, dense_tensor


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
    f = basis_tensor(4, (0, 0))
    g = basis_tensor(4, (1, 2))
    assert independent(f, g)
    assert not independent(f, basis_tensor(4, (0, 1)))
    # disjoint supports always pass, overlapping ones generically fail
    rng = np.random.default_rng(7)
    for _ in range(20):
        a = SymTensor(4, 2, {(0, int(rng.integers(0, 2))): float(rng.normal())})
        b = SymTensor(4, 2, {(2, int(rng.integers(2, 4))): float(rng.normal())})
        assert independent(a, b)
