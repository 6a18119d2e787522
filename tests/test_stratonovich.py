"""Trace operators and the Stratonovich/Ito conversion."""

import itertools
import math

import numpy as np
import pytest

from wickchaos import stratonovich
from wickchaos.chaos import (ChaosVector, add, coeff_distance, evaluate_at,
                             from_tensor, ordinary_product, scale)
from wickchaos.renormalization import chaos_to_poly, wick_order_poly
from wickchaos.stratonovich import (hu_meyer_coeff, ito_from_stratonovich,
                                    stratonovich_integral,
                                    stratonovich_partial_sum, trace, trace_k)
from wickchaos.tensors import SymTensor, basis_tensor

from helpers import dense_tensor, dense_trace


def random_sym(rng, dim, order, n_terms=4):
    vals = {}
    for _ in range(n_terms):
        t = tuple(sorted(rng.integers(0, dim, size=order)))
        vals[t] = float(rng.normal())
    return SymTensor(dim, order, vals, prune=0.0)


def test_hu_meyer_coeff_values():
    # n! / (2^k k! (n-2k)!)
    assert hu_meyer_coeff(2, 0) == 1.0
    assert hu_meyer_coeff(2, 1) == 1.0
    assert hu_meyer_coeff(4, 0) == 1.0
    assert hu_meyer_coeff(4, 1) == 6.0
    assert hu_meyer_coeff(4, 2) == 3.0
    assert hu_meyer_coeff(5, 2) == 15.0
    with pytest.raises(ValueError):
        hu_meyer_coeff(3, 2)
    with pytest.raises(ValueError):
        hu_meyer_coeff(2, -1)


def test_trace_examples():
    # Tr(e1 (x) e1) = 1
    t1 = trace(basis_tensor(2, (0, 0)))
    assert t1.order == 0 and t1.value(()) == 1.0
    # Tr(e1 (x) e1 + e2 (x) e2) = 2
    f = SymTensor(2, 2, {(0, 0): 1.0, (1, 1): 1.0})
    assert trace(f).value(()) == 2.0
    # Tr(e1^{(x)4}) = e1 (x) e1, second trace gives 1
    g = basis_tensor(1, (0, 0, 0, 0))
    assert trace(g).values == {(0, 0): 1.0}
    assert trace(trace(g)).value(()) == 1.0
    with pytest.raises(ValueError):
        trace(basis_tensor(2, (0,)))


def test_trace_matches_dense():
    rng = np.random.default_rng(0)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(2, 6))
        f = random_sym(rng, dim, order)
        got = dense_tensor(trace(f))
        want = dense_trace(dense_tensor(f))
        assert np.allclose(got, want, atol=1e-12)


def test_trace_k():
    rng = np.random.default_rng(1)
    f = random_sym(rng, 3, 4)
    assert trace_k(f, 0) == f
    assert trace_k(f, 1) == trace(f)
    d2 = dense_trace(dense_trace(dense_tensor(f)))
    assert abs(trace_k(f, 2).value(()) - float(d2)) < 1e-12
    with pytest.raises(ValueError):
        trace_k(f, 3)
    with pytest.raises(ValueError):
        trace_k(f, -1)


@pytest.mark.parametrize("order", [0, 1, 4, 6, 7, 8])
def test_one_trace_chain_per_call(monkeypatch, order):
    calls = []
    real = stratonovich.trace

    def spy(f):
        calls.append(f.order)
        return real(f)

    monkeypatch.setattr(stratonovich, "trace", spy)
    f = random_sym(np.random.default_rng(order), 2, order)
    for fn in (stratonovich_integral, ito_from_stratonovich):
        calls.clear()
        fn(f)
        assert calls == list(range(order, 1, -2))  # n // 2 traces


def test_stratonovich_known_cases():
    # S_2(e1 (x) e1) = x1^2 = H_2 + 1
    S = stratonovich_integral(basis_tensor(1, (0, 0)))
    P = ordinary_product(ChaosVector.coordinate(0, 1, 2),
                         ChaosVector.coordinate(0, 1, 2))
    assert coeff_distance(S, P) < 1e-12
    # S_4(e1^{(x)4}) = x1^4 = H_4 + 6 H_2 + 3
    S4 = stratonovich_integral(basis_tensor(1, (0, 0, 0, 0)))
    x = ChaosVector.coordinate(0, 1, 4)
    x4 = ordinary_product(ordinary_product(x, x, clip=False),
                          ordinary_product(x, x), clip=False)
    assert coeff_distance(S4, x4) < 1e-12


def test_stratonovich_ito_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(0, 6))
        f = random_sym(rng, dim, order)
        # ito_from_stratonovich inverts the trace expansion
        assert coeff_distance(ito_from_stratonovich(f), from_tensor(f)) < 1e-9


def test_partial_sum_brute_force_weights():
    # dense ordered-tuple sum, every tuple built by ordinary products
    rng = np.random.default_rng(3)
    for _ in range(12):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        f = random_sym(rng, dim, order, n_terms=3)
        dense = dense_tensor(f)
        n_basis = int(rng.integers(0, dim + 1))
        want = ChaosVector.zero(dim, order)
        for t in itertools.product(range(n_basis), repeat=order):
            v = float(dense[t])
            if v == 0.0:
                continue
            prod = ChaosVector.constant(1.0, dim, order)
            for j in t:
                prod = ordinary_product(prod, ChaosVector.coordinate(j, dim, order))
            want = add(want, scale(prod, v))
        got = stratonovich_partial_sum(f, n_basis)
        assert coeff_distance(got, want) < 1e-10


def test_partial_sum_edges():
    f = basis_tensor(3, (0, 0))
    assert stratonovich_partial_sum(f, 0).n_terms() == 0
    # support on coordinate 1 only: stable once n_basis covers it
    a = stratonovich_partial_sum(f, 1)
    b = stratonovich_partial_sum(f, 2)
    c = stratonovich_partial_sum(f, 3)
    assert coeff_distance(a, b) == 0.0 and coeff_distance(b, c) == 0.0
    assert coeff_distance(c, stratonovich_integral(f)) < 1e-12
    with pytest.raises(ValueError):
        stratonovich_partial_sum(f, 4)
    with pytest.raises(ValueError):
        stratonovich_partial_sum(f, -1)


def test_partial_sum_full_matches_integral():
    rng = np.random.default_rng(4)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(0, 5))
        f = random_sym(rng, dim, order)
        assert coeff_distance(stratonovich_partial_sum(f, dim),
                              stratonovich_integral(f)) < 1e-9


def test_wick_ordering_recovers_ito():
    # :S_n(f): = I_n(f)
    rng = np.random.default_rng(5)
    for _ in range(15):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(0, 5))
        f = random_sym(rng, dim, order, n_terms=3)
        S = stratonovich_integral(f)
        reordered = wick_order_poly(chaos_to_poly(S))
        assert coeff_distance(reordered, from_tensor(f)) < 1e-9


def test_stratonovich_pointwise():
    rng = np.random.default_rng(6)
    for _ in range(10):
        f = random_sym(rng, 2, 3, n_terms=3)
        dense = dense_tensor(f)
        S = stratonovich_integral(f)
        for _ in range(4):
            x = rng.normal(size=2)
            # the product sum is literally sum_t f[t] x_{t1} ... x_{tn}
            want = 0.0
            for t in itertools.product(range(2), repeat=3):
                want += float(dense[t]) * x[t[0]] * x[t[1]] * x[t[2]]
            got = evaluate_at(S, x)
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want))
