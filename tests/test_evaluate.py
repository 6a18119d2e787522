"""Evaluation as a bilinear form, against the per-term reference.

helpers.eval_chaos_ref evaluates term by term through numpy's hermeval,
never through the package's Hermite table or contraction.  The contraction
sums in another order, so a value may differ from the reference by
rounding: at most 1e-12 of sum_alpha |c_alpha prod_i H_{alpha_i}(x_i)|,
the sum of absolute contributions to that value.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wickchaos.chaos as chaos
from wickchaos.chaos import ChaosVector, evaluate, evaluate_at, exponential_vector
from wickchaos.montecarlo import estimate_pair_expectation
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.renormalization import PolySeries, wick_order_icopy_mc
from wickchaos.sampling import chunk_layout, chunk_normals

from helpers import eval_chaos_ref, hermite_np

REL = 1e-12

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def abs_scale(F, x):
    """sum_alpha |c_alpha prod_i H_{alpha_i}(x_i)| at one point."""
    return sum(abs(c) * math.prod(abs(hermite_np(m, x[i])) for i, m in a.entries)
               for a, c in F.items())


def assert_matches_reference(F, x, got, rows=None):
    for j in range(len(x)) if rows is None else rows:
        want = eval_chaos_ref(F, x[j])
        assert abs(got[j] - want) <= REL * abs_scale(F, x[j]), (j, got[j], want)


@st.composite
def vectors(draw, dims=st.integers(1, 6)):
    """A ChaosVector of up to 60 terms with up to 4 coordinates each."""
    dim = draw(dims)
    order = draw(st.integers(0, 10))
    labels = st.lists(st.tuples(st.integers(0, dim - 1), st.integers(1, max(order, 1))),
                      max_size=min(dim, 4))
    terms = {}
    for entries in draw(st.lists(labels, max_size=60)):
        alpha = MultiIndex(entries)
        if alpha.degree <= order:
            terms[alpha] = draw(st.floats(-2.0, 2.0, allow_nan=False))
    return ChaosVector(dim, order, terms, prune=0.0)


@SETTINGS
@given(vectors(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_evaluate_matches_per_term_reference(F, n, seed):
    x = np.random.default_rng(seed).normal(scale=1.5, size=(n, F.dim))
    assert_matches_reference(F, x, evaluate(F, x))
    assert abs(evaluate_at(F, x[0]) - eval_chaos_ref(F, x[0])) <= REL * abs_scale(F, x[0])


@SETTINGS
@given(st.data(), st.integers(0, 2 ** 32 - 1))
def test_sparse_support_in_a_wide_dim(data, seed):
    rng = np.random.default_rng(seed)
    coords = sorted(int(i) for i in rng.choice(1000, 16, replace=False))
    terms = {}
    for _ in range(data.draw(st.integers(1, 40))):
        used = data.draw(st.lists(st.sampled_from(coords), min_size=1, max_size=4, unique=True))
        alpha = MultiIndex((i, data.draw(st.integers(1, 3))) for i in used)
        terms[alpha] = data.draw(st.floats(-2.0, 2.0, allow_nan=False))
    F = ChaosVector(1000, 12, terms, prune=0.0)
    x = rng.normal(size=(data.draw(st.integers(1, 4)), 1000))
    assert_matches_reference(F, x, evaluate(F, x))


def test_empty_and_constant_vectors():
    x = np.random.default_rng(0).normal(size=(7, 3))
    assert np.array_equal(evaluate(ChaosVector.zero(3, 4), x), np.zeros(7))
    assert np.array_equal(evaluate(ChaosVector.constant(-2.5, 3, 4), x), np.full(7, -2.5))
    assert evaluate(ChaosVector.constant(1.0, 3, 4), np.zeros((0, 3))).shape == (0,)


def block_rows(F, x, monkeypatch):
    """The row counts of the blocks evaluate(F, x) contracts, read from the
    Hermite tables it builds."""
    widths = []
    real = chaos.hermite_rows

    def spy(cols, top, out=None):
        widths.append(cols.shape[-1])
        return real(cols, top, out)

    with monkeypatch.context() as m:
        m.setattr(chaos, "hermite_rows", spy)
        evaluate(F, x)
    return widths


@pytest.mark.parametrize("F", [exponential_vector([0.6, -0.4, 0.3, 0.2], 8),
                               ChaosVector(2, 6, {MultiIndex([(0, 2)]): 1.5, EMPTY: -1.0,
                                                  MultiIndex([(0, 1), (1, 5)]): 0.25})],
                         ids=["dense_d4_K8", "three_terms"])
def test_block_boundaries(F, monkeypatch):
    x = np.random.default_rng(5).normal(size=(70000, F.dim))
    widths = block_rows(F, x, monkeypatch)
    block = widths[0]
    assert 1 < block < 70000 and sum(widths) == 70000
    assert set(widths[:-1]) == {block}
    full = evaluate(F, x)
    for n in (1, block - 1, block, block + 1, 70000):
        got = evaluate(F, x[:n])
        probe = {0, 1, n - 2, n - 1, block - 1, block, block + 1}
        assert_matches_reference(F, x, got, rows=sorted(j for j in probe if 0 <= j < n))
        scale = np.max(np.abs(full[:n])) + 1.0
        assert np.max(np.abs(got - full[:n])) <= 1e-12 * scale
    assert block_rows(F, x[:block + 1], monkeypatch) == [block, 1]


def test_repeat_and_threaded_twins_are_bitwise():
    F = exponential_vector([0.5, 0.25, 0.2, 0.1], 8)
    G = exponential_vector([0.3, -0.2, 0.1, 0.4], 8)
    x = np.random.default_rng(9).normal(size=(5000, 4))
    first = evaluate(F, x)
    again = evaluate(ChaosVector(4, 8, F.terms, prune=0.0), x)
    assert first.tobytes() == again.tobytes() == evaluate(F, x).tobytes()
    n = (1 << 17) + 123
    serial = estimate_pair_expectation(F, G, n, seed=4)
    assert estimate_pair_expectation(F, G, n, seed=4, workers=2) == serial


def icopy_reference(p, sig, point, n, seed):
    """The per-term loop over complex powers: the mean of Re p(x + iY) and
    the mean of sum_alpha |a_alpha (x + iY)^alpha|."""
    total = size = 0.0
    for idx, rows in chunk_layout(n):
        z = point + 1j * chunk_normals(p.dim, seed, idx, rows) * sig
        vals = np.zeros(rows, dtype=complex)
        for alpha, c in p.items():
            term = np.full(rows, c, dtype=complex)
            for i, m in alpha.entries:
                term = term * z[:, i] ** m
            vals += term
            size += float(np.sum(np.abs(term)))
        total += float(np.sum(vals.real))
    return total / n, size / n


def test_icopy_mc_matches_per_term_loop():
    rng = np.random.default_rng(21)
    terms = {}
    for exps in np.ndindex(5, 5, 5):
        if sum(exps) <= 4:
            alpha = MultiIndex((i, m) for i, m in enumerate(exps))
            terms[alpha] = float(rng.uniform(-1.0, 1.0))
    p = PolySeries(3, terms, truncation=4)
    v = [0.4, 0.9, 0.6]
    point = np.array([0.3, -0.7, 1.1])
    n = 70000
    est = wick_order_icopy_mc(p, v, [point], n, seed=8)[0]
    want, scale = icopy_reference(p, np.sqrt(v), point, n, seed=8)
    assert abs(est.value - want) <= REL * scale
