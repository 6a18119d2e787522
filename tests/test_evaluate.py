"""Evaluation as a bilinear form, against the per-term reference.

helpers.eval_chaos_ref evaluates term by term through numpy's hermeval,
never through the package's Hermite table or contraction.  The contraction
sums in another order, so a value may differ from the reference by
rounding: at most 1e-12 of sum_alpha |c_alpha prod_i H_{alpha_i}(x_i)|,
the sum of absolute contributions to that value.
"""

import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wickchaos.chaos as chaos
from wickchaos.chaos import ChaosVector, evaluate, evaluate_at, exponential_vector
from wickchaos.errors import DomainError
from wickchaos.montecarlo import (estimate_expectation, estimate_lp_norm,
                                  estimate_pair_expectation, mean_estimate)
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.renormalization import PolySeries, wick_exp_square, wick_order_icopy_mc
from wickchaos.sampling import chunk_layout, chunk_normals
from wickchaos.stransform import s_transform_mc

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


@st.composite
def joint_vectors(draw):
    """1-4 vectors of one dim read together.  Each is a constant, a repeat
    of an earlier one (F is G), every label of degree <= min(order, 6) on
    up to 4 coordinates of a pool (dense, so the plan cuts, and degree
    dense, so C has zero cells past the top degree and the plan groups
    its heads by degree), or up to 60 labels on all of the pool or on one
    of two disjoint halves of it.  The pool is all of a small dim, or 16
    of 1000 coordinates."""
    if draw(st.booleans()):
        dim = 1000
        pool = draw(st.lists(st.integers(0, dim - 1), min_size=16, max_size=16, unique=True))
    else:
        dim = draw(st.integers(1, 6))
        pool = list(range(dim))
    order = draw(st.integers(0, 10))
    cut = draw(st.integers(0, len(pool)))
    supports = {"all": pool, "low": pool[:cut], "high": pool[cut:]}
    out = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("dense", "all", "low", "high", "constant", "repeat")))
        if kind == "repeat" and out:
            out.append(out[draw(st.integers(0, len(out) - 1))])
            continue
        terms = {EMPTY: draw(st.floats(-2.0, 2.0, allow_nan=False))}
        if kind == "dense":
            used = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=4, unique=True))
            rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
            for exps in np.ndindex(*[min(order, 6) + 1] * len(used)):
                if sum(exps) <= min(order, 6):
                    terms[MultiIndex(zip(used, exps))] = float(rng.uniform(-2.0, 2.0))
        coords = supports.get(kind)
        if coords:
            labels = st.lists(st.tuples(st.sampled_from(coords), st.integers(1, max(order, 1))),
                              max_size=min(len(coords), 4))
            for entries in draw(st.lists(labels, max_size=60)):
                alpha = MultiIndex(entries)
                if alpha.degree <= order:
                    terms[alpha] = draw(st.floats(-2.0, 2.0, allow_nan=False))
        out.append(ChaosVector(dim, order, terms, prune=0.0))
    return tuple(out)


@SETTINGS
@given(joint_vectors(), st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_joint_rows_match_per_term_reference(vectors, n, seed):
    x = np.random.default_rng(seed).normal(scale=1.5, size=(n, vectors[0].dim))
    rows = chaos._evaluate(vectors, x)
    assert rows.shape == (len(vectors), n)
    for F, got in zip(vectors, rows):
        assert_matches_reference(F, x, got)


@pytest.mark.parametrize("cut", [True, False], ids=["cut", "no_cut"])
def test_joint_plan_takes_both_routes(cut):
    if cut:  # two dense vectors: 9 + 9 basis rows carry 45 labels
        F = exponential_vector([0.5, -0.3], 8)
        vectors = (F, exponential_vector([0.2, 0.4], 8), F)
    else:  # two sparse vectors on disjoint coordinates of a wide dim
        vectors = (ChaosVector(40, 4, {MultiIndex([(3, 2), (17, 1)]): 0.5, EMPTY: 1.0}),
                   ChaosVector(40, 4, {MultiIndex([(25, 3)]): -2.0, MultiIndex([(31, 1)]): 1.5}))
    plan = chaos._plan(vectors)
    if cut:
        assert sum(len(idx) for idx, _ in plan.head) > 1
    else:  # one head row, the empty part: label 0, H_0 = 1, with no further factor
        (idx, starts), = plan.head
        assert idx.tolist() == [[0]] and starts == []
    x = np.random.default_rng(3).normal(size=(3000, vectors[0].dim))
    rows = chaos._evaluate(vectors, x)
    for F, got in zip(vectors, rows):
        assert_matches_reference(F, x, got, rows=range(0, 3000, 97))
        assert np.max(np.abs(got - evaluate(F, x))) <= 1e-12 * (np.max(np.abs(got)) + 1.0)


@pytest.mark.parametrize("F", [
    ChaosVector(1, 8, {MultiIndex([(0, m)]): (-0.7) ** m for m in range(9)}),
    ChaosVector(60, 4, {MultiIndex([(3, 2), (41, 1)]): 0.5, MultiIndex([(17, 4)]): -1.5,
                        MultiIndex([(29, 1)]): 2.0, MultiIndex([(55, 3)]): 0.25, EMPTY: 1.0}),
], ids=["one_coordinate", "sparse_wide"])
def test_no_cut_plan_across_block_edges(F):
    plan = chaos._plan((F,))
    assert [g.shape[:2] for g in plan.C] == [(1, 1)]  # the one head is the empty part
    n = 3 * plan.block + 7
    x = np.random.default_rng(11).normal(scale=1.5, size=(n, F.dim))
    got = evaluate(F, x)
    edges = [plan.block, 2 * plan.block, 3 * plan.block]
    assert_matches_reference(F, x, got, rows=[0, n - 1] + [e + i for e in edges for i in (-1, 0)])


E4 = exponential_vector([0.6, -0.4, 0.3, 0.2], 8)
BOX = ChaosVector(4, 8, {MultiIndex(enumerate(e)): 1.0 + sum(e) / 10
                         for e in np.ndindex(3, 3, 3, 3)})


@pytest.mark.parametrize("vectors, groups", [
    # deg a + deg b <= 8: the 10 heads of degree <= 3 meet all 45 tails, the
    # other 35 only the 15 tails of degree <= 4, 975 of 2,025 cells
    ((E4,), [(10, 45), (35, 15)]),
    ((E4, exponential_vector([0.3, -0.2, 0.1, 0.4], 8)), [(10, 45), (35, 15)]),
    # every exponent <= 2: 9 heads and 9 tails of degree <= 4, no zero cell
    ((BOX,), [(9, 9)]),
], ids=["exp", "exp_pair", "box"])
def test_graded_plan_layout(vectors, groups):
    C = chaos._plan(vectors).C
    assert [g.shape for g in C] == [(len(vectors), rows, width) for rows, width in groups]
    # every coefficient has its cell: no nonzero cell was dropped
    assert sum(np.count_nonzero(g) for g in C) == sum(len(F.terms) for F in vectors)
    x = np.random.default_rng(6).normal(size=(3000, 4))
    for F, got in zip(vectors, chaos._evaluate(vectors, x)):
        assert_matches_reference(F, x, got, rows=range(0, 3000, 97))


def test_joint_non_finite_raises_without_warnings():
    # the second vector's Hermite recurrence overflows at order 600 and x = 4
    F = ChaosVector.coordinate(0, 1, 600)
    W = wick_exp_square(0.95, K=300).series
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            chaos._evaluate((F, W), [[4.0]])
        with pytest.raises(DomainError):
            estimate_pair_expectation(F, W, 1000, seed=1)


def test_empty_and_constant_vectors():
    x = np.random.default_rng(0).normal(size=(7, 3))
    assert np.array_equal(evaluate(ChaosVector.zero(3, 4), x), np.zeros(7))
    assert np.array_equal(evaluate(ChaosVector.constant(-2.5, 3, 4), x), np.full(7, -2.5))
    assert evaluate(ChaosVector.constant(1.0, 3, 4), np.zeros((0, 3))).shape == (0,)


CONSTANTS = [ChaosVector.constant(-2.5, 3, 4), ChaosVector.zero(3, 4)]


def test_a_store_with_no_used_coordinate_is_read_at_coordinate_0():
    # the one plan shape: the empty part at coordinate 0, table row H_0 = 1
    assert chaos._plan((ChaosVector.constant(-2.5, 3, 4),)).coords == [0]
    plan = chaos._plan((ChaosVector.zero(3, 4),))
    assert plan.coords == [0] and plan.top == 0
    for runs in plan.head, plan.tail:
        (idx, starts), = runs
        assert idx.tolist() == [[0]] and starts == []
    C, = plan.C
    assert C.shape == (1, 1, 1) and C.tobytes() == np.zeros(1).tobytes()


@pytest.mark.parametrize("joint", [False, True], ids=["alone", "with_a_cut_vector"])
def test_constant_and_zero_rows_are_bitwise_across_block_edges(joint):
    cut = (exponential_vector([0.5, -0.3, 0.2], 4),) if joint else ()
    for F in CONSTANTS:
        vectors = (F,) + cut
        block = chaos._plan(vectors).block
        x = np.random.default_rng(13).normal(size=(block + 1, 3))
        if not joint:  # only the table row H_0 = 1 is read: any sample gives the constant
            x[::4], x[1::4], x[2::4] = np.nan, np.inf, -np.inf
        for n in (1, block - 1, block, block + 1):
            got = chaos._evaluate(vectors, x[:n])[0]
            assert got.tobytes() == np.full(n, F.coeff(EMPTY)).tobytes()


def test_constant_estimates_are_the_mean_of_its_value():
    # each sample reads c * 1.0 * 1.0 = c, so the estimate is that of a full column
    K, Z = CONSTANTS
    n = (1 << 17) + 5

    def column(c):
        return lambda x: np.full(len(x), c)

    want = mean_estimate(column(-2.5), 3, n, seed=8)
    want_pair = mean_estimate(column(-2.5 * -2.5), 3, n, seed=8)
    for workers in (1, 2):
        assert estimate_expectation(K, n, seed=8, workers=workers) == want
        assert estimate_pair_expectation(K, K, n, seed=8, workers=workers) == want_pair
        zero = estimate_pair_expectation(K, Z, n, seed=8, workers=workers)
        assert (zero.value, zero.std_error) == (0.0, 0.0)
        assert math.copysign(1.0, zero.value) == 1.0


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
    sparse = ChaosVector(4, 8, {MultiIndex([(1, 3)]): 0.7, MultiIndex([(0, 1), (3, 2)]): -0.4,
                                EMPTY: 0.2})
    for A, B in ((F, G), (F, sparse), (sparse, ChaosVector.coordinate(2, 4, 8)), (G, G)):
        serial = estimate_pair_expectation(A, B, n, seed=4)
        assert estimate_pair_expectation(A, B, n, seed=4, workers=2) == serial
        assert estimate_pair_expectation(A, B, n, seed=4) == serial


@pytest.mark.parametrize("estimate", [
    lambda F, n, w: s_transform_mc(F, [0.2, -0.1, 0.15, 0.05], n, seed=6, workers=w),
    lambda F, n, w: estimate_lp_norm(F, 2.0, n, seed=6, workers=w),
    lambda F, n, w: estimate_lp_norm(F, 3.0, n, seed=6, workers=w)],
    ids=["s_transform_mc", "lp_norm_p2", "lp_norm_p3"])
def test_estimates_do_not_depend_on_the_worker_count(estimate):
    F = exponential_vector([0.5, 0.25, 0.2, 0.1], 8)
    n = (1 << 17) + 12345
    serial = estimate(F, n, None)
    for workers in (2, 3):
        assert estimate(F, n, workers) == serial


def block_buffers():
    """The arrays this thread keeps for _contract, by name (those of
    _convolve_dense, its "work", left out)."""
    return {name: a for name, a in chaos._kept.__dict__.items() if name != "work"}


def test_a_warm_evaluation_allocates_only_its_output():
    # block buffers made per call let the C allocator trim and re-fault its
    # heap on every call: a warm call keeps to its 512 KiB output and small change
    F = exponential_vector([0.3, -0.2, 0.1, 0.25], 8)
    x = np.random.default_rng(2).normal(size=(1 << 16, 4))
    evaluate(F, x)
    tracemalloc.start()
    try:
        evaluate(F, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(x) + (128 << 10)


def test_block_buffers_are_kept_per_thread():
    F = exponential_vector([0.5, 0.25, 0.2, 0.1], 8)
    x = np.random.default_rng(3).normal(size=(20000, 4))
    want = evaluate(F, x).tobytes()
    kept = block_buffers()
    assert set(kept) == {"block"} and len(kept["block"]) <= 20 * chaos._EVAL_CELLS
    assert evaluate(F, x).tobytes() == want
    assert all(block_buffers()[name] is a for name, a in kept.items())
    other = []
    thread = threading.Thread(target=lambda: other.append((evaluate(F, x).tobytes(),
                                                           block_buffers())))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    got, theirs = other[0]
    assert got == want and all(theirs[name] is not a for name, a in kept.items())


def test_a_call_that_raises_drops_its_block_buffers():
    F = exponential_vector([0.5, 0.25, 0.2, 0.1], 8)
    x = np.random.default_rng(4).normal(size=(20000, 4))
    want = evaluate(F, x).tobytes()

    def overflowing(cols, top, out):  # half fills the table, then finds an overflow
        out[:2] = np.inf
        raise DomainError("overflow")

    with pytest.raises(DomainError):
        chaos._contract(chaos._plan((F,)), x, overflowing)
    assert block_buffers() == {}
    assert evaluate(F, x).tobytes() == want
    # the recurrence overflows at order 600 and x = 40: the buffers the call
    # leaves hold inf and NaN, and the next call overwrites them
    W = ChaosVector(2, 601, {MultiIndex([(0, 600), (1, 1)]): 1.0})
    with pytest.raises(DomainError):
        evaluate(W, np.full((5000, 2), 40.0))
    assert evaluate(F, x).tobytes() == want


def test_real_and_complex_tables_share_the_kept_buffers():
    F = exponential_vector([0.5, 0.25, 0.2, 0.1], 8)
    x = np.random.default_rng(5).normal(size=(20000, 4))
    terms = {MultiIndex((i, m) for i, m in enumerate(e) if m): 0.1 * sum(e) - 0.3
             for e in np.ndindex(4, 4) if sum(e) <= 6}
    p = PolySeries(2, terms, truncation=6)
    points = [[0.3, -0.7], [0.0, -0.0]]

    def run():
        return (evaluate(F, x).tobytes(), wick_order_icopy_mc(p, [0.5, 2.0], points, 70000, 3),
                evaluate(F, x).tobytes())

    fresh = []
    thread = threading.Thread(target=lambda: fresh.append(run()))
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    first, icopy, again = run()
    assert (first, icopy, again) == fresh[0] and first == again
    assert set(block_buffers()) == {"block"}


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
