"""The label codecs and the trusted store builder behind the product kernels.

A codec maps labels to integer codes and back for one key (base, *coords)
and is kept across calls.  Whatever a codec holds, a result must be the one
a cold codec gives: the same labels, the same bits, the same term order.
The kernels' output skips the label checks of the public constructor but
must still raise on a NaN or inf.  It drops exact zeros only: a threshold
is applied by the constructor alone, so no derived store depends on the
prune its operands were built with.
"""

import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickchaos import chaos
from wickchaos.chaos import (ChaosVector, SymTensor, exponential_vector,
                             ordinary_product, wick_exp, wick_product)
from wickchaos.errors import DomainError
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.renormalization import PolySeries, chaos_to_poly, poly_to_chaos, wick_exp_I2
from wickchaos.stransform import translate

from helpers import PRUNE_DEFAULT, vectors

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# (crossover, chunk): the dict loop whatever the pair count, and numpy in
# chunks of three pairs from the first pair on
ROUTES = [(1 << 62, 1 << 15), (0, 3)]


def bits(F):
    """The terms of F in store order, each coefficient as its exact bits."""
    return [(a, c.hex()) for a, c in F.items()]


def cold():
    chaos._codecs.clear()
    chaos._held = 0


def kernels(F, G, y):
    """Every kernel that reads or fills a codec, on F and G (one dim)."""
    return [lambda: wick_product(F, G, clip=True), lambda: ordinary_product(F, G, clip=True),
            lambda: translate(F, y), lambda: wick_exp(F, max(F.max_order, 1)),
            lambda: poly_to_chaos(chaos_to_poly(G))]


def results(F, G, y):
    return [bits(run()) for run in kernels(F, G, y)]


@st.composite
def pairs(draw):
    dim = draw(st.integers(1, 4))
    F = draw(vectors(dim, draw(st.integers(0, 5))))
    G = draw(vectors(dim, draw(st.integers(0, 5))))
    y = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim, max_size=dim))
    return F, G, y


@SETTINGS
@given(case=pairs())
def test_results_do_not_depend_on_the_codec(case):
    F, G, y = case
    cold()
    first = results(F, G, y)
    assert results(F, G, y) == first  # warm
    for run, want in zip(kernels(F, G, y), first):  # each kernel first on cold codecs
        cold()
        assert bits(run()) == want
    # a PolySeries under the same keys fills the same codecs first
    cold()
    p = PolySeries(F.dim, F.terms, F.max_order)
    q = PolySeries(G.dim, G.terms, G.max_order)
    wick_product(p, q, clip=True)
    chaos_to_poly(F)
    assert results(F, G, y) == first
    assert bits(wick_product(p, q, clip=True)) == first[0]


def test_results_survive_the_size_bound(monkeypatch):
    F = exponential_vector([0.4, -0.7, 0.25], 4)
    G = exponential_vector([-0.3, 0.5, 0.9], 4)
    y = [0.3, -0.2, 0.1]
    cold()
    want = results(F, G, y)
    monkeypatch.setattr(chaos, "_CODEC_LABELS", 100)
    for order in range(1, 60):  # many distinct keys, each with new labels
        H = exponential_vector([0.1, 0.2], order)
        wick_product(H, H, clip=True)
        assert chaos._held <= 100 + H.n_terms() + 1
        assert sum(len(c.label) for c in chaos._codecs.values()) <= chaos._held
    assert results(F, G, y) == want
    # a codec past the bound is dropped at the next call, not kept growing
    assert chaos._held <= 100 + 2 * 35 + 1


def test_codec_maps_agree():
    F = exponential_vector([0.4, -0.7, 0.25], 5)
    cold()
    ordinary_product(F, F, clip=True)
    translate(F, [0.1, 0.2, 0.3])
    for codec in chaos._codecs.values():
        assert len(codec.code) == len(codec.label)
        for a, code in codec.code.items():
            assert codec.label[code] == a
            assert code == sum(m * codec.place[i] for i, m in a.entries)
            assert all(m < codec.base for _, m in a.entries)


def test_threads_share_the_codecs(monkeypatch):
    # four threads on two cores, switching often, while the codecs are
    # dropped again and again: every result stays that of one thread alone
    monkeypatch.setattr(chaos, "_CODEC_LABELS", 40)
    vecs = [exponential_vector([0.3, -0.2, 0.1][:d], K) for d in (1, 2, 3) for K in (2, 3, 4)]
    cases = [(F, G) for F in vecs for G in vecs if F.dim == G.dim]
    kernels_of = [lambda F, G: wick_product(F, G, clip=True),
                  lambda F, G: ordinary_product(F, G, clip=True),
                  lambda F, G: translate(F, [0.25] * F.dim)]
    cold()
    want = [[bits(k(F, G)) for k in kernels_of] for F, G in cases]
    failures = []

    def work(shift):
        try:
            for r in range(3):
                for i in range(len(cases)):
                    j = (i * (shift + 1) + r) % len(cases)
                    F, G = cases[j]
                    if [bits(k(F, G)) for k in kernels_of] != want[j]:
                        failures.append((shift, j))
        except Exception as exc:  # reported below, with the thread's shift
            failures.append((shift, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert chaos._held >= sum(len(c.label) for c in chaos._codecs.values())


def dense_route(monkeypatch, chunk):
    monkeypatch.setattr(chaos, "_CROSSOVER", 0)
    monkeypatch.setattr(chaos, "_CELLS_PER_PAIR", 1 << 62)
    monkeypatch.setattr(chaos, "_CHUNK", chunk)


def test_dense_kernel_reuses_clean_work_arrays_per_thread(monkeypatch):
    # each call hands the thread's work arrays back zeroed and unvisited, the
    # next call reuses them, and another thread gets arrays of its own
    F = exponential_vector([0.3, -0.2, 0.1], 6)
    G = exponential_vector([-0.1, 0.25, 0.2], 6)
    runs = [lambda: wick_product(F, G, clip=True), lambda: ordinary_product(F, G, clip=True),
            lambda: translate(F, [0.25, -0.5, 0.1])]
    want = {}
    for chunk in (3, 1 << 15):
        dense_route(monkeypatch, chunk)
        for i, run in enumerate(runs):
            got = bits(run())
            assert want.setdefault(i, got) == got
            work = chaos._kept.work
            assert not work[0].any() and (work[1] == chaos._UNSEEN).all()
            assert bits(run()) == got
            assert chaos._kept.work is work
    other = []
    thread = threading.Thread(target=lambda: other.append((bits(runs[0]()), chaos._kept.work)))
    thread.start()
    thread.join()
    assert other[0][0] == want[0] and other[0][1] is not chaos._kept.work


def test_a_dense_call_that_raises_drops_its_work(monkeypatch):
    # code 6 is past the range of 6 codes and stops np.add.at: the arrays
    # it may have half filled must not reach the next call
    dense_route(monkeypatch, 3)
    E = exponential_vector([0.3, -0.2], 4)
    want = bits(wick_product(E, E, clip=True))
    with pytest.raises(IndexError):
        chaos._convolve_dense(np.array([0, 5]), np.ones(2), np.array([2, 2]),
                              np.zeros(2, np.int64), np.array([0, 1]), np.ones(2), 6)
    assert getattr(chaos._kept, "work", None) is None
    assert bits(wick_product(E, E, clip=True)) == want


def test_a_warm_dense_product_allocates_nothing_per_pair():
    # pair arrays made per call let the C allocator trim and re-fault its
    # heap on every call in some memory layouts: a warm call at d=4, K=8
    # allocates less than two arrays of its 12,870 pairs
    F = exponential_vector([0.3, -0.2, 0.1, 0.25], 8)
    G = exponential_vector([-0.1, 0.25, 0.2, -0.3], 8)
    wick_product(F, G, clip=True)
    tracemalloc.start()
    try:
        wick_product(F, G, clip=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 12870


def warm_peak(run):
    """The tracemalloc peak of run() after two calls."""
    run()
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_a_warm_wick_exp_and_translate_allocate_nothing_per_pair(monkeypatch):
    # on the array route a warm call allocates less than it does on the
    # dict loop plus two arrays of the pairs of its largest kernel call:
    # wick_exp_I2 at d=5, K=4 (3,150 pairs at degree 8) and translate at
    # (4,8) (1,287 pairs per coordinate)
    M = SymTensor(5, 2, {(i, j): 0.05 + 0.01 * (i + 2 * j) for i in range(5) for j in range(i, 5)})
    E = exponential_vector([0.3, -0.2, 0.1, 0.25], 8)
    cases = [(lambda: wick_exp_I2(M, K=4), 3150),
             (lambda: translate(E, [0.25, 0.0, -0.5, 1.5]), 1287)]
    for run, pairs in cases:
        dense_route(monkeypatch, 1 << 15)
        kernel = warm_peak(run)
        monkeypatch.setattr(chaos, "_CROSSOVER", 1 << 62)
        assert kernel < warm_peak(run) + 16 * pairs


def test_codecs_are_made_on_first_use():
    src = os.path.dirname(os.path.dirname(chaos.__file__))
    out = subprocess.run(
        [sys.executable, "-c", "import wickchaos, wickchaos.cli; from wickchaos import chaos; "
         "print(len(chaos._codecs), chaos._held)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["0", "0"]


# -- the trusted builder stays loud ---------------------------------------------

def huge(dim, order):
    """1e200 at every label of degree <= 1: any product of two overflows."""
    terms = {EMPTY: 1e200}
    terms.update({MultiIndex([(i, 1)]): -1e200 * (i + 1) for i in range(dim)})
    return ChaosVector(dim, order, terms, prune=0.0)


def steep(order):
    """1e306 at H_order(e~_0): its lowered values 1e306 * p! C(order, p)
    overflow before any pair is formed, from int64 weights at order 6 and
    from Python-int weights at order 24."""
    return ChaosVector(2, order, {MultiIndex([(0, order)]): 1e306,
                                  MultiIndex([(1, 1)]): 1.0}, prune=0.0)


@pytest.mark.parametrize("crossover,chunk", ROUTES, ids=["dict", "numpy"])
@pytest.mark.parametrize("product", [wick_product, ordinary_product])
def test_overflowing_products_raise(monkeypatch, product, crossover, chunk):
    # loud on both routes, and on the array route without a numpy warning
    monkeypatch.setattr(chaos, "_CROSSOVER", crossover)
    monkeypatch.setattr(chaos, "_CELLS_PER_PAIR", 1 << 62)
    monkeypatch.setattr(chaos, "_CHUNK", chunk)
    cases = [huge(3, 4)]
    if product is ordinary_product:
        cases += [steep(6), steep(24)]
    for F in cases:
        for codec in (cold, lambda: None):
            codec()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DomainError, match="not finite"):
                    product(F, F, clip=True)


def test_overflowing_translate_and_wick_exp_raise():
    # loud on both routes, and on the array route without a numpy warning
    F = ChaosVector(2, 6, {MultiIndex([(0, 6)]): 1e306, MultiIndex([(1, 1)]): 1.0}, prune=0.0)
    # (4,8) translates on the array route at the default crossover, where
    # inf - inf makes a NaN inside the kernel
    E = exponential_vector([0.3, -0.2, 0.1, 0.4], 8)
    G = ChaosVector(4, 8, {a: 1e300 * c for a, c in E.items()}, prune=0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="not finite"):
            translate(G, [1e3, -1e3, 1e3, 0.0])
        for crossover, chunk in ROUTES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(chaos, "_CROSSOVER", crossover)
                mp.setattr(chaos, "_CELLS_PER_PAIR", 1 << 62)
                mp.setattr(chaos, "_CHUNK", chunk)
                with pytest.raises(DomainError, match="not finite"):
                    translate(F, [1e3, 0.0])
                with pytest.raises(DomainError, match="not finite"):
                    wick_exp(ChaosVector(1, 2, {EMPTY: 700.0, MultiIndex([(0, 1)]): 1e300}), 2)


def test_a_nan_is_never_pruned():
    # a NaN is truthy and abs(nan) > prune is False: whichever rule drops
    # terms, a check after it could miss one, so the check comes first
    x = MultiIndex([(0, 1)])
    for cls in (ChaosVector, PolySeries):
        with pytest.raises(DomainError, match="nan"):
            cls._trusted(1, 2, {EMPTY: 0.0, x: math.nan})
        with pytest.raises(DomainError, match="-inf"):
            cls._trusted(1, 2, {EMPTY: 0.0, x: -math.inf})
        out = cls._trusted(1, 2, {EMPTY: 0.0, x: 2.0, x + x: -0.0})
        assert out.terms == {x: 2.0} and out.prune == 0.0
        tiny = {EMPTY: 5e-324, x: -1e-20, x + x: 1e-300}
        assert cls._trusted(1, 2, dict(tiny)).terms == tiny


def rebuilt(P, unpruned):
    """The public constructor's reading of the unpruned result at P's prune,
    which is 0.0 for every derived store."""
    return ChaosVector(P.dim, P.max_order, unpruned.terms, prune=P.prune)


SMALL = [1e-8, -3e-7, 2.0 ** -24, 2.0 ** -23, 1e-3, 1.0]


@st.composite
def small_vectors(draw, dim, order):
    terms = {}
    for _ in range(draw(st.integers(1, 6))):
        deg = draw(st.integers(0, order))
        alpha = MultiIndex.from_indices(draw(st.lists(st.integers(0, dim - 1),
                                                      min_size=deg, max_size=deg)))
        terms[alpha] = draw(st.sampled_from(SMALL))
    return terms


@SETTINGS
@given(data=st.data(), prune=st.sampled_from([PRUNE_DEFAULT, 2.0 ** -47, 1e-10]))
def test_the_prune_drops_what_the_constructor_drops(data, prune):
    # operands built under a prune give the bits of the same operands built
    # at 0.0: the threshold does not pass on, and products of 2^-24 and
    # 2^-23 (2^-47, under every prune drawn) are kept
    dim, order = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4))
    f, g = data.draw(small_vectors(dim, order)), data.draw(small_vectors(dim, order))
    F, G = (ChaosVector(dim, order, t, prune=prune) for t in (f, g))
    F0, G0 = (ChaosVector(dim, order, t, prune=0.0) for t in (f, g))
    for crossover, chunk in ROUTES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chaos, "_CROSSOVER", crossover)
            mp.setattr(chaos, "_CELLS_PER_PAIR", 1 << 62)
            mp.setattr(chaos, "_CHUNK", chunk)
            for product in (wick_product, ordinary_product):
                P, U = product(F, G, clip=True), product(F0, G0, clip=True)
                assert P.prune == 0.0 and bits(P) == bits(rebuilt(P, U))
    y = [0.5] * dim
    assert bits(translate(F, y)) == bits(rebuilt(F, translate(F0, y)))
    E, E0 = (wick_exp(ChaosVector(dim, order, f, prune=p), order) for p in (prune, 0.0))
    assert bits(E) == bits(rebuilt(E, E0))


def test_prune_boundary_is_inclusive():
    # the constructor drops |c| <= prune: 2^-47 goes at prune 2^-47 and
    # stays just under it
    x, y = MultiIndex([(0, 1)]), MultiIndex([(1, 1)])
    assert ChaosVector(2, 2, {x + y: 2.0 ** -47}, prune=2.0 ** -47).n_terms() == 0
    assert ChaosVector(2, 2, {x + y: 2.0 ** -47}, prune=2.0 ** -48).n_terms() == 1
    # 2^-24 * 2^-23 = 2^-47 exactly: the product is not a constructor, so
    # it keeps the term that the operands' prune would have dropped
    F = ChaosVector(2, 2, {x: 2.0 ** -24, EMPTY: 1.0}, prune=2.0 ** -47)
    G = ChaosVector(2, 2, {y: 2.0 ** -23, EMPTY: 1.0}, prune=2.0 ** -47)
    P = wick_product(F, G)
    assert P.coeff(x + y) == 2.0 ** -47 and P.coeff(x) == 2.0 ** -24
    assert P.coeff(EMPTY) == 1.0 and P.prune == 0.0
