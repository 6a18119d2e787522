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


def test_wick_exp_past_the_kept_range_makes_no_range_arrays():
    # at K=8 the degrees of wick_exp_I2 run over 17^5 codes, past
    # _KEPT_CELLS, where the kernel would make its arrays per call: the
    # route rule prices that, and a warm call allocates less than one array
    # over the range (two of them, 27 MB, on the array route)
    M = SymTensor(5, 2, {(i, j): 0.05 + 0.01 * (i + 2 * j) for i in range(5) for j in range(i, 5)})
    assert 17 ** 5 > chaos._KEPT_CELLS
    assert warm_peak(lambda: wick_exp_I2(M, K=8)) < 8 * 17 ** 5


def test_a_range_past_the_kept_one_is_priced_per_call():
    # a kept code costs a pair per _CELLS_PER_PAIR codes, a code of arrays
    # made per call eight times as much; a clipped Wick product at (6,10),
    # 646,646 pairs over 11^6 codes, keeps the array route
    per_pair, kept, fresh = chaos._CELLS_PER_PAIR, chaos._KEPT_CELLS, chaos._KEPT_CELLS + 1
    assert chaos._dense(chaos._CROSSOVER + kept // per_pair, kept)
    assert not chaos._dense(chaos._CROSSOVER + fresh // per_pair, fresh)
    assert chaos._dense(chaos._CROSSOVER + fresh // (per_pair // 8), fresh)
    assert not chaos._dense(chaos._CROSSOVER + fresh // (per_pair // 8) - 1, fresh)
    degrees = [a for a in range(11) for _ in range(math.comb(a + 5, 5))]
    assert chaos._wick_pairs(degrees, degrees, 10) == 646646
    assert chaos._dense(646646, 11 ** 6)
    assert not chaos._dense(1 << 40, chaos._CELLS + 1)


# -- the label boundary: coordinates, codes and new labels ----------------------

def full_scan(stores):
    return sorted({i for F in stores for a in F.terms for i, _ in a.entries})


def last_completes(dim, order):
    """A store on the coordinates 0..dim-2 whose last label brings in dim - 1."""
    terms = {MultiIndex([(i % (dim - 1), 1 + i % order)]): 0.5 + i for i in range(3 * dim)}
    terms[MultiIndex([(dim - 1, 1)])] = 2.0
    return ChaosVector(dim, order, terms)


@st.composite
def store_sets(draw):
    """One to three stores of one dim, each dense (an exponential vector on
    every coordinate), wide and sparse (a few of many coordinates),
    constant, empty, or one whose last label alone completes dim."""
    dim = draw(st.sampled_from([1, 2, 3, 5, 40, 1000]))
    order = draw(st.integers(1, 4 if dim <= 5 else 1))
    kinds = ["dense", "wide", "constant", "empty"] + (["last"] if dim > 1 else [])
    out = []
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        if kind == "dense":
            out.append(exponential_vector([0.3 + 0.01 * i for i in range(dim)], order))
        elif kind == "wide":
            used = draw(st.lists(st.integers(0, dim - 1), min_size=1, max_size=16, unique=True))
            out.append(draw(vectors(dim, order, indices=used)))
        elif kind == "constant":
            out.append(ChaosVector.constant(draw(st.floats(-2.0, 2.0)), dim, order))
        elif kind == "empty":
            out.append(ChaosVector.zero(dim, order))
        else:
            out.append(last_completes(dim, order))
    return out


@SETTINGS
@given(stores=store_sets())
def test_coordinates_are_those_of_the_full_scan(stores):
    # the scan that stops once it has found dim coordinates returns what a
    # scan of every label entry returns
    assert chaos._coords(stores) == full_scan(stores)


def test_coordinates_of_a_wide_store_and_of_late_coordinates():
    # 200 labels over 16 of 1,000 coordinates, and a store of ~600 labels
    # whose last one brings in the last coordinate
    rng = np.random.default_rng(7)
    used = rng.choice(1000, 16, replace=False)
    terms = {}
    while len(terms) < 200:
        picked = rng.choice(used, int(rng.integers(1, 4)), replace=False)
        terms[MultiIndex([(int(i), int(rng.integers(1, 3))) for i in picked])] = 1.0
    wide = ChaosVector(1000, 6, terms)
    for stores in ([wide], [wide, wide], [last_completes(200, 3)],
                   [wide, exponential_vector([0.1] * 1000, 1)]):
        assert chaos._coords(stores) == full_scan(stores)


@pytest.mark.parametrize("route", ROUTES)
def test_codes_are_bitwise_on_new_and_on_twin_labels(monkeypatch, route):
    # the codes read straight into int64 fall back to computing them when
    # the codec lacks a label: a cold codec, one that knows only the labels
    # of degree <= 2, and labels equal to the known ones but distinct
    # objects all give the bits and term order of a cold codec
    crossover, chunk = route
    monkeypatch.setattr(chaos, "_CROSSOVER", crossover)
    monkeypatch.setattr(chaos, "_CELLS_PER_PAIR", 1 << 62)
    monkeypatch.setattr(chaos, "_CHUNK", chunk)
    F = exponential_vector([0.3, -0.2, 0.1], 5)
    G = exponential_vector([-0.1, 0.25, 0.2], 5)
    y = [0.25, -0.5, 0.1]
    cold()
    want = results(F, G, y)
    low = ChaosVector(3, 5, {a: c for a, c in F.items() if a.degree <= 1})
    twin = [ChaosVector(3, 5, {MultiIndex(a.entries): c for a, c in V.items()}) for V in (F, G)]
    assert all(a is not b for a, b in zip(F.terms, twin[0].terms))
    cold()
    wick_product(low, low, clip=True)  # the codec learns the labels of degree <= 2
    codec = chaos._codec(6, F)
    assert 0 < len(codec.code) < F.n_terms()
    assert chaos._codes(F, codec).tolist() == chaos._coded(F, codec)
    assert results(F, G, y) == want
    assert results(*twin, y) == want
    assert chaos._codes(twin[0], codec).tolist() == chaos._codes(F, codec).tolist()


def test_decoding_when_only_some_codes_are_new():
    # a product whose output codes the codec knows in part: the known
    # ones read their labels, the others are decoded, in first-visit order
    E = exponential_vector([0.3, -0.2], 4)
    cold()
    want = bits(wick_product(E, E, clip=True))
    low = ChaosVector(2, 4, {a: c for a, c in E.items() if a.degree <= 1})
    cold()
    wick_product(low, low, clip=True)
    codec = chaos._codec(5, E)
    known = set(codec.label)
    assert bits(wick_product(E, E, clip=True)) == want
    assert known < set(codec.label)
    out = {code: 1.0 for code in sorted(set(codec.label))}
    cold()
    decoded = chaos._decoded(dict(out), chaos._codec(5, E), 2, 4, ChaosVector)
    cold()
    codec = chaos._codec(5, E)
    codec.learn(*zip(*[(a, code) for a, code in zip(decoded.terms, out) if code in known]))
    assert bits(chaos._decoded(dict(out), codec, 2, 4, ChaosVector)) == bits(decoded)


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
