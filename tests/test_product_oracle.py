"""Products, translation and the Wick exponential against an exact-rational
oracle, and the two routes of the product and coordinatewise kernels
against each other.

The oracle works on sparse maps {((i, m), ...): Fraction} and applies the
coordinatewise definitions: a pair of basis elements multiplies coordinate
by coordinate, and each one-dimensional factor is re-expanded in the
Hermite basis from integer power-basis polynomials, never from the
package's tables.  Every float converts to a Fraction exactly, so the only
error left is the package's rounding; it must stay within 1e-14 of the sum
of absolute contributions to each coefficient, which the oracle computes
alongside.
"""

import itertools
import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wickchaos import chaos
from wickchaos.chaos import (ChaosVector, SymTensor, expectation, exponential_vector,
                             from_tensor, ordinary_product, scale, wick_exp, wick_product)
from wickchaos.errors import DimensionMismatchError, DomainError, OrderOverflowError
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.renormalization import PolySeries, chaos_to_poly, poly_mul, poly_to_chaos
from wickchaos.stransform import s_transform, translate

from helpers import absolute, assert_coeffs_close, signed, vectors

REL = 1e-14

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


# -- the oracle ------------------------------------------------------------------

@lru_cache(maxsize=None)
def hermite_poly(n):
    """Integer power-basis coefficients of H_n, lowest degree first."""
    prev, cur = (1,), (0, 1)
    if n == 0:
        return prev
    for k in range(1, n):
        nxt = [0] + list(cur)
        for j, c in enumerate(prev):
            nxt[j] -= k * c
        prev, cur = cur, tuple(nxt)
    return cur


def to_hermite(poly):
    """Hermite coefficients {n: value} of a power-basis polynomial; H_n is
    monic, so the leading term is peeled off one degree at a time."""
    poly = list(poly)
    out = {}
    for n in range(len(poly) - 1, -1, -1):
        c = poly[n]
        if c:
            out[n] = c
            for j, h in enumerate(hermite_poly(n)):
                poly[j] -= c * h
    return out


@lru_cache(maxsize=None)
def linearize(a, b):
    """H_a H_b in the Hermite basis, from the product of the polynomials."""
    pa, pb = hermite_poly(a), hermite_poly(b)
    prod = [0] * (a + b + 1)
    for i, x in enumerate(pa):
        for j, y in enumerate(pb):
            prod[i + j] += x * y
    return to_hermite(prod)


def shift(n, a):
    """H_n(x + a) in the Hermite basis of x, by expanding (x + a)^j."""
    poly = [Fraction(0)] * (n + 1)
    for j, h in enumerate(hermite_poly(n)):
        for i in range(j + 1):
            poly[i] += h * math.comb(j, i) * a ** (j - i)
    return to_hermite(poly)


def exact(F):
    return {a.entries: Fraction(c) for a, c in F.items()}


def combine(pairs, factor):
    """Sum over (alpha, c), (beta, d) of c d factor(alpha, beta), where factor
    yields (gamma, weight).  Returns the exact sums and the sums of
    absolute contributions."""
    val, mag = {}, {}
    for (a, c), (b, d) in pairs:
        for g, w in factor(a, b):
            val[g] = val.get(g, 0) + c * d * w
            mag[g] = mag.get(g, 0) + abs(c * d * w)
    return val, mag


def wick_factor(a, b):
    counts = dict(a)
    for i, m in b:
        counts[i] = counts.get(i, 0) + m
    yield tuple(sorted(counts.items())), 1


def ordinary_factor(a, b):
    ea, eb = dict(a), dict(b)
    coords = sorted(set(ea) | set(eb))
    options = [linearize(ea.get(i, 0), eb.get(i, 0)).items() for i in coords]
    for combo in itertools.product(*options):
        w = math.prod(c for _, c in combo)
        yield tuple((i, n) for i, (n, _) in zip(coords, combo) if n), w


def oracle_product(F, G, factor, clip):
    order = max(F.max_order, G.max_order)
    if not clip and F.n_terms() and G.n_terms() and F.degree() + G.degree() > order:
        return None
    pairs = itertools.product(exact(F).items(), exact(G).items())
    val, mag = combine(pairs, factor)
    keep = {g for g in val if sum(m for _, m in g) <= order}
    return {g: val[g] for g in keep}, {g: mag[g] for g in keep}


def oracle_translate(F, y):
    val, mag = {}, {}
    for a, c in exact(F).items():
        options = [shift(m, Fraction(y[i])).items() for i, m in a]
        for combo in itertools.product(*options):
            w = c * math.prod(h for _, h in combo)
            g = tuple((i, n) for (i, _), (n, _) in zip(a, combo) if n)
            val[g] = val.get(g, 0) + w
            mag[g] = mag.get(g, 0) + abs(w)
    return val, mag


def assert_matches(P, want):
    """P within rounding of the exact values; a derived store prunes
    nothing, so a label it lacks summed to exactly 0.0 in floats."""
    val, mag = want
    got = {a.entries: c for a, c in P.items()}
    assert set(got) <= set(val)
    for g, v in val.items():
        bound = REL * mag[g]
        if g in got:
            assert abs(Fraction(got[g]) - v) <= bound, (g, got[g], float(v))
        else:
            assert abs(v) <= bound, (g, float(v))


# -- generated inputs -------------------------------------------------------------

@st.composite
def operand_pairs(draw):
    """Two vectors of one dimension, each with its own max_order."""
    if draw(st.integers(0, 5)) == 0:
        # sparse over dim 70: far-apart coordinates
        dim, indices = 70, [0, 3, 64, 67, 69]
    else:
        dim, indices = draw(st.integers(1, 5)), None
    F = draw(vectors(dim, draw(st.integers(0, 5)), indices))
    G = draw(vectors(dim, draw(st.integers(0, 5)), indices))
    return F, G


PRODUCTS = [(wick_product, wick_factor), (ordinary_product, ordinary_factor)]


@pytest.mark.parametrize("product,factor", PRODUCTS, ids=["wick", "ordinary"])
@pytest.mark.parametrize("clip", [False, True])
@SETTINGS
@given(pair=operand_pairs())
def test_product_matches_exact_oracle(product, factor, clip, pair):
    F, G = pair
    want = oracle_product(F, G, factor, clip)
    if want is None:
        with pytest.raises(OrderOverflowError):
            product(F, G, clip=clip)
        return
    P = product(F, G, clip=clip)
    assert P.dim == F.dim and P.max_order == max(F.max_order, G.max_order)
    assert P.prune == 0.0
    assert_matches(P, want)


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 5), order=st.integers(0, 6))
def test_translate_matches_exact_oracle(data, dim, order):
    F = data.draw(vectors(dim, order))
    y = data.draw(st.lists(st.one_of(st.just(0.0), signed(1e-3, 2.0)),
                           min_size=dim, max_size=dim))
    T = translate(F, y)
    assert T.max_order == F.max_order and T.prune == 0.0
    assert_matches(T, oracle_translate(F, y))


def wide(order):
    """Dim 70 with all coordinates in use: codes need 70 digits base 4."""
    terms = {MultiIndex([(i, 1)]): (-1.0) ** i / (i + 1) for i in range(70)}
    terms[MultiIndex([(0, 1), (69, 2)])] = 0.75
    return ChaosVector(70, order, terms, prune=0.0)


def test_wide_support_codes_exceed_64_bits():
    assert 4 ** 69 > 2 ** 63
    F, G = wide(3), wide(3)
    for product, factor in PRODUCTS:
        assert_matches(product(F, G, clip=True), oracle_product(F, G, factor, True))
    y = [0.5 - i / 70 for i in range(70)]
    assert_matches(translate(F, y), oracle_translate(F, y))


@pytest.fixture
def dense_route(monkeypatch):
    """Records the pair count of every call of the numpy pair loop, the sum
    of its per-row counts n."""
    calls = []
    dense = chaos._convolve_dense

    def spy(fcode, fval, n, *rest):
        calls.append(int(n.sum()))
        return dense(fcode, fval, n, *rest)

    monkeypatch.setattr(chaos, "_convolve_dense", spy)
    return calls


@pytest.mark.parametrize("product,factor", PRODUCTS, ids=["wick", "ordinary"])
def test_dense_product_above_crossover_matches_exact_oracle(product, factor, dense_route):
    F = exponential_vector([0.4, -0.7, 0.25], 6)
    G = exponential_vector([-0.3, 0.5, 0.9], 6)
    P = product(F, G, clip=True)
    assert dense_route and dense_route[0] >= chaos._CROSSOVER
    assert_matches(P, oracle_product(F, G, factor, True))


@pytest.mark.parametrize("product", [wick_product, ordinary_product])
def test_product_errors(product):
    F = ChaosVector(2, 3, {MultiIndex([(0, 3)]): 1.0})
    G = ChaosVector(2, 4, {MultiIndex([(1, 2)]): 1.0})
    with pytest.raises(OrderOverflowError):  # 3 + 2 > max(3, 4)
        product(F, G)
    product(F, G, clip=True)
    with pytest.raises(DimensionMismatchError):
        product(F, ChaosVector(3, 4, {}), clip=True)
    # an empty operand never overflows, whatever the other's degree
    assert product(F, ChaosVector.zero(2, 0)).n_terms() == 0
    with pytest.raises(DimensionMismatchError):
        translate(F, [1.0])


# -- repeatability and clip mode ------------------------------------------------

def _copy(F):
    return ChaosVector(F.dim, F.max_order, F.terms, prune=F.prune)


@SETTINGS
@given(data=st.data(), pair=operand_pairs())
def test_results_repeat_bitwise_and_clip_never_raises(data, pair):
    F, G = pair
    for product in (wick_product, ordinary_product):
        first = product(_copy(F), _copy(G), clip=True)
        second = product(_copy(F), _copy(G), clip=True)
        assert first == second
        assert [a for a, _ in first.items()] == [a for a, _ in second.items()]
    y = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=F.dim, max_size=F.dim))
    assert translate(_copy(F), y) == translate(_copy(F), y)


# -- the two routes of the pair loop ----------------------------------------------

# (crossover, chunk): the array route in chunks of a few pairs, the array
# route in one chunk, and the dict loop whatever the pair count; cells never
# tip the choice
ROUTES = [(0, 3), (0, 1 << 20), (1 << 62, 1 << 15)]


def bits(P):
    """The terms of P in store order, each coefficient as its exact bits."""
    return [(a, c.hex()) for a, c in P.items()]


def on_routes(op, *args, routes=ROUTES, **kwargs):
    """bits(op(*args, **kwargs)) on every route of routes."""
    out = []
    for crossover, chunk in routes:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(chaos, "_CROSSOVER", crossover)
            mp.setattr(chaos, "_CELLS_PER_PAIR", 1 << 62)
            mp.setattr(chaos, "_CHUNK", chunk)
            out.append(bits(op(*args, **kwargs)))
    return out


def spread(F, dim, coords):
    """F with coordinate i moved to coords[i], in dimension dim."""
    return ChaosVector(dim, F.max_order,
                       {MultiIndex([(coords[i], m) for i, m in a.entries]): c
                        for a, c in F.items()}, prune=F.prune)


@st.composite
def route_pairs(draw):
    """operand_pairs; two exponential vectors with hundreds of pairs, on
    the coordinates 0, 1, 2 or on the coordinates 1, 4, 8 of dim 9; or
    such a vector and an empty one."""
    kind = draw(st.sampled_from(["sparse", "dense", "spread", "empty"]))
    if kind == "sparse":
        return draw(operand_pairs())
    dim, order = draw(st.integers(1, 3)), draw(st.integers(2, 6))
    f, g = (draw(st.lists(signed(0.1, 0.9), min_size=dim, max_size=dim)) for _ in "fg")
    F, G = exponential_vector(f, order), exponential_vector(g, order)
    if kind == "spread":
        F, G = spread(F, 9, (1, 4, 8)), spread(G, 9, (1, 4, 8))
    if kind == "empty":
        F, G = draw(st.permutations([F, ChaosVector.zero(dim, order)]))
    return F, G


def widened(V, order):
    """V under the cap order, as a ChaosVector and as a PolySeries."""
    return V.with_max_order(order), PolySeries(V.dim, V.terms, order)


@SETTINGS
@given(pair=route_pairs())
def test_routes_and_chunkings_agree_bitwise(pair):
    # every product on the array route, in chunks of three pairs and in one
    # chunk, gives the coefficients of the dict loop to the bit, in its
    # term order: clipped and unclipped, and poly_mul on PolySeries
    F, G = pair
    order = max(F.max_order, G.max_order, F.degree() + G.degree())
    (Fw, Fp), (Gw, Gp) = widened(F, order), widened(G, order)
    cases = [(wick_product, F, G, True), (ordinary_product, F, G, True),
             (wick_product, Fw, Gw, False), (ordinary_product, Fw, Gw, False),
             (poly_mul, Fp, Gp, False)]
    for product, A, B, clip in cases:
        first, *rest = on_routes(product, A, B, clip=clip)
        assert all(r == first for r in rest), (product.__name__, clip)


@st.composite
def high_order_pairs(draw):
    """One- or two-coordinate operands at order 19, 21 or 24, F holding
    H_order(e~_0): its weights p! C(alpha, p) reach order!, past 2^53 at
    19 and past int64 at 21 and 24."""
    order, dim = draw(st.sampled_from([19, 21, 24])), draw(st.integers(1, 2))

    def label():
        deg = draw(st.one_of(st.integers(0, 3), st.integers(order - 4, order)))
        j = draw(st.integers(0, min(deg, 3))) if dim == 2 else 0
        return MultiIndex([(0, deg - j), (1, j)])

    F, G = ({label(): draw(signed(1e-3, 2.0)) for _ in range(draw(st.integers(1, 4)))}
            for _ in "FG")
    F[MultiIndex([(0, order)])] = draw(signed(1e-3, 2.0))
    return ChaosVector(dim, order, F, prune=0.0), ChaosVector(dim, order, G, prune=0.0)


@settings(SETTINGS, max_examples=40)
@given(pair=high_order_pairs())
def test_routes_agree_bitwise_past_int64_weights(pair):
    F, G = pair
    for product in (wick_product, ordinary_product):
        first, *rest = on_routes(product, F, G, clip=True)
        assert all(r == first for r in rest)
    # and the product is the exact one, rounded
    P = ordinary_product(F, G, clip=True)
    assert_matches(P, oracle_product(F, G, ordinary_factor, True))


# -- the two routes of the coordinatewise maps -------------------------------------

@st.composite
def coordinatewise_cases(draw):
    """A vector and a shift: a generated sparse vector; an exponential
    vector with hundreds of table entries, on its first coordinates or on
    the coordinates 1, 4, 8 (and 6 at dim 4) of dim 9; an empty or a
    constant-only vector.  Some coordinates of the shift are 0, where its
    table is the identity."""
    kind = draw(st.sampled_from(["sparse", "dense", "spread", "empty", "constant"]))
    dim, order = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    if kind == "sparse":
        F = draw(vectors(dim, order))
    elif kind == "empty":
        F = ChaosVector.zero(dim, order)
    elif kind == "constant":
        F = ChaosVector.constant(draw(signed(1e-3, 2.0)), dim, order)
    else:
        F = exponential_vector(draw(st.lists(signed(0.1, 0.9), min_size=dim, max_size=dim)),
                               order)
        if kind == "spread":
            F = spread(F, 9, (1, 4, 8, 6))
    y = draw(st.lists(st.one_of(st.just(0.0), signed(1e-3, 2.0)),
                      min_size=F.dim, max_size=F.dim))
    return F, y


@SETTINGS
@given(case=coordinatewise_cases())
def test_coordinatewise_routes_agree_bitwise(case):
    # translate and both changes of basis on the array route, in chunks of
    # three pairs and in one chunk, give the coefficients of the dict loop
    # to the bit, in its term order; poly_to_chaos reads PolySeries
    F, y = case
    P = PolySeries(F.dim, F.terms, F.max_order)
    for op, *args in [(translate, F, y), (chaos_to_poly, F), (poly_to_chaos, P)]:
        first, *rest = on_routes(op, *args)
        assert all(r == first for r in rest), op.__name__


def test_coordinatewise_route_is_picked_by_size(dense_route):
    # (4,8): 495 terms on 4 coordinates, one kernel call per coordinate;
    # the vectors are built first, as wick_exp may call the kernel too
    F = exponential_vector([0.3, -0.2, 0.1, 0.4], 8)
    S = exponential_vector([0.3, -0.2, 0.1], 5)
    y = [0.25, 0.0, -0.5, 1.5]
    dense_route.clear()
    T = translate(F, y)
    assert len(dense_route) == 4
    assert_matches(T, oracle_translate(F, y))
    # (3,5): 56 terms on 3 coordinates stay on the dict loop
    dense_route.clear()
    translate(S, [0.25, 0.0, -0.5])
    assert not dense_route


# -- the Wick exponential ---------------------------------------------------------

def oracle_wick_exp(F, order):
    """e^{E F} sum_{k <= order} (F - E F)^{<>k} / k!, clipped at order, and
    the same sum over |F|.  e^{E F} is the package's own rounding of exp,
    the one inexact step oracle and package share."""
    terms = exact(F)
    g0 = Fraction(math.exp(terms.pop((), 0)))
    x = {a: c for a, c in terms.items() if sum(m for _, m in a) <= order}
    steps = (x, {a: abs(c) for a, c in x.items()})
    val, mag = {(): g0}, {(): abs(g0)}
    power = size = {(): Fraction(1)}  # (F - E F)^{<>k} / k!, and over |F - E F|
    for k in range(1, order + 1):
        power, size = ({g: v / k for g, v in combine(itertools.product(p.items(), y.items()),
                                                     wick_factor)[0].items()
                        if sum(m for _, m in g) <= order}
                       for p, y in zip((power, size), steps))
        for g, v in power.items():
            val[g] = val.get(g, 0) + g0 * v
            mag[g] = mag.get(g, 0) + abs(g0) * size[g]
    return val, mag


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 4), order=st.integers(0, 6))
def test_wick_exp_matches_exact_oracle(data, dim, order):
    # a constant plus parts of degree 1-3, some of them above the order
    F = data.draw(vectors(dim, data.draw(st.integers(0, 3))))
    P = wick_exp(F, order)
    assert (type(P), P.dim, P.max_order, P.prune) == (ChaosVector, F.dim, order, 0.0)
    assert_matches(P, oracle_wick_exp(F, order))


@SETTINGS
@given(pair=operand_pairs(), order=st.integers(0, 6))
def test_wick_exp_of_a_sum_is_a_wick_product(pair, order):
    # exp<>(F) <> exp<>(G) = exp<>(F + G), exactly under clipping
    F, G = (ChaosVector(V.dim, V.max_order, V.terms, prune=0.0) for V in pair)
    lhs = wick_product(wick_exp(F, order), wick_exp(G, order), clip=True)
    bound = wick_exp(absolute(F) + absolute(G), order)
    assert_coeffs_close(lhs, wick_exp(F + G, order), bound)


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 4), order=st.integers(0, 8))
def test_s_transform_of_wick_exp(data, dim, order):
    # S(exp<>F)(xi) = e^{E F} sum_{n <= order} t^n / n!, t = S(F - E F)(xi)
    F = data.draw(vectors(dim, 1, prune=0.0))
    xi = data.draw(st.lists(signed(1e-3, 2.0), min_size=dim, max_size=dim))
    c = expectation(F)
    t = [v * xi[a.entries[0][0]] for a, v in F.items() if a.degree]
    want, bound = (math.exp(c) * sum(s ** n / math.factorial(n) for n in range(order + 1))
                   for s in (sum(t), sum(map(abs, t))))
    assert abs(s_transform(wick_exp(F, order), xi) - want) <= 1e-13 * bound


@st.composite
def wick_exp_cases(draw):
    """An exponent and an order: a generated vector with parts of several
    degrees m, so that a degree n of the series has several groups (G_{n-m},
    m F_m); I_2(M)/2 - tr M/2 of a random symmetric M, as wick_exp_I2 sets
    it; or a constant and one degree-1 term, whose every degree is one
    pair."""
    kind = draw(st.sampled_from(["vector", "i2", "one pair"]))
    dim = draw(st.integers(1, 4))
    if kind == "vector":
        F = draw(vectors(dim, 3, prune=0.0))
    elif kind == "i2":
        f = SymTensor(dim, 2, {(i, j): draw(signed(1e-3, 0.3)) / dim
                               for i in range(dim) for j in range(i, dim)})
        F = scale(from_tensor(f), 0.5) - 0.5 * sum(f.value((i, i)) for i in range(dim))
    else:
        F = ChaosVector(dim, 1, {EMPTY: draw(signed(1e-3, 2.0)),
                                 MultiIndex([(dim - 1, 1)]): draw(signed(1e-3, 2.0))})
    return F, draw(st.integers(0, 8))


WICK_EXP_ROUTES = [(0, 3), (0, 1 << 15), (1 << 62, 1 << 15)]


def i2_exponent(dim):
    """I_2(M)/2 - tr M/2 for a fixed symmetric M, as wick_exp_I2 sets it."""
    f = SymTensor(dim, 2, {(i, j): 0.05 + 0.01 * (i + 2 * j)
                           for i in range(dim) for j in range(i, dim)})
    return scale(from_tensor(f), 0.5) - 0.5 * sum(f.value((i, i)) for i in range(dim))


@SETTINGS
@given(case=wick_exp_cases())
@example(case=(i2_exponent(5), 12))  # 13^5 codes: past _KEPT_CELLS, arrays made per call
def test_wick_exp_routes_agree_bitwise(case):
    # every degree of two or more pairs on the array route, in chunks of
    # three pairs and of 2^15, gives the coefficients of the dict loop to
    # the bit, in its term order
    F, order = case
    first, *rest = on_routes(wick_exp, F, order, routes=WICK_EXP_ROUTES)
    assert all(r == first for r in rest)


def test_wick_exp_runs_each_degree_in_one_kernel_call(monkeypatch):
    # parts of degrees 1, 2 and 3: from degree 2 on, a degree's groups meet
    # their own m F_m from nonzero offsets in one call; degree 1, its one
    # pair the constant G_0 and e~_0, makes no call
    x, y = MultiIndex([(0, 1)]), MultiIndex([(1, 1)])
    F = ChaosVector(2, 3, {EMPTY: 0.3, x: 0.5, x + x: 0.2, x + y: 0.7, y + y + y: 0.4})
    want = bits(wick_exp(F, 8))
    monkeypatch.setattr(chaos, "_CROSSOVER", 0)
    monkeypatch.setattr(chaos, "_CELLS_PER_PAIR", 1 << 62)
    firsts = []
    dense = chaos._convolve_dense

    def spy(fcode, fval, n, first, *rest):
        firsts.append(first)
        return dense(fcode, fval, n, first, *rest)

    monkeypatch.setattr(chaos, "_convolve_dense", spy)
    assert bits(wick_exp(F, 8)) == want
    assert len(firsts) == 7 and any(first.any() for first in firsts)


def test_wick_exp_overflow_is_domain_error():
    one = MultiIndex([(0, 1)])
    assert wick_exp(ChaosVector.constant(709.0, 1, 0), 0).coeff(EMPTY) == math.exp(709.0)
    with pytest.raises(DomainError):
        wick_exp(ChaosVector(2, 3, {EMPTY: 710.0, one: 0.5}), 3)
    # exp(E F) is finite but a coefficient of the series overflows
    with pytest.raises(DomainError):
        wick_exp(ChaosVector(1, 2, {EMPTY: 700.0, one: 1e300}), 2)
