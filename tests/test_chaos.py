"""Chaos expansions: algebra, products, isometry, evaluation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickchaos.chaos import (ChaosVector, add, coeff_distance, evaluate,
                             evaluate_at, expectation, exponential_vector,
                             from_tensor, gamma_norm, inner_product, l2_norm,
                             ordinary_product, scale, second_quantization,
                             to_tensor, wick_power, wick_product)
from wickchaos.errors import (DimensionMismatchError, DomainError,
                              OrderOverflowError)
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.renormalization import PolySeries, poly_mul, poly_power
from wickchaos.sampling import sample_gaussians
from wickchaos.stransform import translate
from wickchaos.stratonovich import trace
from wickchaos.tensors import SymTensor, basis_tensor

from helpers import (PRUNE_DEFAULT, absolute, chaos_to_callable, eval_chaos_ref, expect_nd,
                     vectors)

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def random_chaos(rng, dim, degree, max_order=None, n_terms=6):
    if max_order is None:
        max_order = degree
    terms = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        idx = tuple(rng.integers(0, dim, size=d))
        alpha = MultiIndex.from_indices(idx)
        terms[alpha] = terms.get(alpha, 0.0) + float(rng.normal())
    return ChaosVector(dim, max_order, terms)


def H(i, n, dim, max_order):
    return ChaosVector(dim, max_order, {MultiIndex([(i, n)]): 1.0})


def test_constructor_validation():
    with pytest.raises(OrderOverflowError):
        ChaosVector(2, 1, {MultiIndex([(0, 2)]): 1.0})
    with pytest.raises(DimensionMismatchError):
        ChaosVector(2, 3, {MultiIndex([(2, 1)]): 1.0})
    # the default keeps every nonzero coefficient; a prune is applied on
    # request, and recorded
    tiny = {MultiIndex([(0, 1)]): 1e-20, MultiIndex([(1, 1)]): 0.0}
    F = ChaosVector(2, 1, tiny)
    assert F.terms == {MultiIndex([(0, 1)]): 1e-20} and F.prune == 0.0
    P = ChaosVector(2, 1, tiny, prune=PRUNE_DEFAULT)
    assert P.n_terms() == 0 and P.prune == PRUNE_DEFAULT
    assert ChaosVector.linear([1e-20, 0.0]).n_terms() == 1
    assert ChaosVector.linear([1e-20, 0.0], prune=PRUNE_DEFAULT).n_terms() == 0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, -1e-300])
def test_a_bad_prune_is_refused(bad):
    # a NaN prune would drop every term, and a negative one store 0.0
    x = MultiIndex([(0, 1)])
    for build in (lambda: ChaosVector(1, 2, {x: 1.0, x + x: 0.0}, prune=bad),
                  lambda: ChaosVector.linear([1.0, 0.0], prune=bad),
                  lambda: SymTensor(2, 1, {(0,): 1.0}, prune=bad)):
        with pytest.raises(ValueError, match="prune"):
            build()


def test_constructor_rejects_a_label_that_is_not_a_multiindex():
    with pytest.raises(TypeError, match="tuple"):
        ChaosVector(2, 4, {((0, 2),): 1.0})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_constructor_rejects_non_finite(bad):
    # |nan| > prune is False: unchecked, a NaN would vanish as if pruned
    with pytest.raises(DomainError):
        ChaosVector(1, 1, {MultiIndex([(0, 1)]): bad})
    with pytest.raises(DomainError):
        ChaosVector(1, 1, {MultiIndex([(0, 1)]): bad}, prune=0.0)
    with pytest.raises(DomainError):
        PolySeries(1, {MultiIndex([(0, 1)]): bad}, truncation=1)


def test_non_finite_translation_is_loud():
    F = exponential_vector([0.3, 0.2], 3)
    with pytest.raises(DomainError):
        translate(F, [math.nan, 0.0])
    with pytest.raises(DomainError):
        translate(F, [math.inf, 0.0])


def test_derived_stores_stay_loud():
    # sums, multiples, tensors read off a vector and traces are built
    # without the label checks, but a non-finite coefficient still raises
    F = exponential_vector([0.3, 0.2], 3)
    for c in (math.inf, math.nan):
        with pytest.raises(DomainError):
            scale(F, c)
    big = ChaosVector(1, 1, {MultiIndex([(0, 1)]): 1e308})
    with pytest.raises(DomainError):
        add(big, big)
    with pytest.raises(DomainError):
        SymTensor(2, 2, {(0, 1): 1.0}).scale(math.inf)
    with pytest.raises(DomainError):  # the diagonal of (2, 2) sums 1e308 twice
        trace(SymTensor(2, 4, {(0, 0, 1, 1): 1e308, (1, 1, 1, 1): 1e308}))
    with pytest.raises(ValueError):
        to_tensor(F, -1)
    zero = add(F, scale(F, -1.0))
    assert (zero.n_terms(), zero.max_order, zero.prune) == (0, F.max_order, F.prune)


def test_basic_constructors():
    one = ChaosVector.constant(3.0, 2, 4)
    assert one.coeff(EMPTY) == 3.0
    assert one.degree() == 0
    x1 = ChaosVector.coordinate(0, 2, 4)
    assert x1.coeff(MultiIndex([(0, 1)])) == 1.0
    lin = ChaosVector.linear([2.0, -1.0], max_order=4)
    assert lin.coeff(MultiIndex([(1, 1)])) == -1.0
    assert ChaosVector.zero(3, 2).n_terms() == 0
    assert lin.degree() == 1


def test_arithmetic_sugar():
    rng = np.random.default_rng(0)
    F = random_chaos(rng, 2, 3)
    G = random_chaos(rng, 2, 3)
    assert coeff_distance(F + G, add(F, G)) == 0.0
    assert coeff_distance(2.0 * F, scale(F, 2.0)) == 0.0
    assert coeff_distance(F - G, add(F, scale(G, -1.0))) == 0.0
    assert coeff_distance(F + 1.0, add(F, ChaosVector.constant(1.0, 2, 3))) == 0.0
    assert coeff_distance(-F, scale(F, -1.0)) == 0.0
    assert coeff_distance((1.0 - F), scale(F - 1.0, -1.0)) == 0.0


def test_degree_part_and_with_max_order():
    rng = np.random.default_rng(1)
    F = random_chaos(rng, 3, 4)
    total = ChaosVector.zero(3, 4)
    for n in range(5):
        total = add(total, F.degree_part(n))
    assert coeff_distance(total, F) == 0.0
    lifted = F.with_max_order(9)
    assert lifted.max_order == 9
    assert coeff_distance(ChaosVector(3, 9, F.terms), lifted) == 0.0


def test_expectation_is_constant_coeff():
    rng = np.random.default_rng(2)
    F = random_chaos(rng, 2, 3)
    assert expectation(F) == F.coeff(EMPTY)
    # quadrature agrees: E[F] integrates the evaluator against the Gaussian
    got = expect_nd(chaos_to_callable(F), 2, n_nodes=12)
    assert abs(got - expectation(F)) < 1e-8


def test_inner_product_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(10):
        F = random_chaos(rng, 2, 3, n_terms=4)
        G = random_chaos(rng, 2, 3, n_terms=4)
        fF, fG = chaos_to_callable(F), chaos_to_callable(G)
        want = expect_nd(lambda p: fF(p) * fG(p), 2, n_nodes=16)
        assert abs(inner_product(F, G) - want) < 1e-7
        assert abs(l2_norm(F) ** 2 - expect_nd(lambda p: fF(p) ** 2, 2, 16)) < 1e-7


def test_inner_product_diagonal_weights():
    # <H_alpha, H_beta> = alpha! delta
    a = MultiIndex([(0, 2), (1, 1)])
    F = ChaosVector(2, 3, {a: 1.0})
    assert inner_product(F, F) == a.factorial()
    G = ChaosVector(2, 3, {MultiIndex([(0, 3)]): 1.0})
    assert inner_product(F, G) == 0.0


def test_from_tensor_isometry():
    rng = np.random.default_rng(4)
    for _ in range(30):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(0, 5))
        vals = {}
        for _ in range(4):
            t = tuple(sorted(rng.integers(0, dim, size=order)))
            vals[t] = float(rng.normal())
        f = SymTensor(dim, order, vals, prune=0.0)
        F = from_tensor(f)
        assert abs(l2_norm(F) ** 2 - math.factorial(order) * f.norm_sq()) < 1e-9
        # roundtrip through the degree-n slice
        back = to_tensor(F, order)
        assert all(abs(back.value(t) - v) < 1e-12 for t, v in f.values.items())


def test_from_tensor_basis_example():
    # I_2(e1 (x) e1) = H_2(x1)
    F = from_tensor(basis_tensor(2, (0, 0)))
    assert F.terms == {MultiIndex([(0, 2)]): 1.0}
    # I_2(e1 (x)^ e2) carries the off-diagonal multiplicity 2
    G = from_tensor(basis_tensor(2, (0, 1)))
    assert G.terms == {MultiIndex([(0, 1), (1, 1)]): 2.0}


def test_wick_product_is_convolution():
    dim, M = 2, 10
    # on a single coordinate, H_a <> H_b = H_{a+b}
    for a in range(4):
        for b in range(4):
            P = wick_product(H(0, a, dim, M), H(0, b, dim, M))
            assert P.terms == {MultiIndex([(0, a + b)]): 1.0}
    # across coordinates multiplicities add componentwise
    P = wick_product(H(0, 2, dim, M), H(1, 3, dim, M))
    assert P.terms == {MultiIndex([(0, 2), (1, 3)]): 1.0}


def test_wick_product_algebra():
    rng = np.random.default_rng(5)
    for _ in range(20):
        F = random_chaos(rng, 3, 2, max_order=8)
        G = random_chaos(rng, 3, 2, max_order=8)
        K = random_chaos(rng, 3, 2, max_order=8)
        assert coeff_distance(wick_product(F, G), wick_product(G, F)) < 1e-12
        lhs = wick_product(wick_product(F, G), K)
        rhs = wick_product(F, wick_product(G, K))
        assert coeff_distance(lhs, rhs) < 1e-9
        # bilinearity
        lhs = wick_product(add(F, G), K)
        rhs = add(wick_product(F, K), wick_product(G, K))
        assert coeff_distance(lhs, rhs) < 1e-10
        one = ChaosVector.constant(1.0, 3, 8)
        assert coeff_distance(wick_product(F, one), F) < 1e-12


def test_wick_product_overflow_and_clip():
    F = H(0, 3, 1, 4)
    with pytest.raises(OrderOverflowError):
        wick_product(F, F)
    clipped = wick_product(F, F, clip=True)
    assert clipped.n_terms() == 0  # the only term has degree 6 > 4


def test_wick_power():
    rng = np.random.default_rng(6)
    F = random_chaos(rng, 2, 2, max_order=8)
    assert coeff_distance(wick_power(F, 0), ChaosVector.constant(1.0, 2, 8)) == 0.0
    assert coeff_distance(wick_power(F, 1), F) == 0.0
    assert coeff_distance(wick_power(F, 2), wick_product(F, F)) < 1e-12
    assert coeff_distance(wick_power(F, 3),
                          wick_product(F, wick_product(F, F))) < 1e-10


def _sequential_wick_power(F, k, clip=False, product=wick_product):
    out = type(F).constant(1.0, F.dim, F.max_order)
    for _ in range(k):
        out = product(out, F, clip=clip)
    return out


# Squaring is exact for polynomials too: multiplying monomials never
# lowers a degree, so clipping an intermediate power drops nothing kept.
@pytest.mark.parametrize("clip, cls, power, product", [
    (False, ChaosVector, wick_power, wick_product),
    (True, ChaosVector, wick_power, wick_product),
    (False, PolySeries, poly_power, poly_mul),
    (True, PolySeries, poly_power, poly_mul),
], ids=["False", "True", "poly-False", "poly-True"])
def test_wick_power_matches_sequential_product(clip, cls, power, product):
    rng = np.random.default_rng(16)
    for _ in range(5):
        F = random_chaos(rng, 2, 2, max_order=8 if clip else 18, n_terms=4)
        if cls is PolySeries:
            F = PolySeries(F.dim, F.terms, truncation=F.max_order)
        for k in range(10):
            want = _sequential_wick_power(F, k, clip, product)
            got = power(F, k, clip=clip)
            assert type(got) is cls
            scale_ = max((abs(c) for _, c in want.items()), default=1.0)
            assert coeff_distance(got, want) <= 1e-12 * scale_


def test_wick_power_overflow_condition_unchanged():
    # unclipped, both routes raise exactly when k deg F > max_order
    F = ChaosVector(2, 8, {MultiIndex([(0, 1), (1, 1)]): 0.5, EMPTY: 1.0})
    for k in range(10):
        if 2 * k > 8:
            with pytest.raises(OrderOverflowError):
                wick_power(F, k)
            with pytest.raises(OrderOverflowError):
                _sequential_wick_power(F, k)
        else:
            wick_power(F, k)
            _sequential_wick_power(F, k)


def test_ordinary_product_pointwise():
    rng = np.random.default_rng(7)
    for _ in range(20):
        F = random_chaos(rng, 2, 3, max_order=8, n_terms=4)
        G = random_chaos(rng, 2, 3, max_order=8, n_terms=4)
        P = ordinary_product(F, G)
        for _ in range(5):
            x = rng.normal(size=2)
            want = eval_chaos_ref(F, x) * eval_chaos_ref(G, x)
            got = eval_chaos_ref(P, x)
            assert abs(got - want) <= 1e-8 * max(1.0, abs(want))


def test_ordinary_product_known_case():
    # H_1 * H_1 = H_2 + 1
    P = ordinary_product(H(0, 1, 1, 4), H(0, 1, 1, 4))
    assert P.terms == {MultiIndex([(0, 2)]): 1.0, EMPTY: 1.0}
    # x1 * x2 has no contraction across distinct coordinates
    Q = ordinary_product(H(0, 1, 2, 4), H(1, 1, 2, 4))
    assert Q.terms == {MultiIndex([(0, 1), (1, 1)]): 1.0}


def test_ordinary_product_overflow_and_clip():
    F = H(0, 3, 1, 5)
    with pytest.raises(OrderOverflowError):
        ordinary_product(F, F)
    clipped = ordinary_product(F, F, clip=True)
    # H_3 H_3 = H_6 + 9 H_4 + 18 H_2 + 6, degree-6 part dropped
    assert clipped.terms == {MultiIndex([(0, 4)]): 9.0,
                             MultiIndex([(0, 2)]): 18.0, EMPTY: 6.0}


def test_product_expectation_is_inner_product():
    rng = np.random.default_rng(8)
    for _ in range(20):
        F = random_chaos(rng, 3, 3, max_order=6, n_terms=5)
        G = random_chaos(rng, 3, 3, max_order=6, n_terms=5)
        assert abs(expectation(ordinary_product(F, G)) - inner_product(F, G)) < 1e-10


def test_wick_product_expectation_factorizes():
    # E[F <> G] = E[F] E[G]
    rng = np.random.default_rng(9)
    for _ in range(20):
        F = random_chaos(rng, 2, 3, max_order=6)
        G = random_chaos(rng, 2, 3, max_order=6)
        assert abs(expectation(wick_product(F, G))
                   - expectation(F) * expectation(G)) < 1e-12


def test_exponential_vector_coeffs():
    f = [0.5, -1.5]
    E = exponential_vector(f, 6)
    for alpha, c in E.items():
        want = 1.0
        for i, m in alpha.entries:
            want *= f[i] ** m
        want /= alpha.factorial()
        assert abs(c - want) < 1e-14
    # all multi-indices up to the truncation are present for nonzero f
    assert E.coeff(MultiIndex([(0, 3), (1, 3)])) != 0.0


def test_exponential_vector_edges():
    assert exponential_vector([0.5], 0) == ChaosVector.constant(1.0, 1, 0)
    assert exponential_vector([0.5], 0).max_order == 0
    E = exponential_vector([], 3)
    assert (E.dim, E.terms) == (1, {EMPTY: 1.0})
    # built unpruned: 1e-3^8 / 8! is far below PRUNE_DEFAULT and is kept
    E = exponential_vector([1e-3, 0.0], 8)
    assert E.prune == 0.0
    assert abs(E.coeff(MultiIndex([(0, 8)])) - 1e-24 / 40320) <= 1e-14 * 1e-24 / 40320


def test_exponential_vector_wick_law():
    rng = np.random.default_rng(10)
    for _ in range(10):
        f = rng.normal(size=3)
        g = rng.normal(size=3)
        lhs = wick_product(exponential_vector(f, 8), exponential_vector(g, 8),
                           clip=True)
        rhs = exponential_vector((f + g).tolist(), 8)
        assert coeff_distance(lhs, rhs) < 1e-9


def test_exponential_vector_normalization():
    # E[eps(f)] = 1 and ||eps(f)||^2 = exp(||f||^2) up to truncation
    f = [0.4, 0.3]
    E = exponential_vector(f, 12)
    assert expectation(E) == 1.0
    n2 = sum(v * v for v in f)
    assert abs(l2_norm(E) ** 2 - math.exp(n2)) < 1e-9


@SETTINGS
@given(data=st.data(), dim=st.integers(1, 4), order=st.integers(0, 6))
def test_isometry_property(data, dim, order):
    # E[FG] = sum_alpha alpha! c_alpha d_alpha; clipping keeps the constant
    F, G = (data.draw(vectors(dim, order, prune=0.0)) for _ in "FG")
    got = expectation(ordinary_product(F, G, clip=True))
    bound = inner_product(absolute(F), absolute(G))
    assert abs(got - inner_product(F, G)) <= 1e-13 * bound


def test_gamma_norm_and_second_quantization():
    rng = np.random.default_rng(11)
    for _ in range(10):
        F = random_chaos(rng, 2, 4)
        r = float(rng.uniform(0.2, 1.5))
        G = second_quantization(F, r)
        assert abs(gamma_norm(F, r) - l2_norm(G)) < 1e-12
        for alpha, c in F.items():
            assert abs(G.coeff(alpha) - c * r ** alpha.degree) < 1e-12
    assert coeff_distance(second_quantization(F, 1.0), F) == 0.0


def test_norms_and_gamma_overflow_raise_domain_error():
    big = ChaosVector(1, 4, {MultiIndex([(0, 1)]): 1e200})
    h2 = ChaosVector(1, 2, {MultiIndex([(0, 2)]): 1.0})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in (lambda: inner_product(big, big), lambda: l2_norm(big),
                     lambda: gamma_norm(h2, 1e200), lambda: gamma_norm(h2, np.float64(1e200)),
                     lambda: second_quantization(h2, 1e200),
                     lambda: second_quantization(h2, np.float64(1e200))):
            with pytest.raises(DomainError):
                call()
        # finite results keep their bits, and a numpy-scalar a stores floats
        F = random_chaos(np.random.default_rng(3), 2, 4)
        for a in (0.7, -1.3, 3.0):
            G, Gn = second_quantization(F, a), second_quantization(F, np.float64(a))
            assert list(G.items()) == [(al, float(c * a ** al.degree)) for al, c in F.items()]
            assert list(Gn.items()) == list(G.items())
            assert all(type(c) is float for _, c in Gn.items())


def test_evaluate_matches_reference():
    rng = np.random.default_rng(12)
    F = random_chaos(rng, 3, 4, n_terms=8)
    pts = rng.normal(size=(50, 3))
    got = evaluate(F, pts)
    for j in range(50):
        want = eval_chaos_ref(F, pts[j])
        assert abs(got[j] - want) <= 1e-9 * max(1.0, abs(want))
    assert abs(evaluate_at(F, pts[0]) - got[0]) < 1e-12


def test_evaluate_accepts_batches_and_chunks():
    rng = np.random.default_rng(13)
    F = random_chaos(rng, 2, 3)
    batch = sample_gaussians(2, 70000, seed=3)  # crosses the block size
    via_batch = evaluate(F, batch)
    via_array = evaluate(F, batch.data)
    assert via_batch.shape == (70000,)
    assert np.array_equal(via_batch, via_array)
    head = evaluate(F, batch.data[:100])
    assert np.array_equal(via_array[:100], head)


def test_evaluate_validates_dim():
    F = ChaosVector.constant(1.0, 3, 2)
    with pytest.raises(DimensionMismatchError):
        evaluate(F, np.zeros((4, 2)))


def test_coeff_distance():
    F = ChaosVector(1, 2, {MultiIndex([(0, 2)]): 1.0})
    G = ChaosVector(1, 2, {MultiIndex([(0, 2)]): 1.5, EMPTY: 0.25})
    assert coeff_distance(F, G) == 0.5
    assert coeff_distance(F, F) == 0.0
    # two finite vectors whose difference overflows: loud, not a silent inf
    x = MultiIndex([(0, 1)])
    F, G = ChaosVector(1, 1, {x: 1e308}), ChaosVector(1, 1, {x: -1e308})
    with pytest.raises(DomainError, match="not finite"):
        coeff_distance(F, G)
    assert coeff_distance(F, ChaosVector(1, 1, {x: -7e307})) == 1e308 + 7e307


def test_small_data_keeps_every_term():
    # no arithmetic prunes, so a result does not depend on the scale of its
    # data: under a fixed threshold each of these would be the zero vector
    x = MultiIndex([(0, 1)])
    F = ChaosVector(1, 4, {x: 1e-10})
    c = 1e-10 * 1e-10
    assert list(wick_product(F, F, clip=True).items()) == [(x + x, c)]
    assert ordinary_product(F, F).terms == {x + x: c, EMPTY: c}
    assert list(scale(F, 1e-5).items()) == [(x, 1e-10 * 1e-5)]
    h2 = ChaosVector(1, 4, {x + x: 1.0})
    assert list(second_quantization(h2, 1e-8).items()) == [(x + x, 1e-8 ** 2)]


@SETTINGS
@given(data=st.data(), k=st.sampled_from([1, 40, 300]))
def test_products_commute_with_power_of_two_scaling(data, k):
    # 2^-k scales every coefficient exactly, far from the subnormals, so a
    # product of scaled operands is the scaled product, bit for bit
    dim = data.draw(st.integers(1, 3))
    F, G = (data.draw(vectors(dim, 4)) for _ in "FG")
    s = 2.0 ** -k
    for product in (wick_product, ordinary_product):
        got = product(scale(F, s), scale(G, s), clip=True)
        want = scale(product(F, G, clip=True), s * s)
        assert [(a, c.hex()) for a, c in got.items()] == \
            [(a, c.hex()) for a, c in want.items()]
    y = [0.5] * dim
    assert list(translate(scale(F, s), y).items()) == list(scale(translate(F, y), s).items())
