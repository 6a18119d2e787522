"""The finite sums against the algorithms they replaced.

Every vector sum is one n-ary add and every scalar sum one checked total,
chaos._total.  The references below are the earlier algorithms written out:
the left fold of two-operand adds, each step a derived store that drops
the exact zeros of its whole partial sum, and the plain scalar loops from
0.0 (on Python 3.10 and 3.11 the earlier sum() of norm_sq and gamma_norm
is that loop).  On generated inputs, among them empty stores, operands
built with a prune, coefficients near 1e-15 and 1e-7 and zero directions,
the results must match in bits, term order and type.
"""

import math
from functools import reduce

import numpy as np
import pytest

from wickchaos.chaos import (ChaosVector, SymTensor, add, from_tensor,
                             gamma_norm, inner_product, l2_norm, ordinary_product, scale,
                             to_tensor, wick_product)
from wickchaos.errors import DimensionMismatchError, DomainError
from wickchaos.hermite import hermite_to_power, hu_meyer_coeff
from wickchaos.malliavin import (HValuedChaos, _levels, derivative_dir, directional_derivative,
                                 divergence, product_via_wick_gradients, sobolev_norm,
                                 wick_via_malliavin)
from wickchaos.multiindex import MultiIndex
from wickchaos.renormalization import (PolySeries, _sigmas, poly_eval,
                                       series_condition, wick_order_icopy_exact)
from wickchaos.stransform import s_transform
from wickchaos.stratonovich import (ito_from_stratonovich, stratonovich_integral,
                                    stratonovich_partial_sum, trace_k)
from wickchaos.tensors import INDEPENDENCE_TOL, contraction_1, independent

from helpers import PRUNE_DEFAULT


# -- the earlier vector sums: a left fold of two-operand adds ----------------

def add2(F, G):
    dim, order = F.dim, max(F.max_order, G.max_order)
    assert F.dim == G.dim
    out = dict(F._terms)
    for a, c in G._terms.items():
        out[a] = out.get(a, 0.0) + c
    return type(F)._trusted(dim, order, out)


def fold(F, *Gs):
    return reduce(add2, Gs, type(F)._trusted(F.dim, F.max_order, dict(F._terms)))


def ref_directional_derivative(F, g):
    out = ChaosVector.zero(F.dim, F.max_order)
    for j, gj in enumerate(g):
        if gj != 0.0:
            out = add2(out, scale(derivative_dir(F, j), float(gj)))
    return out


def ref_divergence(u):
    order = max(c.max_order for c in u.components)
    out = ChaosVector.zero(u.dim, order)
    for j, uj in enumerate(u.components):
        if uj.n_terms():
            ej = ChaosVector.coordinate(j, u.dim, order)
            out = add2(out, wick_product(uj.with_max_order(order), ej))
    return out


def ref_pairing(F, G, product, sign):
    order = max(F.max_order, G.max_order)
    out = ChaosVector.zero(F.dim, order)
    p_max = min(F.degree(), G.degree())
    for p, (DF, DG) in enumerate(zip(_levels(F, p_max), _levels(G, p_max))):
        for t, DtF in DF.items():
            if t in DG:
                w = sign ** p / MultiIndex.from_indices(t).factorial()
                prod = product(DtF.with_max_order(order), DG[t].with_max_order(order))
                out = add2(out, scale(prod, w))
    return out


def ref_contraction_1(f, g):
    n, m = f.order, g.order
    cap = max(n, m, n + m - 2)
    F, G = from_tensor(f, cap), from_tensor(g, cap)
    out = ChaosVector.zero(f.dim, cap)
    for k in range(f.dim):
        DF = derivative_dir(F, k)
        if DF.n_terms():
            DG = derivative_dir(G, k)
            if DG.n_terms():
                out = add2(out, wick_product(DF, DG))
    return to_tensor(out, n + m - 2).scale(1.0 / (n * m))


def ref_stratonovich_integral(f):
    n = f.order
    out = ChaosVector.zero(f.dim, n)
    for k in range(n // 2 + 1):
        out = add2(out, scale(from_tensor(trace_k(f, k), max_order=n), hu_meyer_coeff(n, k)))
    return out


def ref_ito_from_stratonovich(f):
    n = f.order
    out = ChaosVector.zero(f.dim, n)
    for k in range(n // 2 + 1):
        sign = -1.0 if k % 2 else 1.0
        out = add2(out, scale(ref_stratonovich_integral(trace_k(f, k)),
                              sign * hu_meyer_coeff(n, k)))
    return out


def ref_stratonovich_partial_sum(f, n_basis):
    n, dim = f.order, f.dim
    out = ChaosVector.zero(dim, n)
    for alpha, v in f.items():
        if alpha.max_index() >= n_basis:
            continue
        prod = ChaosVector.constant(1.0, dim, n)
        for j in alpha.to_indices():
            prod = ordinary_product(prod, ChaosVector.coordinate(j, dim, n))
        out = add2(out, scale(prod, alpha.ordered_count() * v))
    return out


# -- the earlier scalar loops ------------------------------------------------

def ref_inner_product(F, G):
    small, big = (F, G) if F.n_terms() <= G.n_terms() else (G, F)
    out = 0.0
    for a, c in small._terms.items():
        d = big._terms.get(a)
        if d is not None:
            out += a.weighted(c, d)
    return out


def ref_gamma_norm(F, r):
    out = 0.0
    for a, c in F._terms.items():
        out += a.weighted(r ** (2 * a.degree), c, c)
    return math.sqrt(out)


def ref_norm_sq(f):
    out = 0.0
    for a, v in f._terms.items():
        out += a.ordered_count() * v * v
    return out


def ref_sobolev_norm(F, k):
    total = 0.0
    for level in _levels(F, k):
        for t, DtF in level.items():
            total += MultiIndex.from_indices(t).ordered_count() * ref_inner_product(DtF, DtF)
    return math.sqrt(total)


def ref_series_condition(p, variances):
    sig = _sigmas(p.dim, variances)
    total = 0.0
    for alpha, a in p._terms.items():
        total += alpha.weighted(a, a, *(sig[i] ** (2 * m) for i, m in alpha.entries))
    return total


def ref_icopy_exact(p, variances, point):
    sig = _sigmas(p.dim, variances)
    total = 0.0
    for alpha, c in p._terms.items():
        term = c
        for i, m in alpha.entries:
            coeffs = [0.0] * (m + 1)
            for j, h in hermite_to_power(m).items():
                coeffs[j] = h * sig[i] ** (m - j)
            x = float(point[i])
            acc = 0.0
            for j in range(m, -1, -1):
                acc = acc * x + coeffs[j]
            term *= acc
        total += term
    return total


def ref_s_transform(F, xi):
    out = 0.0
    for alpha, c in F.items():
        term = c
        for i, m in alpha.entries:
            term *= xi[i] ** m
        out += term
    return out


# -- generated inputs ----------------------------------------------------------

def key(x):
    """Bits, term order and type of a result."""
    if isinstance(x, (ChaosVector, SymTensor, PolySeries)):
        return (type(x).__name__, x.dim, x.max_order, x.prune,
                [(a, type(c).__name__, c.hex()) for a, c in x.items()])
    return (type(x).__name__, x.hex() if isinstance(x, float) else x)


def coeff(rng, scale_):
    # halves cancel exactly, so partial sums hit 0.0 and are dropped
    if rng.integers(0, 3) == 0:
        return float(rng.integers(-3, 4)) * 0.5 * scale_
    return float(rng.uniform(-1.0, 1.0)) * scale_


def chaos(rng, dim, degree, order, n_terms, scale_, prune):
    terms = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        terms[MultiIndex.from_indices(int(i) for i in rng.integers(0, dim, size=d))] = \
            coeff(rng, scale_)
    return ChaosVector(dim, order, terms, prune=prune)


def tensor(rng, dim, order, n_entries, scale_):
    vals = {tuple(sorted(int(i) for i in rng.integers(0, dim, size=order))): coeff(rng, scale_)
            for _ in range(n_entries)}
    return SymTensor(dim, order, vals, prune=0.0)


SCALES = (1.0, 1e-7, 1e-15, 1.0)
PRUNES = (0.0, PRUNE_DEFAULT, 1e-10)


@pytest.mark.parametrize("seed", range(60))
def test_sums_match_the_earlier_algorithms(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 4))
    s = SCALES[seed % len(SCALES)]
    prune = PRUNES[int(rng.integers(0, len(PRUNES)))]
    F = chaos(rng, dim, int(rng.integers(0, 4)), 6, int(rng.integers(0, 6)), s, prune)
    G = chaos(rng, dim, int(rng.integers(0, 4)), 6, int(rng.integers(0, 6)), s, PRUNE_DEFAULT)
    Hs = [chaos(rng, dim, 3, 5, int(rng.integers(0, 4)), s, PRUNES[k % 2])
          for k in range(int(rng.integers(0, 5)))]
    negs = [scale(H, -1.0) for H in Hs]
    for operands in ((F, *Hs, *negs, *Hs), (G, F, *negs, *Hs), (F, G), (F,)):
        assert key(add(*operands)) == key(fold(*operands))
    g = ([0.0] * dim, [float(v) for v in rng.normal(size=dim)],
         [1e-15 * float(v) for v in rng.normal(size=dim)])[seed % 3]
    assert key(directional_derivative(F, g)) == key(ref_directional_derivative(F, g))
    u = HValuedChaos(tuple(chaos(rng, dim, 3, 4, int(rng.integers(0, 4)), s, prune)
                           for _ in range(dim)))
    assert key(divergence(u)) == key(ref_divergence(u))
    assert key(wick_via_malliavin(F, G)) == key(ref_pairing(F, G, ordinary_product, -1.0))
    assert key(product_via_wick_gradients(F, G)) == key(ref_pairing(F, G, wick_product, 1.0))
    f = tensor(rng, dim, int(rng.integers(1, 4)), int(rng.integers(0, 4)), s)
    h = tensor(rng, dim, int(rng.integers(1, 4)), int(rng.integers(0, 4)), s)
    assert key(contraction_1(f, h)) == key(ref_contraction_1(f, h))
    norm = lambda x: math.sqrt(ref_norm_sq(x))  # noqa: E731
    assert independent(f, h) == (norm(ref_contraction_1(f, h))
                                 <= INDEPENDENCE_TOL * norm(f) * norm(h))
    t = tensor(rng, min(dim, 3), int(rng.integers(0, 7)), int(rng.integers(0, 5)), s)
    assert key(stratonovich_integral(t)) == key(ref_stratonovich_integral(t))
    assert key(ito_from_stratonovich(t)) == key(ref_ito_from_stratonovich(t))
    n_basis = int(rng.integers(0, t.dim + 1))
    assert key(stratonovich_partial_sum(t, n_basis)) == key(ref_stratonovich_partial_sum(t, n_basis))
    # scalar sums
    r = float(rng.uniform(0.1, 3.0))
    k = int(rng.integers(0, 3))
    p = PolySeries(dim, dict(F.items()), 6)
    v = [float(x) for x in rng.uniform(0.3, 2.0, size=dim)] if seed % 2 else None
    pt = [float(x) for x in rng.normal(size=dim)]
    pairs = [(inner_product(F, G), ref_inner_product(F, G)),
             (l2_norm(F), math.sqrt(ref_inner_product(F, F))),
             (gamma_norm(F, r), ref_gamma_norm(F, r)),
             (f.norm_sq(), ref_norm_sq(f)), (t.norm(), math.sqrt(ref_norm_sq(t))),
             (sobolev_norm(F, k), ref_sobolev_norm(F, k)),
             (series_condition(p, v), ref_series_condition(p, v)),
             (wick_order_icopy_exact(p, v, pt), ref_icopy_exact(p, v, pt)),
             (s_transform(F, pt), ref_s_transform(F, pt)),
             (s_transform(F, np.array(pt)), ref_s_transform(F, pt)),
             (poly_eval(p, pt), ref_s_transform(p, pt))]
    for got, want in pairs:
        assert key(got) == key(want)


def test_add_drops_a_cancelled_label_at_once():
    # a fold step drops the exact zeros of the partial sum, so a label that
    # cancels to 0.0 leaves it and, touched again, re-enters at the end; a
    # sum that dropped zeros only at the end would keep it in its first place
    a, b = MultiIndex([(0, 1)]), MultiIndex([(0, 2)])
    F = ChaosVector(1, 2, {a: 1.0, b: 2.0})
    minus_a = ChaosVector(1, 2, {a: -1.0})
    plus_a = ChaosVector(1, 2, {a: 3.0})
    out = add(F, minus_a, plus_a)
    assert list(out.items()) == [(b, 2.0), (a, 3.0)]
    assert key(out) == key(fold(F, minus_a, plus_a))
    # a near-cancellation keeps its exact residue, whatever prune the
    # operands were built with: only a constructor prunes
    for prune in (0.0, PRUNE_DEFAULT):
        near = ChaosVector(1, 2, {a: -1.0 + 1e-15}, prune=prune)
        out = add(ChaosVector(1, 2, {a: 1.0, b: 2.0}, prune=prune), near)
        assert list(out.items()) == [(a, 1.0 + (-1.0 + 1e-15)), (b, 2.0)]
        assert out.prune == 0.0 and key(out) == key(fold(F, near))


def test_add_keeps_the_fold_contract():
    F = ChaosVector(2, 3, {MultiIndex([(0, 1)]): 1.0}, prune=0.0)
    G = ChaosVector(2, 5, {MultiIndex([(1, 2)]): 2.0}, prune=1e-3)
    out = add(F, G, F)
    assert (type(out), out.max_order, out.prune) == (ChaosVector, 5, 0.0)
    p = PolySeries(2, {MultiIndex([(1, 1)]): 1.0}, 4)
    assert type(add(p, p, p)) is PolySeries
    assert add(F).terms == F.terms and add(F) is not F
    with pytest.raises(DimensionMismatchError):
        add(F, G, ChaosVector.zero(3, 1))
    big = ChaosVector(1, 1, {MultiIndex([(0, 1)]): 1e308})
    with pytest.raises(DomainError):  # inf is never pruned away
        add(big, big, scale(big, -1.0))


def test_scalar_sums_start_from_float_zero():
    for got in (SymTensor(2, 2).norm_sq(), s_transform(ChaosVector.zero(2, 2), [1.0, 2.0]),
                inner_product(ChaosVector.zero(1, 1), ChaosVector.zero(1, 1)),
                series_condition(PolySeries(1), None)):
        assert type(got) is float and got == 0.0
