"""Self-check battery: exact identities and statistical cross-checks.

Every row compares two independent routes to the same quantity.  Exact
rows report the worst coefficient or value gap over a random corpus and
pass when it is below the tolerance; Monte Carlo rows report an estimate
with standard error and pass when the z-score against the exact value is
at most 3.  Rows are deterministic functions of (seed, n_samples), so a
report can be reproduced bit for bit from its seed column.

The harness is written once, in run_checks.  An exact row is a generator
that takes a seeded numpy Generator, makes its draws and yields its gaps;
a Monte Carlo row takes (seed, n_samples) and returns its Estimate and the
exact value.  run_checks derives each row's seed (seed + 101 * index in
CHECKS), folds the yielded gaps into their maximum in the order they come,
and builds the CheckRow.  A NaN gap is never folded away: it makes the
row's estimate NaN, and NaN fails every tolerance.

The random corpora (random_chaos, random_poly, random_tensor,
random_variances) draw whole arrays, a few numpy calls per object, never
one per term: a sized draw costs as much as a scalar one, and three draws
per term cost more than a small Wick product.  _random_terms draws the
degrees, then every basis index, then the coefficients, and cuts each
label from the index list; random_tensor draws one index array and one
value array.  A label drawn twice sums its coefficients, a tensor entry
keeps its last value, and both keep first-occurrence order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .chaos import (ChaosVector, _evaluate, add, coeff_distance, evaluate,
                    evaluate_at, expectation, exponential_vector, from_tensor,
                    gamma_norm, inner_product, l2_norm, ordinary_product, scale,
                    second_quantization, wick_product)
from .errors import MismatchError
from .malliavin import (HValuedChaos, derivative_dir, directional_derivative,
                        divergence, product_via_wick_gradients,
                        wick_via_malliavin, wick_with_gaussian)
from .montecarlo import (ZSCORE_THRESHOLD, Estimate, estimate_lp_norm,
                         estimate_pair_expectation, estimate_expectation,
                         zscore_check)
from .multiindex import MultiIndex
from .renormalization import (PolySeries, renorm_product_check, series_condition,
                              wick_exp_square, wick_order_icopy_exact,
                              wick_order_icopy_mc, wick_order_poly)
from .stransform import s_transform, s_transform_mc, translate
from .stratonovich import (ito_from_stratonovich, stratonovich_integral,
                           stratonovich_partial_sum)
from .tensors import SymTensor, basis_tensor, independent


@dataclass(frozen=True)
class CheckRow:
    identity: str
    exact: float
    estimate: float
    std_error: float
    zscore: float
    seed: int
    passed: bool

    def report_obj(self) -> dict:
        return {"identity": self.identity, "exact": self.exact,
                "estimate": self.estimate, "std_error": self.std_error,
                "zscore": self.zscore, "seed": self.seed}


def _rel_gap(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


# -- random instances -------------------------------------------------------


def _random_terms(rng: np.random.Generator, dim: int, degree: int,
                  n_terms: int) -> dict[MultiIndex, float]:
    """n_terms labels of degree 0..degree over dim coordinates with U(-1, 1)
    coefficients, drawn as three arrays: degrees, indices, coefficients.
    A label drawn twice sums its coefficients."""
    degrees = rng.integers(0, degree + 1, size=n_terms).tolist()
    indices = rng.integers(0, dim, size=sum(degrees)).tolist()
    coeffs = rng.uniform(-1.0, 1.0, size=n_terms).tolist()
    terms: dict[MultiIndex, float] = {}
    end = 0
    for deg, c in zip(degrees, coeffs):
        alpha = MultiIndex.from_indices(indices[end:end + deg])
        end += deg
        terms[alpha] = terms.get(alpha, 0.0) + c
    return terms


def random_chaos(rng: np.random.Generator, dim: int, degree: int,
                 max_order: int, n_terms: int) -> ChaosVector:
    return ChaosVector(dim, max_order, _random_terms(rng, dim, degree, n_terms))


def random_tensor(rng: np.random.Generator, dim: int, order: int,
                  n_entries: int) -> SymTensor:
    """n_entries sorted index tuples with U(-1, 1) values, drawn as one
    (n_entries, order) index array and one value array.  A tuple drawn
    twice keeps its last value."""
    index = np.sort(rng.integers(0, dim, size=(n_entries, order)), axis=1)
    values = rng.uniform(-1.0, 1.0, size=n_entries)
    return SymTensor(dim, order, dict(zip(map(tuple, index.tolist()), values.tolist())))


def random_poly(rng: np.random.Generator, dim: int, degree: int,
                n_terms: int, truncation: int) -> PolySeries:
    """random_chaos's draws, read as monomial coefficients."""
    return PolySeries(dim, _random_terms(rng, dim, degree, n_terms), truncation)


def random_variances(rng: np.random.Generator, dim: int) -> list[float]:
    return rng.uniform(0.3, 2.0, size=dim).tolist()


# -- exact identities: each yields its gaps ----------------------------------


def _check_wick_vs_malliavin(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        F = random_chaos(rng, dim, 4, 8, 4)
        G = random_chaos(rng, dim, 4, 8, 4)
        yield coeff_distance(wick_product(F, G), wick_via_malliavin(F, G))


def _check_product_vs_wick_gradients(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        F = random_chaos(rng, dim, 4, 8, 4)
        G = random_chaos(rng, dim, 4, 8, 4)
        yield coeff_distance(ordinary_product(F, G), product_via_wick_gradients(F, G))


def _check_product_pointwise(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        F = random_chaos(rng, dim, 4, 8, 4)
        G = random_chaos(rng, dim, 4, 8, 4)
        P = ordinary_product(F, G)
        for f, g, p in _evaluate((F, G, P), rng.normal(size=(10, dim))).T.tolist():
            yield _rel_gap(p, f * g)


def _check_isometry(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        F = random_chaos(rng, dim, 4, 8, 5)
        via_square = expectation(ordinary_product(F, F))
        via_weights = inner_product(F, F)
        yield _rel_gap(via_square, via_weights)


def _check_exponential_vector_law(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        f = [float(v) for v in rng.uniform(-0.8, 0.8, size=dim)]
        g = [float(v) for v in rng.uniform(-0.8, 0.8, size=dim)]
        left = wick_product(exponential_vector(f, 8), exponential_vector(g, 8),
                            clip=True)
        right = exponential_vector([a + b for a, b in zip(f, g)], 8)
        yield coeff_distance(left, right)


def _check_stransform_multiplicative(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        F = random_chaos(rng, dim, 3, 8, 4)
        G = random_chaos(rng, dim, 3, 8, 4)
        xi = [float(v) for v in rng.uniform(-1.0, 1.0, size=dim)]
        lhs = s_transform(wick_product(F, G), xi)
        rhs = s_transform(F, xi) * s_transform(G, xi)
        yield _rel_gap(lhs, rhs)


def _check_gaussian_wick_chain(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        F = random_chaos(rng, dim, 4, 6, 4)
        g = [float(v) for v in rng.uniform(-1.0, 1.0, size=dim)]
        via_conv = wick_product(F, ChaosVector.linear(g, max_order=F.max_order))
        via_deriv = wick_with_gaussian(F, g)
        via_div = divergence(HValuedChaos(tuple(scale(F, gj) for gj in g)))
        yield coeff_distance(via_conv, via_deriv)
        yield coeff_distance(via_conv, via_div)


def _check_wick_gaussian_pairing(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        F = random_chaos(rng, dim, 3, 5, 4)
        G = random_chaos(rng, dim, 3, 5, 4)
        f = [float(v) for v in rng.uniform(-1.0, 1.0, size=dim)]
        g = [float(v) for v in rng.uniform(-1.0, 1.0, size=dim)]
        A = wick_product(F, ChaosVector.linear(f, max_order=F.max_order))
        B = wick_product(G, ChaosVector.linear(g, max_order=G.max_order))
        lhs = inner_product(A, B)
        fg = sum(a * b for a, b in zip(f, g))
        rhs = inner_product(F, G) * fg + inner_product(
            directional_derivative(F, g), directional_derivative(G, f))
        yield _rel_gap(lhs, rhs)


def _check_hu_meyer_roundtrip(rng):
    for _ in range(15):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        f = random_tensor(rng, dim, order, 4)
        yield coeff_distance(ito_from_stratonovich(f), from_tensor(f))


def _check_stratonovich_product_sum(rng):
    for _ in range(15):
        dim = int(rng.integers(1, 4))
        order = int(rng.integers(1, 5))
        f = random_tensor(rng, dim, order, 4)
        yield coeff_distance(stratonovich_partial_sum(f, dim), stratonovich_integral(f))


def _check_stratonovich_pointwise(rng):
    S4 = stratonovich_integral(basis_tensor(1, (0, 0, 0, 0)))
    xs = rng.uniform(-2.0, 2.0, size=20)
    for x, s in zip(xs.tolist(), evaluate(S4, xs[:, None]).tolist()):
        yield _rel_gap(s, x ** 4)


def _check_moment_identity(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        p = random_poly(rng, dim, 4, 5, 8)
        v = random_variances(rng, dim)
        lhs = l2_norm(wick_order_poly(p, v)) ** 2
        rhs = series_condition(p, v)
        yield _rel_gap(lhs, rhs)


def _check_icopy_exact(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        p = random_poly(rng, dim, 6, 5, 8)
        v = random_variances(rng, dim)
        W = wick_order_poly(p, v)
        x = [float(u) for u in rng.uniform(-2.0, 2.0, size=dim)]
        z = [xi / math.sqrt(vi) for xi, vi in zip(x, v)]
        yield _rel_gap(wick_order_icopy_exact(p, v, x), evaluate_at(W, z))


def _check_hypercontractivity(rng):
    alpha = 1.0 / math.sqrt(3.0)
    for _ in range(20):
        dim = int(rng.integers(1, 3))
        F = random_chaos(rng, dim, 3, 6, 4)
        if F.n_terms() == 0:
            continue
        G = second_quantization(F, alpha)
        G2 = ordinary_product(G, G)
        lhs = inner_product(G2, G2) ** 0.25
        rhs = l2_norm(F)
        yield (lhs - rhs) / max(1.0, rhs)


def _check_independence(rng):
    for _ in range(10):
        order_f = int(rng.integers(1, 3))
        order_g = int(rng.integers(1, 3))
        # disjoint coordinate blocks of a 4-d space
        f_vals = {tuple(sorted(int(i) for i in rng.integers(0, 2, size=order_f))):
                  float(rng.uniform(-1, 1)) for _ in range(3)}
        g_vals = {tuple(sorted(int(i) for i in rng.integers(2, 4, size=order_g))):
                  float(rng.uniform(-1, 1)) for _ in range(3)}
        f = SymTensor(4, order_f, f_vals)
        g = SymTensor(4, order_g, g_vals)
        if f.is_zero() or g.is_zero():
            continue
        if not independent(f, g):
            yield math.inf
            return
        F = from_tensor(f, max_order=8)
        G = from_tensor(g, max_order=8)
        F2 = ordinary_product(F, F)
        G2 = ordinary_product(G, G)
        yield _rel_gap(inner_product(F2, G2), expectation(F2) * expectation(G2))


def _check_norm_inequality(rng):
    r2 = math.sqrt(2.0)
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        F = random_chaos(rng, dim, 3, 8, 4)
        G = random_chaos(rng, dim, 3, 8, 4)
        lhs = gamma_norm(wick_product(F, G), 1.0)
        rhs = gamma_norm(F, r2) * gamma_norm(G, r2)
        yield (lhs - rhs) / max(1.0, rhs)


def _check_translation_laws(rng):
    for _ in range(10):
        dim = int(rng.integers(1, 4))
        F = random_chaos(rng, dim, 3, 8, 4)
        G = random_chaos(rng, dim, 3, 8, 4)
        y = [float(v) for v in rng.uniform(-1.0, 1.0, size=dim)]
        eta = [float(v) for v in rng.uniform(-1.0, 1.0, size=dim)]
        FG = wick_product(F, G)
        yield coeff_distance(translate(FG, y),
                             wick_product(translate(F, y), translate(G, y)))
        j = int(rng.integers(0, dim))
        yield coeff_distance(derivative_dir(FG, j),
                             add(wick_product(derivative_dir(F, j), G),
                                 wick_product(F, derivative_dir(G, j))))
        yield _rel_gap(s_transform(translate(F, y), eta),
                       s_transform(F, [a + b for a, b in zip(y, eta)]))


def _check_renorm_product_law(rng):
    for _ in range(20):
        dim = int(rng.integers(1, 4))
        p = random_poly(rng, dim, 4, 4, 8)
        q = random_poly(rng, dim, 4, 4, 8)
        v = random_variances(rng, dim)
        yield renorm_product_check(p, q, v)


def _check_wick_exp_series(rng):
    for lam in (0.2, -0.2, 0.5, -0.5, 0.8, -0.8):
        we = wick_exp_square(lam, K=120)
        xs = np.linspace(-2.0, 2.0, 9)
        for x, v in zip(xs.tolist(), evaluate(we.series, xs[:, None]).tolist()):
            yield abs(v - we.closed(x))


# -- Monte Carlo cross-checks: each returns (estimate, exact) -----------------


def _check_mean_zero_mc(seed, n):
    F = ChaosVector(1, 2, {MultiIndex(((0, 2),)): 1.0})
    return estimate_expectation(F, n, seed), 0.0


def _check_second_moment_mc(seed, n):
    e1 = ChaosVector.coordinate(0, 1, 2)
    return estimate_pair_expectation(e1, e1, n, seed), 1.0


def _check_stransform_pairing_mc(seed, n):
    rng = np.random.default_rng(seed)
    F = random_chaos(rng, 2, 3, 6, 4)
    xi = [0.4, -0.3]
    return s_transform_mc(F, xi, n, seed), s_transform(F, xi)


def _check_quartic_norm_mc(seed, n):
    e1 = ChaosVector.coordinate(0, 1, 2)
    return estimate_lp_norm(e1, 4.0, n, seed), 3.0 ** 0.25


def _check_icopy_poly_mc(seed, n):
    p = PolySeries(1, {MultiIndex(((0, 3),)): 1.0, MultiIndex(((0, 1),)): -2.0}, 8)
    v = [1.5]
    x = [1.2]
    return wick_order_icopy_mc(p, v, [x], n, seed)[0], wick_order_icopy_exact(p, v, x)


def _check_wick_pairing_mc(seed, n):
    rng = np.random.default_rng(seed)
    F = random_chaos(rng, 2, 2, 4, 3)
    G = random_chaos(rng, 2, 2, 4, 3)
    f = [0.8, -0.5]
    g = [0.3, 0.9]
    A = wick_product(F, ChaosVector.linear(f, max_order=F.max_order))
    B = wick_product(G, ChaosVector.linear(g, max_order=G.max_order))
    return estimate_pair_expectation(A, B, n, seed), inner_product(A, B)


_EXACT: dict[str, Callable[[np.random.Generator], Iterator[float]]] = {
    "wick_convolution_vs_malliavin": _check_wick_vs_malliavin,
    "product_vs_wick_gradients": _check_product_vs_wick_gradients,
    "product_pointwise": _check_product_pointwise,
    "chaos_isometry": _check_isometry,
    "exponential_vector_law": _check_exponential_vector_law,
    "stransform_multiplicative": _check_stransform_multiplicative,
    "gaussian_wick_chain": _check_gaussian_wick_chain,
    "wick_gaussian_pairing": _check_wick_gaussian_pairing,
    "hu_meyer_roundtrip": _check_hu_meyer_roundtrip,
    "stratonovich_product_sum": _check_stratonovich_product_sum,
    "stratonovich_pointwise": _check_stratonovich_pointwise,
    "moment_identity": _check_moment_identity,
    "icopy_exact": _check_icopy_exact,
    "hypercontractivity": _check_hypercontractivity,
    "independence_factorization": _check_independence,
    "wick_norm_inequality": _check_norm_inequality,
    "translation_laws": _check_translation_laws,
    "renorm_product_law": _check_renorm_product_law,
    "wick_exp_series_closed": _check_wick_exp_series,
}

_MONTE_CARLO: dict[str, Callable[[int, int], tuple[Estimate, float]]] = {
    "mean_zero_mc": _check_mean_zero_mc,
    "second_moment_mc": _check_second_moment_mc,
    "stransform_pairing_mc": _check_stransform_pairing_mc,
    "quartic_norm_mc": _check_quartic_norm_mc,
    "icopy_poly_mc": _check_icopy_poly_mc,
    "wick_pairing_mc": _check_wick_pairing_mc,
}

CHECKS: dict[str, Callable] = {**_EXACT, **_MONTE_CARLO}


def run_checks(names: Sequence[str] | None = None, seed: int = 0,
               n_samples: int = 10 ** 6, tolerance: float = 1e-9) -> list[CheckRow]:
    """Run the named identities (all by default) and return their rows.

    Each row derives its own seed from the base seed and its position, so
    single-identity runs reproduce the corresponding row of a full run.
    """
    selected = list(CHECKS) if names is None else list(names)
    rows = []
    for name in selected:
        if name not in CHECKS:
            raise KeyError(f"unknown identity {name!r}")
        row_seed = seed + 101 * list(CHECKS).index(name)
        if name in _EXACT:
            gap = 0.0
            for g in _EXACT[name](np.random.default_rng(row_seed)):
                gap = g if math.isnan(g) else max(gap, g)
            rows.append(CheckRow(name, 0.0, gap, 0.0, 0.0, row_seed, gap <= tolerance))
            continue
        est, exact = _MONTE_CARLO[name](row_seed, n_samples)
        try:
            z = zscore_check(est, exact)
        except MismatchError:
            rows.append(CheckRow(name, exact, est.value, 0.0, math.inf, row_seed, False))
            continue
        rows.append(CheckRow(name, exact, est.value, est.std_error, z, row_seed,
                             z <= ZSCORE_THRESHOLD))
    return rows
