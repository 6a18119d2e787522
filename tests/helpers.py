"""Independent oracles and generated inputs used across the test modules.

The oracles are deliberately written against numpy.polynomial.hermite_e
and dense ndarray manipulation rather than the package's own sparse code
paths, so agreement is meaningful.
"""

import itertools
import math

import numpy as np
from hypothesis import strategies as st
from numpy.polynomial import hermite_e

from wickchaos.chaos import ChaosVector
from wickchaos.multiindex import MultiIndex

# A sample threshold for the tests that build stores with prune > 0: the
# constructor drops |c| <= prune, and no derived store prunes at all.
PRUNE_DEFAULT = 1e-14


def hermite_sum(n, x):
    """H_n(x) from the explicit alternating sum, no recurrence."""
    total = 0.0
    for k in range(n // 2 + 1):
        coeff = ((-1) ** k * math.factorial(n)
                 / (2 ** k * math.factorial(k) * math.factorial(n - 2 * k)))
        total += coeff * x ** (n - 2 * k)
    return total


def hermite_np(n, x):
    """H_n(x) through numpy's He-series evaluator."""
    c = np.zeros(n + 1)
    c[n] = 1.0
    return hermite_e.hermeval(x, c)


def gauss_rule(n_nodes):
    """Nodes and probability weights for E[f(Z)], Z standard normal."""
    x, w = hermite_e.hermegauss(n_nodes)
    return x, w / math.sqrt(2.0 * math.pi)


def expect_1d(fn, n_nodes=64):
    x, w = gauss_rule(n_nodes)
    return float(np.dot(w, fn(x)))


def expect_nd(fn, dim, n_nodes=24):
    """E[fn(z)] for z in R^dim by tensorized Gauss-Hermite quadrature.

    fn takes an (m, dim) array and returns m values.
    """
    x, w = gauss_rule(n_nodes)
    grids = np.meshgrid(*([x] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    wgrids = np.meshgrid(*([w] * dim), indexing="ij")
    wts = np.ones(pts.shape[0])
    for g in wgrids:
        wts = wts * g.ravel()
    return float(np.dot(wts, fn(pts)))


def gaussian_moment(n):
    """E[Z^n], the double factorial for even n."""
    if n % 2:
        return 0.0
    out = 1.0
    for k in range(n - 1, 0, -2):
        out *= k
    return out


def dense_tensor(f):
    """SymTensor to a full (dim,)*order ndarray over ordered tuples."""
    arr = np.zeros((f.dim,) * f.order)
    for t, v in f.values.items():
        for p in set(itertools.permutations(t)):
            arr[p] = v
    return arr


def dense_symmetrize(arr):
    order = arr.ndim
    out = np.zeros_like(arr)
    perms = list(itertools.permutations(range(order)))
    for p in perms:
        out += np.transpose(arr, p)
    return out / len(perms)


def dense_sym_outer(a, b):
    """Symmetrized tensor product of two dense symmetric tensors."""
    prod = np.multiply.outer(a, b)
    return dense_symmetrize(prod)


def dense_contract_last(a, b):
    """One-index contraction of dense symmetric tensors, symmetrized."""
    raw = np.tensordot(a, b, axes=([a.ndim - 1], [b.ndim - 1]))
    return dense_symmetrize(raw)


def dense_trace(a):
    """Contract the last two axes against the identity."""
    return np.einsum("...ii->...", a)


def eval_chaos_ref(F, x):
    """Evaluate a ChaosVector at one point via hermeval only."""
    total = 0.0
    for alpha, c in F.items():
        term = c
        for idx, mult in alpha.entries:
            term *= hermite_np(mult, x[idx])
        total += term
    return total


def chaos_to_callable(F):
    """Vectorized pointwise evaluator built on numpy's hermeval."""

    def fn(pts):
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for alpha, c in F.items():
            term = np.full(pts.shape[0], c)
            for idx, mult in alpha.entries:
                coeffs = np.zeros(mult + 1)
                coeffs[mult] = 1.0
                term = term * hermite_e.hermeval(pts[:, idx], coeffs)
            out += term
        return out

    return fn


# -- generated inputs for the property tests --------------------------------

def signed(lo, hi):
    # Magnitudes stay far from underflow, where rounding is absolute.
    return st.tuples(st.sampled_from((-1.0, 1.0)), st.floats(lo, hi)).map(lambda t: t[0] * t[1])


# small integers make exact cancellations
coeffs = st.one_of(st.integers(-3, 3).map(float), signed(1e-3, 4.0))


@st.composite
def vectors(draw, dim, max_order, indices=None, degree=None, prune=None):
    """Up to 6 terms of degree <= degree (default max_order) on the given
    coordinates (default all); the prune threshold is drawn unless given."""
    index = st.sampled_from(indices if indices is not None else range(dim))
    if prune is None:
        prune = draw(st.sampled_from((0.0, PRUNE_DEFAULT)))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        deg = draw(st.integers(0, max_order if degree is None else degree))
        alpha = MultiIndex.from_indices(draw(st.lists(index, min_size=deg, max_size=deg)))
        terms[alpha] = draw(coeffs)
    return ChaosVector(dim, max_order, terms, prune=prune)


def absolute(F):
    """F with every coefficient replaced by its absolute value, unpruned."""
    return ChaosVector(F.dim, F.max_order, {a: abs(c) for a, c in F.items()}, prune=0.0)


def assert_coeffs_close(got, want, bound, rel=1e-13):
    """|got - want| <= rel * bound at every label, bound a vector of the
    magnitudes of the contributions (the same operations on absolute
    values)."""
    for a in set(got.terms) | set(want.terms):
        assert abs(got.coeff(a) - want.coeff(a)) <= rel * bound.coeff(a), \
            (a, got.coeff(a), want.coeff(a))
