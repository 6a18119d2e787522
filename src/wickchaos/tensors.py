"""Symmetric tensors over R^d stored against unordered index tuples.

An order-n symmetric tensor keeps one value per sorted tuple; the dense
tensor entry at any ordered tuple is the value of its sorted form, so
symmetry holds by construction.  Sums over ordered tuples are recovered
with the multinomial weight

    mult(t) = n! / prod_j (count of j in t)!

which counts the ordered tuples collapsing onto the representative t.
"""

from __future__ import annotations

import math
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, DomainError

PRUNE_DEFAULT = 1e-14


def ordered_count(t: tuple[int, ...]) -> float:
    """Number of distinct orderings of the multiset t."""
    n = len(t)
    c = math.factorial(n)
    run = 1
    for k in range(1, n + 1):
        if k < n and t[k] == t[k - 1]:
            run += 1
        else:
            c //= math.factorial(run)
            run = 1
    return float(c)


class SymTensor:
    """dim, order, and a sparse map sorted-index-tuple -> value."""

    __slots__ = ("dim", "order", "_values")

    def __init__(self, dim: int, order: int, values: Mapping[tuple[int, ...], float] | None = None,
                 prune: float = PRUNE_DEFAULT):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if order < 0:
            raise ValueError("order must be >= 0")
        self.dim = dim
        self.order = order
        store: dict[tuple[int, ...], float] = {}
        for t, v in (values or {}).items():
            t = tuple(sorted(int(i) for i in t))
            if len(t) != order:
                raise ValueError(f"tuple {t} has length {len(t)}, expected order {order}")
            if t and (t[0] < 0 or t[-1] >= dim):
                raise DimensionMismatchError(f"tuple {t} out of range for dim {dim}")
            v = float(v)
            if not math.isfinite(v):
                raise DomainError(f"value at {t} is {v}, not finite")
            if abs(v) > prune:
                store[t] = store.get(t, 0.0) + v
        self._values = store

    @property
    def values(self) -> dict[tuple[int, ...], float]:
        return dict(self._values)

    def value(self, t: Iterable[int]) -> float:
        return self._values.get(tuple(sorted(int(i) for i in t)), 0.0)

    def is_zero(self) -> bool:
        return not self._values

    def __eq__(self, other):
        return (isinstance(other, SymTensor) and self.dim == other.dim
                and self.order == other.order and self._values == other._values)

    __hash__ = None

    def __repr__(self):
        return f"SymTensor(dim={self.dim}, order={self.order}, {self._values})"

    def norm_sq(self) -> float:
        """Sum over ordered tuples of value^2, from the unordered store."""
        return sum(ordered_count(t) * v * v for t, v in self._values.items())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def scale(self, c: float) -> "SymTensor":
        return SymTensor(self.dim, self.order, {t: c * v for t, v in self._values.items()}, prune=0.0)

    def add(self, other: "SymTensor") -> "SymTensor":
        if self.dim != other.dim:
            raise DimensionMismatchError("tensor dims differ")
        if self.order != other.order:
            raise ValueError("tensor orders differ")
        vals = dict(self._values)
        for t, v in other._values.items():
            vals[t] = vals.get(t, 0.0) + v
        return SymTensor(self.dim, self.order, vals)


def basis_tensor(dim: int, indices: Iterable[int]) -> SymTensor:
    """e_{i1} (x) ... (x) e_{in} for a constant tuple pattern (already
    symmetric when all orderings carry the same value, i.e. raw products
    of a single ordered tuple are entered via sym_product instead)."""
    t = tuple(sorted(indices))
    return SymTensor(dim, len(t), {t: 1.0})


def contract_vector(f: SymTensor, k: int) -> SymTensor:
    """<f, e_k>: fix one slot to k; symmetric order n-1 tensor.

    By symmetry the dense entry at (rest..., k) equals the stored value of
    the sorted full tuple, so the result at rest is f[sorted(rest + (k,))].
    """
    if f.order < 1:
        raise ValueError("cannot contract an order-0 tensor")
    out: dict[tuple[int, ...], float] = {}
    for t, v in f.values.items():
        if k in t:
            rest = list(t)
            rest.remove(k)
            out[tuple(rest)] = v
    return SymTensor(f.dim, f.order - 1, out, prune=0.0)


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetrized tensor product a (x)^ b.

    On unordered stores, with p = a.order, q = b.order, n = p + q:

        (a (x)^ b)[t] = (1 / C(n, p)) * sum over multiset splits t = u + v,
                        |u| = p:  prod_j C(t_j, u_j) * a[u] * b[v]

    the split count prod_j C(t_j, u_j) being the number of position subsets
    realizing the split.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError("tensor dims differ")
    p, q = a.order, b.order
    n = p + q
    out: dict[tuple[int, ...], float] = {}
    binom = float(math.comb(n, p))
    for u, av in a.values.items():
        for v, bv in b.values.items():
            t = tuple(sorted(u + v))
            ways = _split_ways(t, u)
            out[t] = out.get(t, 0.0) + ways * av * bv / binom
    return SymTensor(a.dim, n, out, prune=0.0)


def _split_ways(t: tuple[int, ...], u: tuple[int, ...]) -> float:
    """prod_j C(count of j in t, count of j in u)."""
    tc: dict[int, int] = {}
    for i in t:
        tc[i] = tc.get(i, 0) + 1
    uc: dict[int, int] = {}
    for i in u:
        uc[i] = uc.get(i, 0) + 1
    ways = 1
    for j, m in uc.items():
        ways *= math.comb(tc.get(j, 0), m)
    return float(ways)


def contraction_1(f: SymTensor, g: SymTensor) -> SymTensor:
    """One-slot contraction <f, g>_H = sum_k <f, e_k> (x)^ <g, e_k>.

    Order n + m - 2; zero exactly when the corresponding single-chaos
    variables are independent.
    """
    if f.dim != g.dim:
        raise DimensionMismatchError("tensor dims differ")
    if f.order < 1 or g.order < 1:
        raise ValueError("contraction needs orders >= 1")
    out = SymTensor(f.dim, f.order + g.order - 2, {})
    for k in range(f.dim):
        fk = contract_vector(f, k)
        if fk.is_zero():
            continue
        gk = contract_vector(g, k)
        if gk.is_zero():
            continue
        out = out.add(sym_product(fk, gk))
    return out


INDEPENDENCE_TOL = 1e-12


def independent(f: SymTensor, g: SymTensor) -> bool:
    """Ustunel-Zakai criterion: I_n(f) and I_m(g) are independent iff the
    one-slot contraction vanishes (norm <= 1e-12)."""
    return contraction_1(f, g).norm() <= INDEPENDENCE_TOL
