"""The chaos algebra: ChaosVector and its exact operations.

A square-integrable functional of d independent standard Gaussians
e~_1, ..., e~_d is stored by its Hermite-basis coefficients,

    F = sum_alpha c_alpha prod_i H_{alpha_i}(e~_i),

a sparse map MultiIndex -> float.  In this basis the L2 geometry is
diagonal (<F, G> = sum_alpha alpha! c_alpha d_alpha), the Wick product is
multi-index convolution, and the ordinary product reduces to coordinatewise
Hermite linearization.  Everything here is exact up to float rounding; the
truncation order is a hard cap that raises OrderOverflowError rather than
silently dropping terms.

Products run on integer codes.  With K the common truncation and
i_0 < i_1 < ... the coordinates that occur in the operands, a term alpha
becomes (deg alpha, code(alpha), c_alpha) with the plain int

    code(alpha) = sum_k alpha_{i_k} (K+1)^k.

Every digit is at most K, so when deg alpha + deg beta <= K the sum of the
codes is the code of alpha + beta, without a carry.  Python ints have no
width limit, and coordinates nobody uses get no digit, so dim does not
enter the cost.  The Wick product is then a convolution of codes in which
each term of F visits only the degree-sorted prefix of G that fits under
K.  The ordinary product uses the contraction-index form of Hermite
linearization,

    H_alpha H_beta = sum_{p <= alpha, beta} p! C(alpha,p) C(beta,p) H_{alpha+beta-2p}

(factorials and binomials coordinatewise): for each p it is the same
convolution applied to the terms of F and G lowered by p, and only the p
below some term of each side occur.  MultiIndex objects are built only for
output terms, decoding each code by divmod.

The sparse store itself (_Store) is shared with renormalization.PolySeries,
whose labels are monomial exponents.  Multiplying monomials adds exponents,
so poly_mul is wick_product on those labels: the Wick convolution, which is
why renormalization satisfies :pq: = :p: <> :q:.  The remaining maps act on
one coordinate at a time, each label m becoming a 1-D expansion
sum_{n <= m} w_n (label n): the Hermite shift of stransform.translate and
the monomial/Hermite changes of basis of renormalization.poly_to_chaos and
chaos_to_poly.  They share the one coordinatewise kernel _coordinatewise on
the same codes.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, OrderOverflowError
from .hermite import hermite_rows
from .multiindex import EMPTY, MultiIndex
from .sampling import SampleBatch
from .tensors import SymTensor, ordered_count

PRUNE_DEFAULT = 1e-14

_EVAL_BLOCK = 1 << 16


class _Store:
    """Sparse map MultiIndex -> finite float under a hard degree cap.

    The one store behind ChaosVector (Hermite labels) and
    renormalization.PolySeries (monomial exponents).  No stored degree may
    exceed max_order, no basis index may reach dim, and a NaN or inf
    coefficient raises DomainError; coefficients with |c| <= prune are
    dropped.
    """

    __slots__ = ("dim", "max_order", "prune", "_terms")
    _cap = "max_order"  # the cap's public name, for messages and repr

    def __init__(self, dim: int, max_order: int,
                 terms: Mapping[MultiIndex, float] | None = None,
                 prune: float = PRUNE_DEFAULT):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if max_order < 0:
            raise ValueError(f"{self._cap} must be >= 0")
        self.dim = dim
        self.max_order = max_order
        self.prune = prune
        store: dict[MultiIndex, float] = {}
        for alpha, c in (terms or {}).items():
            if not isinstance(alpha, MultiIndex):
                alpha = MultiIndex.from_exponents(alpha)
            if alpha.degree > max_order:
                raise OrderOverflowError(
                    f"multi-index {alpha} has degree {alpha.degree} > {self._cap} {max_order}")
            if alpha.max_index() >= dim:
                raise DimensionMismatchError(
                    f"multi-index {alpha} uses basis index >= dim {dim}")
            c = float(c)
            if not math.isfinite(c):
                raise DomainError(f"coefficient at {alpha} is {c}, not finite")
            if abs(c) > prune:
                store[alpha] = c
        self._terms = store

    @classmethod
    def _new(cls, dim: int, max_order: int, terms: Mapping[MultiIndex, float],
             prune: float):
        """An instance of cls, whatever the signature of its constructor."""
        out = cls.__new__(cls)
        _Store.__init__(out, dim, max_order, terms, prune)
        return out

    @property
    def terms(self) -> dict[MultiIndex, float]:
        return dict(self._terms)

    def items(self):
        return self._terms.items()

    def coeff(self, alpha: MultiIndex) -> float:
        return self._terms.get(alpha, 0.0)

    def degree(self) -> int:
        return max((a.degree for a in self._terms), default=0)

    def n_terms(self) -> int:
        return len(self._terms)

    def __eq__(self, other):
        return (type(other) is type(self) and self.dim == other.dim
                and self._terms == other._terms)

    __hash__ = None

    def __repr__(self):
        inner = ", ".join(f"{a}: {c:g}" for a, c in sorted(self._terms.items(),
                                                           key=lambda kv: kv[0].sort_key()))
        return (f"{type(self).__name__}(dim={self.dim}, {self._cap}={self.max_order}, "
                f"{{{inner}}})")


class ChaosVector(_Store):
    """Truncated Wiener chaos expansion over dimension dim.

    Parameters
    ----------
    dim : number of Gaussian coordinates.
    max_order : truncation cap; no stored degree may exceed it.
    terms : map MultiIndex -> coefficient.
    prune : coefficients with |c| <= prune are dropped at construction and
        the threshold propagates through arithmetic (series constructors
        pass 0.0 because their meaningful coefficients go below any fixed
        threshold while multiplying large Hermite values).
    """

    __slots__ = ()

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int, max_order: int) -> "ChaosVector":
        return cls(dim, max_order, {})

    @classmethod
    def constant(cls, c: float, dim: int, max_order: int) -> "ChaosVector":
        return cls(dim, max_order, {EMPTY: c})

    @classmethod
    def coordinate(cls, i: int, dim: int, max_order: int) -> "ChaosVector":
        """The Gaussian coordinate e~_i itself (0-based i)."""
        return cls(dim, max_order, {MultiIndex(((i, 1),)): 1.0})

    @classmethod
    def linear(cls, coords: Sequence[float], max_order: int = 1,
               prune: float = PRUNE_DEFAULT) -> "ChaosVector":
        """g~ = sum_j g_j e~_j for g in H = R^d."""
        dim = len(coords)
        terms = {MultiIndex(((j, 1),)): float(g) for j, g in enumerate(coords) if g != 0.0}
        return cls(dim, max_order, terms, prune=prune)

    # -- plumbing ------------------------------------------------------

    def with_max_order(self, max_order: int) -> "ChaosVector":
        """Same terms under a different cap (must still fit)."""
        return ChaosVector(self.dim, max_order, self._terms, prune=0.0)

    def degree_part(self, n: int) -> "ChaosVector":
        return ChaosVector(self.dim, self.max_order,
                           {a: c for a, c in self._terms.items() if a.degree == n}, prune=0.0)

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = ChaosVector.constant(float(other), self.dim, self.max_order)
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = ChaosVector.constant(float(other), self.dim, self.max_order)
        return add(self, scale(other, -1.0))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return ordinary_product(self, other)

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return scale(self, float(other))
        return NotImplemented


def _common(F: ChaosVector, G: ChaosVector) -> tuple[int, int, float]:
    if F.dim != G.dim:
        raise DimensionMismatchError(f"dims differ: {F.dim} vs {G.dim}")
    return F.dim, max(F.max_order, G.max_order), min(F.prune, G.prune)


# -- linear structure ----------------------------------------------------

def add(F: ChaosVector, G: ChaosVector) -> ChaosVector:
    """F + G, of the type of F."""
    dim, order, prune = _common(F, G)
    out = dict(F._terms)
    for a, c in G._terms.items():
        out[a] = out.get(a, 0.0) + c
    return type(F)._new(dim, order, out, prune)


def scale(F: ChaosVector, c: float) -> ChaosVector:
    """c F, of the type of F."""
    return type(F)._new(F.dim, F.max_order, {a: c * v for a, v in F._terms.items()},
                        F.prune)


# -- tensor conversion ----------------------------------------------------

def from_tensor(f: SymTensor, max_order: int | None = None) -> ChaosVector:
    """I_n(f) for a symmetric order-n tensor, in Hermite coordinates.

    The coefficient at the multi-index alpha of a stored tuple is
    (n!/alpha!) * value: the count of ordered tuples collapsing onto the
    representative times the stored value.  This reproduces
    I_n(g^{(x)n}) = |g|^n H_n(g~/|g|) and the isometry E I_n(f)^2 = n! |f|^2.
    """
    n = f.order
    cap = n if max_order is None else max_order
    if n > cap:
        raise OrderOverflowError(f"tensor order {n} exceeds max_order {cap}")
    terms: dict[MultiIndex, float] = {}
    for t, v in f.values.items():
        alpha = MultiIndex.from_indices(t)
        terms[alpha] = terms.get(alpha, 0.0) + ordered_count(t) * v
    return ChaosVector(f.dim, cap, terms, prune=0.0)


def to_tensor(F: ChaosVector, n: int) -> SymTensor:
    """Extract f_n with degree-n part of F equal to I_n(f_n)."""
    vals: dict[tuple[int, ...], float] = {}
    for alpha, c in F._terms.items():
        if alpha.degree == n:
            t = alpha.to_indices()
            vals[t] = c / ordered_count(t)
    return SymTensor(F.dim, n, vals, prune=0.0)


# -- inner products and norms ---------------------------------------------

def inner_product(F: ChaosVector, G: ChaosVector) -> float:
    """<F, G> = E[FG] = sum_alpha alpha! c_alpha d_alpha."""
    if F.dim != G.dim:
        raise DimensionMismatchError(f"dims differ: {F.dim} vs {G.dim}")
    small, big = (F, G) if F.n_terms() <= G.n_terms() else (G, F)
    out = 0.0
    for a, c in small._terms.items():
        d = big._terms.get(a)
        if d is not None:
            out += a.factorial() * c * d
    return out


def l2_norm(F: ChaosVector) -> float:
    return math.sqrt(inner_product(F, F))


def gamma_norm(F: ChaosVector, r: float) -> float:
    """|F|_(r) = |Gamma(r) F|_2 = sqrt(sum alpha! r^(2 deg) c^2)."""
    if r <= 0:
        raise ValueError("r must be positive")
    return math.sqrt(sum(a.factorial() * r ** (2 * a.degree) * c * c
                         for a, c in F._terms.items()))


def second_quantization(F: ChaosVector, a: float) -> ChaosVector:
    """Gamma(a): scale the degree-n component by a^n."""
    return ChaosVector(F.dim, F.max_order,
                       {al: c * a ** al.degree for al, c in F._terms.items()},
                       prune=F.prune)


def expectation(F: ChaosVector) -> float:
    """E[F]: the coefficient of the empty index (E I_n = 0 for n >= 1)."""
    return F._terms.get(EMPTY, 0.0)


# -- products (integer codes, see the module docstring) ---------------------

def _digits(base: int, *vectors: _Store) -> tuple[list[int], dict[int, int]]:
    """The coordinates the vectors use, in increasing order, one code digit
    each: returns them and the place value base^k of the k-th."""
    coords = sorted({i for F in vectors for a in F._terms for i, _ in a.entries})
    return coords, {i: base ** k for k, i in enumerate(coords)}


def _coded(F: _Store, place: dict[int, int]) -> list[tuple[int, int, float]]:
    return [(a.degree, sum(m * place[i] for i, m in a.entries), c)
            for a, c in F._terms.items()]


def _convolve(fs, gs, order: int, out: dict[int, float]) -> None:
    """Add c*d at code(alpha + beta) for every (deg alpha, code, c) in fs and
    (deg beta, code, d) in gs with deg alpha + deg beta <= order.  gs must be
    sorted by degree: each term of fs visits only the prefix that fits."""
    degrees = [t[0] for t in gs]
    get = out.get
    for da, ca, c in fs:
        for _, cb, d in gs[:bisect_right(degrees, order - da)]:
            k = ca + cb
            out[k] = get(k, 0.0) + c * d


def _lowered(F: ChaosVector, place: dict[int, int], weight) -> dict[int, list]:
    """Group F's terms by every contraction index p <= alpha.

    Maps code(p) to the terms (deg alpha - |p|, code(alpha - p),
    c_alpha * prod_i weight(alpha_i, p_i)); only p below some term occur.
    """
    groups: dict[int, list] = {}
    for a, c in F._terms.items():
        code = 0
        subs = [(0, 0, 1)]  # (code(p), |p|, integer weight)
        for i, m in a.entries:
            w = place[i]
            code += m * w
            subs = [(pc + k * w, pd + k, pw * weight(m, k))
                    for pc, pd, pw in subs for k in range(m + 1)]
        for pc, pd, pw in subs:
            groups.setdefault(pc, []).append((a.degree - pd, code - pc, c * pw))
    return groups


def _decoded(out: dict[int, float], base: int, coords: list[int], dim: int,
             order: int, prune: float, cls: type[_Store]) -> _Store:
    terms: dict[MultiIndex, float] = {}
    for code, c in out.items():
        entries = []
        k = 0
        while code:
            code, m = divmod(code, base)
            if m:
                entries.append((coords[k], m))
            k += 1
        terms[MultiIndex(entries)] = c
    return cls._new(dim, order, terms, prune)


def _coordinatewise(F: _Store, tables, cls: type[_Store], prune: float) -> _Store:
    """Apply a 1-D expansion to every coordinate F uses, one at a time.

    tables(i, m) is the expansion {n: w} of coordinate i's label m, and
    the label becomes sum_n w (label n): the Hermite shift of translate,
    and power_to_hermite / hermite_to_power between PolySeries and
    ChaosVector.  Each has n <= m, so the integer codes of the product
    kernel stay valid.  Each coordinate's table is built once, for the
    labels m up to the largest one F uses there.
    """
    base = F.max_order + 1
    coords, place = _digits(base, F)
    terms = {code: c for _, code, c in _coded(F, place)}
    for i in coords:
        w = place[i]
        table = [tables(i, m) for m in range(max(code // w % base for code in terms) + 1)]
        out: dict[int, float] = {}
        get = out.get
        for code, c in terms.items():
            m = code // w % base
            for n, h in table[m].items():
                k = code - (m - n) * w
                out[k] = get(k, 0.0) + c * h
        terms = out
    return _decoded(terms, base, coords, F.dim, F.max_order, prune, cls)


def _check_fits(F: ChaosVector, G: ChaosVector, order: int, what: str) -> None:
    top = F.degree() + G.degree()
    if top > order:
        raise OrderOverflowError(f"{what} term degree {top} exceeds max_order {order}")


def wick_product(F: ChaosVector, G: ChaosVector, clip: bool = False) -> ChaosVector:
    """Wick product: multi-index convolution (F<>G)_gamma = sum c_alpha d_beta.

    Realizes I_n(f) <> I_m(g) = I_{n+m}(f (x)^ g).  With clip=True the
    result is orthogonally projected onto degrees <= max_order instead of
    raising; the DSL session algebra uses that mode.  The result has the
    type of F: on PolySeries the same convolution multiplies monomials
    (renormalization.poly_mul).
    """
    dim, order, prune = _common(F, G)
    if not clip:
        _check_fits(F, G, order, "Wick")
    base = order + 1
    coords, place = _digits(base, F, G)
    out: dict[int, float] = {}
    _convolve(_coded(F, place), sorted(_coded(G, place)), order, out)
    return _decoded(out, base, coords, dim, order, prune, type(F))


def ordinary_product(F: ChaosVector, G: ChaosVector, clip: bool = False) -> ChaosVector:
    """Pointwise product, exact in the Hermite basis.

    Coordinates are independent, so the one-dimensional linearization
    H_a H_b = sum_p p! C(a,p) C(b,p) H_{a+b-2p} multiplies out to

        H_alpha H_beta = sum_p p! C(alpha,p) C(beta,p) H_{alpha+beta-2p}

    over contraction indices p <= alpha, beta, with p! and C taken
    coordinatewise.  For each p the sum over the pairs is a Wick
    convolution of F and G lowered by p, with weights p! C(alpha,p) on F's
    side and C(beta,p) on G's.
    """
    dim, order, prune = _common(F, G)
    if not clip:
        _check_fits(F, G, order, "product")
    base = order + 1
    coords, place = _digits(base, F, G)
    gs = _lowered(G, place, math.comb)
    out: dict[int, float] = {}
    for p, fs in _lowered(F, place, math.perm).items():
        if p in gs:
            _convolve(fs, sorted(gs[p]), order, out)
    return _decoded(out, base, coords, dim, order, prune, ChaosVector)


def wick_power(F: ChaosVector, k: int, clip: bool = False) -> ChaosVector:
    """k-fold Wick product by repeated squaring; F^{<>0} = 1.

    Clipping the intermediate powers is exact: Wick products never lower a
    degree, so a dropped term cannot feed a kept one.  The result has the
    type of F (renormalization.poly_power on PolySeries).
    """
    if k < 0:
        raise ValueError("Wick power needs k >= 0")
    out = type(F).constant(1.0, F.dim, F.max_order)
    square = F
    while k:
        if k & 1:
            out = wick_product(out, square, clip=clip)
        k >>= 1
        if k:
            square = wick_product(square, square, clip=clip)
    return out


def exponential_vector(f: Sequence[float], max_order: int) -> ChaosVector:
    """Truncation of eps(f) = sum_n I_n(f^{(x)n}) / n!.

    In Hermite coordinates the coefficient at alpha is prod_i f_i^{alpha_i}
    / alpha_i!.  Built unpruned: the 1/alpha! decay crosses any fixed
    threshold while the matching Hermite values grow.
    """
    dim = max(len(f), 1)
    support = [(i, float(v)) for i, v in enumerate(f) if v != 0.0]
    terms: dict[MultiIndex, float] = {EMPTY: 1.0}

    def rec(pos: int, remaining: int, exps: list[tuple[int, int]], weight: float):
        if pos == len(support):
            if exps:
                terms[MultiIndex(tuple(exps))] = weight
            return
        idx, val = support[pos]
        rec(pos + 1, remaining, exps, weight)
        w = weight
        for m in range(1, remaining + 1):
            w *= val / m
            rec(pos + 1, remaining - m, exps + [(idx, m)], w)

    rec(0, max_order, [], 1.0)
    return ChaosVector(dim, max_order, terms, prune=0.0)


# -- evaluation -------------------------------------------------------------

def _evaluate_block(F: ChaosVector, x: np.ndarray) -> np.ndarray:
    n = x.shape[0]
    needed: dict[int, int] = {}
    for alpha in F._terms:
        for i, m in alpha.entries:
            needed[i] = max(needed.get(i, 0), m)
    rows = {i: hermite_rows(x[:, i], deg) for i, deg in needed.items()}
    out = np.zeros(n)
    for alpha, c in F._terms.items():
        term = np.full(n, c)
        for i, m in alpha.entries:
            term = term * rows[i][m]
        out += term
    return out


def evaluate(F: ChaosVector, batch: SampleBatch | np.ndarray) -> np.ndarray:
    """Per sample: sum_alpha c_alpha prod_i H_{alpha_i}(x_i).

    Raises DomainError if any value is NaN or inf, e.g. when the Hermite
    recurrence overflows at a high order.
    """
    x = batch.data if isinstance(batch, SampleBatch) else np.asarray(batch, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-d sample matrix")
    if x.shape[1] != F.dim:
        raise DimensionMismatchError(f"batch dim {x.shape[1]} != vector dim {F.dim}")
    n = x.shape[0]
    if n <= _EVAL_BLOCK:
        out = _evaluate_block(F, x)
    else:
        out = np.empty(n)
        for start in range(0, n, _EVAL_BLOCK):
            stop = min(start + _EVAL_BLOCK, n)
            out[start:stop] = _evaluate_block(F, x[start:stop])
    if not np.isfinite(out).all():
        raise DomainError("evaluation is not finite (NaN or overflow to inf)")
    return out


def evaluate_at(F: ChaosVector, point: Sequence[float]) -> float:
    """Evaluate at a single point of R^d."""
    pt = np.asarray(point, dtype=float).reshape(1, -1)
    return float(evaluate(F, pt)[0])


def coeff_distance(F: ChaosVector, G: ChaosVector) -> float:
    """max over multi-indices of |c_alpha(F) - c_alpha(G)|."""
    if F.dim != G.dim:
        raise DimensionMismatchError(f"dims differ: {F.dim} vs {G.dim}")
    keys = set(F._terms) | set(G._terms)
    return max((abs(F.coeff(a) - G.coeff(a)) for a in keys), default=0.0)
