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
i_0 < i_1 < ... the u coordinates that occur in the operands, a term alpha
becomes (deg alpha, code(alpha), c_alpha) with the plain int

    code(alpha) = sum_k alpha_{i_k} (K+1)^k.

Every digit is at most K, so when deg alpha + deg beta <= K the sum of the
codes is the code of alpha + beta, without a carry, and every output code
is below (K+1)^u.  Coordinates nobody uses get no digit, so dim does not
enter the cost.  The ordinary product uses the contraction-index form of
Hermite linearization,

    H_alpha H_beta = sum_{p <= alpha, beta} p! C(alpha,p) C(beta,p) H_{alpha+beta-2p}

(factorials and binomials coordinatewise): for each p it is a Wick
convolution of the terms of F and G lowered by p, and only the p below
some term of each side occur.  So both products are one pair loop over
groups (fs, gs), one for the Wick product and one per p for the ordinary
product, with gs sorted by (degree, code): each term of fs visits the
prefix of gs that fits under K and adds its product at the sum of the
codes.

The loop has two routes, picked before any term is lowered or put in an
array.  The Wick product counts its pairs exactly from the degree
histograms, sum_a n_F[a] N_G[K - a]; the ordinary product counts them by
the lower bound |F| |G|, since every pair of terms meets at least once,
at p = 0.  A product of fewer than _CROSSOVER pairs, plus one per
_CELLS_PER_PAIR codes of the range (K+1)^u, runs the dict loop
(_convolve) on tuples and a dict of Python ints, whose width has no
limit; so does one whose range exceeds _CELLS, which covers every code
past 2^63.  _CROSSOVER is the array call's fixed cost in pairs of the
dict loop, and _CELLS_PER_PAIR the codes of the range that cost one pair
while the thread keeps its arrays.  Past _KEPT_CELLS the arrays are made
and faulted in per call, and a code is priced at eight kept ones.  The
prices are fitted to sweeps of both routes (README, BENCH_*.json).  The
others run on int64 arrays from the operands up: codes read from the
codec straight into int64, degrees and coefficients by np.fromiter, and
for the ordinary product a vectorized lowering (_lowered) and grouping
(_contracted) without a tuple per term.  They keep the dict loop's
order: the groups rank by the first appearance of their p among F's
lowered terms, and stable sorts keep F's rows in term order within a
group and G's, lowered from terms sorted by (degree, code), in (degree,
code) order.  The integer weights stay exact: up to K = 20 they are at most
20! < 2^63 and fit int64, and above they are Python ints, as in the dict
loop.  One kernel, _convolve_dense, takes the arrays and builds the
pairs in the dict loop's visiting order, _CHUNK pairs at a time so that
memory does not grow with the pair count: np.repeat of each row's code,
value and term offset by its pairs in the chunk, and gathers of the
terms met.  They fill work arrays each thread keeps, with one chunk of
np.repeat output alive at a time: fresh work arrays per call let the C
allocator trim and re-fault its heap on every call in some memory
layouts.  np.add.at sums the
pairs into a dense array over the range, and np.minimum.at records each
code's first visit.  ufunc.at is unbuffered and runs in index order, so
every code's sum adds the same products in the same order as the dict
loop, and the terms come out in first-visit order: both routes, at any
chunk size, give the same bits in the same term order.  The kernel
returns the arrays (codes, sums), which _decoded reads.

Labels go through codecs.  A codec holds the two maps label -> code and
code -> label of one key (K+1, i_0, i_1, ...).  The operands share one
dim and every label is on coordinates < dim, so the scan for the key
stops once it has found dim coordinates: a store that uses them all pays
for a few labels, not for every entry.  A code is a pure function
of the label and the key, so one codec serves every call under its key,
whatever vectors or store types (ChaosVector, PolySeries) the call reads:
an operand label is coded, and an output code decoded by divmod into a new
label through a trusted constructor, only when the codec has not seen it.
The codecs are made on first use, none at import, and kept for the
process.  Once they hold more than _CODEC_LABELS = 2^16 labels and codecs
together, the next call drops them all, so they exceed the bound by at
most one call's labels.  Threads may share them: an entry is never
removed from its codec, every write of it, by any thread, writes an equal
value, and a thread whose codec is dropped keeps a complete one.  Every
output label has degree <= K and uses only the operands' coordinates, so
the kernels hand their output to a trusted store builder (_Store._trusted)
that skips the label checks.  It keeps the NaN/inf check and drops
exact zeros only, so no result depends on the scale of its data; only a
constructor prunes, on request.  Sums build through it too.  add(F, *Gs)
sums any number of operands in one dict, to the bits and term order of
the left fold of two-operand adds: a label whose sum is exactly 0.0
leaves, and re-enters at the end if a later operand touches it.
Every scalar sum is one checked total, _total, which raises DomainError
on a term that overflows or a NaN or inf total.

The Wick exponential runs on the same codes.  Second quantization
respects <>, Gamma(e^t)(F<>G) = Gamma(e^t)F <> Gamma(e^t)G, so at t = 0
the number operator N (n on degree n) is a derivation for <>, and G =
exp<>(F) = sum_k F^{<>k} / k! solves N G = (N F) <> G degree by degree:

    G_0 = exp(E F),   G_n = (1/n) sum_{m=1..n} m F_m <> G_{n-m}.

G_n reads only F's parts of degree <= n, so projecting onto degrees <= K
is exact.  wick_exp makes one pair loop over the groups (G_{n-m}, m F_m)
per degree, and a degree of one pair adds it directly, as the loop would;
exponential_vector and renormalization's quadratic exponentials call it.
Every pair of a degree fits, so its count sum_m |G_{n-m}| |F_m| is
exact, and _dense picks its route as for the products.  On arrays a
degree is one _convolve_dense call: the rows of the G_{n-m} end to end,
each meeting its own group's m F_m from that group's offset, as the
ordinary product's rows meet their group of G.  A degree's groups have
short prefixes, a few terms each, and past its fixed cost the kernel
visits a pair for a fraction of what the dict loop pays.

The sparse store itself (_Store) has three users.  SymTensor keeps the
value of a symmetric order-n tensor at a sorted index tuple t under the
label MultiIndex.from_indices(t), and from_tensor and to_tensor rescale it
by n!/alpha! to and from I_n(f).  renormalization.PolySeries keeps
monomial exponents.  Multiplying monomials adds exponents, so poly_mul is
wick_product on those labels: the Wick convolution, which is why
renormalization satisfies :pq: = :p: <> :q:.  The remaining maps act on
one coordinate at a time, each label m becoming a 1-D expansion
sum_{n <= m} w_n (label n): the Hermite shift of stransform.translate and
the monomial/Hermite changes of basis of renormalization.poly_to_chaos and
chaos_to_poly.  They share _coordinatewise, which runs one pair loop per
used coordinate on the same codes: a term of digit m at the place value w
meets the entries (n, w_n) of its label's expansion and adds c w_n at its
code minus (m - n) w.  Its routes are the products': _dense, on the lower
bound n_terms * u of the pairs (a term meets at least one entry per
coordinate), picks the dict loop or _convolve_dense before any array is
built, and on arrays each coordinate reads the (codes, sums) of the one
before, so both routes give the same bits in the same term order.

Evaluation is a bilinear form.  Cut the used coordinates into a head set
(those below a cut coordinate) and a tail set, and write each label as
alpha = a + b with a on the head and b on the tail.  With Psi_A(x) the
basis products prod_i H_{a_i}(x_i) of the distinct head parts a, Psi_B(x)
those of the tail parts, and C[a, b] = c_{a+b} a dense |A| x |B| matrix,

    F(x) = sum_{a,b} C[a, b] Psi_A[a](x) Psi_B[b](x) = Psi_A(x)^T C Psi_B(x).

Per block of samples that is one BLAS product M = C Psi_B and one
weighted column sum of Psi_A * M, instead of one numpy pass per term and
entry: at d=4, K=8 a 45 x 45 matrix replaces 495 terms.  The product is
graded by degree.  With D the largest label degree, C[a, b] = 0 whenever
deg a + deg b > D, so the heads split into two groups at the degree s
that minimizes the cells |A_<=s| |B| + |A_>s| |B_<=D-s-1|: the low group
multiplies all of Psi_B, the high group only the tails of degree
<= D-s-1, which come first in Psi_B; one BLAS product per group.  At
d=4, K=8 that is 10 x 45 + 35 x 15 = 975 of the 2,025 cells.  A group
per degree would save more cells, but thin products cost more per call
than they save; when no split saves a cell there is one group.  The cut
is at the median used coordinate unless that gives more basis rows
|A| + |B| than there are labels; then it is at the first used coordinate,
every head is the empty part, A = {()}, Psi_A is a row of ones and C is
the coefficient row, so sparse and wide vectors cost what the basis matrix
costs.  Each basis row is the product of its own entries' Hermite rows,
gathered from one table per block.  A constant or the zero vector is read
at coordinate 0, through the empty part, whose table row is H_0 = 1.

k vectors read on the same samples share one plan: the union of their
coordinates, one cut by the same rule, the union of their head parts and
of their tail parts, and their matrices stacked as k blocks of |A| rows,
grouped by the largest label degree over all k.  Per block that is one
Hermite table, one Psi_A and one Psi_B, one BLAS product of the stacked C
per group and k column sums; montecarlo.estimate_pair_expectation
reads F and G so.  The plan (the cut, C and the gather indices) of one
vector depends on it alone and is kept on it; a joint plan has no owner
and is built per call.  A block has as many samples as fit _EVAL_CELLS =
2^18 entries (2 MiB of doubles, about one core's L2 cache) of buffers:
Hermite table, Psi_A, Psi_B, C Psi_B (k |A| rows) and a gather buffer.
Each block copies the sample columns the vectors use into a block-sized
slice.  The thread keeps these arrays between calls, as _convolve_dense
keeps its work arrays, so a call allocates only its output: buffers made
per call let the C allocator trim its heap and fault it back in on every
call.  The same contraction runs renormalization.wick_order_icopy_mc on
powers of complex points, formed per block from the block's columns.
BLAS picks its kernels by shape, so a row's value can differ in the last
bits with the number of rows in its block, of vectors read with it or of
heads in its degree group; the same batch, or the same Monte Carlo chunk
in any thread, always gives the same bits.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import chain, islice
from operator import attrgetter
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DimensionMismatchError, DomainError, OrderOverflowError
from .hermite import ORDER_LIMIT, hermite_rows
from .multiindex import EMPTY, MultiIndex
from .sampling import SampleBatch

_EVAL_CELLS = 1 << 18  # buffer entries per evaluation block


class _Store:
    """Sparse map MultiIndex -> finite float under a hard degree cap.

    The one store behind ChaosVector, SymTensor and
    renormalization.PolySeries.  No stored degree may exceed max_order, no
    basis index may reach dim, a NaN or inf coefficient raises
    DomainError, and no coefficient is 0.0.  Only the constructor prunes:
    it drops |c| <= prune and records prune (finite, >= 0); a derived store
    drops exact zeros and reads .prune == 0.0.
    """

    __slots__ = ("dim", "max_order", "prune", "_terms", "_plan")
    _cap = "max_order"  # the cap's public name, for messages and repr

    def __init__(self, dim: int, max_order: int,
                 terms: Mapping[MultiIndex, float] | None = None,
                 prune: float = 0.0):
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if max_order < 0:
            raise ValueError(f"{self._cap} must be >= 0")
        if not 0.0 <= prune < math.inf:
            raise ValueError(f"prune must be finite and >= 0, got {prune}")
        self.dim = dim
        self.max_order = max_order
        self.prune = prune
        store: dict[MultiIndex, float] = {}
        for alpha, c in (terms or {}).items():
            if not isinstance(alpha, MultiIndex):
                raise TypeError(f"label {alpha!r} is a {type(alpha).__name__}, not a MultiIndex")
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
        self._plan = None  # evaluation plan, built by the first _contract

    @classmethod
    def _trusted(cls, dim: int, max_order: int, terms: dict[MultiIndex, float]):
        """The builder of every derived store: the kernels' output, sums,
        multiples, degree parts, Gamma(a) rescalings, Wick-ordered
        polynomials and the stores that tensors and JSON documents are read
        into.  terms, which the store takes over, holds floats at labels of
        degree <= max_order on coordinates < dim, so only finiteness is
        checked; exact zeros are dropped, nothing else."""
        values = terms.values()
        if not all(map(math.isfinite, values)):
            alpha, c = next((a, c) for a, c in terms.items() if not math.isfinite(c))
            raise DomainError(f"coefficient at {alpha} is {c}, not finite")
        if not all(values):
            terms = {a: c for a, c in terms.items() if c}
        out = cls.__new__(cls)
        out.dim, out.max_order, out.prune = dim, max_order, 0.0
        out._terms = terms
        out._plan = None
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
    prune : coefficients with |c| <= prune are dropped here, and only
        here: arithmetic keeps every term that is not exactly 0.0.  The
        default 0.0 drops exact zeros only.
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
               prune: float = 0.0) -> "ChaosVector":
        """g~ = sum_j g_j e~_j for g in H = R^d."""
        dim = len(coords)
        terms = {MultiIndex(((j, 1),)): float(g) for j, g in enumerate(coords) if g != 0.0}
        return cls(dim, max_order, terms, prune=prune)

    # -- plumbing ------------------------------------------------------

    def with_max_order(self, max_order: int) -> "ChaosVector":
        """Same terms under a different cap (must still fit)."""
        return ChaosVector(self.dim, max_order, self._terms)

    def degree_part(self, n: int) -> "ChaosVector":
        return ChaosVector._trusted(self.dim, self.max_order,
                                    {a: c for a, c in self._terms.items() if a.degree == n})

    # -- operator sugar ------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = ChaosVector.constant(float(other), self.dim, self.max_order)
        return add(self, other)

    __radd__ = __add__

    def __neg__(self):
        return scale(self, -1.0)

    def __sub__(self, other):
        return self.__add__(-other)

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


class SymTensor(_Store):
    """Symmetric order-n tensor over R^dim, a store of the one degree n.

    The values of index tuples that sort alike are summed, then validated
    and pruned like any store coefficient.  The dense entry at an ordered
    tuple is the value of its sorted form, so symmetry holds by
    construction; .values reads the store back keyed by sorted tuples.
    """

    __slots__ = ()
    _cap = "order"

    def __init__(self, dim: int, order: int,
                 values: Mapping[tuple[int, ...], float] | None = None,
                 prune: float = 0.0):
        terms: dict[MultiIndex, float] = {}
        for t, v in (values or {}).items():
            if len(t) != order:
                raise ValueError(f"tuple {t} has length {len(t)}, expected order {order}")
            if any(int(i) < 0 for i in t):
                raise DimensionMismatchError(f"tuple {t} has a negative index")
            alpha = MultiIndex.from_indices(t)
            terms[alpha] = terms.get(alpha, 0.0) + float(v)
        super().__init__(dim, order, terms, prune)

    @property
    def order(self) -> int:
        return self.max_order

    @property
    def values(self) -> dict[tuple[int, ...], float]:
        return {a.to_indices(): v for a, v in self._terms.items()}

    def value(self, t: Iterable[int]) -> float:
        return self.coeff(MultiIndex.from_indices(t))

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        return _Store.__eq__(self, other) and self.order == other.order

    def norm_sq(self) -> float:
        """Sum over ordered tuples of value^2."""
        return _total((a.ordered_count() * v * v for a, v in self._terms.items()), "tensor norm")

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def scale(self, c: float) -> "SymTensor":
        return scale(self, c)

    def add(self, other: "SymTensor") -> "SymTensor":
        if self.order != other.order:
            raise ValueError("tensor orders differ")
        return add(self, other)


def _common(F: ChaosVector, G: ChaosVector) -> tuple[int, int]:
    if F.dim != G.dim:
        raise DimensionMismatchError(f"dims differ: {F.dim} vs {G.dim}")
    return F.dim, max(F.max_order, G.max_order)


# -- linear structure ----------------------------------------------------

def add(F: ChaosVector, *Gs: ChaosVector) -> ChaosVector:
    """F + G_1 + G_2 + ..., of the type of F (see the module docstring): a
    label whose sum is exactly 0.0 leaves, and re-enters at the end if a
    later operand touches it, as in the left fold."""
    out = dict(F._terms)
    order = F.max_order
    for G in Gs:
        if G.dim != F.dim:
            raise DimensionMismatchError(f"dims differ: {F.dim} vs {G.dim}")
        order = max(order, G.max_order)
        for a, c in G._terms.items():
            if v := out.get(a, 0.0) + c:
                out[a] = v
            else:
                out.pop(a, None)
    return type(F)._trusted(F.dim, order, out)


def scale(F: ChaosVector, c: float) -> ChaosVector:
    """c F, of the type of F."""
    c = float(c)
    return type(F)._trusted(F.dim, F.max_order, {a: c * v for a, v in F._terms.items()})


# -- tensor conversion ----------------------------------------------------

def from_tensor(f: SymTensor, max_order: int | None = None) -> ChaosVector:
    """I_n(f) for a symmetric order-n tensor, in Hermite coordinates.

    The coefficient at a label alpha is (n!/alpha!) * value: the count of
    ordered tuples collapsing onto the sorted one times the stored value.
    This reproduces I_n(g^{(x)n}) = |g|^n H_n(g~/|g|) and the isometry
    E I_n(f)^2 = n! |f|^2.
    """
    n = f.order
    cap = n if max_order is None else max_order
    if n > cap:
        raise OrderOverflowError(f"tensor order {n} exceeds max_order {cap}")
    return ChaosVector._trusted(f.dim, cap,
                                {a: a.ordered_count() * v for a, v in f._terms.items()})


def to_tensor(F: ChaosVector, n: int) -> SymTensor:
    """Extract f_n with degree-n part of F equal to I_n(f_n)."""
    if n < 0:
        raise ValueError("order must be >= 0")
    return SymTensor._trusted(F.dim, n, {a: c / a.ordered_count() for a, c in F._terms.items()
                                         if a.degree == n})


# -- inner products and norms ---------------------------------------------

def _total(terms: Iterable[float], what: str) -> float:
    """The sum of terms from 0.0, left to right; DomainError naming what if a
    term overflows or the total is NaN or inf.  Not sum(): from Python 3.12
    on it compensates floats, so its bits would depend on the interpreter."""
    out = 0.0
    try:
        for t in terms:
            out += t
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise DomainError(f"{what} is not finite (NaN or overflow to inf)")
    return out


def inner_product(F: ChaosVector, G: ChaosVector) -> float:
    """<F, G> = E[FG] = sum_alpha alpha! c_alpha d_alpha."""
    _common(F, G)
    small, big = (F, G) if F.n_terms() <= G.n_terms() else (G, F)
    return _total((a.weighted(c, d) for a, c in small._terms.items()
                   if (d := big._terms.get(a)) is not None), "inner product")


def l2_norm(F: ChaosVector) -> float:
    return math.sqrt(inner_product(F, F))


def gamma_norm(F: ChaosVector, r: float) -> float:
    """|F|_(r) = |Gamma(r) F|_2 = sqrt(sum alpha! r^(2 deg) c^2)."""
    if r <= 0:
        raise ValueError("r must be positive")
    return math.sqrt(_total((a.weighted(float(r) ** (2 * a.degree), c, c)
                             for a, c in F._terms.items()), "Gamma norm"))


def second_quantization(F: ChaosVector, a: float) -> ChaosVector:
    """Gamma(a): scale the degree-n component by a^n (DomainError on overflow)."""
    try:
        terms = {al: float(c * float(a) ** al.degree) for al, c in F._terms.items()}
    except OverflowError:
        raise DomainError(f"Gamma({a}) overflows a coefficient") from None
    return ChaosVector._trusted(F.dim, F.max_order, terms)


def expectation(F: ChaosVector) -> float:
    """E[F]: the coefficient of the empty index (E I_n = 0 for n >= 1)."""
    return F._terms.get(EMPTY, 0.0)


# -- products (integer codes, see the module docstring) ---------------------

_CROSSOVER = 640  # pairs of the dict loop that cost what an array call's fixed part costs
_CELLS_PER_PAIR = 128  # codes of a kept range that cost one pair of the dict loop
_CELLS = 1 << 22  # dense codes at most: two 32 MiB arrays (sums, first visits)
_CHUNK = 1 << 15  # pairs per numpy chunk: 1.5 MiB of pair buffers
_KEPT_CELLS = 1 << 16  # dense codes whose arrays a thread keeps between calls: 1 MiB
_CODEC_LABELS = 1 << 16  # labels and codecs held at most before all codecs are dropped
_INT64_BASE = 21  # largest base whose integer weights fit int64: 20! < 2^63 < 21!
_UNSEEN = np.iinfo(np.int64).max  # the first visit of a code no pair has visited

_codecs: dict[tuple[int, ...], "_Codec"] = {}  # (base, *coords) -> its codec
_held = 0  # labels and codecs made since the codecs were last dropped, or more
_held_lock = threading.Lock()  # guards _held and the dropping of the codecs
_degree = attrgetter("degree")


class _Codec:
    """label <-> code(label) for one key (base, *coords); see the module
    docstring.  place maps coordinate coords[k] to its place value base^k."""

    __slots__ = ("base", "coords", "place", "code", "label")

    def __init__(self, base: int, coords: list[int]):
        self.base, self.coords = base, coords
        self.place = {i: base ** k for k, i in enumerate(coords)}
        self.code: dict[MultiIndex, int] = {}
        self.label: dict[int, MultiIndex] = {}

    def learn(self, labels: Collection[MultiIndex], codes: list[int]) -> None:
        """Record the labels with their codes, in both maps."""
        global _held
        held = len(self.label)
        self.code.update(zip(labels, codes))
        self.label.update(zip(codes, labels))
        with _held_lock:
            _held += len(self.label) - held


def _coords(stores: Sequence[_Store]) -> list[int]:
    """The coordinates the stores' labels use, ascending; the stores share
    one dim.  Every label is on coordinates < dim, so the scan stops once
    it has found dim of them.  It checks after batches of dim, 2 dim, 4
    dim, ... labels, the last one a plain scan of the rest, so a store that
    uses few of many coordinates pays a few checks, not one per label."""
    dim, used = stores[0].dim, set()
    for F in stores:
        labels, left, batch = iter(F._terms), len(F._terms), dim
        while left > 0:
            used |= {i for a in (islice(labels, batch) if batch < left else labels)
                     for i, _ in a.entries}
            if len(used) == dim:
                return list(range(dim))
            left -= batch
            batch *= 2
    return sorted(used)


def _codec(base: int, *stores: _Store) -> _Codec:
    """The codec of base and the coordinates the stores use, made on first
    use; all codecs are dropped first once they hold more than
    _CODEC_LABELS labels and codecs."""
    global _held
    if _held > _CODEC_LABELS:
        with _held_lock:
            if _held > _CODEC_LABELS:
                _codecs.clear()
                _held = 0
    coords = _coords(stores)
    key = (base, *coords)
    codec = _codecs.get(key)
    if codec is None:
        codec = _codecs.setdefault(key, _Codec(base, coords))
        with _held_lock:
            _held += 1
    return codec


def _coded(F: _Store, codec: _Codec) -> list[int]:
    """The codes of F's labels in store order; codes the codec lacks are
    computed and recorded."""
    terms, code = F._terms, codec.code
    try:
        return list(map(code.__getitem__, terms))
    except KeyError:
        place = codec.place
        codes = [sum(m * place[i] for i, m in a.entries) for a in terms]
        codec.learn(terms, codes)
        return codes


def _codes(F: _Store, codec: _Codec) -> np.ndarray:
    """_coded as int64, read straight from the codec when it knows every
    label."""
    try:
        return np.fromiter(map(codec.code.__getitem__, F._terms), np.int64, len(F._terms))
    except KeyError:
        return np.array(_coded(F, codec), np.int64)


def _arrays(F: _Store, codec: _Codec,
            degrees: Iterable[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """F's degrees, given in store order, its codes (int64) and its
    coefficients, in store order."""
    n = len(F._terms)
    return (np.fromiter(degrees, np.int64, n), _codes(F, codec),
            np.fromiter(F._terms.values(), float, n))


def _dense(pairs: int, cells: int) -> bool:
    """Whether a product with this many pairs, over a range of cells codes,
    runs on numpy (see the module docstring): a pair per _CELLS_PER_PAIR
    codes of a range the thread keeps, and per an eighth of that past
    _KEPT_CELLS, where the arrays are made and faulted in per call."""
    per_pair = _CELLS_PER_PAIR if cells <= _KEPT_CELLS else _CELLS_PER_PAIR // 8
    return cells <= _CELLS and pairs >= _CROSSOVER + cells // per_pair


def _convolve(groups, order: int) -> dict[int, float]:
    """The dict loop: sum c*d at code(alpha + beta) over each group (fs, gs)
    in turn, for every (deg alpha, code, c) in fs and (deg beta, code, d)
    in gs with deg alpha + deg beta <= order.  gs must be sorted by
    degree: each term of fs visits only the prefix that fits.  Returns
    {code: sum} in first-visit order, each sum added up in visiting
    order."""
    out: dict[int, float] = {}
    get = out.get
    for fs, gs in groups:
        degrees = [t[0] for t in gs]
        for da, ca, c in fs:
            for _, cb, d in gs[:bisect_right(degrees, order - da)]:
                k = ca + cb
                out[k] = get(k, 0.0) + c * d
    return out


_kept = threading.local()  # per thread: what its last _convolve_dense and _contract calls left


def _work(cells: int, pairs: int) -> tuple[np.ndarray, ...]:
    """This thread's arrays for _convolve_dense, taken from it while in use
    so that a call that raises drops them, and made larger when too small:
    sums and first visits over the codes, zeroed and unvisited between
    calls, and per pair of a chunk the ints (step 0, 1, ..., pair t, term
    met j, code) and the vals (product, factor)."""
    work = _kept.__dict__.pop("work", None)
    if work is None or len(work[0]) < cells or work[2].shape[1] < pairs:
        if work is not None:
            cells, pairs = max(cells, len(work[0])), max(pairs, work[2].shape[1])
        work = (np.zeros(cells), np.full(cells, _UNSEEN, np.int64),
                np.empty((4, pairs), np.int64), np.empty((2, pairs)))
        work[2][0] = np.arange(pairs)
    return work


def _convolve_dense(fcode: np.ndarray, fval: np.ndarray, n: np.ndarray, first: np.ndarray,
                    gcode: np.ndarray, gval: np.ndarray,
                    cells: int) -> tuple[np.ndarray, np.ndarray]:
    """The dict loop on numpy, _CHUNK pairs at a time.  Row r, of code
    fcode[r] and value fval[r], meets the n[r] terms of (gcode, gval) from
    first[r] on, rows in order; every code is below cells.  Returns the
    arrays (codes, sums) in first-visit order.

    Pair t belongs to row r when starts[r] <= t < ends[r] and meets term
    t + shift[r]: np.repeat of a row's values by its pairs in the chunk
    gives them to its pairs.  Sums and first visits go to the dense arrays
    indexed by code; ufunc.at is unbuffered and runs in index order, so
    each sum associates as in the dict loop.  Every array of the size of
    the range is one of the thread's work arrays (_work), and so is every
    one of the size of a chunk except one np.repeat output at a time.
    """
    ends = np.cumsum(n)
    total = int(ends[-1]) if len(ends) else 0
    starts = ends - n
    shift = first - starts
    work = _work(cells, min(total, _CHUNK))
    sums, seen = work[0][:cells], work[1][:cells]
    for lo in range(0, total, _CHUNK):
        hi = min(lo + _CHUNK, total)
        r0 = int(np.searchsorted(ends, lo, "right"))
        r1 = int(np.searchsorted(ends, hi - 1, "right")) + 1
        step, t, j, code = work[2][:, :hi - lo]
        val, factor = work[3][:, :hi - lo]
        reps = np.minimum(ends[r0:r1], hi) - np.maximum(starts[r0:r1], lo)  # pairs per row
        np.add(step, lo, out=t)
        np.add(np.repeat(shift[r0:r1], reps), t, out=j)
        with np.errstate(over="ignore", invalid="ignore"):  # as floats do: the store raises
            np.multiply(np.repeat(fval[r0:r1], reps), np.take(gval, j, out=factor, mode="clip"),
                        out=val)
            np.add(np.repeat(fcode[r0:r1], reps), np.take(gcode, j, out=code, mode="clip"),
                   out=code)
            np.add.at(sums, code, val)
        np.minimum.at(seen, code, t)
    codes = np.flatnonzero(seen != _UNSEEN)
    codes = codes[np.argsort(seen[codes])]
    out = sums[codes]
    sums[codes], seen[codes] = 0.0, _UNSEEN
    if len(work[0]) <= _KEPT_CELLS:
        _kept.work = work
    return codes, out


@lru_cache(maxsize=None)
def _weights(base: int, weight) -> np.ndarray:
    """weight(m, k) at [m, k] for m, k < base (0 for k > m) in int64.  For
    base <= _INT64_BASE every product of these along a label, at most
    (base - 1)!, is below 2^63."""
    return np.array([[weight(m, k) for k in range(base)] for m in range(base)], np.int64)


def _lowered(deg: np.ndarray, code: np.ndarray, val: np.ndarray, codec: _Codec,
             weight) -> tuple[np.ndarray, ...]:
    """The terms (deg alpha, code(alpha), c_alpha), given as arrays (see
    _arrays), lowered by every contraction index p <= alpha.

    Row by row: code(p), deg alpha - |p|, code(alpha - p) and c_alpha *
    prod_i weight(alpha_i, p_i), the rows of the terms in their order and
    within a term in the order of (p_{i_0}, p_{i_1}, ...), the first
    coordinate most significant, as _lowered_dict lists them: one row per
    term, then for each used coordinate i every row repeated alpha_i + 1
    times, once per p_i, with alpha_i the digit code // base^k % base.  No
    tuple is made per row.  Up to base _INT64_BASE the integer weights
    come from an int64 table and cannot pass 2^63; each is converted to
    double, correctly rounded as Python rounds an int, and multiplied by
    c_alpha.  Past it they are exact Python ints and each value is formed
    in Python as _lowered_dict forms it: c_alpha * weight up to degree
    ORDER_LIMIT, where the weight, at most alpha!, is a finite double, and
    exactly and rounded once above, as in MultiIndex.weighted.
    """
    base = codec.base
    exact = base > _INT64_BASE
    if exact:
        factor, w = np.frompyfunc(weight, 2, 1), np.ones(len(code), object)
    else:
        table = _weights(base, weight)
        factor, w = (lambda m, k: table[m, k]), np.ones(len(code), np.int64)
    term = np.arange(len(code))
    p = np.zeros_like(term)  # code(p)
    size = np.zeros_like(term)  # |p|
    place = 1
    for _ in codec.coords:
        m = (code // place % base)[term]
        reps = m + 1
        at = np.repeat(np.arange(len(term)), reps)
        k = np.arange(len(at)) - (np.cumsum(reps) - reps)[at]
        term, p, size = term[at], p[at] + k * place, size[at] + k
        w = w[at] * factor(m[at], k)
        place *= base
    top = deg[term]
    if exact:
        vals = np.array([c * x if d <= ORDER_LIMIT else float(Fraction(c) * x)
                         for c, x, d in zip(val[term].tolist(), w.tolist(), top.tolist())], float)
    else:
        with np.errstate(over="ignore"):  # as floats do: the store raises
            vals = val[term] * w
    return p, top - size, code[term] - p, vals


def _lowered_dict(F: ChaosVector, codec: _Codec, weight) -> dict[int, list]:
    """_lowered for the dict loop: maps code(p) to the triples (deg alpha -
    |p|, code(alpha - p), c_alpha * prod_i weight(alpha_i, p_i)), in the
    order of _lowered's rows, each value computed as there.  F's labels go
    into the codec if it lacks one."""
    place = codec.place
    groups: dict[int, list] = {}
    codes = []
    for a, c in F._terms.items():
        code = 0
        subs = [(0, 0, 1)]  # (code(p), |p|, integer weight)
        for i, m in a.entries:
            w = place[i]
            code += m * w
            subs = [(pc + k * w, pd + k, pw * weight(m, k))
                    for pc, pd, pw in subs for k in range(m + 1)]
        codes.append(code)
        exact = a.degree > ORDER_LIMIT
        for pc, pd, pw in subs:
            groups.setdefault(pc, []).append(
                (a.degree - pd, code - pc, float(Fraction(c) * pw) if exact else c * pw))
    if not all(map(codec.label.__contains__, codes)):
        codec.learn(F._terms, codes)
    return groups


def _decoded(out: dict[int, float] | tuple[np.ndarray, np.ndarray], codec: _Codec, dim: int,
             order: int, cls: type[_Store]) -> _Store:
    """The store of {code: c}, or of the arrays (codes, sums) of
    _convolve_dense, every code below base^len(coords) and of digit sum <=
    order: a code the codec knows reads its label, any other is decoded by
    divmod into a new one."""
    codes, values = ((out.keys(), out.values()) if isinstance(out, dict)
                     else (out[0].tolist(), out[1].tolist()))
    label = codec.label
    if not all(map(label.__contains__, codes)):
        new = [k for k in codes if k not in label]
        base, coords = codec.base, codec.coords
        labels = []
        for code in new:
            entries = []
            degree = k = 0
            while code:
                code, m = divmod(code, base)
                if m:
                    entries.append((coords[k], m))
                    degree += m
                k += 1
            labels.append(MultiIndex._canonical(tuple(entries), degree))
        codec.learn(labels, new)
    return cls._trusted(dim, order, dict(zip(map(label.__getitem__, codes), values)))


def _coordinatewise(F: _Store, tables, cls: type[_Store]) -> _Store:
    """Apply a 1-D expansion to every coordinate F uses, one at a time.

    tables(i, top) lists the expansions {n: w} of coordinate i's labels m
    = 0..top, and the label m becomes sum_n w (label n): the Hermite shift
    of translate, and power_to_hermite / hermite_to_power between
    PolySeries and ChaosVector.  Each has n <= m, so the integer codes of
    the product kernel stay valid.  Each coordinate's tables are built
    once, up to the largest label F uses there.

    The route is picked before any array is built (see the module
    docstring).  On arrays, a term of code c and digit m at the place value
    w is a row of code c - m w that meets table m's entries (n w, w_n),
    from its offset into the flattened tables on.
    """
    base = F.max_order + 1
    codec = _codec(base, F)
    cells = base ** len(codec.coords)
    if _dense(len(F._terms) * len(codec.coords), cells):
        terms = _codes(F, codec), np.fromiter(F._terms.values(), float, len(F._terms))
        for i, w in codec.place.items():
            code, val = terms
            m = code // w % base
            table = tables(i, int(m.max()))
            sizes = np.array(list(map(len, table)), np.int64)
            terms = _convolve_dense(code - m * w, val, sizes[m], (np.cumsum(sizes) - sizes)[m],
                                    np.fromiter(chain.from_iterable(table), np.int64) * w,
                                    np.array([h for t in table for h in t.values()], float),
                                    cells)
    else:
        terms = dict(zip(_coded(F, codec), F._terms.values()))
        for i, w in codec.place.items():
            table = tables(i, max(code // w % base for code in terms))
            out: dict[int, float] = {}
            get = out.get
            for code, c in terms.items():
                m = code // w % base
                for n, h in table[m].items():
                    k = code - (m - n) * w
                    out[k] = get(k, 0.0) + c * h
            terms = out
    return _decoded(terms, codec, F.dim, F.max_order, cls)


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
    dim, order = _common(F, G)
    if not clip:
        _check_fits(F, G, order, "Wick")
    base = order + 1
    codec = _codec(base, F, G)
    cells = base ** len(codec.coords)
    fd, gd = list(map(_degree, F._terms)), list(map(_degree, G._terms))
    if _dense(len(fd) * len(gd), cells) and _dense(_wick_pairs(fd, gd, order), cells):
        fdeg, fcode, fval = _arrays(F, codec, fd)
        gdeg, gcode, gval = _arrays(G, codec, gd)
        by = np.argsort(gdeg * cells + gcode)  # by (degree, code); codes are distinct
        n = np.searchsorted(gdeg[by], order - fdeg, "right")
        out = _convolve_dense(fcode, fval, n, np.zeros_like(n), gcode[by], gval[by], cells)
    else:
        fs = list(zip(fd, _coded(F, codec), F._terms.values()))
        out = _convolve([(fs, sorted(zip(gd, _coded(G, codec), G._terms.values())))], order)
    return _decoded(out, codec, dim, order, type(F))


def _wick_pairs(fd: list[int], gd: list[int], order: int) -> int:
    """The pairs of terms of degrees fd and gd with deg alpha + deg beta <=
    order: sum_a n_F[a] N_G[order - a], with n_F[a] the terms of degree a
    in fd and N_G[b] those of degree <= b in gd."""
    fd, gd = sorted(fd), sorted(gd)
    return sum((bisect_right(fd, a) - bisect_left(fd, a)) * bisect_right(gd, order - a)
               for a in set(fd))


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
    dim, order = _common(F, G)
    if not clip:
        _check_fits(F, G, order, "product")
    base = order + 1
    codec = _codec(base, F, G)
    cells = base ** len(codec.coords)
    if _dense(F.n_terms() * G.n_terms(), cells):  # every pair meets at least at p = 0
        out = _convolve_dense(*_contracted(F, G, codec, order, cells), cells)
    else:
        gs = _lowered_dict(G, codec, math.comb)
        out = _convolve([(fs, sorted(gs[p])) for p, fs in
                         _lowered_dict(F, codec, math.perm).items() if p in gs], order)
    return _decoded(out, codec, dim, order, ChaosVector)


def _contracted(F: ChaosVector, G: ChaosVector, codec: _Codec, order: int,
                cells: int) -> tuple[np.ndarray, ...]:
    """_convolve_dense's arrays for the ordinary product.

    The rows are F's terms lowered with weights p! C(alpha, p), grouped by
    p in the order in which each p first occurs among them (its rank),
    stably.  G's terms, sorted by (degree, code), are lowered with weights
    C(beta, p), and those with a p of F grouped by rank, stably: within a
    group they keep the order of deg beta - |p| and code(beta - p), so G's
    rows are sorted by (rank, degree, code).  Each F row meets the prefix
    of its group that fits under order: searchsorted finds the group's
    start among G's ranks and the prefix's end on the key rank * base +
    degree.
    """
    base = codec.base
    fp, fdeg, fcode, fval = _lowered(*_arrays(F, codec, map(_degree, F._terms)), codec,
                                     math.perm)
    gdeg, gcode, gval = _arrays(G, codec, map(_degree, G._terms))
    by = np.argsort(gdeg * cells + gcode)
    gp, gdeg, gcode, gval = _lowered(gdeg[by], gcode[by], gval[by], codec, math.comb)
    rows = len(fp)
    rank = np.full(cells, rows, np.int64)  # first the first row of each p, then its rank
    np.minimum.at(rank, fp, np.arange(rows))
    ps = np.flatnonzero(rank < rows)
    ps = ps[np.argsort(rank[ps])]
    rank.fill(-1)
    rank[ps] = np.arange(len(ps))
    frank, grank = rank[fp], rank[gp]
    by = np.argsort(frank * rows + np.arange(rows))  # stably: the keys are distinct
    frank, fdeg, fcode, fval = frank[by], fdeg[by], fcode[by], fval[by]
    by = np.flatnonzero(grank >= 0)
    by = by[np.argsort(grank[by] * len(gp) + by)]
    grank = grank[by]
    first = np.searchsorted(grank, frank)
    n = np.searchsorted(grank * base + gdeg[by], frank * base + (order - fdeg), "right") - first
    return fcode, fval, n, first, gcode[by], gval[by]


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


def wick_exp(F: ChaosVector, max_order: int) -> ChaosVector:
    """exp<>(F) projected onto degrees <= max_order by the recursion in the
    module docstring, with F's type; F's parts above max_order are dropped
    first.  DomainError if exp(E F) overflows."""
    if max_order < 0:
        raise ValueError("max_order must be >= 0")
    low = type(F)._trusted(F.dim, max_order, {a: c for a, c in F._terms.items()
                                              if 0 < a.degree <= max_order})
    try:
        g0 = math.exp(expectation(F))
    except OverflowError:
        raise DomainError(f"exp of E F = {expectation(F)} overflows") from None
    base = max_order + 1
    codec = _codec(base, low)
    cells = base ** len(codec.coords)
    parts: dict[int, list] = {}  # m -> m F_m
    for m, code, c in zip(map(_degree, low._terms), _coded(low, codec), low._terms.values()):
        parts.setdefault(m, []).append((m, code, m * c))
    G = {0: [(0, 0, g0)]}  # n -> G_n, for the degrees n that have a group
    for n in range(1, base):
        if groups := [(G[n - m], fm) for m, fm in parts.items() if n - m in G]:
            # degrees n - m and m: every pair fits
            if len(groups) == 1 and len(groups[0][0]) == len(groups[0][1]) == 1:
                ((_, ca, c),), ((_, cb, d),) = groups[0]
                out = ((ca + cb, 0.0 + c * d),)  # the one pair, as the dict loop adds it
            elif _dense(sum([len(gn) * len(fm) for gn, fm in groups]), cells):
                # each group's rows meet its m F_m from its offset in fms
                fs = [t for gn, _ in groups for t in gn]
                fms = [t for _, fm in groups for t in fm]
                sizes = np.array([len(fm) for _, fm in groups], np.int64)
                rows = [len(gn) for gn, _ in groups]
                codes, sums = _convolve_dense(
                    np.array([t[1] for t in fs], np.int64), np.array([t[2] for t in fs]),
                    np.repeat(sizes, rows), np.repeat(np.cumsum(sizes) - sizes, rows),
                    np.array([t[1] for t in fms], np.int64), np.array([t[2] for t in fms]), cells)
                out = zip(codes.tolist(), sums.tolist())
            else:
                out = _convolve(groups, n).items()
            G[n] = [(n, k, s / n) for k, s in out]
    out = {k: s for Gn in G.values() for _, k, s in Gn}
    return _decoded(out, codec, F.dim, max_order, type(F))


def exponential_vector(f: Sequence[float], max_order: int) -> ChaosVector:
    """Truncation of eps(f) = exp<>(f~) = sum_n I_n(f^{(x)n}) / n!.

    In Hermite coordinates the coefficient at alpha is prod_i f_i^{alpha_i}
    / alpha_i!.  Every nonzero one is kept, however small: the 1/alpha!
    decay crosses any fixed threshold while the matching Hermite values
    grow, and no derived store prunes.
    """
    return wick_exp(ChaosVector.linear(list(f) or [0.0]), max_order)


# -- evaluation (bilinear form, see the module docstring) -------------------

class _Plan(NamedTuple):
    """F_j(x) = Psi_A(x)^T C_j Psi_B(x) for the k vectors F_j read on the
    same samples (see the module docstring).

    coords are the used coordinates and top the largest label.  C is a
    tuple of one or two degree groups of head rows (_split), low degrees
    first: each a (k, rows, width) array holding the C_j on those rows and
    the first width tails, which are all the tails for the first group and
    those of low enough degree for the second.  head and tail are each
    side's runs of (table indices, suffix starts) for _basis: one head run
    per group, and on the tail side one run per distinct width.  buffers
    are the leading shapes of the Hermite table, Psi_A, Psi_B, the gather
    buffer and C Psi_B, and block the samples per block.  None is empty: a
    store with no used coordinate is read at coordinate 0.
    """

    k: int
    coords: list[int]
    top: int
    C: tuple[np.ndarray, ...]
    head: list[tuple[np.ndarray, list[int]]]
    tail: list[tuple[np.ndarray, list[int]]]
    buffers: list[tuple[int, ...]]
    block: int


def _rows(parts: list, u: int, col: dict[int, int]) -> tuple[np.ndarray, list[int]]:
    """The (table indices, suffix starts) that _basis builds the products of
    parts from; parts must be sorted by entry count."""
    lens = [len(p) for p in parts]
    width = max(1, lens[-1])
    idx = np.array([[m * u + col[i] for i, m in p] + [0] * (width - n)
                    for p, n in zip(parts, lens)], dtype=np.intp)
    return idx, [bisect_right(lens, j) for j in range(1, width)]


def _split(head_deg: list[int], tail_deg: list[int], top_deg: int) -> int | None:
    """The head degree s that splits the heads into two groups with the
    fewest cells, |A_<=s| |B| + |A_>s| |B_<=top_deg-s-1|: a head of degree
    > s and a tail of degree >= top_deg - s add up past the largest label
    degree, so their cell is zero.  None when no split has fewer cells
    than |A| |B|."""
    hs, ts = sorted(head_deg), sorted(tail_deg)
    best, cells = None, len(hs) * len(ts)
    for s in sorted(set(hs[:-1])):
        low = bisect_right(hs, s)
        split = low * len(ts) + (len(hs) - low) * bisect_left(ts, top_deg - s)
        if split < cells:
            best, cells = s, split
    return best


def _bilinear(stores: tuple[_Store, ...]) -> _Plan:
    """Cut the coordinates the stores use at the median one, or at the
    first one, where every head is the empty part, when the basis rows
    |A| + |B| would outnumber their distinct labels, and group the heads by
    degree (_split); stores that use none are read at coordinate 0.  Parts
    are sorted by entry count, stably, within each run, so the plan is
    fixed by the stores and their order."""
    k = len(stores)
    if any(F.dim != stores[0].dim for F in stores):
        raise DimensionMismatchError(f"dims differ: {[F.dim for F in stores]}")
    coords = _coords(stores) or [0]
    u = len(coords)
    col = {i: r for r, i in enumerate(coords)}
    top = max((m for F in stores for a in F._terms for _, m in a.entries), default=0)
    labels = set().union(*(F._terms for F in stores))
    for cut in coords[u // 2], coords[0]:
        heads, tails, cells = {}, {}, []
        for j, F in enumerate(stores):
            for a, c in F._terms.items():
                n = bisect_left(a.entries, (cut,))
                h, t = a.entries[:n], a.entries[n:]
                heads[h] = tails[t] = None
                cells.append((j, h, t, c))
        if len(heads) + len(tails) <= len(labels) or cut == coords[0]:
            break
    heads, tails = sorted(heads or [()], key=len), sorted(tails or [()], key=len)
    head_deg = [sum(m for _, m in h) for h in heads]
    tail_deg = [sum(m for _, m in t) for t in tails]
    top_deg = max((a.degree for a in labels), default=0)
    s = _split(head_deg, tail_deg, top_deg)
    if s is None:
        head_runs, tail_runs = [heads], [tails]
    else:
        head_runs = [[h for h, e in zip(heads, head_deg) if e <= s],
                     [h for h, e in zip(heads, head_deg) if e > s]]
        tail_runs = [[t for t, e in zip(tails, tail_deg) if e < top_deg - s],
                     [t for t, e in zip(tails, tail_deg) if e >= top_deg - s]]
    heads, tails = list(chain(*head_runs)), list(chain(*tail_runs))
    head = [_rows(run, u, col) for run in head_runs]
    tail = [_rows(run, u, col) for run in tail_runs]
    head_row = {h: r for r, h in enumerate(heads)}
    tail_row = {t: r for r, t in enumerate(tails)}
    p, q = len(heads), len(tails)
    full = np.zeros(k * p * q)
    full[[(j * p + head_row[h]) * q + tail_row[t] for j, h, t, _ in cells]] = \
        [c for *_, c in cells]
    full = full.reshape(k, p, q)
    rows = len(head_runs[0])
    C = (np.ascontiguousarray(full[:, :rows]),)
    if s is not None:
        C += (full[:, rows:, :len(tail_runs[0])].copy(),)
    spare = max((len(idx) - starts[0] for idx, starts in head + tail if starts), default=0)
    buffers = [(top + 1, u), (p,), (q,), (spare,), (k * p,)]
    block = max(1, _EVAL_CELLS // sum(math.prod(b) for b in buffers))
    return _Plan(k, coords, top, C, head, tail, buffers, block)


def _plan(stores: tuple[_Store, ...]) -> _Plan:
    """The plan of the stores read on the same samples.  One store's plan
    depends on it alone and is kept on it, whose terms never change; a
    joint plan has no owner and is built per call."""
    if len(stores) > 1:
        return _bilinear(stores)
    F, = stores
    if F._plan is None:
        F._plan = _bilinear(stores)
    return F._plan


def _basis(flat: np.ndarray, runs: list[tuple[np.ndarray, list[int]]],
           psi: np.ndarray, spare: np.ndarray) -> None:
    """Fill the rows of psi, run after run, with the products of the table
    rows idx[r, :len(part r)] of each run (idx, starts).  A run's parts are
    sorted by entry count, so column j multiplies its suffix starts[j-1]:;
    spare holds the gathered factors."""
    first = 0
    for idx, starts in runs:
        rows = psi[first:first + len(idx)]
        flat.take(idx[:, 0], axis=0, out=rows, mode="clip")
        for j, s in enumerate(starts, 1):
            factor = spare[:len(idx) - s]
            flat.take(idx[s:, j], axis=0, out=factor, mode="clip")
            rows[s:] *= factor
        first += len(idx)


def _taken(size: int) -> np.ndarray:
    """This thread's buffer of bytes for _contract, taken from it while in
    use so that a call that raises drops it, and made larger when too small."""
    flat = _kept.__dict__.pop("block", None)
    if flat is None or len(flat) < size:
        flat = np.empty(max(size, 0 if flat is None else len(flat)), np.uint8)
    return flat


def _laid(flat: np.ndarray, shapes: list[tuple[int, ...]], rows: int) -> list[np.ndarray]:
    """Views of flat of the shapes, each with rows columns, end to end."""
    views, first = [], 0
    for b in shapes:
        last = first + math.prod(b) * rows
        views.append(flat[first:last].reshape(b + (rows,)))
        first = last
    return views


def _contract(plan: _Plan, x: np.ndarray, table, dtype=float) -> np.ndarray:
    """The (k, n) array of sum_alpha c_alpha prod_i table(x_i)[alpha_i], one
    row per vector of the plan and one column per row of x, in dtype.

    table(cols, top, out) fills out[m] with label m of the (u, rows) array
    cols, m = 0..top, label 0 being 1, and may overwrite cols:
    hermite_rows for evaluate, powers of complex points for
    renormalization.wick_order_icopy_mc.  cols is a copy of the used
    columns of a block of x.  Each block builds one table, Psi_A and Psi_B
    for all k vectors, and one product of the stacked C per degree group.
    The column copy (at most _EVAL_CELLS / 2 doubles, the table having two
    rows or more) and the buffers of a block (_EVAL_CELLS entries of dtype
    at most, whatever the size of the vectors) are views of one buffer of
    bytes that the thread keeps (_taken) for real and complex tables alike,
    so a call allocates only its output.
    """
    k, coords, top, C, head, tail, buffers, block = plan
    n = x.shape[0]
    out = np.empty((k, n), dtype)
    u, span = len(coords), min(block, n)
    lead = -(-8 * u * span // 64) * 64  # the columns' bytes; the buffers start on a cache line
    size = span * sum(math.prod(b) for b in buffers) * np.dtype(dtype).itemsize
    flat = _taken(lead + size)
    work = None
    for start in range(0, n, block):
        stop = min(start + block, n)
        if work is None or work[0].shape[-1] != stop - start:
            xs = flat[:8 * u * (stop - start)].view(float).reshape(u, -1)
            work = _laid(flat[lead:lead + size].view(dtype), buffers, stop - start)
        tab, psi_a, psi_b, factor, prod = work
        for r, i in enumerate(coords):
            xs[r] = x[start:stop, i]
        table(xs, top, tab)
        flat_tab = tab.reshape(-1, stop - start)
        _basis(flat_tab, tail, psi_b, factor)
        _basis(flat_tab, head, psi_a, factor)
        prods, first = prod.reshape(k, -1, stop - start), 0
        for group in C:
            _, rows, width = group.shape
            np.matmul(group, psi_b[:width], out=prods[:, first:first + rows])
            first += rows
        for m, o in zip(prods, out[:, start:stop]):
            np.einsum("ij,ij->j", psi_a, m, out=o)
    if len(flat) <= 20 * _EVAL_CELLS:  # _EVAL_CELLS complex entries and their columns
        _kept.block = flat
    return out


def _values(plan: _Plan, x: np.ndarray) -> np.ndarray:
    """_contract on the Hermite table; DomainError if any value is NaN or
    inf, e.g. when the Hermite recurrence overflows at a high order."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = _contract(plan, x, hermite_rows)
    if not np.isfinite(out).all():
        raise DomainError("evaluation is not finite (NaN or overflow to inf)")
    return out


def _evaluate(vectors: tuple[ChaosVector, ...], batch: SampleBatch | np.ndarray) -> np.ndarray:
    """evaluate for k vectors of one dim read on the same samples: a (k, n)
    array, row j that of vectors[j]."""
    x = batch.data if isinstance(batch, SampleBatch) else np.asarray(batch, dtype=float)
    if x.ndim != 2:
        raise ValueError("expected a 2-d sample matrix")
    if x.shape[1] != vectors[0].dim:
        raise DimensionMismatchError(f"batch dim {x.shape[1]} != vector dim {vectors[0].dim}")
    return _values(_plan(vectors), x)


def evaluate(F: ChaosVector, batch: SampleBatch | np.ndarray) -> np.ndarray:
    """Per sample: sum_alpha c_alpha prod_i H_{alpha_i}(x_i).

    Raises DomainError if any value is NaN or inf, e.g. when the Hermite
    recurrence overflows at a high order.
    """
    return _evaluate((F,), batch)[0]


def evaluate_at(F: ChaosVector, point: Sequence[float]) -> float:
    """Evaluate at a single point of R^d."""
    pt = np.asarray(point, dtype=float).reshape(1, -1)
    return float(evaluate(F, pt)[0])


def coeff_distance(F: ChaosVector, G: ChaosVector) -> float:
    """max over multi-indices of |c_alpha(F) - c_alpha(G)|; DomainError if
    a difference overflows to inf."""
    if F.dim != G.dim:
        raise DimensionMismatchError(f"dims differ: {F.dim} vs {G.dim}")
    keys = set(F._terms) | set(G._terms)
    out = max((abs(F.coeff(a) - G.coeff(a)) for a in keys), default=0.0)
    if not math.isfinite(out):
        raise DomainError("coefficient distance is not finite (overflow to inf)")
    return out
