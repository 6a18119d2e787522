"""Multiple Stratonovich integrals and the trace formula.

The Stratonovich integral of a symmetric order-n tensor is the plain
product sum S_n(f) = sum_{i_1..i_n} f[i_1..i_n] e~_{i_1} ... e~_{i_n}
(no Wick correction).  It expands over Ito integrals of traced tensors:

    S_n(f) = sum_{2k <= n} hu_meyer_coeff(n, k) I_{n-2k}(Tr^k f)

with the inverse carrying alternating signs.  The weight is hermite's
pairing count, re-exported here.  Tr contracts one pair of slots against
the identity of R^d.  A call builds the trace chain f, Tr f, ..., Tr^{n//2} f
once, and the inverse reads the chain of Tr^k f as its tail from k.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate

from .chaos import ChaosVector, SymTensor, add, from_tensor, ordinary_product, scale
from .hermite import hu_meyer_coeff
from .multiindex import MultiIndex


def trace(f: SymTensor) -> SymTensor:
    """(Tr f)[t] = sum_i f[t + (i, i)], one diagonal contraction.

    Each label alpha feeds alpha - 2 e_i once per index i it holds twice
    or more.  Read in sorted-tuple order, every entry sums its terms in
    increasing i, and the entries come out in sorted-tuple order.
    """
    if f.order < 2:
        raise ValueError("trace needs order >= 2")
    vals: dict[MultiIndex, float] = {}
    for alpha, v in sorted(f.items(), key=lambda kv: kv[0].to_indices()):
        for i, m in alpha.entries:
            if m >= 2:
                beta = MultiIndex((j, mj - 2 * (j == i)) for j, mj in alpha.entries)
                vals[beta] = vals.get(beta, 0.0) + v
    vals = dict(sorted(vals.items(), key=lambda kv: kv[0].to_indices()))
    return SymTensor._trusted(f.dim, f.order - 2, vals, 0.0)


def _traces(f: SymTensor, k: int) -> list[SymTensor]:
    """The trace chain f, Tr f, ..., Tr^k f, one trace per link."""
    return list(accumulate(range(k), lambda g, _: trace(g), initial=f))


def trace_k(f: SymTensor, k: int) -> SymTensor:
    """Tr^k f, k repeated diagonal contractions."""
    if k < 0 or 2 * k > f.order:
        raise ValueError(f"need 0 <= 2k <= order, got k={k}, order={f.order}")
    return _traces(f, k)[-1]


def _stratonovich(chain: list[SymTensor]) -> ChaosVector:
    """S_n(f) from the trace chain of f = chain[0], of length n // 2 + 1."""
    n = chain[0].order
    return add(ChaosVector.zero(chain[0].dim, n),
               *(scale(from_tensor(g, max_order=n), hu_meyer_coeff(n, k))
                 for k, g in enumerate(chain)))


def stratonovich_integral(f: SymTensor) -> ChaosVector:
    """S_n(f) as a chaos expansion, assembled from the trace formula."""
    return _stratonovich(_traces(f, f.order // 2))


def ito_from_stratonovich(f: SymTensor) -> ChaosVector:
    """I_n(f) rebuilt from Stratonovich integrals of traced tensors.

    I_n(f) = sum_k (-1)^k hu_meyer_coeff(n, k) S_{n-2k}(Tr^k f); composing
    with the forward formula must return from_tensor(f).  The chain of
    Tr^k f is the tail from k of the chain of f.
    """
    n = f.order
    chain = _traces(f, n // 2)
    return add(ChaosVector.zero(f.dim, n),
               *(scale(_stratonovich(chain[k:]), (-1.0 if k % 2 else 1.0) * hu_meyer_coeff(n, k))
                 for k in range(n // 2 + 1)))


def stratonovich_partial_sum(f: SymTensor, n_basis: int) -> ChaosVector:
    """S_n restricted to the first n_basis coordinates, built literally.

    Sum over index tuples with every entry < n_basis of f[t] times the
    ordinary product of the coordinate Gaussians; each stored sorted tuple
    carries its ordered-count multiplicity.  At n_basis = dim this is the
    full product sum, whose agreement with the trace formula is the
    content of the Hu-Meyer identity; tensors supported on fewer
    coordinates stabilize earlier.
    """
    if not 0 <= n_basis <= f.dim:
        raise ValueError(f"need 0 <= n_basis <= dim, got {n_basis}")
    n = f.order
    dim = f.dim
    return add(ChaosVector.zero(dim, n),
               *(scale(reduce(ordinary_product,
                              (ChaosVector.coordinate(j, dim, n) for j in alpha.to_indices()),
                              ChaosVector.constant(1.0, dim, n)), alpha.ordered_count() * v)
                 for alpha, v in f.items() if alpha.max_index() < n_basis))
