"""Symmetric tensors, read off the chaos algebra.

A symmetric order-n tensor f over R^d is the chaos.SymTensor store that
from_tensor maps to the multiple Wiener integral I_n(f).  Its operations
are three identities of the chaos algebra, read back through to_tensor:

    I_p(a) <> I_q(b) = I_{p+q}(a (x)^ b)                      sym_product
    D_k I_n(f) = n I_{n-1}(<f, e_k>)                          contract_vector
    sum_k D_k I_n(f) <> D_k I_m(g) = nm I_{n+m-2}(f (x)_1 g)  contraction_1

with D_k the Malliavin derivative in direction e_k.  ordered_count(t) =
n! / prod_j (count of j in t)! counts the orderings of a sorted tuple t.
"""

from __future__ import annotations

from typing import Iterable

from .chaos import (ChaosVector, SymTensor, add, from_tensor, to_tensor,
                    wick_product)
from .errors import DimensionMismatchError
from .malliavin import derivative_dir
from .multiindex import MultiIndex


def ordered_count(t: tuple[int, ...]) -> float:
    """Number of distinct orderings of the multiset t."""
    return MultiIndex.from_indices(t).ordered_count()


def basis_tensor(dim: int, indices: Iterable[int]) -> SymTensor:
    """The symmetric tensor with entry 1 at every ordering of indices and 0
    elsewhere: the sum of e_{i_1} (x) ... (x) e_{i_n} over the distinct
    orderings of (i_1, ..., i_n)."""
    t = tuple(indices)
    return SymTensor(dim, len(t), {t: 1.0})


def contract_vector(f: SymTensor, k: int) -> SymTensor:
    """<f, e_k>: fix one slot to k; symmetric order n-1 tensor."""
    n = f.order
    if n < 1:
        raise ValueError("cannot contract an order-0 tensor")
    return to_tensor(derivative_dir(from_tensor(f), k), n - 1).scale(1.0 / n)


def sym_product(a: SymTensor, b: SymTensor) -> SymTensor:
    """Symmetrized tensor product a (x)^ b, of order a.order + b.order."""
    n = a.order + b.order
    return to_tensor(wick_product(from_tensor(a, n), from_tensor(b, n)), n)


def contraction_1(f: SymTensor, g: SymTensor) -> SymTensor:
    """One-slot contraction <f, g>_H = sum_k <f, e_k> (x)^ <g, e_k>.

    Order n + m - 2; zero exactly when the corresponding single-chaos
    variables are independent.
    """
    if f.dim != g.dim:
        raise DimensionMismatchError("tensor dims differ")
    n, m = f.order, g.order
    if n < 1 or m < 1:
        raise ValueError("contraction needs orders >= 1")
    cap = max(n, m, n + m - 2)
    F, G = from_tensor(f, cap), from_tensor(g, cap)
    out = ChaosVector.zero(f.dim, cap)
    for k in range(f.dim):
        DF = derivative_dir(F, k)
        if DF.n_terms():
            DG = derivative_dir(G, k)
            if DG.n_terms():
                out = add(out, wick_product(DF, DG))
    return to_tensor(out, n + m - 2).scale(1.0 / (n * m))


INDEPENDENCE_TOL = 1e-12


def independent(f: SymTensor, g: SymTensor) -> bool:
    """Ustunel-Zakai criterion: I_n(f) and I_m(g) are independent iff the
    one-slot contraction vanishes.  |f (x)_1 g| <= |f| |g|, so it counts
    as zero when it is at most INDEPENDENCE_TOL |f| |g|."""
    return contraction_1(f, g).norm() <= INDEPENDENCE_TOL * f.norm() * g.norm()
