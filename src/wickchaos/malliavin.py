"""Malliavin operators on chaos expansions.

The derivative D, its adjoint delta (Skorokhod integral / divergence), the
number operator delta D, iterated derivatives, Sobolev norms, and the
derivative-based bridges between the ordinary and Wick products:

    F <> G = sum_p (-1)^p / p! < D^p F, D^p G >_{H(x)p}   (ordinary inside)
    F  G   = sum_p   1  / p! < D^p F, D^p G >_{H(x)p}     (Wick inside)

Both sums are finite because every vector here has finitely many terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Sequence

from .chaos import (ChaosVector, add, inner_product, ordinary_product, scale,
                    wick_product)
from .errors import DimensionMismatchError
from .multiindex import MultiIndex


@dataclass(frozen=True)
class HValuedChaos:
    """An H-valued functional u = sum_j u_j e_j, one ChaosVector per direction."""

    components: tuple[ChaosVector, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("need at least one component")
        dim = self.components[0].dim
        if len(self.components) != dim:
            raise DimensionMismatchError(
                f"{len(self.components)} components for dim {dim}")
        for u in self.components:
            if u.dim != dim:
                raise DimensionMismatchError("component dims differ")

    @property
    def dim(self) -> int:
        return self.components[0].dim


def derivative_dir(F: ChaosVector, j: int) -> ChaosVector:
    """D_j F: the Malliavin derivative paired with basis direction e_j.

    On coefficients: (D_j F)_alpha = (alpha_j + 1) c_{alpha + e_j}, i.e.
    each H_{alpha_j}(e~_j) differentiates to alpha_j H_{alpha_j - 1}.
    """
    if not 0 <= j < F.dim:
        raise DimensionMismatchError(f"direction {j} outside dim {F.dim}")
    out: dict[MultiIndex, float] = {}
    for alpha, c in F.items():
        m = alpha.multiplicity(j)
        if m:
            out[alpha.decremented(j)] = m * c
    return ChaosVector(F.dim, F.max_order, out, prune=F.prune)


def gradient(F: ChaosVector) -> HValuedChaos:
    """DF as an H-valued functional."""
    return HValuedChaos(tuple(derivative_dir(F, j) for j in range(F.dim)))


def directional_derivative(F: ChaosVector, g: Sequence[float]) -> ChaosVector:
    """D_g F = sum_j g_j D_j F for a deterministic direction g in H."""
    if len(g) != F.dim:
        raise DimensionMismatchError(f"direction length {len(g)} != dim {F.dim}")
    out = ChaosVector.zero(F.dim, F.max_order)
    for j, gj in enumerate(g):
        if gj != 0.0:
            out = add(out, scale(derivative_dir(F, j), float(gj)))
    return out


def higher_derivative(F: ChaosVector, p: int) -> dict[tuple[int, ...], ChaosVector]:
    """D^p F keyed by sorted direction tuples.

    D^p F lives in L2(Omega; H^{(x)p}) and is symmetric in its p
    directions, so only sorted tuples t are stored; the ordered copies are
    recovered by the multiplicity p!/t! in the norms below.
    """
    if p < 0:
        raise ValueError("p must be >= 0")
    out: dict[tuple[int, ...], ChaosVector] = {}
    for t in combinations_with_replacement(range(F.dim), p):
        G = F
        for j in t:
            G = derivative_dir(G, j)
            if G.n_terms() == 0:
                break
        if p == 0 or G.n_terms():
            out[t] = G
    return out


def divergence(u: HValuedChaos) -> ChaosVector:
    """delta(u) = sum_j u_j <> e~_j, the adjoint of D."""
    dim = u.dim
    order = max(c.max_order for c in u.components)
    out = ChaosVector.zero(dim, order)
    for j, uj in enumerate(u.components):
        if uj.n_terms():
            ej = ChaosVector.coordinate(j, dim, order)
            out = add(out, wick_product(uj.with_max_order(order), ej))
    return out


def ou_apply(F: ChaosVector) -> ChaosVector:
    """The number operator delta(DF): scales the degree-n part by n."""
    return ChaosVector(F.dim, F.max_order,
                       {a: a.degree * c for a, c in F.items()}, prune=F.prune)


def sobolev_norm(F: ChaosVector, k: int) -> float:
    """|F|_{k,2} = (sum_{i<=k} E |D^i F|^2_{H(x)i})^(1/2).

    |D^i F|^2 sums over ordered direction i-tuples; grouping by sorted
    representative t contributes the multiplicity i!/t!.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    total = 0.0
    for i in range(k + 1):
        for t, DtF in higher_derivative(F, i).items():
            total += MultiIndex.from_indices(t).ordered_count() * inner_product(DtF, DtF)
    return math.sqrt(total)


def _derivative_pairing(F: ChaosVector, G: ChaosVector, product,
                        sign: float) -> ChaosVector:
    """sum_p sign^p / p! sum_{|t|=p} (p!/t!) product(D_t F, D_t G)."""
    if F.dim != G.dim:
        raise DimensionMismatchError(f"dims differ: {F.dim} vs {G.dim}")
    order = max(F.max_order, G.max_order)
    out = ChaosVector.zero(F.dim, order)
    p_max = min(F.degree(), G.degree())
    for p in range(p_max + 1):
        DF = higher_derivative(F, p)
        DG = higher_derivative(G, p)
        for t, DtF in DF.items():
            DtG = DG.get(t)
            if DtG is None:
                continue
            w = sign ** p / MultiIndex.from_indices(t).factorial()
            prod = product(DtF.with_max_order(order), DtG.with_max_order(order))
            out = add(out, scale(prod, w))
    return out


def wick_via_malliavin(F: ChaosVector, G: ChaosVector) -> ChaosVector:
    """F <> G computed from derivatives and ordinary products only:

    F <> G = sum_p (-1)^p / p! sum_{|t|=p} (p!/t!) (D_t F)(D_t G).
    """
    return _derivative_pairing(F, G, ordinary_product, -1.0)


def product_via_wick_gradients(F: ChaosVector, G: ChaosVector) -> ChaosVector:
    """FG computed from derivatives and Wick products only:

    FG = sum_p 1/p! sum_{|t|=p} (p!/t!) (D_t F) <> (D_t G).
    """
    return _derivative_pairing(F, G, wick_product, 1.0)


def wick_with_gaussian(F: ChaosVector, g: Sequence[float]) -> ChaosVector:
    """F <> g~ = F g~ - D_g F for g~ = sum_j g_j e~_j.

    Wick multiplication by a first-chaos element needs only one derivative.
    """
    if len(g) != F.dim:
        raise DimensionMismatchError(f"direction length {len(g)} != dim {F.dim}")
    gt = ChaosVector.linear([float(v) for v in g], max_order=F.max_order)
    return add(ordinary_product(F, gt), scale(directional_derivative(F, g), -1.0))
