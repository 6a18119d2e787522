"""Malliavin operators on chaos expansions.

The derivative D, its adjoint delta (Skorokhod integral / divergence), the
number operator delta D, iterated derivatives, Sobolev norms, and the
derivative-based bridges between the ordinary and Wick products:

    F <> G = sum_p (-1)^p / p! < D^p F, D^p G >_{H(x)p}   (ordinary inside)
    F  G   = sum_p   1  / p! < D^p F, D^p G >_{H(x)p}     (Wick inside)

Both sums are finite because every vector here has finitely many terms.
D^p F is one level of the recursion D^{p+1} F = D(D^p F): keyed by sorted
direction tuples, D_{t+(j,)} F = D_j (D_t F) for j >= t[-1], so each tuple
is derived once from its prefix and a zero D_t F ends its branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .chaos import (ChaosVector, _common, _total, add, inner_product, ordinary_product, scale,
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
    return ChaosVector._trusted(F.dim, F.max_order, out)


def gradient(F: ChaosVector) -> HValuedChaos:
    """DF as an H-valued functional."""
    return HValuedChaos(tuple(derivative_dir(F, j) for j in range(F.dim)))


def directional_derivative(F: ChaosVector, g: Sequence[float]) -> ChaosVector:
    """D_g F = sum_j g_j D_j F for a deterministic direction g in H."""
    if len(g) != F.dim:
        raise DimensionMismatchError(f"direction length {len(g)} != dim {F.dim}")
    return add(ChaosVector.zero(F.dim, F.max_order),
               *(scale(derivative_dir(F, j), float(gj)) for j, gj in enumerate(g) if gj != 0.0))


def _levels(F: ChaosVector, p_max: int) -> Iterator[dict[tuple[int, ...], ChaosVector]]:
    """Yield higher_derivative(F, p) for p = 0..p_max, each from the last."""
    if p_max < 0:
        raise ValueError(f"derivative order {p_max} must be >= 0")
    level = {(): F}
    yield level
    for _ in range(p_max):
        level = {t + (j,): G for t, DtF in level.items() if DtF.n_terms()
                 for j in range(t[-1] if t else 0, F.dim)
                 if (G := derivative_dir(DtF, j)).n_terms()}
        yield level


def higher_derivative(F: ChaosVector, p: int) -> dict[tuple[int, ...], ChaosVector]:
    """D^p F keyed by sorted direction tuples.

    D^p F lives in L2(Omega; H^{(x)p}) and is symmetric in its p
    directions, so only sorted tuples t are stored; the ordered copies are
    recovered by the multiplicity p!/t! in the norms below.
    """
    return list(_levels(F, p))[-1]


def divergence(u: HValuedChaos) -> ChaosVector:
    """delta(u) = sum_j u_j <> e~_j, the adjoint of D."""
    dim = u.dim
    order = max(c.max_order for c in u.components)
    return add(ChaosVector.zero(dim, order),
               *(wick_product(uj.with_max_order(order), ChaosVector.coordinate(j, dim, order))
                 for j, uj in enumerate(u.components) if uj.n_terms()))


def ou_apply(F: ChaosVector) -> ChaosVector:
    """The number operator delta(DF): scales the degree-n part by n."""
    return ChaosVector._trusted(F.dim, F.max_order,
                                {a: a.degree * c for a, c in F.items()})


def sobolev_norm(F: ChaosVector, k: int) -> float:
    """|F|_{k,2} = (sum_{i<=k} E |D^i F|^2_{H(x)i})^(1/2).

    |D^i F|^2 sums over ordered direction i-tuples; grouping by sorted
    representative t contributes the multiplicity i!/t!.
    """
    return math.sqrt(_total((MultiIndex.from_indices(t).ordered_count() * inner_product(DtF, DtF)
                             for level in _levels(F, k) for t, DtF in level.items()),
                            "Sobolev norm"))


def _derivative_pairing(F: ChaosVector, G: ChaosVector, product,
                        sign: float) -> ChaosVector:
    """sum_p sign^p / p! sum_{|t|=p} (p!/t!) product(D_t F, D_t G)."""
    order = _common(F, G)[1]
    p_max = min(F.degree(), G.degree())
    return add(ChaosVector.zero(F.dim, order),
               *(scale(product(DtF.with_max_order(order), DG[t].with_max_order(order)),
                       sign ** p / MultiIndex.from_indices(t).factorial())
                 for p, (DF, DG) in enumerate(zip(_levels(F, p_max), _levels(G, p_max)))
                 for t, DtF in DF.items() if t in DG))


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
