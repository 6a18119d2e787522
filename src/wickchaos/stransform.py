"""The S-transform and Cameron-Martin translation.

S(F)(xi) = E[F eps(xi)] = E[F(. + xi)] characterizes F and turns the Wick
product into a pointwise product of functions on H.  On the Hermite
coefficients it is the plain power series

    S(F)(xi) = sum_alpha c_alpha prod_i xi_i^{alpha_i},

and translation by y acts coordinatewise through the Hermite shift
H_n(x + a) = sum_k C(n,k) a^k H_{n-k}(x).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .chaos import ChaosVector, _coded, _decoded, _digits, evaluate
from .errors import DimensionMismatchError
from .hermite import hermite_shift
from .montecarlo import Estimate, mean_estimate


def s_transform(F: ChaosVector, xi: Sequence[float]) -> float:
    """Evaluate S(F) at the point xi of H = R^d."""
    if len(xi) != F.dim:
        raise DimensionMismatchError(f"xi length {len(xi)} != dim {F.dim}")
    out = 0.0
    for alpha, c in F.items():
        term = c
        for i, m in alpha.entries:
            term *= xi[i] ** m
        out += term
    return out


def s_transform_mc(F: ChaosVector, xi: Sequence[float], n: int, seed: int,
                   workers: int | None = None) -> Estimate:
    """S(F)(xi) as the sampled pairing E[F eps(xi)].

    eps(xi) is evaluated in closed form, exp(<xi, x> - |xi|^2 / 2), so the
    estimate tests the chaos expansion of F against an untruncated partner.
    """
    if len(xi) != F.dim:
        raise DimensionMismatchError(f"xi length {len(xi)} != dim {F.dim}")
    w = np.asarray(xi, dtype=float)
    half_sq = 0.5 * float(w @ w)

    def fn(x: np.ndarray) -> np.ndarray:
        return evaluate(F, x) * np.exp(x @ w - half_sq)

    return mean_estimate(fn, F.dim, n, seed, workers)


def translate(F: ChaosVector, y: Sequence[float]) -> ChaosVector:
    """tau_y F: the expansion of omega -> F(omega + y).

    S(tau_y F)(xi) = S(F)(xi + y); exactness is one of the library's
    cross-checks.  The shift acts on one coordinate at a time, on the
    integer codes of chaos.py's product kernel.
    """
    if len(y) != F.dim:
        raise DimensionMismatchError(f"shift length {len(y)} != dim {F.dim}")
    base = F.max_order + 1
    coords, place = _digits(base, F)
    terms = {code: c for _, code, c in _coded(F, place)}
    for i in coords:
        a = float(y[i])
        if a == 0.0:
            continue
        w = place[i]
        shifted: dict[int, float] = {}
        for code, c in terms.items():
            m = code // w % base
            for n, h in hermite_shift(m, a).items():
                k = code - (m - n) * w
                shifted[k] = shifted.get(k, 0.0) + c * h
        terms = shifted
    return _decoded(terms, base, coords, F.dim, F.max_order, F.prune)
