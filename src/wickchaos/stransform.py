"""The S-transform and Cameron-Martin translation.

S(F)(xi) = E[F eps(xi)] = E[F(. + xi)] characterizes F and turns the Wick
product into a pointwise product of functions on H.  On the Hermite
coefficients it is the plain power series

    S(F)(xi) = sum_alpha c_alpha prod_i xi_i^{alpha_i},

the same sum that evaluates a polynomial on its monomial coefficients, so
renormalization.poly_eval is s_transform on a PolySeries (and poly_mul is
the Wick convolution on monomial labels).  Translation by y acts
coordinatewise through the Hermite shift
H_n(x + a) = sum_k C(n,k) a^k H_{n-k}(x), in chaos._coordinatewise: on the
dict loop for small vectors and on the product kernel's int64 arrays for
large ones, with the same bits either way.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .chaos import ChaosVector, _coordinatewise, _total, evaluate
from .errors import DimensionMismatchError
from .hermite import _shift_rows
from .montecarlo import Estimate, mean_estimate


def s_transform(F: ChaosVector, xi: Sequence[float]) -> float:
    """Evaluate S(F) at the point xi of H = R^d (a PolySeries at the point xi).

    xi is read as Python floats.  Raises DomainError if the sum, or a power
    on the way, overflows or is NaN.
    """
    if len(xi) != F.dim:
        raise DimensionMismatchError(f"xi length {len(xi)} != dim {F.dim}")
    xi = [float(v) for v in xi]
    return _total((math.prod((xi[i] ** m for i, m in alpha.entries), start=c)
                   for alpha, c in F.items()), "S-transform")


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
    cross-checks.  The shift acts on one coordinate at a time, in
    chaos._coordinatewise (see the module docstring).
    """
    if len(y) != F.dim:
        raise DimensionMismatchError(f"shift length {len(y)} != dim {F.dim}")
    return _coordinatewise(F, lambda i, top: _shift_rows(top, float(y[i])), ChaosVector)
