"""Probabilists' Hermite polynomials and the expansions built from them.

The convention throughout the package is the probabilists' one: H_n has
leading coefficient 1 and satisfies the recurrence

    H_{n+1}(x) = x H_n(x) - n H_{n-1}(x),      H_0 = 1, H_1 = x,

so H_2(x) = x^2 - 1 and E[H_n(X) H_m(X)] = delta_{nm} n! for X ~ N(0,1).
This differs from the physicists' convention (leading coefficient 2^n)
used by numpy.polynomial.hermite; numpy.polynomial.hermite_e matches ours
but is deliberately not relied on, the recurrence here is the ground truth
the tests pin against an explicit-sum oracle.

Orders are capped (DEFAULT_MAX_ORDER, 64 by default) so factorials stay
inside double range and callers get an explicit error instead of silently
degraded arithmetic.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import OrderOverflowError

DEFAULT_MAX_ORDER = 64

# Hard ceiling regardless of caller-supplied caps: 170! is the largest
# factorial representable as a double.
ORDER_LIMIT = 170

_FACTORIALS = [float(math.factorial(n)) for n in range(ORDER_LIMIT + 1)]


def factorial(n: int) -> float:
    """n! as a float, table-backed; valid for 0 <= n <= ORDER_LIMIT."""
    if n < 0:
        raise ValueError("factorial undefined for negative n")
    if n > ORDER_LIMIT:
        raise OrderOverflowError(f"factorial({n}) exceeds double range (cap {ORDER_LIMIT})")
    return _FACTORIALS[n]


def hermite_eval(n: int, x: float, max_order: int = DEFAULT_MAX_ORDER) -> float:
    """Evaluate H_n(x) by the three-term recurrence.

    Parameters
    ----------
    n : non-negative order, must be <= max_order.
    x : evaluation point.
    max_order : configurable cap, DEFAULT_MAX_ORDER unless overridden.

    Raises
    ------
    OrderOverflowError if n exceeds the cap.
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    if n > max_order:
        raise OrderOverflowError(f"Hermite order {n} exceeds max order {max_order}")
    if n == 0:
        return 1.0
    prev, cur = 1.0, float(x)
    for k in range(1, n):
        prev, cur = cur, x * cur - k * prev
    return cur


def hermite_rows(x: np.ndarray, n_max: int, out: np.ndarray | None = None) -> np.ndarray:
    """All orders at once: rows[k] = H_k evaluated elementwise, k = 0..n_max.

    out, if given, is the (n_max + 1,) + x.shape array to fill and return.
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((n_max + 1,) + x.shape, dtype=float) if out is None else out
    rows[0] = 1.0
    if n_max >= 1:
        rows[1] = x
    for k in range(1, n_max):
        rows[k + 1] = x * rows[k] - k * rows[k - 1]
    return rows


@lru_cache(maxsize=None)
def hermite_linearize(a: int, b: int) -> dict[int, float]:
    """Expansion of the pointwise product H_a * H_b in the Hermite basis.

    H_a H_b = sum_p p! C(a,p) C(b,p) H_{a+b-2p} for p = 0..min(a,b).
    Coefficients are exact integers, converted to float.
    """
    if a < 0 or b < 0:
        raise ValueError("Hermite orders must be non-negative")
    out: dict[int, float] = {}
    for p in range(min(a, b) + 1):
        out[a + b - 2 * p] = float(math.factorial(p) * math.comb(a, p) * math.comb(b, p))
    return out


def hermite_shift(n: int, a: float) -> dict[int, float]:
    """Coefficients of H_n(x + a) in the Hermite basis of x.

    H_n(x + a) = sum_k C(n,k) a^k H_{n-k}(x); the zero shift is the identity.
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    if a == 0.0:
        return {n: 1.0}
    out: dict[int, float] = {}
    pw = 1.0
    for k in range(n + 1):
        out[n - k] = math.comb(n, k) * pw
        pw *= a
    return out


@lru_cache(maxsize=None)
def power_to_hermite(n: int) -> dict[int, float]:
    """Expansion of the monomial x^n in the Hermite basis.

    x^n = sum_{k <= n/2} n! / (2^k k! (n-2k)!) H_{n-2k}(x).
    """
    out: dict[int, float] = {}
    for k in range(n // 2 + 1):
        c = math.factorial(n) // (2**k * math.factorial(k) * math.factorial(n - 2 * k))
        out[n - 2 * k] = float(c)
    return out


@lru_cache(maxsize=None)
def hermite_to_power(n: int) -> dict[int, float]:
    """Monomial coefficients of H_n: the explicit alternating sum.

    H_n(x) = sum_{k <= n/2} (-1)^k n! / (2^k k! (n-2k)!) x^{n-2k}.
    """
    out: dict[int, float] = {}
    for k in range(n // 2 + 1):
        c = math.factorial(n) // (2**k * math.factorial(k) * math.factorial(n - 2 * k))
        out[n - 2 * k] = float(-c if k % 2 else c)
    return out
