"""Probabilists' Hermite polynomials and the expansions built from them.

The convention throughout the package is the probabilists' one: H_n has
leading coefficient 1 and satisfies the recurrence

    H_{n+1}(x) = x H_n(x) - n H_{n-1}(x),      H_0 = 1, H_1 = x,

so H_2(x) = x^2 - 1 and E[H_n(X) H_m(X)] = delta_{nm} n! for X ~ N(0,1).
This differs from the physicists' convention (leading coefficient 2^n)
used by numpy.polynomial.hermite; numpy.polynomial.hermite_e matches ours
but is deliberately not relied on, the recurrence here is the ground truth
the tests pin against an explicit-sum oracle.  hermite_rows fills the
table it is given in place, with no temporaries: chaos evaluation hands it
a block buffer that its thread keeps between calls.  One value (hermite_eval,
and a point of one coordinate in hermite_rows) runs the same recurrence on
Python floats, because three numpy calls per order cost more than the
arithmetic.

The pairing count hu_meyer_coeff(n, k) = n! / (2^k k! (n-2k)!), the ways
to pick k disjoint pairs from n slots, gives both changes of basis
(power_to_hermite, hermite_to_power), the Hu-Meyer formula of stratonovich
and the imaginary-copy moments E[(x + iY)^n] = sigma^n H_n(x / sigma) of
renormalization.  The changes of basis are cached read-only: a write
raises TypeError.  Hermite linearization (H_a H_b) has no table here: the
ordinary product in chaos runs its contraction-index form directly.

hermite_eval caps its order at DEFAULT_MAX_ORDER = 64 unless the caller
passes another cap, and factorial at ORDER_LIMIT = 170, the largest n whose
n! is a double; past either an OrderOverflowError is raised.  Neither cap
bounds the rest of the package: the exact products and evaluations run past
order 170.  hermite_eval raises DomainError on a value that is not finite,
and so do hu_meyer_coeff (from n = 297 on, where n! / (2^k k! (n-2k)!)
passes the double range for some k) and hermite_shift (a shift that is not
finite, or a coefficient C(n, k) a^k that is not; from n = 1030 on some
binomial C(n, k) is past the double range, and each coefficient is formed
as a mantissa and a power of two instead).
"""

from __future__ import annotations

import math
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .errors import DomainError, OrderOverflowError

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
    """Evaluate H_n(x): row n of hermite_rows, on Python floats.

    Parameters
    ----------
    n : non-negative order, must be <= max_order.
    x : evaluation point.
    max_order : configurable cap, DEFAULT_MAX_ORDER unless overridden.

    Raises
    ------
    OrderOverflowError if n exceeds the cap.
    DomainError if the value is not finite (x is NaN or inf, or H_n overflows).
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    if n > max_order:
        raise OrderOverflowError(f"Hermite order {n} exceeds max order {max_order}")
    out = _float_rows(float(x), n)[n]
    if not math.isfinite(out):
        raise DomainError(f"H_{n}({x}) is not finite (NaN or overflow to inf)")
    return out


def hermite_rows(x: np.ndarray, n_max: int, out: np.ndarray | None = None) -> np.ndarray:
    """All orders at once: rows[k] = H_k evaluated elementwise, k = 0..n_max.

    out, if given, is the (n_max + 1,) + x.shape array to fill and return.
    The rows are filled in place: k H_{k-1} waits in row 0, which is set
    back to 1 at the end, so an array x makes no temporaries.  One value
    (a 0-d x, a point of one coordinate) runs on Python floats instead,
    with the same roundings and without a numpy call per order.
    """
    x = np.asarray(x, dtype=float)
    rows = np.empty((n_max + 1,) + x.shape) if out is None else out
    if x.size == 1:
        rows[...] = np.reshape(_float_rows(x.item(), n_max), rows.shape)
        return rows
    rows[0] = 1.0
    if n_max >= 1:
        rows[1] = x
    h = list(rows)  # views of the rows: a list is cheaper to index per call
    for k in range(1, n_max):
        np.multiply(h[k - 1], float(k), h[0])
        np.multiply(x, h[k], h[k + 1])
        np.subtract(h[k + 1], h[0], h[k + 1])
    rows[0] = 1.0
    return rows


def _float_rows(t: float, n_max: int) -> list[float]:
    """H_0(t), ..., H_{n_max}(t) on Python floats, with the roundings of
    hermite_rows: the one value of hermite_eval and of hermite_rows."""
    h = [1.0, t]
    for k in range(1, n_max):
        h.append(t * h[k] - k * h[k - 1])
    return h[:n_max + 1]


def hermite_shift(n: int, a: float) -> dict[int, float]:
    """Coefficients of H_n(x + a) in the Hermite basis of x.

    H_n(x + a) = sum_k C(n,k) a^k H_{n-k}(x); the zero shift is the identity.
    DomainError if a is NaN or infinite, or if a coefficient is not a
    finite double.
    """
    if n < 0:
        raise ValueError("Hermite order must be non-negative")
    return _shift_rows(n, a, n)[0]


def _shift_rows(top: int, a: float, first: int = 0) -> list[dict[int, float]]:
    """hermite_shift(m, a) for m = first..top, from one running list of the
    powers a^k and the cached binomial rows: translate builds the rows of a
    coordinate so, once per call.

    Up to m = 1029 each coefficient is C(m, k) a^k as two doubles multiply
    it.  Past that some C(m, k) exceeds the double range although C(m, k)
    a^k may not, and _wide_shift_row forms the row: each coefficient within
    (k + 2) 2^-53 of the exact value, relatively, unless it is subnormal.
    """
    if not math.isfinite(a):
        raise DomainError(f"hermite_shift({top}, {a}): the shift is not finite")
    if a == 0.0:
        return [{m: 1.0} for m in range(first, top + 1)]
    powers, pw = [], 1.0
    for _ in range(top + 1):
        powers.append(pw)
        pw *= a
    rows = []
    for m in range(first, top + 1):
        binomials = _binomials(m)
        if binomials is None:
            rows.append(_wide_shift_row(m, a))
            continue
        row = {}
        for k, c in enumerate(binomials):
            row[m - k] = c * powers[k]
        # a is finite, so each coefficient is finite or +-inf: a finite sum
        # rules inf out, and only a sum that overflows needs the second look
        if not math.isfinite(sum(row.values())) and math.inf in map(abs, row.values()):
            raise DomainError(f"hermite_shift({m}, {a}): a coefficient overflows to inf")
        rows.append(row)
    return rows


@lru_cache(maxsize=None)
def _binomials(n: int) -> tuple[float, ...] | None:
    """C(n, k) for k = 0..n, each rounded once to a double; None past the
    double range, from n = 1030 on.  translate asks for the same few orders
    on every call."""
    out, c = [], 1  # C(n, k), exactly
    try:
        for k in range(n + 1):
            out.append(float(c))
            c = c * (n - k) // (k + 1)
    except OverflowError:
        return None
    return tuple(out)


def _wide_shift_row(n: int, a: float) -> dict[int, float]:
    """Row n of the shift by a past the double range of the binomials: each
    C(n, k) a^k as a mantissa, C(n, k) / 2^b rounded once times that of
    a^k, and a power of two, the power of a kept in range as a running
    product of mantissas, each rounded once.  DomainError naming the
    largest coefficient if one is not a finite double."""
    am, ae = math.frexp(a)
    scaled = []
    c, x, e = 1, 1.0, 0  # C(n, k) exactly, and a^k = x 2^e
    for k in range(n + 1):
        b = c.bit_length()
        scaled.append((c / (1 << b) * x, b + e))
        c = c * (n - k) // (k + 1)
        x, de = math.frexp(x * am)
        e += ae + de
    try:
        return {n - k: math.ldexp(m, e) for k, (m, e) in enumerate(scaled)}
    except OverflowError:
        k = max(range(n + 1), key=lambda k: math.log2(abs(scaled[k][0])) + scaled[k][1])
        raise DomainError(f"hermite_shift({n}, {a}): C({n}, {k}) a^{k} exceeds the double "
                          "range") from None


def hu_meyer_coeff(n: int, k: int) -> float:
    """n! / (2^k k! (n-2k)!), the count of pairings of k slot-pairs."""
    if n < 0 or k < 0 or 2 * k > n:
        raise ValueError(f"need 0 <= 2k <= n, got n={n}, k={k}")
    try:
        return math.factorial(n) / (2 ** k * math.factorial(k) * math.factorial(n - 2 * k))
    except OverflowError:
        raise DomainError(f"hu_meyer_coeff(n={n}, k={k}) exceeds the double range") from None


@lru_cache(maxsize=None)
def power_to_hermite(n: int) -> MappingProxyType[int, float]:
    """Expansion of the monomial x^n in the Hermite basis.

    x^n = sum_{k <= n/2} hu_meyer_coeff(n, k) H_{n-2k}(x).
    """
    return MappingProxyType({n - 2 * k: hu_meyer_coeff(n, k) for k in range(n // 2 + 1)})


@lru_cache(maxsize=None)
def hermite_to_power(n: int) -> MappingProxyType[int, float]:
    """Monomial coefficients of H_n: the explicit alternating sum.

    H_n(x) = sum_{k <= n/2} (-1)^k hu_meyer_coeff(n, k) x^{n-2k}.
    """
    return MappingProxyType({n - 2 * k: (-1) ** k * hu_meyer_coeff(n, k)
                             for k in range(n // 2 + 1)})
