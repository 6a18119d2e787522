"""Wick renormalization of Gaussian polynomials and quadratic exponentials.

A polynomial p(X_1..X_d) in centered Gaussians X_i = sigma_i e~_i is
renormalized monomial by monomial, :X_i^n: = sigma_i^n H_n(e~_i), which
makes renormalization an isomorphism onto the Wick algebra: :pq: = :p:<>:q:.
The same object has an independent-copy representation

    :p(X): (x) = E[ p(x + iY) ],   Y an independent copy of X,

evaluated here both exactly (the inner expectation in closed form, pure
real arithmetic) and by Monte Carlo over Y.

The law :pq: = :p:<>:q: is also why PolySeries is ChaosVector's store
under another reading: poly_mul is the Wick convolution on monomial
labels, poly_power the Wick power and poly_eval the S-transform.  The
changes of basis poly_to_chaos and chaos_to_poly run in
chaos._coordinatewise, as stransform.translate does: on the dict loop for
small series and on the product kernel's int64 arrays for large ones, with
the same bits either way.

Quadratic exponentials: for e~ standard Gaussian the renormalized
square-exponential has the L2 expansion

    :exp(lam x^2 / 2): = sum_k lam^k / (2^k k!) H_2k(x),

convergent iff |lam| < 1, with closed form
(1+lam)^{-1/2} exp(lam x^2 / (2(1+lam))).  The multivariate version for a
quadratic form x'Mx/2 diagonalizes M and multiplies per-eigenvalue factors
exp(-lam_n/2 - ln(1+lam_n)/2 + lam_n z_n^2 / (2(1+lam_n))).  Both series
are chaos.wick_exp calls, exp<>(lam H_2 / 2) and exp<>(I_2(M)/2 - tr M/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .chaos import (ChaosVector, SymTensor, _contract, _coordinatewise, _plan, _Store, _total,
                    add, coeff_distance, from_tensor, scale, wick_exp, wick_power, wick_product)
from .errors import DimensionMismatchError, DivergenceError, DomainError
from .hermite import hermite_to_power, power_to_hermite
from .montecarlo import Estimate, _mean_rows
from .multiindex import EMPTY, MultiIndex
from .stransform import s_transform

NEGDEF_TOL = 1e-12


class PolySeries(_Store):
    """A real polynomial in d commuting variables, sparse over exponents.

    ChaosVector's store read as monomial coefficients: the same
    validation, never pruned, and truncation is the hard cap on total
    degree (the store's max_order), so constructing a term beyond it
    raises OrderOverflowError.
    """

    __slots__ = ()
    _cap = "truncation"

    def __init__(self, dim: int, terms: Mapping[MultiIndex, float] | None = None,
                 truncation: int = 64):
        super().__init__(dim, truncation, terms, prune=0.0)

    @property
    def truncation(self) -> int:
        return self.max_order

    @classmethod
    def constant(cls, c: float, dim: int, truncation: int = 64) -> "PolySeries":
        return cls(dim, {EMPTY: c}, truncation)

    @classmethod
    def variable(cls, i: int, dim: int, truncation: int = 64) -> "PolySeries":
        return cls(dim, {MultiIndex(((i, 1),)): 1.0}, truncation)


# Multiplying monomials adds exponents, the Wick convolution of chaos's
# product kernel on monomial labels (hence :pq: = :p: <> :q:), and a
# polynomial's value at a point is the S-transform's power series.  Each
# returns a PolySeries for PolySeries operands.
poly_add = add
poly_scale = scale
poly_mul = wick_product
poly_power = wick_power
poly_eval = s_transform


def _sigmas(dim: int, variances: Sequence[float] | None) -> list[float]:
    if variances is None:
        return [1.0] * dim
    if len(variances) != dim:
        raise DimensionMismatchError(
            f"{len(variances)} variances for dim {dim}")
    out = []
    for v in variances:
        if v <= 0:
            raise DomainError(f"variance must be positive, got {v}")
        out.append(math.sqrt(float(v)))
    return out


# -- Wick ordering of polynomials ------------------------------------------


def wick_order_poly(p: PolySeries,
                    variances: Sequence[float] | None = None) -> ChaosVector:
    """:p(X): for X_i = sigma_i e~_i, term by term.

    Each monomial prod X_i^{n_i} maps to prod sigma_i^{n_i} H_{n_i}(e~_i),
    one Hermite term per monomial; the map is a linear bijection.
    Raises DomainError when a weight overflows.
    """
    sig = _sigmas(p.dim, variances)
    try:
        terms = {alpha: math.prod((sig[i] ** m for i, m in alpha.entries), start=c)
                 for alpha, c in p._terms.items()}
    except OverflowError:
        raise DomainError("a Wick-ordered coefficient overflows") from None
    return ChaosVector._trusted(p.dim, p.truncation, terms, 0.0)


def poly_to_chaos(p: PolySeries) -> ChaosVector:
    """The plain (unrenormalized) random variable p(e~) in the Hermite basis."""
    return _coordinatewise(p, lambda i, m: power_to_hermite(m), ChaosVector, 0.0)


def chaos_to_poly(F: ChaosVector) -> PolySeries:
    """Expand a chaos vector into an explicit polynomial in the coordinates."""
    return _coordinatewise(F, lambda i, m: hermite_to_power(m), PolySeries, 0.0)


# -- independent-copy representation ----------------------------------------


def _icopy_moment(n: int, sigma: float, x: float) -> float:
    """E[(x + iY)^n], Y ~ N(0, sigma^2), by Horner in x.

    The moment is sigma^n H_n(x / sigma): coeffs[j], multiplying x^j, is
    H_n's monomial coefficient scaled by sigma^(n-j), real with
    alternating signs.
    """
    coeffs = [0.0] * (n + 1)
    for j, h in hermite_to_power(n).items():
        coeffs[j] = h * sigma ** (n - j)
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def wick_order_icopy_exact(p: PolySeries, variances: Sequence[float] | None,
                           point: Sequence[float]) -> float:
    """:p(X):(x) = E[p(x + iY)] with the Y-expectation done in closed form.

    Real arithmetic throughout: odd powers of iY average to zero and even
    powers contribute (-1)^{k/2} (k-1)!! sigma^k.  Raises DomainError when
    the value is not finite.
    """
    sig = _sigmas(p.dim, variances)
    if len(point) != p.dim:
        raise DimensionMismatchError(f"point length {len(point)} != dim {p.dim}")
    return _total((math.prod((_icopy_moment(m, sig[i], float(point[i])) for i, m in alpha.entries),
                             start=c) for alpha, c in p._terms.items()), ":p(X):(x)")


def _powers(z: np.ndarray, top: int, out: np.ndarray) -> None:
    """out[m] = z**m elementwise, m = 0..top, by repeated multiplication."""
    out[0] = 1.0
    for m in range(1, top + 1):
        np.multiply(out[m - 1], z, out=out[m])


def wick_order_icopy_mc(p: PolySeries, variances: Sequence[float] | None,
                        points: Sequence[Sequence[float]], n: int,
                        seed: int) -> list[Estimate]:
    """Monte Carlo over the imaginary copy: average Re p(x + iY).

    The points are the rows of one Monte Carlo reduction: each chunk of
    Y-samples is drawn once for all of them, and each point gets its own
    mean and standard error, the same as a call with that point alone.
    The estimator is unbiased for :p(X):(x) at every truncation.
    """
    sig = np.asarray(_sigmas(p.dim, variances))
    pts = [np.asarray(x, dtype=float) for x in points]
    for x in pts:
        if x.shape != (p.dim,):
            raise DimensionMismatchError("point length does not match dim")
    plan = _plan((p,))

    def rows(y: np.ndarray) -> np.ndarray:
        return np.array([_contract(plan, x + 1j * (y * sig), _powers)[0].real for x in pts])

    return _mean_rows(rows, p.dim, n, seed)


def series_condition(p: PolySeries,
                     variances: Sequence[float] | None = None) -> float:
    """sum_alpha alpha! a_alpha^2 prod_i v_i^{alpha_i}.

    Equals l2_norm(wick_order_poly(p, v))^2 exactly; finiteness of this sum
    is the convergence criterion for renormalizing a power series, and a
    sum that overflows raises DomainError.
    """
    sig = _sigmas(p.dim, variances)
    return _total((alpha.weighted(a, a, *(sig[i] ** (2 * m) for i, m in alpha.entries))
                   for alpha, a in p._terms.items()), "series condition")


def renorm_product_check(p: PolySeries, q: PolySeries,
                         variances: Sequence[float] | None = None) -> float:
    """max coefficient gap between :pq: and :p: <> :q: (zero in exact math)."""
    left = wick_order_poly(poly_mul(p, q), variances)
    right = wick_product(wick_order_poly(p, variances),
                         wick_order_poly(q, variances))
    return coeff_distance(left, right)


# -- quadratic Wick exponentials --------------------------------------------


def _tail_weight_square(lam: float, K: int) -> float:
    """L2 weight of the first omitted term, |lam|^{K+1} sqrt((2K+2)!) /
    (2^{K+1} (K+1)!), computed in log space."""
    if lam == 0.0:
        return 0.0
    ln = ((K + 1) * math.log(abs(lam)) + 0.5 * math.lgamma(2 * K + 3)
          - (K + 1) * math.log(2.0) - math.lgamma(K + 2))
    return math.exp(ln)


@dataclass(frozen=True)
class WickExpSquare:
    """:exp(lam x^2 / 2): in one Gaussian variable."""

    lam: float
    truncation: int
    series: ChaosVector
    tail_weight: float

    def closed(self, x: float) -> float:
        return (1.0 + self.lam) ** -0.5 * math.exp(
            self.lam * x * x / (2.0 * (1.0 + self.lam)))


def wick_exp_square(lam: float, K: int = 40) -> WickExpSquare:
    """Renormalized square exponential, series truncated after k = K.

    The L2 expansion sum_k lam^k/(2^k k!) H_2k converges iff |lam| < 1;
    outside that disc the request is refused rather than summed.
    """
    if abs(lam) >= 1.0:
        raise DivergenceError(
            f"series for :exp(lam x^2/2): diverges in L2 at |lam| = {abs(lam)} >= 1")
    half_h2 = ChaosVector(1, 2, {MultiIndex(((0, 2),)): lam / 2.0}, prune=0.0)
    series = wick_exp(half_h2, 2 * K)
    return WickExpSquare(lam, K, series, _tail_weight_square(lam, K))


@dataclass(frozen=True)
class WickExpI2:
    """exp(-tr M/2) exp^<>(I_2(M)/2): the renormalized Gaussian quadratic
    exponential :exp(x'Mx/2): for a symmetric coefficient tensor M."""

    tensor: SymTensor
    eigenvalues: tuple[float, ...]
    basis: np.ndarray
    truncation: int
    series: ChaosVector

    def closed(self, point: Sequence[float]) -> float:
        x = np.asarray(point, dtype=float)
        if x.shape != (self.tensor.dim,):
            raise DimensionMismatchError("point length does not match dim")
        z = self.basis.T @ x
        out = 0.0
        for lam, zn in zip(self.eigenvalues, z):
            out += (-lam / 2.0 - 0.5 * math.log1p(lam)
                    + lam * zn * zn / (2.0 * (1.0 + lam)))
        return math.exp(out)


def _tensor_matrix(f: SymTensor) -> np.ndarray:
    m = np.zeros((f.dim, f.dim))
    for (i, j), v in f.values.items():
        m[i, j] = v
        m[j, i] = v
    return m


def wick_exp_I2(f: SymTensor, K: int = 30) -> WickExpI2:
    """Renormalized exponential of the quadratic form x'Mx/2.

    Requires every eigenvalue lam of M to satisfy lam > -1 (else the
    Gaussian integral behind the closed form diverges: DomainError) and
    |lam| < 1 (else the Hermite series diverges in L2: DivergenceError).
    The series is wick_exp(I_2(M)/2 - tr M/2, 2K), so it carries the
    exp(-tr M/2) prefactor that makes it match the closed form pointwise.
    """
    if f.order != 2:
        raise ValueError("need an order-2 tensor")
    m = _tensor_matrix(f)
    w, v = np.linalg.eigh(m)
    if w[0] <= -1.0:
        raise DomainError(
            f"eigenvalue {w[0]:.6g} <= -1: the renormalized exponential has no closed form")
    if max(abs(w[0]), abs(w[-1])) >= 1.0:
        raise DivergenceError(
            f"spectral radius {max(abs(w[0]), abs(w[-1])):.6g} >= 1: series diverges in L2")
    exponent = scale(from_tensor(f), 0.5) - 0.5 * float(np.trace(m))
    series = wick_exp(exponent, 2 * K)
    series = series if K else series.with_max_order(2)  # K = 0 keeps cap 2
    return WickExpI2(f, tuple(float(x) for x in w), v, K, series)


def negative_definite(f: SymTensor) -> bool:
    """True when every eigenvalue of the order-2 tensor is <= NEGDEF_TOL."""
    if f.order != 2:
        raise ValueError("need an order-2 tensor")
    w = np.linalg.eigvalsh(_tensor_matrix(f))
    return bool(w[-1] <= NEGDEF_TOL)
