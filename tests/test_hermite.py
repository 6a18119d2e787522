"""Probabilists' Hermite basis, pinned against independent formulas."""

import math
import warnings

import numpy as np
import pytest

from wickchaos.chaos import ChaosVector, ordinary_product
from wickchaos.errors import DomainError, OrderOverflowError
from wickchaos.hermite import (ORDER_LIMIT, _shift_rows, factorial, hermite_eval,
                               hermite_rows, hermite_shift, hermite_to_power,
                               hu_meyer_coeff, power_to_hermite)
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.renormalization import (PolySeries, chaos_to_poly, poly_to_chaos,
                                       wick_order_icopy_exact)
from wickchaos.stransform import translate

from helpers import expect_1d, gauss_rule, hermite_np, hermite_sum


def linearize(a, b):
    """H_a H_b in the Hermite basis: the ordinary product on one coordinate."""
    def h(n):
        return ChaosVector(1, a + b, {MultiIndex([(0, n)]): 1.0})
    return {alpha.degree: c for alpha, c in ordinary_product(h(a), h(b)).items()}


def test_small_orders_closed_forms():
    for x in np.linspace(-3, 3, 13):
        assert hermite_eval(0, x) == 1.0
        assert hermite_eval(1, x) == x
        assert abs(hermite_eval(2, x) - (x * x - 1)) < 1e-12
        assert abs(hermite_eval(3, x) - (x ** 3 - 3 * x)) < 1e-12
        assert abs(hermite_eval(4, x) - (x ** 4 - 6 * x * x + 3)) < 1e-12


def test_recurrence_matches_explicit_sum():
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(0, 13))
        x = float(rng.normal(scale=2.0))
        ref = hermite_sum(n, x)
        got = hermite_eval(n, x)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_recurrence_matches_numpy_series():
    rng = np.random.default_rng(12)
    for _ in range(200):
        n = int(rng.integers(0, 21))
        x = float(rng.normal(scale=1.5))
        ref = hermite_np(n, x)
        got = hermite_eval(n, x)
        assert abs(got - ref) <= 1e-9 * max(1.0, abs(ref))


def test_rows_agree_with_scalar_eval():
    rng = np.random.default_rng(13)
    x = rng.normal(size=40)
    rows = hermite_rows(x, 10)
    assert rows.shape == (11, 40)
    for n in range(11):
        for j in range(40):
            assert abs(rows[n, j] - hermite_eval(n, x[j])) < 1e-11


def rows_by_expression(x, n_max):
    """The table as numpy arrays compute the recurrence when written out:
    one temporary per product and one per difference."""
    x = np.asarray(x, dtype=float)
    rows = np.empty((n_max + 1,) + x.shape)
    rows[0] = 1.0
    if n_max >= 1:
        rows[1] = x
    for k in range(1, n_max):
        rows[k + 1] = x * rows[k] - k * rows[k - 1]
    return rows


@pytest.mark.parametrize("shape", [(), (1,), (1, 1), (4, 1), (4, 700)])
@pytest.mark.parametrize("n", [0, 1, 2, 8, 120])
def test_table_in_place_is_bitwise_the_expression(shape, n):
    # the in-place recurrence and the one-value path on Python floats must
    # round as the written-out expression does, also past overflow
    rng = np.random.default_rng(n)
    specials = [0.0, -0.0, 1e200, -np.inf, np.nan]
    with np.errstate(over="ignore", invalid="ignore"):
        for x in [rng.normal(size=shape) * s for s in (0.5, 3.0, 40.0)] + \
                 [np.full(shape, v) for v in specials]:
            want = rows_by_expression(x, n)
            assert hermite_rows(x, n).tobytes() == want.tobytes()
            out = np.full((n + 1,) + np.shape(x), 7.0)
            assert hermite_rows(x, n, out) is out and out.tobytes() == want.tobytes()
    if shape == ():
        assert hermite_eval(n, 0.3, max_order=n) == float(rows_by_expression(0.3, n)[n])


def test_orthogonality_under_gaussian_weight():
    # E[H_m H_n] = delta_{mn} n!, checked by quadrature
    x, w = gauss_rule(40)
    for m in range(7):
        for n in range(7):
            val = float(np.dot(w, hermite_np(m, x) * hermite_np(n, x)))
            want = factorial(n) if m == n else 0.0
            assert abs(val - want) < 1e-8


def test_linearize_pointwise():
    rng = np.random.default_rng(14)
    for _ in range(100):
        a = int(rng.integers(0, 8))
        b = int(rng.integers(0, 8))
        x = float(rng.normal())
        coeffs = linearize(a, b)
        rebuilt = sum(c * hermite_eval(k, x) for k, c in coeffs.items())
        direct = hermite_eval(a, x) * hermite_eval(b, x)
        assert abs(rebuilt - direct) <= 1e-9 * max(1.0, abs(direct))


def test_linearize_known_cases():
    assert linearize(1, 1) == {2: 1.0, 0: 1.0}
    assert linearize(0, 5) == {5: 1.0}
    # H_2 H_1 = H_3 + 2 H_1
    assert linearize(2, 1) == {3: 1.0, 1: 2.0}


def test_shift_formula_pointwise():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(0, 9))
        a = float(rng.normal())
        x = float(rng.normal())
        coeffs = hermite_shift(n, a)
        rebuilt = sum(c * hermite_eval(k, x) for k, c in coeffs.items())
        direct = hermite_eval(n, x + a)
        assert abs(rebuilt - direct) <= 1e-9 * max(1.0, abs(direct))


def test_shift_keeps_its_bits():
    # the checks run once per call and leave every finite coefficient as is;
    # at (1025, 1.0) every coefficient is finite while their sum 2^1025 is not
    for n, a in [(n, a) for n in range(12)
                 for a in (1e-300, -0.7, 0.3, 2.5, -1e20, 1e25)] + [(1025, 1.0)]:
        pw, want = 1.0, {}
        for k in range(n + 1):
            want[n - k] = math.comb(n, k) * pw
            pw *= a
        got = hermite_shift(n, a)
        assert list(got.items()) == list(want.items()), (n, a)


@pytest.mark.parametrize("n, a, message", [
    (3, math.inf, "shift is not finite"), (3, -math.inf, "shift is not finite"),
    (3, math.nan, "shift is not finite"), (0, math.nan, "shift is not finite"),
    (4, 1e200, "overflows to inf"), (4, -1e200, "overflows to inf"),
    (650, 2.0, "overflows to inf"), (2000, 1.0, r"C\(2000, 1000\)")])
def test_shift_is_loud_when_not_finite(n, a, message):
    # (650, 2.0) overflows in the middle coefficients only: the first is 1
    # and the last 2^650, and their sum is past the double range too;
    # C(2000, k) is past the double range from k = 230
    with pytest.raises(DomainError, match=message):
        hermite_shift(n, a)


@pytest.mark.parametrize("n, a", [(1030, 1e-3), (1030, -0.9), (1030, 0.5),
                                  (2000, 1e-3), (2000, 0.3), (2000, -0.25)])
def test_shift_past_the_binomials_double_range(n, a):
    # C(n, n // 2) is past the double range from n = 1030 on, but every
    # C(n, k) a^k here is a finite double: each is within (k + 2) 2^-53 of
    # the exact value, relatively, or rounds to a subnormal or zero, where
    # the error is at most 2^-1074 absolutely.  In integers: a = p / q,
    # C(n, k) a^k = C(n, k) p^k / q^k and a coefficient x = r / s, so the
    # error is |r q^k - C(n, k) p^k s| / (s q^k)
    got = hermite_shift(n, a)
    assert list(got) == list(range(n, -1, -1))
    p, q = a.as_integer_ratio()
    c, pk, qk = 1, 1, 1
    for k in range(n + 1):
        r, s = got[n - k].as_integer_ratio()
        error = abs(r * qk - c * pk * s)
        assert (error << 53 <= (k + 2) * abs(c * pk) * s
                or error << 1074 <= s * qk), (n, k)
        c, pk, qk = c * (n - k) // (k + 1), pk * p, qk * q


def test_translate_of_order_1030():
    # one coordinate at order 1030: the shift of H_1030 is its row, and
    # that of 2 H_1 adds 2 H_1 + 2a
    x = MultiIndex([(0, 1)])
    F = ChaosVector(1, 1030, {MultiIndex([(0, 1030)]): 1.0, x: 2.0})
    row = hermite_shift(1030, 1e-3)
    T = translate(F, [1e-3])
    want = {MultiIndex([(0, n)]) if n else EMPTY: c for n, c in row.items() if c}
    want[x] = row[1] + 2.0
    want[EMPTY] = row[0] + 2e-3
    assert T.terms == want


@pytest.mark.parametrize("a", [0.0, -0.0, 5e-324, 1e150, 0.3, -2.5])
def test_shift_rows_are_the_shifts_bitwise(a):
    # translate builds the rows m = 0..top of a coordinate at once: each is
    # hermite_shift(m, a) to the bit, C(m, k) times the running power of
    # a, and a row that overflows (from m = 3 at 1e150) raises as it does
    want = []
    for m in range(41):
        pw, row = 1.0, {}
        for k in range(m + 1):
            row[m - k] = math.comb(m, k) * pw
            pw *= a
        want.append({m: 1.0} if a == 0.0 else row)
    for top in range(41):
        try:
            shifts = [hermite_shift(m, a) for m in range(top + 1)]
        except DomainError:
            with pytest.raises(DomainError, match="overflows to inf"):
                _shift_rows(top, a)
            continue
        rows = _shift_rows(top, a)
        assert [list(r.items()) for r in rows] == [list(r.items()) for r in shifts]
        assert [list(r.items()) for r in rows] == [list(r.items()) for r in want[:top + 1]]


def test_hu_meyer_coeff_keeps_its_bits_below_297():
    for n in range(297):
        for k in range(n // 2 + 1):
            want = math.factorial(n) / (2 ** k * math.factorial(k) * math.factorial(n - 2 * k))
            assert hu_meyer_coeff(n, k) == want, (n, k)


def test_hu_meyer_coeff_is_loud_past_the_double_range():
    with pytest.raises(DomainError, match=r"n=297, k=136"):
        hu_meyer_coeff(297, 136)
    with pytest.raises(DomainError, match=r"n=300, k="):
        power_to_hermite(300)
    # the coordinatewise map asks for the expansions of lower degrees too
    with pytest.raises(DomainError, match=r"hu_meyer_coeff\(n=\d+, k=\d+\)"):
        poly_to_chaos(PolySeries(1, {MultiIndex([(0, 400)]): 1.0}, 400))


def test_power_hermite_conversions():
    assert power_to_hermite(2) == {2: 1.0, 0: 1.0}
    assert power_to_hermite(3) == {3: 1.0, 1: 3.0}
    assert power_to_hermite(4) == {4: 1.0, 2: 6.0, 0: 3.0}
    assert hermite_to_power(3) == {3: 1.0, 1: -3.0}
    rng = np.random.default_rng(16)
    for n in range(10):
        # roundtrip through the other basis is the identity
        acc = {}
        for k, c in power_to_hermite(n).items():
            for j, d in hermite_to_power(k).items():
                acc[j] = acc.get(j, 0.0) + c * d
        acc = {j: v for j, v in acc.items() if abs(v) > 1e-9}
        assert acc == {n: pytest.approx(1.0)}
        x = float(rng.normal())
        val = sum(c * hermite_eval(k, x) for k, c in power_to_hermite(n).items())
        assert abs(val - x ** n) <= 1e-9 * max(1.0, abs(x) ** n)


def test_cached_expansions_are_read_only():
    # the caches hand out their own values: a write must fail, not change
    # every later conversion
    with pytest.raises(TypeError):
        power_to_hermite(3)[1] = 99.0
    with pytest.raises(TypeError):
        del hermite_to_power(2)[0]
    with pytest.raises(AttributeError):
        hermite_to_power(2).clear()
    x3 = PolySeries(1, {MultiIndex([(0, 3)]): 1.0}, 3)
    assert poly_to_chaos(x3).terms == {MultiIndex([(0, 1)]): 3.0, MultiIndex([(0, 3)]): 1.0}
    h2 = ChaosVector(1, 2, {MultiIndex([(0, 2)]): 1.0})
    assert chaos_to_poly(h2).terms == {MultiIndex([(0, 2)]): 1.0, EMPTY: -1.0}
    x2 = PolySeries(1, {MultiIndex([(0, 2)]): 1.0}, 2)
    assert wick_order_icopy_exact(x2, None, [0.5]) == -0.75


@pytest.mark.parametrize("n, x", [(60, 1e6), (64, 1e5), (3, math.inf), (3, -math.inf),
                                  (2, 1e200), (1, math.nan)])
def test_eval_is_loud_when_not_finite(n, x):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError):
            hermite_eval(n, x)


def test_eval_of_order_0_is_one_everywhere():
    for x in (math.nan, math.inf, -math.inf, 1e300):
        assert hermite_eval(0, x) == 1.0
    assert hermite_eval(60, 1e5) == float(hermite_rows(np.array(1e5), 60)[60])


def test_eval_is_bitwise_a_row_of_the_table():
    # hermite_eval runs the table's one-value recurrence on Python floats:
    # every finite value is the table's to the bit, for float, int and
    # numpy scalar points
    rng = np.random.default_rng(3)
    points = [0.0, -0.0, 5e-324, 1.0, -2.5, 7, np.float64(0.3)] + list(rng.normal(size=20) * 6)
    for x in points:
        table = hermite_rows(np.array(x, dtype=float), 64)
        for n in range(65):
            assert np.float64(hermite_eval(n, x)).tobytes() == table[n].tobytes()


def test_mean_of_hermite_is_zero():
    for n in range(1, 9):
        assert abs(expect_1d(lambda x, n=n: hermite_np(n, x))) < 1e-9


def test_factorial_table_and_caps():
    assert factorial(0) == 1.0
    assert factorial(5) == 120.0
    assert factorial(ORDER_LIMIT) > 0
    with pytest.raises(OrderOverflowError):
        factorial(ORDER_LIMIT + 1)
    with pytest.raises(ValueError):
        factorial(-1)


def test_eval_order_cap():
    with pytest.raises(OrderOverflowError):
        hermite_eval(65, 0.5)
    assert hermite_eval(65, 0.5, max_order=70) == hermite_eval(65, 0.5, max_order=65)
    with pytest.raises(ValueError):
        hermite_eval(-2, 0.0)
