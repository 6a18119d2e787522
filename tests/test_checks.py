"""The named identity battery behind the check command."""

import math
from collections import Counter

import numpy as np
import pytest

from wickchaos import checks
from wickchaos.chaos import SymTensor
from wickchaos.checks import CHECKS, CheckRow, run_checks
from wickchaos.multiindex import MultiIndex

EXACT_ROWS = [name for name in CHECKS if not name.endswith("_mc")]


def test_registry_names_are_dsl_safe():
    # every name must lex as a single identifier in `check <name>`
    for name in CHECKS:
        assert name.replace("_", "a").isalnum(), name
        assert not name[0].isdigit()


def test_run_all_returns_ordered_rows():
    rows = run_checks(seed=0, n_samples=500)
    assert [r.identity for r in rows] == list(CHECKS)
    assert all(isinstance(r, CheckRow) for r in rows)
    # per-row seeds are distinct so MC rows draw independent streams
    seeds = [r.seed for r in rows]
    assert len(set(seeds)) == len(seeds)


def test_exact_rows_pass_at_tiny_sample_counts():
    for seed in range(20):
        rows = run_checks(EXACT_ROWS, seed=seed, n_samples=500)
        for row in rows:
            assert row.passed, (seed, row.identity)
            assert row.std_error == 0.0
            assert row.zscore == 0.0
            assert row.estimate <= 1e-9, (seed, row.identity)


# -- the random corpora ---------------------------------------------------------
#
# Each helper draws whole arrays in a fixed order.  The references below
# spell that order out, so a change to the stream (and with it to every
# row's reported gaps at a given seed) shows here first.

CORPUS_SHAPES = [(dim, degree, n) for dim in (1, 2, 3)
                 for degree in range(7) for n in range(7)]


def reference_terms(rng, dim, degree, n_terms):
    """Degrees, then all indices, then all coefficients; a label drawn
    twice sums its coefficients, in first-occurrence order."""
    degrees = rng.integers(0, degree + 1, size=n_terms)
    indices = rng.integers(0, dim, size=int(degrees.sum()))
    coeffs = rng.uniform(-1.0, 1.0, size=n_terms)
    out = {}
    for part, c in zip(np.split(indices, np.cumsum(degrees)[:-1]), coeffs):
        alpha = MultiIndex.from_exponents(Counter(part.tolist()))
        out[alpha] = out.get(alpha, 0.0) + float(c)
    return out


def reference_tensor(rng, dim, order, n_entries):
    """One (n_entries, order) index array, then one value array; a sorted
    tuple drawn twice keeps its last value."""
    index = rng.integers(0, dim, size=(n_entries, order))
    values = rng.uniform(-1.0, 1.0, size=n_entries)
    out = {}
    for row, v in zip(index, values):
        out[tuple(sorted(row.tolist()))] = float(v)
    return out


@pytest.mark.parametrize("seed", range(3))
def test_random_terms_draw_whole_arrays(seed):
    for dim, degree, n in CORPUS_SHAPES:
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = checks._random_terms(got_rng, dim, degree, n)
        want = reference_terms(want_rng, dim, degree, n)
        assert list(got.items()) == list(want.items()), (dim, degree, n)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(3))
def test_random_tensor_draws_whole_arrays(seed):
    for dim, order, n in CORPUS_SHAPES:
        got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = checks.random_tensor(got_rng, dim, order, n)
        want = reference_tensor(want_rng, dim, order, n)
        assert got == SymTensor(dim, order, want), (dim, order, n)
        assert list(got.values.items()) == list(want.items()), (dim, order, n)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_random_variances_are_bitwise_the_scalar_draws():
    # PCG64 hands out one 64-bit word per double, sized call or not
    for seed in range(20):
        for dim in range(7):
            got_rng, want_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got = checks.random_variances(got_rng, dim)
            want = [float(want_rng.uniform(0.3, 2.0)) for _ in range(dim)]
            assert got == want and all(type(v) is float for v in got)
            assert got_rng.bit_generator.state == want_rng.bit_generator.state


def test_report_obj_shape():
    row = run_checks(["chaos_isometry"], seed=0, n_samples=500)[0]
    obj = row.report_obj()
    assert list(obj) == ["identity", "exact", "estimate", "std_error",
                         "zscore", "seed"]
    assert obj["identity"] == "chaos_isometry"
    assert obj["exact"] == 0.0


def test_selected_subset_and_unknown_name():
    rows = run_checks(["moment_identity", "translation_laws"], seed=1,
                      n_samples=500)
    assert [r.identity for r in rows] == ["moment_identity", "translation_laws"]
    with pytest.raises(KeyError):
        run_checks(["no_such_identity"], seed=0, n_samples=500)


def test_mc_rows_report_positive_se():
    rows = run_checks(["mean_zero_mc", "second_moment_mc"], seed=0,
                      n_samples=20000)
    for row in rows:
        assert row.std_error > 0
        assert row.passed
        assert abs(row.zscore) <= 3.0


def test_tolerance_is_enforced():
    # an impossible tolerance flips exact rows to failed
    rows = run_checks(["wick_exp_series_closed"], seed=0, n_samples=500,
                      tolerance=1e-30)
    assert not rows[0].passed


def test_nan_gap_fails_its_row(monkeypatch):
    # max(gap, nan) is gap, so a plain max fold would pass this row
    monkeypatch.setattr(checks, "coeff_distance", lambda F, G: math.nan)
    row = run_checks(["wick_convolution_vs_malliavin"], seed=0, n_samples=500)[0]
    assert math.isnan(row.estimate)
    assert not row.passed


def test_nan_gap_is_not_folded_away(monkeypatch):
    # a NaN yielded before larger finite gaps still decides the row
    monkeypatch.setitem(checks._EXACT, "chaos_isometry",
                        lambda rng: iter([0.5, math.nan, 2.0]))
    row = run_checks(["chaos_isometry"], seed=0, n_samples=500, tolerance=10.0)[0]
    assert math.isnan(row.estimate) and not row.passed


@pytest.mark.parametrize("seed", range(5))
def test_every_exact_row_yields_a_gap(seed):
    # an empty generator would report 0.0 and pass
    for idx, name in enumerate(CHECKS):
        if name in checks._EXACT:
            rng = np.random.default_rng(seed + 101 * idx)
            assert next(checks._EXACT[name](rng), None) is not None, name


def test_registries_join_to_checks():
    assert not set(checks._EXACT) & set(checks._MONTE_CARLO)
    joined = list(checks._EXACT.items()) + list(checks._MONTE_CARLO.items())
    assert joined == list(CHECKS.items())
    assert EXACT_ROWS == list(checks._EXACT)


def test_deterministic_given_seed():
    a = run_checks(["stransform_pairing_mc"], seed=5, n_samples=5000)[0]
    b = run_checks(["stransform_pairing_mc"], seed=5, n_samples=5000)[0]
    assert a.estimate == b.estimate and a.std_error == b.std_error


@pytest.mark.heavy
def test_full_battery_default_samples():
    rows = run_checks(seed=0, n_samples=10 ** 6)
    assert all(r.passed for r in rows)
