import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickchaos.multiindex import EMPTY, MultiIndex


def test_canonicalization():
    a = MultiIndex([(3, 1), (0, 2), (3, 2)])
    assert a.entries == ((0, 2), (3, 3))
    assert a.degree == 5
    # zero multiplicities vanish
    assert MultiIndex([(1, 0)]) == EMPTY
    assert EMPTY.degree == 0
    assert EMPTY.entries == ()


def test_constructors_roundtrip():
    a = MultiIndex.from_indices((2, 0, 2, 2))
    assert a == MultiIndex.from_exponents({0: 1, 2: 3})
    assert a.to_indices() == (0, 2, 2, 2)
    rng = np.random.default_rng(3)
    for _ in range(100):
        idx = tuple(sorted(rng.integers(0, 5, size=rng.integers(0, 7))))
        assert MultiIndex.from_indices(idx).to_indices() == idx


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(idx=st.lists(st.integers(0, 12), max_size=10))
def test_from_indices_matches_the_checked_constructor(idx):
    want = MultiIndex((i, 1) for i in idx)
    for form in (tuple(idx), idx[::-1], np.array(idx, dtype=np.int64), iter(idx)):
        got = MultiIndex.from_indices(form)
        assert got == want and hash(got) == hash(want)
        assert (got.entries, got.degree) == (want.entries, want.degree)
        assert all(type(i) is int and type(m) is int for i, m in got.entries)


def test_from_indices_edges():
    assert MultiIndex.from_indices(()) == EMPTY
    assert MultiIndex.from_indices(()).degree == 0
    with pytest.raises(ValueError):
        MultiIndex.from_indices((0, -1, 2))
    with pytest.raises(ValueError):
        MultiIndex.from_indices(np.array([3, -2]))


def test_immutable_and_hashable():
    a = MultiIndex([(0, 1)])
    with pytest.raises(AttributeError):
        a.degree = 7
    assert len({a, MultiIndex([(0, 1)]), EMPTY}) == 2
    # the trusted constructor hashes like the checked one
    b = MultiIndex._canonical(((0, 1),), 1)
    assert hash(b) == hash(a) == hash(a.entries) and {a: 1}[b] == 1
    with pytest.raises(AttributeError):
        a._hash = 0


def test_validation():
    with pytest.raises(ValueError):
        MultiIndex([(-1, 2)])
    with pytest.raises(ValueError):
        MultiIndex([(0, -1)])


def test_add_and_multiplicity():
    a = MultiIndex([(0, 2), (1, 1)])
    b = MultiIndex([(1, 2), (4, 1)])
    s = a + b
    assert s.entries == ((0, 2), (1, 3), (4, 1))
    assert s.degree == a.degree + b.degree
    assert s.multiplicity(1) == 3
    assert s.multiplicity(9) == 0


def test_decremented():
    a = MultiIndex([(0, 2)])
    assert a.decremented(0) == MultiIndex([(0, 1)])
    assert a.decremented(0).decremented(0) == EMPTY
    with pytest.raises(ValueError):
        a.decremented(1)
    # the canonical form the validating constructor gives, at any position
    b = MultiIndex([(1, 1), (4, 3), (7, 2)])
    for idx, want in ((1, [(4, 3), (7, 2)]), (4, [(1, 1), (4, 2), (7, 2)]),
                      (7, [(1, 1), (4, 3), (7, 1)])):
        got = b.decremented(idx)
        assert (got.entries, got.degree, hash(got)) == (
            tuple(want), 5, hash(MultiIndex(want))), idx
    with pytest.raises(ValueError):
        b.decremented(5)


def test_factorial_and_max_index():
    a = MultiIndex([(0, 3), (2, 2)])
    assert a.factorial() == math.factorial(3) * math.factorial(2)
    assert a.factorial() == 12.0
    assert EMPTY.factorial() == 1.0
    assert a.max_index() == 2
    assert EMPTY.max_index() == -1


def test_ordering_by_degree_then_entries():
    xs = [MultiIndex([(0, 2)]), EMPTY, MultiIndex([(1, 1)]), MultiIndex([(0, 1)])]
    xs.sort()
    assert xs[0] == EMPTY
    assert [x.degree for x in xs] == [0, 1, 1, 2]
    assert xs[1] == MultiIndex([(0, 1)])
