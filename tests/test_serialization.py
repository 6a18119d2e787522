"""JSON schemas: strict parsing, bitwise roundtrips, error paths."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wickchaos.chaos import ChaosVector
from wickchaos.errors import DomainError, SchemaError
from wickchaos.multiindex import EMPTY, MultiIndex
from wickchaos.renormalization import PolySeries
from wickchaos.serialization import (chaos_from_obj, chaos_to_obj, dumps,
                                     loads_chaos, loads_poly, loads_tensor,
                                     poly_from_obj, poly_to_obj, tensor_from_obj,
                                     tensor_to_obj)
from wickchaos.tensors import SymTensor


def random_chaos(rng, dim, degree, n_terms=6):
    terms = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        alpha = MultiIndex.from_indices(tuple(rng.integers(0, dim, size=d)))
        terms[alpha] = terms.get(alpha, 0.0) + float(rng.normal())
    return ChaosVector(dim, degree, terms, prune=0.0)


def random_tensor(rng, dim, order, n_terms=4):
    vals = {}
    for _ in range(n_terms):
        t = tuple(sorted(rng.integers(0, dim, size=order)))
        vals[t] = float(rng.normal())
    return SymTensor(dim, order, vals, prune=0.0)


def random_poly(rng, dim, degree, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        d = int(rng.integers(0, degree + 1))
        alpha = MultiIndex.from_indices(tuple(rng.integers(0, dim, size=d)))
        terms[alpha] = terms.get(alpha, 0.0) + float(rng.normal())
    return PolySeries(dim, terms, degree)


def test_golden_chaos_document():
    text = '{"dim": 1, "max_order": 4, "terms": [{"alpha": [[1, 2]], "coeff": 1}]}'
    F = loads_chaos(text)
    assert F.dim == 1 and F.max_order == 4
    assert F.terms == {MultiIndex([(0, 2)]): 1.0}


def test_chaos_obj_shape():
    F = ChaosVector(2, 3, {MultiIndex([(0, 1), (1, 2)]): 2.5, EMPTY: -1.0})
    obj = chaos_to_obj(F)
    assert set(obj) == {"dim", "max_order", "terms"}
    assert obj["dim"] == 2 and obj["max_order"] == 3
    # 1-based wire indices, ascending
    assert {"alpha": [[1, 1], [2, 2]], "coeff": 2.5} in obj["terms"]
    assert {"alpha": [], "coeff": -1.0} in obj["terms"]


def test_roundtrips_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(300):
        F = random_chaos(rng, int(rng.integers(1, 5)), int(rng.integers(0, 7)))
        text = dumps(F)
        G = loads_chaos(text)
        assert G == F
        assert dumps(G) == text
    for _ in range(150):
        f = random_tensor(rng, int(rng.integers(1, 4)), int(rng.integers(0, 5)))
        text = dumps(f)
        g = loads_tensor(text)
        assert g == f
        assert dumps(g) == text
    for _ in range(150):
        p = random_poly(rng, int(rng.integers(1, 4)), int(rng.integers(0, 6)))
        text = dumps(p)
        q = loads_poly(text)
        assert q == p
        assert dumps(q) == text


def test_dumps_is_json():
    rng = np.random.default_rng(1)
    F = random_chaos(rng, 2, 3)
    doc = json.loads(dumps(F))
    assert doc == chaos_to_obj(F)
    pretty = dumps(F, indent=2)
    assert json.loads(pretty) == doc
    assert "\n" in pretty


def err(fn, text):
    with pytest.raises(SchemaError) as e:
        fn(text)
    return str(e.value)


def test_malformed_json():
    msg = err(loads_chaos, "{not json")
    assert "$" in msg


def test_non_finite_coefficients_rejected():
    # JSON parsers accept NaN; neither store may hold it
    with pytest.raises(DomainError):
        loads_chaos('{"dim": 1, "max_order": 2, "terms": [{"alpha": [[1, 1]], "coeff": NaN}]}')
    with pytest.raises(DomainError):
        loads_poly('{"dim": 1, "truncation": 2, "terms": [{"exps": [[1, 1]], "coeff": NaN}]}')


def test_missing_and_unknown_fields():
    msg = err(loads_chaos, '{"dim": 1, "terms": []}')
    assert "max_order" in msg
    msg = err(loads_chaos,
              '{"dim": 1, "max_order": 2, "terms": [], "extra": 1}')
    assert "extra" in msg
    msg = err(loads_tensor, '{"dim": 1, "order": 1}')
    assert "values" in msg


def test_type_errors_name_paths():
    msg = err(loads_chaos, '{"dim": "1", "max_order": 2, "terms": []}')
    assert "dim" in msg
    # booleans are not integers on the wire
    msg = err(loads_chaos, '{"dim": true, "max_order": 2, "terms": []}')
    assert "dim" in msg
    msg = err(loads_chaos,
              '{"dim": 1, "max_order": 2, "terms": [{"alpha": [], "coeff": "x"}]}')
    assert "terms[0].coeff" in msg


def test_alpha_validation():
    base = '{"dim": 2, "max_order": 6, "terms": [%s]}'
    # 0 index: the wire format is 1-based
    msg = err(loads_chaos, base % '{"alpha": [[0, 1]], "coeff": 1}')
    assert "alpha" in msg
    # out of range
    msg = err(loads_chaos, base % '{"alpha": [[3, 1]], "coeff": 1}')
    assert "alpha" in msg
    # zero multiplicity
    msg = err(loads_chaos, base % '{"alpha": [[1, 0]], "coeff": 1}')
    assert "alpha" in msg
    # unsorted pairs
    msg = err(loads_chaos, base % '{"alpha": [[2, 1], [1, 1]], "coeff": 1}')
    assert "alpha" in msg
    # duplicate index
    msg = err(loads_chaos, base % '{"alpha": [[1, 1], [1, 2]], "coeff": 1}')
    assert "alpha" in msg
    # degree beyond max_order
    msg = err(loads_chaos,
              '{"dim": 1, "max_order": 2, "terms": [{"alpha": [[1, 3]], "coeff": 1}]}')
    assert "terms[0]" in msg


def test_duplicate_terms_rejected():
    text = ('{"dim": 1, "max_order": 2, "terms": ['
            '{"alpha": [[1, 1]], "coeff": 1}, {"alpha": [[1, 1]], "coeff": 2}]}')
    msg = err(loads_chaos, text)
    assert "terms[1]" in msg


def test_poly_reader_names_paths():
    base = '{"dim": 1, "truncation": %s, "terms": [%s]}'
    one = '{"exps": [[1, 1]], "coeff": 1}'
    # duplicate term, degree over truncation, negative truncation
    msg = err(loads_poly, base % (2, one + ", " + one))
    assert msg.startswith("terms[1].exps:")
    msg = err(loads_poly, base % (2, '{"exps": [[1, 3]], "coeff": 1}'))
    assert msg.startswith("terms[0].exps:")
    msg = err(loads_poly, base % (-1, ""))
    assert msg.startswith("truncation:")


@pytest.mark.parametrize("load, cap, body", [(chaos_from_obj, "max_order", "terms"),
                                             (poly_from_obj, "truncation", "terms"),
                                             (tensor_from_obj, "order", "values")],
                         ids=["chaos", "poly", "tensor"])
@pytest.mark.parametrize("path", ["", "doc"])
def test_document_headers_name_their_paths(load, cap, body, path):
    pre = f"{path}." if path else ""

    def msg(doc):
        with pytest.raises(SchemaError) as info:
            load(doc, path)
        return str(info.value)

    good = {"dim": 1, cap: 2, body: []}
    assert msg([]) == f"{path}: expected an object, got list"
    assert msg({"dim": 1, cap: 2}) == f"{path or body}: missing field {body!r}"
    assert msg({**good, "extra": 1}) == f"{pre}extra: unknown field 'extra'"
    assert msg({**good, "dim": 0}) == f"{pre}dim: dim must be >= 1"
    assert msg({**good, "dim": 1.0}) == f"{pre}dim: expected an integer, got 1.0"
    assert msg({**good, cap: -1}) == f"{pre}{cap}: {cap} must be >= 0"
    assert msg({**good, cap: True}) == f"{pre}{cap}: expected an integer, got True"
    assert msg({**good, body: {}}) == f"{pre}{body}: expected an array, got dict"


def test_tensor_index_validation():
    base = '{"dim": 2, "order": 2, "values": [%s]}'
    msg = err(loads_tensor, base % '{"index": [1], "value": 1}')
    assert "index" in msg
    msg = err(loads_tensor, base % '{"index": [2, 1], "value": 1}')
    assert "index" in msg
    msg = err(loads_tensor, base % '{"index": [1, 3], "value": 1}')
    assert "index" in msg
    f = loads_tensor(base % '{"index": [1, 2], "value": 0.5}')
    assert f.value((0, 1)) == 0.5


def test_tiny_coefficients_survive():
    F = ChaosVector(1, 1, {MultiIndex([(0, 1)]): 1e-30}, prune=0.0)
    assert loads_chaos(dumps(F)) == F


def test_seventeen_digit_fidelity():
    # irrational coefficients roundtrip exactly through repr-style floats
    F = ChaosVector(1, 2, {MultiIndex([(0, 2)]): float(np.pi) / 3.0}, prune=0.0)
    assert loads_chaos(dumps(F)).coeff(MultiIndex([(0, 2)])) == float(np.pi) / 3.0


# -- generated values ----------------------------------------------------------------

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True, database=None)

# any finite nonzero double, subnormals included
finite = st.floats(allow_nan=False, allow_infinity=False).filter(bool)


@st.composite
def labels(draw, dim, degree):
    d = draw(st.integers(0, degree))
    return MultiIndex.from_indices(draw(st.lists(st.integers(0, dim - 1), min_size=d, max_size=d)))


@st.composite
def stores(draw, cls):
    dim, degree = draw(st.integers(1, 4)), draw(st.integers(0, 6))
    terms = draw(st.dictionaries(labels(dim, degree), finite, max_size=6))
    if cls is PolySeries:
        return PolySeries(dim, terms, degree)
    return ChaosVector(dim, degree, terms, prune=0.0)


@st.composite
def sym_tensors(draw):
    dim, order = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    index = st.lists(st.integers(0, dim - 1), min_size=order, max_size=order).map(
        lambda t: tuple(sorted(t)))  # one key per sorted tuple: nothing sums, nothing overflows
    return SymTensor(dim, order, draw(st.dictionaries(index, finite, max_size=6)), prune=0.0)


def assert_roundtrip(value, loads):
    text = dumps(value)
    back = loads(text)
    assert back == value
    assert dumps(back) == text
    got = back.values if isinstance(back, SymTensor) else back.terms
    want = value.values if isinstance(value, SymTensor) else value.terms
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}


@SETTINGS
@given(F=stores(ChaosVector))
def test_chaos_roundtrip_property(F):
    assert_roundtrip(F, loads_chaos)


@SETTINGS
@given(p=stores(PolySeries))
def test_poly_roundtrip_property(p):
    assert_roundtrip(p, loads_poly)


@SETTINGS
@given(f=sym_tensors())
def test_tensor_roundtrip_property(f):
    assert_roundtrip(f, loads_tensor)
