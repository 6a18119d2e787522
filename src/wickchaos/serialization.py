"""Strict JSON serialization for the three value types.

Schemas (all indices 1-based on the wire, 0-based in memory):

    ChaosVector  {"dim": d, "max_order": m,
                  "terms": [{"alpha": [[i, k], ...], "coeff": c}, ...]}
    SymTensor    {"dim": d, "order": n,
                  "values": [{"index": [i, ...], "value": v}, ...]}
    PolySeries   {"dim": d, "truncation": K,
                  "terms": [{"exps": [[i, n], ...], "coeff": a}, ...]}

Deserialization is strict: unknown or missing fields, wrong types, bad
indices, and duplicate entries all raise SchemaError naming the JSON path
of the offense.  Term lists are emitted in a canonical order (degree, then
lexicographic) and floats use the shortest exact decimal form, so dump and
load compose to the identity on term maps, bit for bit.
"""

from __future__ import annotations

import json
from typing import Any

from .chaos import ChaosVector, SymTensor
from .errors import SchemaError
from .multiindex import MultiIndex
from .renormalization import PolySeries


def _require_object(obj: Any, path: str, allowed: tuple[str, ...]) -> dict:
    if not isinstance(obj, dict):
        raise SchemaError(f"expected an object, got {type(obj).__name__}", path)
    for key in obj:
        if key not in allowed:
            raise SchemaError(f"unknown field {key!r}", f"{path}.{key}" if path else key)
    for key in allowed:
        if key not in obj:
            raise SchemaError(f"missing field {key!r}", path or key)
    return obj


def _require_int(v: Any, path: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise SchemaError(f"expected an integer, got {v!r}", path)
    return v


def _require_number(v: Any, path: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise SchemaError(f"expected a number, got {v!r}", path)
    return float(v)


def _require_list(v: Any, path: str) -> list:
    if not isinstance(v, list):
        raise SchemaError(f"expected an array, got {type(v).__name__}", path)
    return v


def _parse_exponent_pairs(raw: Any, dim: int, path: str) -> MultiIndex:
    """[[index, count], ...] with 1-based, strictly increasing indices."""
    items = _require_list(raw, path)
    entries = []
    last = 0
    for j, pair in enumerate(items):
        ppath = f"{path}[{j}]"
        pair = _require_list(pair, ppath)
        if len(pair) != 2:
            raise SchemaError("expected an [index, count] pair", ppath)
        i = _require_int(pair[0], f"{ppath}[0]")
        k = _require_int(pair[1], f"{ppath}[1]")
        if not 1 <= i <= dim:
            raise SchemaError(f"index {i} outside 1..{dim}", f"{ppath}[0]")
        if i <= last:
            raise SchemaError(f"indices must be strictly increasing, got {i}", f"{ppath}[0]")
        if k < 1:
            raise SchemaError(f"count must be >= 1, got {k}", f"{ppath}[1]")
        last = i
        entries.append((i - 1, k))
    return MultiIndex(tuple(entries))


def _header(obj: Any, path: str, cap: str, body: str) -> tuple[dict, str, int, int]:
    """The object of fields dim, cap and body, its fields' path prefix, dim and cap."""
    top = _require_object(obj, path, ("dim", cap, body))
    pre = f"{path}." if path else ""
    dim = _require_int(top["dim"], f"{pre}dim")
    if dim < 1:
        raise SchemaError("dim must be >= 1", f"{pre}dim")
    order = _require_int(top[cap], f"{pre}{cap}")
    if order < 0:
        raise SchemaError(f"{cap} must be >= 0", f"{pre}{cap}")
    return top, pre, dim, order


# -- ChaosVector and PolySeries: one codec ----------------------------------


def _store_to_obj(F: ChaosVector | PolySeries, cap: str, label: str) -> dict:
    terms = [{label: [[i + 1, k] for i, k in a.entries], "coeff": c}
             for a, c in sorted(F.items(), key=lambda kv: kv[0].sort_key())]
    return {"dim": F.dim, cap: F.max_order, "terms": terms}


def _store_from_obj(obj: Any, path: str, cls: type[ChaosVector] | type[PolySeries],
                    cap: str, label: str) -> ChaosVector | PolySeries:
    """Read a store document whose degree cap is the field cap and whose
    terms carry their multi-index in the field label."""
    top, pre, dim, order = _header(obj, path, cap, "terms")
    terms: dict[MultiIndex, float] = {}
    for j, item in enumerate(_require_list(top["terms"], f"{pre}terms")):
        tpath = f"{pre}terms[{j}]"
        entry = _require_object(item, tpath, (label, "coeff"))
        alpha = _parse_exponent_pairs(entry[label], dim, f"{tpath}.{label}")
        if alpha.degree > order:
            raise SchemaError(f"degree {alpha.degree} exceeds {cap} {order}",
                              f"{tpath}.{label}")
        if alpha in terms:
            raise SchemaError("duplicate multi-index", f"{tpath}.{label}")
        terms[alpha] = _require_number(entry["coeff"], f"{tpath}.coeff")
    return cls._trusted(dim, order, terms)


def chaos_to_obj(F: ChaosVector) -> dict:
    return _store_to_obj(F, "max_order", "alpha")


def chaos_from_obj(obj: Any, path: str = "") -> ChaosVector:
    return _store_from_obj(obj, path, ChaosVector, "max_order", "alpha")


def poly_to_obj(p: PolySeries) -> dict:
    return _store_to_obj(p, "truncation", "exps")


def poly_from_obj(obj: Any, path: str = "") -> PolySeries:
    return _store_from_obj(obj, path, PolySeries, "truncation", "exps")


# -- SymTensor ----------------------------------------------------------------


def tensor_to_obj(f: SymTensor) -> dict:
    rows = [{"index": [i + 1 for i in t], "value": v}
            for t, v in sorted(f.values.items())]
    return {"dim": f.dim, "order": f.order, "values": rows}


def tensor_from_obj(obj: Any, path: str = "") -> SymTensor:
    top, pre, dim, order = _header(obj, path, "order", "values")
    values: dict[tuple[int, ...], float] = {}
    for j, item in enumerate(_require_list(top["values"], f"{pre}values")):
        vpath = f"{pre}values[{j}]"
        entry = _require_object(item, vpath, ("index", "value"))
        raw = _require_list(entry["index"], f"{vpath}.index")
        if len(raw) != order:
            raise SchemaError(f"expected {order} indices, got {len(raw)}",
                              f"{vpath}.index")
        t = []
        last = 0
        for m, iv in enumerate(raw):
            i = _require_int(iv, f"{vpath}.index[{m}]")
            if not 1 <= i <= dim:
                raise SchemaError(f"index {i} outside 1..{dim}", f"{vpath}.index[{m}]")
            if i < last:
                raise SchemaError("indices must be sorted", f"{vpath}.index[{m}]")
            last = i
            t.append(i - 1)
        key = tuple(t)
        if key in values:
            raise SchemaError("duplicate index tuple", f"{vpath}.index")
        values[key] = _require_number(entry["value"], f"{vpath}.value")
    return SymTensor(dim, order, values)


# -- text level ----------------------------------------------------------------


def dumps(value: ChaosVector | SymTensor | PolySeries, indent: int | None = None) -> str:
    if isinstance(value, ChaosVector):
        obj = chaos_to_obj(value)
    elif isinstance(value, SymTensor):
        obj = tensor_to_obj(value)
    elif isinstance(value, PolySeries):
        obj = poly_to_obj(value)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")
    return json.dumps(obj, indent=indent)


def _loads_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise SchemaError(f"malformed JSON: {e.msg}", "$") from None


def loads_chaos(text: str) -> ChaosVector:
    return chaos_from_obj(_loads_json(text))


def loads_tensor(text: str) -> SymTensor:
    return tensor_from_obj(_loads_json(text))


def loads_poly(text: str) -> PolySeries:
    return poly_from_obj(_loads_json(text))
