"""Bit-exact JSON documents for every value the tools exchange.

Canonical serialization: UTF-8, sorted keys, no insignificant whitespace,
one trailing newline.  Rational entries are strings "a/b" or "a"; prime
field entries are integers in [0, p).  On input a rational string must
match ``-?[0-9]+(/[0-9]+)?`` and a residue may also be a string matching
``-?[0-9]+`` (ASCII digits, no spaces, underscores, decimal points or
exponents), and JSON integers are accepted for both.  Floats are rejected
everywhere.  Unknown object keys are rejected; every error carries a
JSON-pointer path.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .complexes import BoundedComplex, ChainMap, chain_map
from .graded import Algebra, FlagData, GradedModule
from .linalg import Field, Matrix, ShapeError
from .periodic import PeriodicComplex

__all__ = [
    "DocumentError",
    "canonical_json_bytes",
    "document_dict",
    "matrix_doc",
    "parse_document",
    "serialize_document",
]

_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")
_RESIDUE = re.compile(r"-?[0-9]+")


class DocumentError(ValueError):
    """Schema violation located by a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        self.message = message
        super().__init__(f"{self.pointer}: {message}")


def canonical_json_bytes(value) -> bytes:
    return (json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")


def _expect_object(value, ptr: str, allowed: set[str], required: set[str] | None = None) -> dict:
    """``value`` as an object with keys from ``allowed`` and every key of
    ``required`` (by default all of ``allowed``).  Keys are checked in a
    fixed order, so the error does not depend on the hash seed."""
    if not isinstance(value, dict):
        raise DocumentError(ptr, "expected an object")
    for key in value:
        if key not in allowed:
            raise DocumentError(f"{ptr}/{key}", "unknown field")
    for key in sorted(allowed if required is None else required):
        if key not in value:
            raise DocumentError(ptr, f"missing field {key!r}")
    return value


def _expect_int(value, ptr: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(ptr, "expected an integer")
    return value


def _expect_list(value, ptr: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(ptr, "expected an array")
    return value


def _parse_field(value, ptr: str) -> Field:
    obj = _expect_object(value, ptr, {"rationals", "fp"}, set())
    if "rationals" in obj and "fp" in obj:
        raise DocumentError(ptr, "field must be either rational or prime, not both")
    if "rationals" in obj:
        if obj["rationals"] is not True:
            raise DocumentError(f"{ptr}/rationals", "must be true")
        return Field()
    if "fp" in obj:
        p = _expect_int(obj["fp"], f"{ptr}/fp")
        try:
            return Field(p)
        except ValueError as exc:
            raise DocumentError(f"{ptr}/fp", str(exc)) from None
    raise DocumentError(ptr, "field must specify rationals or fp")


def _field_doc(field: Field):
    return {"rationals": True} if field.p is None else {"fp": field.p}


def _parse_entry(field: Field, value, ptr: str):
    if isinstance(value, float):
        raise DocumentError(ptr, "floats are not allowed")
    if field.p is None:
        if isinstance(value, bool) or not isinstance(value, (str, int)):
            raise DocumentError(ptr, "expected a rational string")
        if isinstance(value, int) or _RATIONAL.fullmatch(value):
            # Fails on a zero denominator or past Python's int digit limit.
            try:
                return Fraction(value)
            except (ValueError, ZeroDivisionError):
                pass
        raise DocumentError(ptr, f"not a rational: {value!r}")
    if isinstance(value, str):
        try:
            residue = int(value) if _RESIDUE.fullmatch(value) else None
        except ValueError:  # past Python's int digit limit
            residue = None
        if residue is None:
            raise DocumentError(ptr, f"not a residue: {value!r}")
        value = residue
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(ptr, "expected a residue")
    return value % field.p


def _parse_matrix(field: Field, value, rows: int, cols: int, ptr: str) -> Matrix:
    body = _expect_list(value, ptr)
    if len(body) != rows:
        raise DocumentError(ptr, f"expected {rows} rows, got {len(body)}")
    entries = []
    for i, row in enumerate(body):
        row = _expect_list(row, f"{ptr}/{i}")
        if len(row) != cols:
            raise DocumentError(f"{ptr}/{i}", f"expected {cols} entries, got {len(row)}")
        entries.append(tuple(_parse_entry(field, x, f"{ptr}/{i}/{j}") for j, x in enumerate(row)))
    return Matrix(field, rows, cols, tuple(entries))


def matrix_doc(m: Matrix):
    """The JSON form of one matrix (rows of encoded entries)."""
    if m.field.p is not None:
        return m.array.tolist()
    return [[str(x) for x in row] for row in m.entries]


def _parse_window(value, ptr: str) -> tuple[int, int]:
    w = _expect_list(value, ptr)
    if len(w) != 2:
        raise DocumentError(ptr, "window must be [lo, hi]")
    lo = _expect_int(w[0], f"{ptr}/0")
    hi = _expect_int(w[1], f"{ptr}/1")
    if hi < lo - 1:
        raise DocumentError(ptr, "window upper bound below lower bound")
    return lo, hi


def _parse_dims(value, ptr: str, count: int) -> tuple[int, ...]:
    body = _expect_list(value, ptr)
    if len(body) != count:
        raise DocumentError(ptr, f"expected {count} dimensions, got {len(body)}")
    dims = []
    for k, d in enumerate(body):
        d = _expect_int(d, f"{ptr}/{k}")
        if d < 0:
            raise DocumentError(f"{ptr}/{k}", "dimensions must be nonnegative")
        dims.append(d)
    return tuple(dims)


def _parse_complex(obj: dict, ptr: str) -> BoundedComplex:
    _expect_object(obj, ptr, {"kind", "field", "window", "dims", "diffs"})
    if obj["kind"] != "complex":
        raise DocumentError(f"{ptr}/kind", "expected 'complex'")
    field = _parse_field(obj["field"], f"{ptr}/field")
    lo, hi = _parse_window(obj["window"], f"{ptr}/window")
    dims = _parse_dims(obj["dims"], f"{ptr}/dims", hi - lo + 1)
    diffs_doc = _expect_list(obj["diffs"], f"{ptr}/diffs")
    if len(diffs_doc) != max(0, len(dims) - 1):
        raise DocumentError(f"{ptr}/diffs", f"expected {max(0, len(dims) - 1)} differentials")
    diffs = tuple(
        _parse_matrix(field, d, dims[k + 1], dims[k], f"{ptr}/diffs/{k}") for k, d in enumerate(diffs_doc)
    )
    return BoundedComplex(field, lo, dims, diffs)


def _complex_doc(c: BoundedComplex) -> dict:
    return {
        "kind": "complex",
        "field": _field_doc(c.field),
        "window": [c.lo, c.hi],
        "dims": list(c.dims),
        "diffs": [matrix_doc(m) for m in c.diffs],
    }


def _parse_periodic(obj: dict, ptr: str) -> PeriodicComplex:
    _expect_object(obj, ptr, {"kind", "field", "n", "dims", "diffs"})
    field = _parse_field(obj["field"], f"{ptr}/field")
    n = _expect_int(obj["n"], f"{ptr}/n")
    if n < 1:
        raise DocumentError(f"{ptr}/n", "period must be at least 1")
    dims = _parse_dims(obj["dims"], f"{ptr}/dims", n)
    diffs_doc = _expect_list(obj["diffs"], f"{ptr}/diffs")
    if len(diffs_doc) != n:
        raise DocumentError(f"{ptr}/diffs", f"expected {n} differentials")
    diffs = tuple(
        _parse_matrix(field, d, dims[(k + 1) % n], dims[k], f"{ptr}/diffs/{k}") for k, d in enumerate(diffs_doc)
    )
    return PeriodicComplex(field, n, dims, diffs)


def _periodic_doc(p: PeriodicComplex) -> dict:
    return {
        "kind": "periodic",
        "field": _field_doc(p.field),
        "n": p.n,
        "dims": list(p.dims),
        "diffs": [matrix_doc(m) for m in p.diffs],
    }


def _parse_chain_map(obj: dict, ptr: str) -> ChainMap:
    _expect_object(obj, ptr, {"kind", "field", "source", "target", "components"})
    field = _parse_field(obj["field"], f"{ptr}/field")
    source = _parse_complex(obj["source"], f"{ptr}/source")
    target = _parse_complex(obj["target"], f"{ptr}/target")
    if source.field != field or target.field != field:
        raise DocumentError(f"{ptr}/field", "source and target must share the document field")
    comps = {}
    for k, item in enumerate(_expect_list(obj["components"], f"{ptr}/components")):
        item = _expect_object(item, f"{ptr}/components/{k}", {"degree", "matrix"})
        degree = _expect_int(item["degree"], f"{ptr}/components/{k}/degree")
        if degree in comps:
            raise DocumentError(f"{ptr}/components/{k}/degree", "duplicate degree")
        comps[degree] = _parse_matrix(
            field, item["matrix"], target.dim(degree), source.dim(degree), f"{ptr}/components/{k}/matrix"
        )
    try:
        return chain_map(source, target, comps)
    except ShapeError as exc:
        raise DocumentError(f"{ptr}/components", str(exc)) from None


def _chain_map_doc(f: ChainMap) -> dict:
    return {
        "kind": "chain-map",
        "field": _field_doc(f.source.field),
        "source": _complex_doc(f.source),
        "target": _complex_doc(f.target),
        "components": [{"degree": d, "matrix": matrix_doc(m)} for d, m in f.components],
    }


def _parse_graded_module(obj: dict, ptr: str) -> GradedModule:
    _expect_object(obj, ptr, {"kind", "field", "algebra", "window", "dims", "actions"})
    field = _parse_field(obj["field"], f"{ptr}/field")
    alg_doc = _expect_object(obj["algebra"], f"{ptr}/algebra", {"poly", "ext"}, set())
    if len(alg_doc) != 1:
        raise DocumentError(f"{ptr}/algebra", "algebra must be {'poly': c} or {'ext': c}")
    kind, c = next(iter(alg_doc.items()))
    c = _expect_int(c, f"{ptr}/algebra/{kind}")
    try:
        algebra = Algebra(kind, c)
    except ValueError as exc:
        raise DocumentError(f"{ptr}/algebra/{kind}", str(exc)) from None
    lo, hi = _parse_window(obj["window"], f"{ptr}/window")
    dims = _parse_dims(obj["dims"], f"{ptr}/dims", hi - lo + 1)
    actions_doc = _expect_list(obj["actions"], f"{ptr}/actions")
    if len(actions_doc) != c:
        raise DocumentError(f"{ptr}/actions", f"expected {c} generator families")
    steps = max(0, len(dims) - 1)
    actions = []
    for j, family_doc in enumerate(actions_doc):
        family_doc = _expect_list(family_doc, f"{ptr}/actions/{j}")
        if len(family_doc) != steps:
            raise DocumentError(f"{ptr}/actions/{j}", f"expected {steps} matrices")
        family = []
        for k, m in enumerate(family_doc):
            src, dst = algebra.bridge(k)
            family.append(_parse_matrix(field, m, dims[dst], dims[src], f"{ptr}/actions/{j}/{k}"))
        actions.append(tuple(family))
    return GradedModule(field, algebra, lo, dims, tuple(actions))


def _graded_module_doc(m: GradedModule) -> dict:
    return {
        "kind": "graded-module",
        "field": _field_doc(m.field),
        "algebra": {m.algebra.kind: m.algebra.generators},
        "window": [m.lo, m.hi],
        "dims": list(m.dims),
        "actions": [[matrix_doc(mx) for mx in family] for family in m.actions],
    }


def _parse_flag(obj: dict, ptr: str) -> FlagData:
    _expect_object(obj, ptr, {"kind", "field", "parts", "blocks"})
    field = _parse_field(obj["field"], f"{ptr}/field")
    parts_doc = _expect_list(obj["parts"], f"{ptr}/parts")
    parts = _parse_dims(obj["parts"], f"{ptr}/parts", len(parts_doc))
    blocks = []
    seen = set()
    for k, item in enumerate(_expect_list(obj["blocks"], f"{ptr}/blocks")):
        item = _expect_object(item, f"{ptr}/blocks/{k}", {"src", "dst", "matrix"})
        src = _expect_int(item["src"], f"{ptr}/blocks/{k}/src")
        dst = _expect_int(item["dst"], f"{ptr}/blocks/{k}/dst")
        if not 0 <= dst < src < len(parts):
            raise DocumentError(f"{ptr}/blocks/{k}", "block must sit strictly above the diagonal")
        if (src, dst) in seen:
            raise DocumentError(f"{ptr}/blocks/{k}", "duplicate block")
        seen.add((src, dst))
        m = _parse_matrix(field, item["matrix"], parts[dst], parts[src], f"{ptr}/blocks/{k}/matrix")
        if not m.is_zero():
            blocks.append((src, dst, m))
    blocks.sort(key=lambda t: (t[0], t[1]))
    return FlagData(field, parts, tuple(blocks))


def _flag_doc(f: FlagData) -> dict:
    blocks = sorted(f.blocks, key=lambda t: (t[0], t[1]))
    return {
        "kind": "flag",
        "field": _field_doc(f.field),
        "parts": list(f.parts),
        "blocks": [{"src": s, "dst": d, "matrix": matrix_doc(m)} for s, d, m in blocks],
    }


# Each document kind: the type it parses to, its parser and its serialiser.
_KINDS = {
    "complex": (BoundedComplex, _parse_complex, _complex_doc),
    "periodic": (PeriodicComplex, _parse_periodic, _periodic_doc),
    "chain-map": (ChainMap, _parse_chain_map, _chain_map_doc),
    "graded-module": (GradedModule, _parse_graded_module, _graded_module_doc),
    "flag": (FlagData, _parse_flag, _flag_doc),
}


def parse_document(data):
    """Parse canonical JSON bytes/text into the corresponding value."""
    try:
        if isinstance(data, (bytes, bytearray)):
            data = data.decode("utf-8")
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # Besides JSONDecodeError: UnicodeDecodeError, the plain ValueError
        # of an integer past the int-string digit limit, and RecursionError
        # for nesting deeper than the decoder's stack.
        raise DocumentError("/", f"not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise DocumentError("/", "expected a JSON object")
    kind = obj.get("kind")
    # A kind that is not a string may be unhashable.
    if not isinstance(kind, str) or kind not in _KINDS:
        raise DocumentError("/kind", f"unknown document kind {kind!r}")
    return _KINDS[kind][1](obj, "")


def document_dict(value) -> dict:
    for cls, _, serialise in _KINDS.values():
        if isinstance(value, cls):
            return serialise(value)
    raise TypeError(f"no document form for {type(value).__name__}")


def serialize_document(value) -> bytes:
    """Canonical bytes for a documentable value."""
    return canonical_json_bytes(document_dict(value))
