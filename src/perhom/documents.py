"""Bit-exact JSON documents for every value the tools exchange.

Canonical serialization: UTF-8, sorted keys, no insignificant whitespace,
one trailing newline.  Rational entries are strings "a/b" or "a"; prime
field entries are integers in [0, p).  On input an entry follows the
scalar grammar of `linalg.Field.coerce`: a rational string matches
``-?[0-9]+(/[0-9]+)?``, a residue may also be a string matching
``-?[0-9]+``, and JSON integers are accepted for both; floats are
rejected, and an entry error is coerce's message after the entry's
pointer.  Unknown object keys are rejected; every error carries a
JSON-pointer path.

Matrices go both ways at array speed.  On output a `Matrix` stands where
it goes in a document body, and `canonical_json_bytes` writes it from
``Matrix.array`` as ``json.dumps`` writes its `matrix_doc`.  One boolean
scan of a matrix of more than 64 cells gives the flat positions of its
nonzero entries.  A sparse matrix is written as bytes: slices of the text
of the zero matrix of its shape, with the encoded entries at offsets read
off those positions, and the document is joined once from these pieces
and the encoded text around them.  A dense matrix goes through
`matrix_doc`, which reads the array too.  On input each matrix is checked
and converted at once: over F_p a type check of every entry and one int64
array; over QQ one regex check of the comma-joined entries, then their
numerators and denominators as ints, brought over one denominator, with
no `Fraction` per entry.  A matrix that fails that conversion is walked
entry by entry, which raises the error with its pointer, so a malformed
document gets the same error either way.  The fields differ only where
single entries are encoded and decoded.
"""

from __future__ import annotations

import json
import math
import re
from itertools import chain

import numpy as np

from .complexes import BoundedComplex, ChainMap, chain_map
from .graded import Algebra, FlagData, GradedModule
from .linalg import _RATIONAL, Field, Matrix, _residues, _wrap
from .periodic import PeriodicComplex

__all__ = [
    "DocumentError",
    "canonical_json_bytes",
    "document_dict",
    "matrix_doc",
    "parse_document",
    "serialize_document",
]

# Rational strings joined by commas, and the denominator of one.
_RATIONAL_ROW = re.compile(f"{_RATIONAL.pattern}(,{_RATIONAL.pattern})*")
_DENOMINATOR = re.compile(r"/[0-9]+")
# What json.dumps writes for the placeholder string of a sparse matrix.
_SLOT = "\0"
_SLOT_TEXT = json.dumps(_SLOT)


class DocumentError(ValueError):
    """Schema violation located by a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer or "/"
        self.message = message
        super().__init__(f"{self.pointer}: {message}")


def _dumps(value, default) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False, default=default)


def _matrix_of(obj) -> Matrix:
    """``obj`` if it is a `Matrix`, else the TypeError of json.dumps."""
    if type(obj) is not Matrix:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    return obj


def canonical_json_bytes(value) -> bytes:
    """``json.dumps(value, sort_keys=True, separators=(",", ":"),
    allow_nan=False)`` and a newline, as UTF-8, with each `Matrix` in
    ``value`` written as its `matrix_doc`.

    A value takes one ``json.dumps`` call, which writes a dense matrix from
    its `matrix_doc` and a sparse one as the placeholder ``"\\u0000"``.  A
    matrix of more than 64 cells is scanned once, for the flat positions of
    its nonzero entries, which both decide whether it is sparse and place
    its entries.  The document is then put together as bytes: the encoded
    text between placeholders, and for each sparse matrix the slices of its
    zero template and its encoded entries, in output order, joined once.
    If a string of the value is written the same way, there are more
    placeholders than sparse matrices, and the value is written again with
    every matrix from its `matrix_doc`.
    """
    sparse = []

    def fill(obj):
        m = _matrix_of(obj)
        # Splicing costs about as much per nonzero entry as json.dumps of
        # matrix_doc per four cells, and as much per matrix as 64 cells.
        # Measured on this route: over F_p the two cost the same at about
        # cells / 4 nonzero entries from 40 x 40 up, and at 10-20 on
        # 12 x 12; over QQ, whose dense entries cost more, at about
        # cells / 3 (numpy 2.4, Python 3.11, one core of a 2-vCPU Xeon VM).
        # Both routes write the same bytes, so the constants set only the
        # speed.  A matrix of at most 64 cells is dense without a scan.
        if m.array.size > 64:
            flat = np.flatnonzero(m.array != 0)
            if 4 * len(flat) + 64 < m.array.size:
                sparse.append((m, flat))
                return _SLOT
        return matrix_doc(m)

    text = _dumps(value, fill)
    if sparse:
        parts = text.split(_SLOT_TEXT)
        if len(parts) == len(sparse) + 1:
            pieces = [parts[0].encode()]
            for (m, flat), part in zip(sparse, parts[1:]):
                _splice(pieces, m, flat)
                pieces.append(part.encode())
            pieces.append(b"\n")
            return b"".join(pieces)
        text = _dumps(value, lambda obj: matrix_doc(_matrix_of(obj)))
    return (text + "\n").encode("utf-8")


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
    try:
        return field.coerce(value)
    except (TypeError, ValueError) as exc:
        raise DocumentError(ptr, str(exc)) from None


def _parse_matrix(field: Field, value, rows: int, cols: int, ptr: str) -> Matrix:
    """The rows x cols matrix of ``value``, converted at once if it can be,
    else walked entry by entry, which raises the error."""
    m = _convert_matrix(field, value, rows, cols)
    return _walk_matrix(field, value, rows, cols, ptr) if m is None else m


def _convert_matrix(field: Field, value, rows: int, cols: int) -> Matrix | None:
    """The matrix of a well-formed body, converted at once, or None: over
    F_p when every entry is an int, over QQ when every entry is a rational
    string or an int, and the shape and denominators check out."""
    if type(value) is not list or len(value) != rows or not set(map(type, value)) <= {list}:
        return None
    if not set(map(len, value)) <= {cols}:
        return None
    flat = list(chain.from_iterable(value))
    kinds = set(map(type, flat))
    if field.p is not None:
        if not kinds <= {int}:
            return None
        return _wrap(field, _residues(flat, field.p).reshape(rows, cols))
    if not kinds <= {str, int}:
        return None
    try:  # int() fails past Python's int digit limit
        text = ",".join(map(str, flat))
        # A comma inside an entry would split it in two.
        if flat and not (_RATIONAL_ROW.fullmatch(text) and text.count(",") == len(flat) - 1):
            return None
        nums = list(map(int, _DENOMINATOR.sub("", text).split(","))) if flat else []
        dens = [int(x.partition("/")[2] or 1) for x in text.split(",")] if "/" in text else [1]
    except ValueError:
        return None
    if 0 in dens:
        return None
    den = math.lcm(*dens)
    array = np.array(nums, dtype=object)
    if den != 1:
        array *= den // np.array(dens, dtype=object)
    return _wrap(field, array.reshape(rows, cols), den)


def _walk_matrix(field: Field, value, rows: int, cols: int, ptr: str) -> Matrix:
    """The matrix parsed entry by entry, raising the first error by pointer."""
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


def _entry_docs(field: Field, values: list, den: int) -> list:
    """The document entries of the numerators ``values`` over ``den``: the
    residues themselves over F_p, ``str(Fraction)`` over QQ."""
    if field.p is not None:
        return values
    if den == 1:
        return list(map(str, values))
    out = []
    for x in values:
        g = math.gcd(x, den)
        out.append(f"{x // g}/{den // g}" if g != den else str(x // g))
    return out


def matrix_doc(m: Matrix) -> list:
    """The JSON form of one matrix: rows of encoded entries, taken from
    ``m.array``.  Document writers put the matrix itself in its place,
    which `canonical_json_bytes` writes as the same text, and a sparse
    matrix without these lists."""
    return [_entry_docs(m.field, row, m.den) for row in m.array.tolist()]


def _splice(pieces: list, m: Matrix, flat: np.ndarray) -> None:
    """Append the UTF-8 text of ``matrix_doc(m)`` to ``pieces``: slices of
    the text of the zero matrix of m's shape, and between them the texts of
    the nonzero entries, at the flat positions ``flat``."""
    rows, cols = m.shape
    # No entry text holds a comma, so one dumps of the entries gives them
    # all; its default separators let json.dumps use its shared encoder.
    entries = _entry_docs(m.field, [0] + m.array.take(flat).tolist(), m.den)
    zero, *values = json.dumps(entries).encode()[1:-1].split(b", ")
    row = b"[" + b",".join([zero] * cols) + b"]"
    template = b"[" + b",".join([row] * rows) + b"]"
    # Entry f = i cols + j starts after "[[", i rows and their "],[", and
    # j entries and their commas.
    width = len(zero) + 1
    start = 0
    for at, text in zip((2 + flat * width + 2 * (flat // cols)).tolist(), values):
        pieces += (template[start:at], text)
        start = at + len(zero)
    pieces.append(template[start:])


def _parse_window(value, ptr: str) -> tuple[int, int]:
    w = _expect_list(value, ptr)
    if len(w) != 2:
        raise DocumentError(ptr, "window must be [lo, hi]")
    lo = _expect_int(w[0], f"{ptr}/0")
    hi = _expect_int(w[1], f"{ptr}/1")
    if hi < lo - 1:
        raise DocumentError(ptr, "window upper bound below lower bound")
    return lo, hi


def _parse_dims(value, ptr: str, count: int | None = None) -> tuple[int, ...]:
    """Nonnegative dimensions, exactly ``count`` of them unless it is None."""
    body = _expect_list(value, ptr)
    if count is not None and len(body) != count:
        raise DocumentError(ptr, f"expected {count} dimensions, got {len(body)}")
    dims = []
    for k, d in enumerate(body):
        d = _expect_int(d, f"{ptr}/{k}")
        if d < 0:
            raise DocumentError(f"{ptr}/{k}", "dimensions must be nonnegative")
        dims.append(d)
    return tuple(dims)


def _parse_diffs(field: Field, value, ptr: str, dims: tuple[int, ...], count: int) -> tuple[Matrix, ...]:
    """The `count` differentials at `ptr`; differential k maps dims[k] to
    dims[(k + 1) % len(dims)]."""
    docs = _expect_list(value, ptr)
    if len(docs) != count:
        raise DocumentError(ptr, f"expected {count} differentials")
    return tuple(
        _parse_matrix(field, d, dims[(k + 1) % len(dims)], dims[k], f"{ptr}/{k}") for k, d in enumerate(docs)
    )


def _parse_complex(obj: dict, ptr: str) -> BoundedComplex:
    _expect_object(obj, ptr, {"kind", "field", "window", "dims", "diffs"})
    if obj["kind"] != "complex":
        raise DocumentError(f"{ptr}/kind", "expected 'complex'")
    field = _parse_field(obj["field"], f"{ptr}/field")
    lo, hi = _parse_window(obj["window"], f"{ptr}/window")
    dims = _parse_dims(obj["dims"], f"{ptr}/dims", hi - lo + 1)
    diffs = _parse_diffs(field, obj["diffs"], f"{ptr}/diffs", dims, max(0, len(dims) - 1))
    return BoundedComplex(field, lo, dims, diffs)


def _complex_doc(c: BoundedComplex) -> dict:
    return {
        "kind": "complex",
        "field": _field_doc(c.field),
        "window": [c.lo, c.hi],
        "dims": list(c.dims),
        "diffs": list(c.diffs),
    }


def _parse_periodic(obj: dict, ptr: str) -> PeriodicComplex:
    _expect_object(obj, ptr, {"kind", "field", "n", "dims", "diffs"})
    field = _parse_field(obj["field"], f"{ptr}/field")
    n = _expect_int(obj["n"], f"{ptr}/n")
    if n < 1:
        raise DocumentError(f"{ptr}/n", "period must be at least 1")
    dims = _parse_dims(obj["dims"], f"{ptr}/dims", n)
    return PeriodicComplex(field, n, dims, _parse_diffs(field, obj["diffs"], f"{ptr}/diffs", dims, n))


def _periodic_doc(p: PeriodicComplex) -> dict:
    return {
        "kind": "periodic",
        "field": _field_doc(p.field),
        "n": p.n,
        "dims": list(p.dims),
        "diffs": list(p.diffs),
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
    return chain_map(source, target, comps)


def _chain_map_doc(f: ChainMap) -> dict:
    return {
        "kind": "chain-map",
        "field": _field_doc(f.source.field),
        "source": _complex_doc(f.source),
        "target": _complex_doc(f.target),
        "components": [{"degree": d, "matrix": m} for d, m in f.components],
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
        "actions": [list(family) for family in m.actions],
    }


def _parse_flag(obj: dict, ptr: str) -> FlagData:
    _expect_object(obj, ptr, {"kind", "field", "parts", "blocks"})
    field = _parse_field(obj["field"], f"{ptr}/field")
    parts = _parse_dims(obj["parts"], f"{ptr}/parts")
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
        "blocks": [{"src": s, "dst": d, "matrix": m} for s, d, m in blocks],
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
