"""The pointer and message of every `parse_document` error outside the
`complex` kind (whose entry and field errors `test_cli.py` pins through
`cohomology`) and of the schema errors of the shared parsers (objects,
integers, fields, windows, dimensions, a chain map's source kind, a
module's action count), and the `TypeError` of `document_dict` on a value
with no document form.

Each malformed document lacks at most one required field, so the error
it raises does not depend on which missing field is checked first.

The array paths of the document layer against per-entry references: the
bytes of `canonical_json_bytes` against ``json.dumps`` of the rows of
``Matrix.entries`` (on small values of every kind, on matrices up to
40 x 40 in the patterns that reach both sides of the splice threshold, and
on `perhom bgg` output up to c = 6), the round trip of every document kind,
and matrices converted at once against the per-entry walk, which gives the
same matrix or the same error."""

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from perhom import (
    GF,
    QQ,
    Algebra,
    BoundedComplex,
    FlagData,
    GradedModule,
    Matrix,
    PeriodicComplex,
    bgg_module,
    chain_map,
    cohomology_dims,
    free_module,
    mat,
    polynomial_algebra,
)
from perhom import documents
from perhom.cli import main
from perhom.documents import (
    DocumentError,
    canonical_json_bytes,
    document_dict,
    matrix_doc,
    parse_document,
    serialize_document,
)
from strategies import SETTINGS

F5 = '{"fp":5}'
QQ_FIELD = '{"rationals":true}'
POINT = '{"diffs":[],"dims":[1],"field":%s,"kind":"complex","window":[0,0]}'
CHAIN_MAP = '{"components":%s,"field":%s,"kind":"chain-map","source":%s,"target":%s}'
MODULE = '{"actions":%s,"algebra":%s,"dims":[1,1],"field":{"fp":5},"kind":"graded-module","window":[0,1]}'
FLAG = '{"blocks":%s,"field":{"fp":5},"kind":"flag","parts":[1,1,1]}'

MALFORMED = {
    "periodic-zero-period": (
        '{"diffs":[],"dims":[],"field":{"fp":5},"kind":"periodic","n":0}',
        "/n",
        "period must be at least 1",
    ),
    "periodic-differential-count": (
        '{"diffs":[[[0]]],"dims":[1,1],"field":{"fp":5},"kind":"periodic","n":2}',
        "/diffs",
        "expected 2 differentials",
    ),
    "chain-map-duplicate-degree": (
        CHAIN_MAP % ('[{"degree":0,"matrix":[[1]]},{"degree":0,"matrix":[[2]]}]', F5, POINT % F5, POINT % F5),
        "/components/1/degree",
        "duplicate degree",
    ),
    "chain-map-field-mismatch": (
        CHAIN_MAP % ("[]", F5, POINT % QQ_FIELD, POINT % QQ_FIELD),
        "/field",
        "source and target must share the document field",
    ),
    "chain-map-component-shape": (
        CHAIN_MAP % ('[{"degree":0,"matrix":[[1],[2]]}]', F5, POINT % F5, POINT % F5),
        "/components/0/matrix",
        "expected 1 rows, got 2",
    ),
    "graded-module-two-algebras": (
        MODULE % ("[[[[1]]]]", '{"ext":1,"poly":1}'),
        "/algebra",
        "algebra must be {'poly': c} or {'ext': c}",
    ),
    "graded-module-no-generators": (
        MODULE % ("[]", '{"poly":0}'),
        "/algebra/poly",
        "at least one generator required",
    ),
    "graded-module-family-count": (
        MODULE % ("[[[[1]]]]", '{"poly":2}'),
        "/actions",
        "expected 2 generator families",
    ),
    "flag-block-on-diagonal": (
        FLAG % '[{"dst":1,"matrix":[[1]],"src":1}]',
        "/blocks/0",
        "block must sit strictly above the diagonal",
    ),
    "flag-block-below-diagonal": (
        FLAG % '[{"dst":2,"matrix":[[1]],"src":0}]',
        "/blocks/0",
        "block must sit strictly above the diagonal",
    ),
    "flag-duplicate-block": (
        FLAG % '[{"dst":0,"matrix":[[1]],"src":2},{"dst":0,"matrix":[[2]],"src":2}]',
        "/blocks/1",
        "duplicate block",
    ),
    "unknown-kind": ('{"kind":"matrix"}', "/kind", "unknown document kind 'matrix'"),
    "missing-kind": ('{"dims":[1]}', "/kind", "unknown document kind None"),
    "unhashable-kind": ('{"kind":["complex"]}', "/kind", "unknown document kind ['complex']"),
    "non-object": ('[{"kind":"complex"}]', "/", "expected a JSON object"),
}


@pytest.mark.parametrize("document, pointer, message", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_document_error(document, pointer, message):
    with pytest.raises(DocumentError) as error:
        parse_document(document)
    assert (error.value.pointer, error.value.message) == (pointer, message)
    assert str(error.value) == f"{pointer}: {message}"


def complex_doc(dims="[1]", field=F5, window="[0,0]"):
    return '{"diffs":[],"dims":%s,"field":%s,"kind":"complex","window":%s}' % (dims, field, window)


# The schema errors of the shared parsers, reached through the document
# kinds: pointer and message of each.
SCHEMA_ERRORS = {
    "not-an-object": (CHAIN_MAP % ("[]", F5, "5", POINT % F5), "/source", "expected an object"),
    "not-an-integer": (complex_doc(window="[0.5,0]"), "/window/0", "expected an integer"),
    "both-fields": (
        complex_doc(field='{"fp":5,"rationals":true}'),
        "/field",
        "field must be either rational or prime, not both",
    ),
    "rationals-false": (complex_doc(field='{"rationals":false}'), "/field/rationals", "must be true"),
    "no-field": (complex_doc(field="{}"), "/field", "field must specify rationals or fp"),
    "window-length": (complex_doc(window="[0]"), "/window", "window must be [lo, hi]"),
    "window-reversed": (complex_doc(dims="[]", window="[2,0]"), "/window", "window upper bound below lower bound"),
    "dimension-count": (complex_doc(window="[0,1]"), "/dims", "expected 2 dimensions, got 1"),
    "negative-dimension": (complex_doc(dims="[-1]"), "/dims/0", "dimensions must be nonnegative"),
    "chain-map-source-kind": (
        CHAIN_MAP % ("[]", F5, (POINT % F5).replace('"complex"', '"periodic"'), POINT % F5),
        "/source/kind",
        "expected 'complex'",
    ),
    "action-count": (MODULE % ("[[]]", '{"poly":1}'), "/actions/0", "expected 1 matrices"),
}


@pytest.mark.parametrize("document, pointer, message", SCHEMA_ERRORS.values(), ids=SCHEMA_ERRORS.keys())
def test_schema_error_pointer_and_message(document, pointer, message):
    with pytest.raises(DocumentError) as error:
        parse_document(document)
    assert (error.value.pointer, error.value.message) == (pointer, message)


def test_an_empty_component_outside_both_supports_is_dropped():
    with_empty = CHAIN_MAP % ('[{"degree":0,"matrix":[[2]]},{"degree":3,"matrix":[]}]', F5, POINT % F5, POINT % F5)
    without = CHAIN_MAP % ('[{"degree":0,"matrix":[[2]]}]', F5, POINT % F5, POINT % F5)
    assert parse_document(with_empty) == parse_document(without)
    assert parse_document(with_empty).components == ((0, mat(GF(5), [[2]])),)


def test_document_dict_rejects_a_value_without_a_document_form():
    with pytest.raises(TypeError, match=r"^no document form for Matrix$"):
        document_dict(mat(QQ, [[1]]))


FIELDS = [QQ, GF(2), GF(5), GF(32003), GF(2147483629)]


def nonzero_entry(rng, field):
    """Over F_p: 1, p - 1 or any nonzero residue.  Over QQ: a small
    integer, a negative fraction, or a fraction whose numerator and
    denominator pass 2^63."""
    if field.p is not None:
        return rng.choice([1, field.p - 1, rng.randrange(1, field.p)])
    big = rng.randrange(2**63, 2**80)
    return rng.choice(
        [
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3])),
            Fraction(-rng.randrange(1, 10), rng.randrange(2, 10)),
            Fraction(rng.choice([big, -big]), rng.randrange(2**63, 2**80)),
        ]
    )


@st.composite
def matrices(draw, field, rows, cols):
    """A zero, sparse (one or two nonzero entries) or dense matrix of the
    given shape, its entries drawn by a seeded generator."""
    rng = draw(st.randoms(use_true_random=False))
    fill = draw(st.sampled_from(["zero", "sparse", "dense"]))
    cells = rows * cols
    at = set(rng.sample(range(cells), {"zero": 0, "sparse": min(cells, rng.randint(1, 2)), "dense": cells}[fill]))
    flat = [nonzero_entry(rng, field) if k in at else 0 for k in range(cells)]
    return Matrix(field, rows, cols, tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows)))


# Up to 100 cells, past the 64 below which every matrix is written dense.
DIMS = st.lists(st.integers(0, 10), min_size=0, max_size=4)
SHAPES = st.tuples(st.integers(0, 12), st.integers(0, 12))


@st.composite
def complexes(draw, field):
    dims = draw(DIMS)
    diffs = tuple(draw(matrices(field, dims[k + 1], dims[k])) for k in range(len(dims) - 1))
    return BoundedComplex(field, draw(st.integers(-2, 2)), tuple(dims), diffs)


@st.composite
def document_values(draw, field):
    """A value of each document kind, with matrices of any content."""
    kind = draw(st.sampled_from(["complex", "periodic", "chain-map", "graded-module", "flag"]))
    if kind == "complex":
        return draw(complexes(field))
    if kind == "periodic":
        dims = draw(DIMS.filter(bool))
        n = len(dims)
        diffs = tuple(draw(matrices(field, dims[(k + 1) % n], dims[k])) for k in range(n))
        return PeriodicComplex(field, n, tuple(dims), diffs)
    if kind == "chain-map":
        source, target = draw(complexes(field)), draw(complexes(field))
        degrees = [i for i in source.degrees() if source.dim(i) and target.dim(i)]
        return chain_map(source, target, {i: draw(matrices(field, target.dim(i), source.dim(i))) for i in degrees})
    if kind == "graded-module":
        algebra = Algebra(draw(st.sampled_from(["poly", "ext"])), draw(st.integers(1, 2)))
        dims = draw(DIMS)
        bridges = [algebra.bridge(k) for k in range(len(dims) - 1)]
        family = lambda: tuple(draw(matrices(field, dims[dst], dims[src])) for src, dst in bridges)
        actions = tuple(family() for _ in range(algebra.generators))
        return GradedModule(field, algebra, draw(st.integers(-2, 2)), tuple(dims), actions)
    parts = tuple(draw(DIMS))
    blocks = []
    for src in range(len(parts)):
        for dst in range(src):
            m = draw(matrices(field, parts[dst], parts[src]))
            if not m.is_zero():  # a parsed flag keeps no zero block
                blocks.append((src, dst, m))
    return FlagData(field, parts, tuple(blocks))


def entry_rows(m: Matrix) -> list:
    """The document rows of ``m`` from ``Matrix.entries``, entry by entry."""
    return [[x if m.field.p is not None else str(x) for x in row] for row in m.entries]


def expand(body):
    """``body`` with every matrix replaced by its `entry_rows`."""
    if isinstance(body, dict):
        return {key: expand(value) for key, value in body.items()}
    if isinstance(body, list):
        return [expand(value) for value in body]
    return entry_rows(body) if isinstance(body, Matrix) else body


def reference_bytes(value) -> bytes:
    return (json.dumps(value, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n").encode("utf-8")


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(document_values))
def test_documents_are_written_as_json_dumps_writes_the_entries(value):
    body = document_dict(value)
    assert canonical_json_bytes(body) == reference_bytes(expand(body))
    assert parse_document(serialize_document(value)) == value


@SETTINGS
@given(
    st.sampled_from(FIELDS).flatmap(
        lambda field: st.tuples(
            complexes(field),
            st.lists(st.lists(SHAPES.flatmap(lambda shape: matrices(field, *shape)), max_size=3), max_size=3),
        )
    )
)
def test_bgg_bodies_are_written_as_json_dumps_writes_the_entries(drawn):
    cx, actions = drawn
    body = {
        "complex": document_dict(cx),
        "actions": [list(family) for family in actions],
        "cohomology": [[cx.lo, 1]],
        "ok": True,
    }
    assert canonical_json_bytes(body) == reference_bytes(expand(body))


@st.composite
def patterned_matrices(draw, field):
    """A matrix of up to 40 x 40 in one of the patterns the writer meets: a
    signed partial permutation (a BGG action), nonzero first and last cells,
    zero first and last rows, or a nonzero count within two of the splice
    threshold ``4 nnz + 64 = cells``."""
    rng = draw(st.randoms(use_true_random=False))
    rows, cols = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    pattern = draw(st.sampled_from(["permutation", "corners", "zero-end-rows", "threshold"]))
    cells = rows * cols
    values = {}
    if pattern == "permutation":
        k = rng.randint(0, min(rows, cols))
        minus_one = -1 if field.p is None else field.p - 1
        for r, c in zip(rng.sample(range(rows), k), rng.sample(range(cols), k)):
            values[r * cols + c] = rng.choice([1, minus_one])
    else:
        if pattern == "corners":
            at = {0, cells - 1} | set(rng.sample(range(cells), rng.randint(0, cells // 8)))
        elif pattern == "zero-end-rows":
            inner = range(cols, cells - cols)
            at = set(rng.sample(inner, rng.randint(0, len(inner) // 4))) if len(inner) else set()
        else:
            nnz = min(cells, max(0, -(-(cells - 64) // 4) + rng.randint(-2, 1)))
            at = set(rng.sample(range(cells), nnz))
        values = {k: nonzero_entry(rng, field) for k in at}
    flat = [values.get(k, 0) for k in range(cells)]
    return Matrix(field, rows, cols, tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows)))


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(lambda field: st.lists(patterned_matrices(field), min_size=1, max_size=3)))
def test_large_matrices_are_written_as_json_dumps_writes_the_entries(ms):
    body = {"first": ms[0], "rest": [ms[1:], "x"]}
    assert canonical_json_bytes(body) == reference_bytes(expand(body))


@pytest.mark.parametrize(
    "field, c, window",
    [(GF(32003), 5, (0, 2)), (GF(32003), 6, (0, 1)), (QQ, 3, (0, 3))],
    ids=["GF32003-c5", "GF32003-c6", "QQ-c3"],
)
def test_bgg_output_is_written_as_json_dumps_writes_the_entries(capsysbinary, tmp_path, field, c, window):
    module = free_module(field, polynomial_algebra(c), 0, window)
    path = tmp_path / "module.json"
    path.write_bytes(serialize_document(module))
    assert main(["bgg", str(path)]) == 0
    built = bgg_module(module)
    body = {
        "complex": document_dict(built.complex),
        "actions": [list(family) for family in built.actions],
        "cohomology": [[i, h] for i, h in cohomology_dims(built.complex)],
        "ok": True,
    }
    assert capsysbinary.readouterr() == (reference_bytes(expand(body)), b"")


@pytest.mark.parametrize("note", ["\0", "a\0", '"\0', "\\u0000"])
def test_strings_written_like_the_slot_placeholder(note):
    rows = [[0] * 10 for _ in range(9)]
    rows[0][0], rows[8][9] = Fraction(1, 2), -3
    m = mat(QQ, rows)  # sparse enough to be spliced
    for body in ({"note": note, "m": m}, {note: [m, note]}):
        assert canonical_json_bytes(body) == reference_bytes(expand(body))


def test_a_value_without_matrices_takes_one_dumps_call(monkeypatch):
    report = {"cases": [{"case": "x", "detail": "\0", "ok": True}], "failed": 0, "passed": 1}
    want = reference_bytes(report)
    calls = []
    dumps = json.dumps
    monkeypatch.setattr(documents.json, "dumps", lambda *a, **k: calls.append(1) or dumps(*a, **k))
    assert canonical_json_bytes(report) == want
    assert len(calls) == 1


SPARSE = mat(QQ, [[Fraction(1, 2)] + [0] * 9] + [[0] * 10] * 7 + [[0] * 9 + [-3]])


@pytest.mark.parametrize(
    "m",
    [SPARSE, mat(GF(7), [[0] * 10] * 10), mat(QQ, [[1, Fraction(-2, 3)], [4, 5]]), mat(GF(5), [[1, 2, 3]])],
    ids=["sparse", "zero", "dense-qq", "dense-fp"],
)
def test_a_matrix_in_a_body_is_written_as_its_matrix_doc(m):
    body = {"m": m, "ms": [m, 1]}
    assert canonical_json_bytes(body) == reference_bytes({"m": matrix_doc(m), "ms": [matrix_doc(m), 1]})


@pytest.mark.parametrize("obj", [Fraction(1, 2), {1}], ids=["Fraction", "set"])
@pytest.mark.parametrize("beside", [None, SPARSE], ids=["alone", "beside-a-matrix"])
def test_any_other_object_is_not_serializable(obj, beside):
    name = type(obj).__name__
    with pytest.raises(TypeError, match=rf"^Object of type {name} is not JSON serializable$"):
        canonical_json_bytes({"m": beside, "x": obj})


def parsed(parse, field, body, rows, cols):
    """The matrix `parse` makes of ``body``, or the pointer and message of
    its error."""
    try:
        return parse(field, body, rows, cols, "/m")
    except DocumentError as error:
        return (error.pointer, error.message)


def check_against_walk(field, body, rows, cols):
    want = parsed(documents._walk_matrix, field, body, rows, cols)
    assert parsed(documents._parse_matrix, field, body, rows, cols) == want
    return want


@SETTINGS
@given(st.sampled_from(FIELDS).flatmap(lambda field: SHAPES.flatmap(lambda shape: matrices(field, *shape))))
def test_matrices_convert_at_once_to_the_walked_matrix(m):
    body = json.loads(json.dumps(entry_rows(m)))
    assert check_against_walk(m.field, body, m.rows, m.cols) == m
    assert documents._convert_matrix(m.field, body, m.rows, m.cols) == m


BAD_ENTRIES = {
    "float": 1.5,
    "bool": True,
    "zero-denominator": "1/0",
    "space": " 1",
    "decimal": "1.0",
    "digits-past-limit": "7" * 5000,
    "nested": [1],
    "comma": "1,2",
    "newline": "1\n",
    "fraction-over-fp": "1/2",
}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("cell", [0, 7, 14], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", BAD_ENTRIES.values(), ids=BAD_ENTRIES.keys())
def test_a_bad_entry_raises_the_walked_error(field, cell, bad):
    body = [[str(k + 1) if field.p is None else k + 1 for k in range(5 * i, 5 * i + 5)] for i in range(3)]
    body[cell // 5][cell % 5] = bad
    check_against_walk(field, body, 3, 5)


@pytest.mark.parametrize(
    "field, body",
    [
        (QQ, [[1, "-2/4"], ["007", "-0"]]),  # JSON ints, unreduced and padded strings
        (QQ, [["1/3", "1/6"], ["2/3", "5/6"]]),
        (QQ, [[str(2**70) + "/" + str(2**65), "-1/" + str(3**50)], ["0/5", "4/2"]]),
        (GF(5), [[-1, 2**70], [-(2**70), 7]]),  # outside [0, p) and outside int64
        (GF(5), [["3", 4], ["-1", "0"]]),  # residue strings
        (GF(5), [[1, 2], [3]]),
        (GF(5), [[1, 2], [3, 4], [5, 6]]),
        (GF(5), [[1, 2], 3]),
        (QQ, {"0": [1, 2]}),
    ],
)
def test_bodies_parse_as_the_walk_parses_them(field, body):
    check_against_walk(field, body, 2, 2)


GRAMMAR_FIELDS = [QQ, GF(5), GF(2147483629)]
SCALARS = st.one_of(
    st.text(alphabet="0123456789-/+.e_ ٣", max_size=8),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.none(),
)


def coerced(field, value):
    """``field.coerce(value)``, or the message of the error it raises."""
    try:
        return field.coerce(value)
    except (TypeError, ValueError) as error:
        return str(error)


def parsed_entry(field, value):
    """The entry of a 1 x 1 complex document holding `value`, or the message
    of the error `parse_document` raises at its pointer."""
    field_doc = documents._field_doc(field)
    doc = {"diffs": [[[value]]], "dims": [1, 1], "field": field_doc, "kind": "complex", "window": [0, 1]}
    try:
        return parse_document(json.dumps(doc)).diffs[0].entry(0, 0)
    except DocumentError as error:
        assert error.pointer == "/diffs/0/0/0"
        return error.message


@SETTINGS
@given(field=st.sampled_from(GRAMMAR_FIELDS), value=SCALARS)
def test_coerce_takes_exactly_the_document_entries(field, value):
    # One grammar: coerce raises exactly where a document is refused, with
    # the message the document prints, and otherwise gives the same scalar.
    got, want = coerced(field, value), parsed_entry(field, value)
    assert (type(got), got) == (type(want), want)
