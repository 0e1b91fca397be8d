"""The pointer and message of every `parse_document` error outside the
`complex` kind (whose errors `test_cli.py` pins through `cohomology`), and
the `TypeError` of `document_dict` on a value with no document form.

Each malformed document lacks at most one required field, so the error
it raises does not depend on which missing field is checked first."""

import pytest

from perhom import QQ, mat
from perhom.documents import DocumentError, document_dict, parse_document

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


def test_document_dict_rejects_a_value_without_a_document_form():
    with pytest.raises(TypeError, match=r"^no document form for Matrix$"):
        document_dict(mat(QQ, [[1]]))
