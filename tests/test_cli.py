"""Byte-exact `homdim` / `orbit-homdim` / `periodize` output on the golden
documents, the exit codes of the Hom and period commands, the round trip
of every golden document, and the `verify` report bytes of the folding
and BGG suites."""

import hashlib
from pathlib import Path

import pytest

from perhom import QQ, orbit_hom, parse_document, serialize_document, single
from perhom.cli import main

GOLDEN = Path(__file__).parent / "golden"

TABLE = "space             dim\n----------------  ---\nchain maps        {}\nnull homotopic    {}\nhomotopy classes  {}\n"

# (document, chain maps, null homotopic, homotopy classes), each Hom'ed
# into itself.
HOMDIM = [
    ("complex_qq", 3, 2, 1),
    ("complex_f5", 0, 0, 0),
    ("periodic_f5", 12, 8, 4),
    ("minimal_periodic", 1, 0, 1),
]

ORBIT_JSON = {
    "complex_qq": b'{"matches":true,"n":2,"ok":true,"periodic_side":1,"summands":[[0,1]],"total":1}\n',
    "complex_f5": b'{"matches":true,"n":2,"ok":true,"periodic_side":0,"summands":[[0,0]],"total":0}\n',
}
ORBIT_TABLE = {
    "complex_qq": b"summand   dim\n--------  ---\nshift 0   1\ntotal     1\nperiodic  1\n",
    "complex_f5": b"summand   dim\n--------  ---\nshift 0   0\ntotal     0\nperiodic  0\n",
}

# `periodize` output on the two contractible documents, recorded before
# the witness was built from splitting data instead of a linear system.
PERIODIZE_JSON = {
    "contractible_qq": b'{"components":[[["0","0","-3"],["0","0","0"],["0","0","0"]],[["0","0","3/2"],["0","10","8"],["0","0","0"]]],"ok":true,"verified":true}\n',
    "contractible_f5": b'{"components":[[[0,0,2,3],[0,0,0,3],[0,0,0,0],[0,0,0,0]],[[0,0,0,3],[0,0,3,0],[0,0,0,0],[0,0,0,0]]],"ok":true,"verified":true}\n',
}
PERIODIZE_TABLE = {
    "contractible_qq": b"residue  shape\n-------  -----\n0        3x3\n1        3x3\n",
    "contractible_f5": b"residue  shape\n-------  -----\n0        4x4\n1        4x4\n",
}


# SHA-256 of the stdout of `perhom verify SUITE --seed 0`, recorded at
# commit 40fa247, before the three folding squares shared one comparison.
VERIFY_SHA256 = {
    "bgg-square": "23adf5b2a78d589eb4084fd8483a936f111ac91e40cc2cf47dcb5b5a7f78d994",
    "cone-compress": "956c9ef4602c9568f7397de23941b6ecfd13db3b1f787c79b3a335c12a986479",
    "tensor-square": "80ae80b6b1b563b27893b7b8d2277ada5794c6b8786ab7158b35d4e049bda5ba",
    "periodize": "017b167d63aa687373305a986e97e5531a44b72a422453d697a52e3ffe8d650d",
    "bgg-wellformed": "0dac23b8091cbdea43d44c3ff07792a6115c48a22a53fc1cc0b4ae0d16820c4e",
}


def run(capsysbinary, *argv: str) -> tuple[int, bytes, bytes]:
    code = main(list(argv))
    out, err = capsysbinary.readouterr()
    return code, out, err


def doc(name: str) -> str:
    return str(GOLDEN / f"{name}.json")


@pytest.mark.parametrize("name, z, b, classes", HOMDIM)
def test_homdim_json(capsysbinary, name, z, b, classes):
    want = f'{{"chain_maps":{z},"homotopy_classes":{classes},"null_homotopic":{b},"ok":true}}\n'.encode()
    assert run(capsysbinary, "homdim", doc(name), doc(name)) == (0, want, b"")


@pytest.mark.parametrize("name, z, b, classes", HOMDIM)
def test_homdim_table(capsysbinary, name, z, b, classes):
    want = TABLE.format(z, b, classes).encode()
    assert run(capsysbinary, "homdim", doc(name), doc(name), "--format", "table") == (0, want, b"")


@pytest.mark.parametrize("name", sorted(ORBIT_JSON))
def test_orbit_homdim(capsysbinary, name):
    assert run(capsysbinary, "orbit-homdim", doc(name), doc(name), "--n", "2") == (0, ORBIT_JSON[name], b"")
    table = run(capsysbinary, "orbit-homdim", doc(name), doc(name), "--n", "2", "--format", "table")
    assert table == (0, ORBIT_TABLE[name], b"")


@pytest.mark.parametrize(
    "x, y, error",
    [("complex_qq", "complex_f5", "hom across fields"), ("periodic_f5", "minimal_periodic", "hom across different periods")],
)
def test_homdim_invariant_violations_exit_1(capsysbinary, x, y, error):
    want = f'{{"error":"{error}","ok":false}}\n'.encode()
    assert run(capsysbinary, "homdim", doc(x), doc(y)) == (1, want, b"")


@pytest.mark.parametrize("x, y", [("complex_f5", "periodic_f5"), ("periodic_f5", "complex_f5")])
def test_homdim_bounded_against_periodic_exits_2(capsysbinary, x, y):
    code, out, err = run(capsysbinary, "homdim", doc(x), doc(y))
    assert (code, out) == (2, b"")
    assert err == b"error: /kind: expected two complex documents or two periodic documents\n"


@pytest.mark.parametrize("n", ["0", "-2"])
@pytest.mark.parametrize("command", [["compress", doc("complex_qq")], ["orbit-homdim", doc("complex_qq"), doc("complex_qq")]])
def test_period_below_one_is_an_input_error(capsysbinary, command, n):
    code, out, err = run(capsysbinary, *command, "--n", n)
    assert (code, out) == (2, b"")
    assert err == b"error: /n: period must be at least 1\n"


@pytest.mark.parametrize("n", [0, -2])
def test_orbit_hom_rejects_period_below_one(n):
    with pytest.raises(ValueError, match="period must be at least 1"):
        orbit_hom(single(QQ, 0), single(QQ, 0), n)


@pytest.mark.parametrize("name", sorted(PERIODIZE_JSON))
def test_periodize_contractible(capsysbinary, name):
    assert run(capsysbinary, "periodize", doc(name)) == (0, PERIODIZE_JSON[name], b"")
    table = run(capsysbinary, "periodize", doc(name), "--format", "table")
    assert table == (0, PERIODIZE_TABLE[name], b"")


@pytest.mark.parametrize("name", ["minimal_periodic", "periodic_f5"])
def test_periodize_with_cohomology_exits_1(capsysbinary, name):
    want = b'{"error":"no windowed contraction exists; the identity is not null-homotopic","ok":false}\n'
    assert run(capsysbinary, "periodize", doc(name)) == (1, want, b"")


def test_periodize_invalid_document_exits_1(capsysbinary, tmp_path):
    path = tmp_path / "square_nonzero.json"
    path.write_bytes(b'{"diffs":[[[1]]],"dims":[1],"field":{"fp":5},"kind":"periodic","n":1}\n')
    want = b'{"error":"invalid periodic complex: square at degree 0: composite of consecutive differentials is nonzero","ok":false}\n'
    assert run(capsysbinary, "periodize", str(path)) == (1, want, b"")


def test_periodize_bounded_document_exits_2(capsysbinary):
    want = b"error: /kind: periodize expects a periodic document\n"
    assert run(capsysbinary, "periodize", doc("complex_qq")) == (2, b"", want)


@pytest.mark.parametrize("path", sorted(GOLDEN.glob("*.json")), ids=lambda path: path.stem)
def test_golden_documents_round_trip(path):
    data = path.read_bytes()
    assert serialize_document(parse_document(data)) == data


@pytest.mark.parametrize("suite", sorted(VERIFY_SHA256))
def test_verify_report_bytes(capsysbinary, suite):
    code, out, err = run(capsysbinary, "verify", suite, "--seed", "0")
    assert (code, err) == (0, b"")
    assert hashlib.sha256(out).hexdigest() == VERIFY_SHA256[suite]
