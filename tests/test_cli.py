"""Byte-exact `homdim` / `orbit-homdim` / `periodize` output on the golden
documents, the exit codes of the Hom and period commands, the round trip
of every golden document, the `verify` report bytes of the folding and BGG
suites, the `cone` and `tensor` output on seeded documents, the `bgg`
output on a golden and two free modules and on an empty window and zero
end pieces, the `compress`, `expand` and `cohomology` output, the help
text, the exit codes and error pointers of malformed input (the same
under every hash seed), the exit codes of `python -m perhom`, that
`main` builds its parser once, and that a BGG construction failing its own
check fails its verify case instead of raising."""

import argparse
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import perhom
from perhom import (
    GF,
    QQ,
    direct_sum_modules,
    free_module,
    orbit_hom,
    parse_document,
    polynomial_algebra,
    serialize_document,
    single,
)
from perhom import koszul
from perhom.cli import build_parser, main
from perhom.complexes import Violation
from perhom.documents import canonical_json_bytes
from perhom.suites import run_suite
from perhom.samples import random_bounded_complex, random_chain_map, random_periodic

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
# The other five suites, recorded at commit 7a61565, before the small-matrix
# elimination route and the fused basis changes of the samplers.
VERIFY_SHA256.update(
    {
        "flags": "908b585be8adcbadaf839c9a240904be8474b4fa276a1cfeccb86c93ab36a9b3",
        "embedding": "566ec77be7b63e40aea99556e7d13804559cf4a29f5a056c6f7f3dac24cc621c",
        "twist": "6f1019e2a913d30640cc387255ba5c9e7ec0c7f71fd228eead2f6bcc8ebfab56",
        "unit-splitting": "c5d44698a29254cbc8ea99857d7b90a55bf8fd3551ff2b693e73a41484129226",
        "bgg-cohomology": "30022b180a2a7b4eb7ecf79fc05414fbc7873567078d6a7a0f7ba7d1d33ff214",
    }
)
# The determinism suite, which runs every other suite twice in one process,
# recorded at commit bdfe35a.
VERIFY_SHA256["determinism"] = "27d4ffdb376ca9f41439725cbe003311d9e07cb43d64f84f85abf172007c46a7"


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


@pytest.mark.parametrize("y", ["complex_f5", "periodic_f5"])
def test_tensor_across_fields_exits_1(capsysbinary, y):
    want = b'{"error":"tensor across fields","ok":false}\n'
    assert run(capsysbinary, "tensor", doc("complex_qq"), doc(y)) == (1, want, b"")


def test_tensor_of_invalid_complex_exits_1(capsysbinary, tmp_path):
    path = tmp_path / "square_nonzero.json"
    path.write_bytes(b'{"diffs":[[[1]],[[1]]],"dims":[1,1,1],"field":{"fp":5},"kind":"complex","window":[0,2]}\n')
    want = b'{"error":"invalid complex: square at degree 0: composite of consecutive differentials is nonzero","ok":false}\n'
    assert run(capsysbinary, "tensor", str(path), doc("complex_f5")) == (1, want, b"")


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


@pytest.mark.parametrize("suite", ["bgg-wellformed", "bgg-square"])
def test_bgg_construction_failure_fails_its_case(capsysbinary, monkeypatch, suite):
    """A BGG construction that breaks its own checked invariant fails its
    verify case with the message; `main` exits 1 with the report."""
    monkeypatch.setattr(koszul, "validate_bgg", lambda b: Violation("linearity", 0, "injected"))
    report = run_suite(suite, 0)
    assert (report["failed"], report["ok"]) == (len(report["cases"]), False) and report["failed"] > 0
    want = "construction violated its own invariant: linearity at degree 0: injected"
    assert {case["detail"] for case in report["cases"]} == {want}
    code, out, err = run(capsysbinary, "verify", suite, "--seed", "0")
    assert (code, out, err) == (1, canonical_json_bytes(report), b"")


# SHA-256 of the stdout of `perhom cone` and `perhom tensor` on the seeded
# documents of `seeded_documents`, seeds 0-5 concatenated, recorded at
# commit 0836826, before the cone and tensor differentials were built by
# one totalization.
CONSTRUCTION_SHA256 = {
    "cone-QQ": "a4a72911ea5e5b6c1b2590cbc296b532e42d35a687de80b0f7d9a51ac13fbcc8",
    "cone-GF(5)": "943375d6ce15039a2b748aef5b4f056c37fcc3e9fcc0cfe10a0f4397c4028aa2",
    "tensor-complex-QQ": "a148bf92e20a732658dc3df81bd440760a7a24aa9f2fba5dad8d24f36facbf89",
    "tensor-complex-GF(5)": "8a378b44b544a64cf225ba7be6f653d47963007336d750dcf305245c21641de4",
    "tensor-periodic-QQ": "770655758762ecdafad5a3c42247b59be5de140eadbaecbc5f02cec674eee618",
    "tensor-periodic-GF(5)": "49f6772aa0247c25fd1b4cc9eef3b32470a1ab8dc5c3ce99c9efb71a9933f269",
}

FIELDS = {"QQ": QQ, "GF(5)": GF(5)}


def seeded_documents(kind, field, seed, tmp_path):
    """The argv of one seeded `cone` or `tensor` run, documents written to tmp_path."""
    rng = Random(f"{kind} {field!r} {seed}")
    x = random_bounded_complex(rng, field, max_dim=3, max_width=4)
    if kind == "cone":
        y = random_bounded_complex(rng, field, max_dim=3, max_width=4)
        values = [random_chain_map(rng, x, y)]
    elif kind == "tensor-complex":
        values = [x, random_bounded_complex(rng, field, max_dim=3, max_width=4)]
    else:
        values = [x, random_periodic(rng, field, rng.randint(1, 3), max_dim=3, max_width=4)]
    paths = []
    for k, value in enumerate(values):
        path = tmp_path / f"{kind}-{seed}-{k}.json"
        path.write_bytes(serialize_document(value))
        paths.append(str(path))
    return ["cone" if kind == "cone" else "tensor", *paths]


@pytest.mark.parametrize("case", sorted(CONSTRUCTION_SHA256))
def test_construction_bytes(capsysbinary, tmp_path, case):
    kind, field = case.rsplit("-", 1)
    digest = hashlib.sha256()
    for seed in range(6):
        code, out, err = run(capsysbinary, *seeded_documents(kind, FIELDS[field], seed, tmp_path))
        assert (code, err) == (0, b"")
        digest.update(out)
    assert digest.hexdigest() == CONSTRUCTION_SHA256[case]


COMPLEX_DOC = '{"diffs":%s,"dims":%s,"field":%s,"kind":"complex","window":[0,%d]}'
QQ_FIELD = '{"rationals":true}'

# `cohomology` output on documents that parse but are not complexes,
# recorded at commit 551cc35, before the command left validation to the
# functions it calls.
INVALID_COHOMOLOGY = [
    (
        COMPLEX_DOC % ("[[[0]],[[1]],[[1]]]", "[1,1,1,1]", '{"fp":5}', 3),
        b'{"error":"invalid complex: square at degree 1: composite of consecutive differentials is nonzero","ok":false}\n',
    ),
    (
        '{"diffs":[[[0]],[["1"]],[["2/3"]]],"dims":[1,1,1],"field":{"rationals":true},"kind":"periodic","n":3}',
        b'{"error":"invalid periodic complex: square at degree 1: composite of consecutive differentials is nonzero","ok":false}\n',
    ),
]


@pytest.mark.parametrize("document, want", INVALID_COHOMOLOGY, ids=["complex", "periodic"])
def test_cohomology_of_invalid_complex_exits_1(capsysbinary, tmp_path, document, want):
    path = tmp_path / "invalid.json"
    path.write_text(document)
    assert run(capsysbinary, "cohomology", str(path)) == (1, want, b"")


@pytest.mark.parametrize(
    "document, error",
    [
        (COMPLEX_DOC % ("[]", "[1]", '{"reals":true}', 0), "/field/reals: unknown field"),
        (COMPLEX_DOC % ("[]", "[1]", '{"fp":4}', 0), "/field/fp: 4 is not prime"),
        (COMPLEX_DOC % ("[[[1]]]", "[2,1]", '{"fp":5}', 1), "/diffs/0/0: expected 2 entries, got 1"),
        (COMPLEX_DOC % ('[[[1,"x"]]]', "[2,1]", '{"fp":5}', 1), "/diffs/0/0/1: not a residue: 'x'"),
        # Only "a" and "a/b" in ASCII digits are numbers, not what Fraction
        # or int would also read.
        (COMPLEX_DOC % ('[[["1e3"]]]', "[1,1]", QQ_FIELD, 1), "/diffs/0/0/0: not a rational: '1e3'"),
        (COMPLEX_DOC % ('[[["0.5"]]]', "[1,1]", QQ_FIELD, 1), "/diffs/0/0/0: not a rational: '0.5'"),
        (COMPLEX_DOC % ('[[[" 1/2"]]]', "[1,1]", QQ_FIELD, 1), "/diffs/0/0/0: not a rational: ' 1/2'"),
        (COMPLEX_DOC % ('[[["1_000"]]]', "[1,1]", QQ_FIELD, 1), "/diffs/0/0/0: not a rational: '1_000'"),
        (COMPLEX_DOC % ('[[[" 7"]]]', "[1,1]", '{"fp":5}', 1), "/diffs/0/0/0: not a residue: ' 7'"),
        (COMPLEX_DOC % ('[[["1_0"]]]', "[1,1]", '{"fp":5}', 1), "/diffs/0/0/0: not a residue: '1_0'"),
    ],
    ids=[
        "unknown-field",
        "non-prime",
        "ragged-row",
        "non-residue",
        "rational-exponent",
        "rational-decimal",
        "rational-space",
        "rational-underscore",
        "residue-space",
        "residue-underscore",
    ],
)
def test_malformed_document_exits_2(capsysbinary, tmp_path, document, error):
    path = tmp_path / "malformed.json"
    path.write_text(document)
    assert run(capsysbinary, "cohomology", str(path)) == (2, b"", f"error: {error}\n".encode())


def test_negative_dimension_exits_2(capsysbinary, tmp_path):
    path = tmp_path / "negative.json"
    path.write_text(COMPLEX_DOC % ("[]", "[-1]", '{"fp":5}', 0))
    assert run(capsysbinary, "cohomology", str(path)) == (2, b"", b"error: /dims/0: dimensions must be nonnegative\n")


def test_cone_of_non_chain_map_exits_1(capsysbinary, tmp_path):
    # f^1 d_X = 1 but d_Y f^0 = 0.
    x = '{"diffs":[[[1]]],"dims":[1,1],"field":{"fp":5},"kind":"complex","window":[0,1]}'
    y = '{"diffs":[[[0]]],"dims":[1,1],"field":{"fp":5},"kind":"complex","window":[0,1]}'
    comps = '[{"degree":0,"matrix":[[0]]},{"degree":1,"matrix":[[1]]}]'
    path = tmp_path / "not_a_chain_map.json"
    path.write_text(f'{{"components":{comps},"field":{{"fp":5}},"kind":"chain-map","source":{x},"target":{y}}}')
    want = b'{"error":"invalid chain map: chain-map at degree 0: f d != d f","ok":false}\n'
    assert run(capsysbinary, "cone", str(path)) == (1, want, b"")


@pytest.mark.parametrize(
    "algebra, dims, actions, error",
    [
        ("ext", [1, 1], "[[[[1]]]]", "input must be a module over a polynomial algebra"),
        # x_0 x_1 sends the degree-0 generator to 1, x_1 x_0 sends it to 0.
        (
            "poly",
            [1, 2, 1],
            "[[[[1],[0]],[[0,1]]],[[[0],[1]],[[0,0]]]]",
            "invalid graded module: commute at degree 0: generators (0, 1) do not commute",
        ),
    ],
    ids=["exterior", "non-commuting"],
)
def test_bgg_of_invalid_module_exits_1(capsysbinary, tmp_path, algebra, dims, actions, error):
    c = 1 if algebra == "ext" else 2
    path = tmp_path / "module.json"
    path.write_text(
        f'{{"actions":{actions},"algebra":{{"{algebra}":{c}}},"dims":{dims},"field":{{"fp":5}},'
        f'"kind":"graded-module","window":[0,{len(dims) - 1}]}}'
    )
    want = f'{{"error":"{error}","ok":false}}\n'.encode()
    assert run(capsysbinary, "bgg", str(path)) == (1, want, b"")


# SHA-256 of the stdout of `perhom bgg` (JSON: complex, actions,
# cohomology; and `--format table`) on a golden module and on free modules
# generated in degree 0 over the window [0, 2], recorded at commit 9491817,
# before F_p matrices were stored as int64 arrays.
BGG_SHA256 = {
    "graded_module_f7": (
        "fa6d6768157e458a1f8a7e19ef6ca9a466d07e283432b405199b1610f370b2f1",
        "ae2ea31dbaded9b1ce7aa2b938500d211cc7a293f4772715142e45eafce52470",
    ),
    "free-GF(32003)-c4": (
        "fa4c55b951d2342a1d233ac25b69d26c9ca2598cc633f35f793e880f987227b4",
        "744197255ccbf8a51756c067894954ccf4e1da185f96d9a7fbd3d15aa4febbf5",
    ),
    "free-QQ-c2": (
        "4940f29f16abeae5b461cfd826b195a2892a7648eb9c60e68391e0adc11c672d",
        "427f84f958573f74931094152268de5effe751fc6633435812360edf017e3e4b",
    ),
}

BGG_FREE = {"free-GF(32003)-c4": (GF(32003), 4), "free-QQ-c2": (QQ, 2)}


@pytest.mark.parametrize("case", sorted(BGG_SHA256))
def test_bgg_bytes(capsysbinary, tmp_path, case):
    if case in BGG_FREE:
        field, c = BGG_FREE[case]
        path = tmp_path / f"{case}.json"
        path.write_bytes(serialize_document(free_module(field, polynomial_algebra(c), 0, (0, 2))))
        path = str(path)
    else:
        path = doc(case)
    for argv, want in zip(([], ["--format", "table"]), BGG_SHA256[case]):
        code, out, err = run(capsysbinary, "bgg", path, *argv)
        assert (code, err) == (0, b"")
        assert hashlib.sha256(out).hexdigest() == want


# `perhom bgg` where the module window is empty or has zero pieces at its
# ends: (module document, SHA-256 of the JSON output, `--format table`
# output), recorded at commit 75339c1.  The sum of free GF(5) modules with
# c = 2 generated in degrees 2 and 1 on [0, 3] has dims (0, 1, 3, 5).
BGG_EDGE = {
    "empty-window": (
        b'{"kind":"graded-module","field":{"fp":5},"algebra":{"poly":1},"window":[0,-1],"dims":[],"actions":[[]]}',
        "750ff753c2f19afd8d43ab1a105aa2de61a3375fe5d451414e8c60b67135f7f3",
        b"degree  dim h\n------  -----\n",
    ),
    "QQ-zero-ends": (
        b'{"actions":[[[[],[]],[["1","-1/2"]],[]],[[[],[]],[["2/3","0"]],[]]],"algebra":{"poly":2},'
        b'"dims":[0,2,1,0],"field":{"rationals":true},"kind":"graded-module","window":[-1,2]}',
        "5f88aa71ccaa0036362aab990330443e6ad21acfbf391ff71899591e942cfd7f",
        b"degree  dim h\n------  -----\n-1      0\n0       5\n1       1\n2       0\n",
    ),
    "free-sum-GF(5)-c2": (
        serialize_document(
            direct_sum_modules([free_module(GF(5), polynomial_algebra(2), g, (0, 3)) for g in (2, 1)])
        ),
        "616b4afe677d1aa4a4dcbe0a8a0abde0845b78016ec19379a8cee1ee5bd0f033",
        b"degree  dim h\n------  -----\n0       0\n1       1\n2       1\n3       12\n",
    ),
}


@pytest.mark.parametrize("case", sorted(BGG_EDGE))
def test_bgg_window_edges(capsysbinary, tmp_path, case):
    body, json_sha256, table = BGG_EDGE[case]
    path = tmp_path / "module.json"
    path.write_bytes(body)
    code, out, err = run(capsysbinary, "bgg", str(path))
    assert (code, err, hashlib.sha256(out).hexdigest()) == (0, b"", json_sha256)
    assert run(capsysbinary, "bgg", str(path), "--format", "table") == (0, table, b"")


# The command surface recorded at commit eb111e9, before the commands
# shared one read, error and output path in `main`.
SURFACE = [
    (
        ["compress", doc("complex_qq"), "--n", "2"],
        b'{"diffs":[[["-1"],["-1/2"]],[["0","0"]]],"dims":[1,2],"field":{"rationals":true},"kind":"periodic","n":2}\n',
    ),
    (["compress", doc("complex_f5"), "--n", "1"], b'{"diffs":[[]],"dims":[0],"field":{"fp":5},"kind":"periodic","n":1}\n'),
    (
        ["expand", doc("periodic_f5"), "--window", "0", "3"],
        b'{"diffs":[[[0,0,0,0],[0,1,4,3]],[[0,0],[0,0],[4,0],[3,0]],[[0,0,0,0],[0,1,4,3]]],'
        b'"dims":[4,2,4,2],"field":{"fp":5},"kind":"complex","window":[0,3]}\n',
    ),
    (
        ["expand", doc("minimal_periodic"), "--window", "-1", "1"],
        b'{"diffs":[[[0]],[[0]]],"dims":[1,1,1],"field":{"fp":5},"kind":"complex","window":[-1,1]}\n',
    ),
    (["cohomology", doc("complex_qq")], b'{"cohomology":[[-2,0],[-1,1]],"ok":true}\n'),
    (["cohomology", doc("complex_qq"), "--format", "table"], b"degree  dim\n------  ---\n-2      0\n-1      1\n"),
    (["cohomology", doc("periodic_f5")], b'{"cohomology":[[0,2],[1,0]],"ok":true}\n'),
    (["cohomology", doc("periodic_f5"), "--format", "table"], b"degree  dim\n------  ---\n0       2\n1       0\n"),
]


@pytest.mark.parametrize("argv, want", SURFACE, ids=[" ".join(Path(a).stem for a in argv) for argv, _ in SURFACE])
def test_command_output(capsysbinary, argv, want):
    assert run(capsysbinary, *argv) == (0, want, b"")


def test_verify_table_bytes(capsysbinary):
    code, out, err = run(capsysbinary, "verify", "flags", "--seed", "0", "--format", "table")
    assert (code, err) == (0, b"")
    assert hashlib.sha256(out).hexdigest() == "a2396291e74007205a72608e2c450f9af6cff0582e5466bbc343c9acf706e55b"


# SHA-256 of the help text of `perhom` and of each command at 80 columns.
HELP_SHA256 = {
    "": "346819e8116ea9f64ffee54916747c839cdf5e9ea6eacae40256c39f788dee28",
    "cohomology": "28e313de3375449a19f0bde317f2cb8fe271ec7f9a5efa71f227ff959bba90c3",
    "compress": "e48960bc9b8d7165ac383778a3fa81e661d7293240f0938e193a51d8d5f2cdaa",
    "expand": "c0c3fced9c57d10e62b9cfc78385cebac530883c4db21b7c5653362753843b83",
    "cone": "df91b524a8cde084df319637f31159b55cc2528d7c6b885aab71a58b5b1b8364",
    "homdim": "540febe91e6872d00f1d55e0677144700f0a28bc06c607b18d3474b83bfbe8b5",
    "orbit-homdim": "3dee318bcae4b51d578d188331124b06f19a06d7295feeced0810eccf0233e15",
    "periodize": "cbaedaa91bf0e1c6ee5db0a207f2ca5b3a8b1b411d862aa3da060c0f8d1535ce",
    "tensor": "56d109e9e0a91e8c8028ed798f62faa84f6bdf8ff50eb064a4359bebce197154",
    "bgg": "2b4612e9369ee73478553c9784014141559f7fc200af010337e6d04485d18086",
    "verify": "de9a1e547cfd4bfc63b403fe24b6e58083155323eccea8a75d1a380692a04537",
}


@pytest.mark.parametrize("command", sorted(HELP_SHA256), ids=lambda command: command or "perhom")
def test_help_bytes(capsysbinary, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_:
        main([command, "--help"] if command else ["--help"])
    out, err = capsysbinary.readouterr()
    assert (exit_.value.code, err) == (0, b"")
    assert hashlib.sha256(out).hexdigest() == HELP_SHA256[command]


WRONG_KIND = [
    (["cohomology", doc("chain_map_qq")], "cohomology expects a complex or periodic document"),
    (["compress", doc("periodic_f5"), "--n", "2"], "compress expects a complex document"),
    (["expand", doc("complex_qq"), "--window", "0", "1"], "expand expects a periodic document"),
    (["cone", doc("complex_qq")], "cone expects a chain-map document"),
    (["homdim", doc("chain_map_qq"), doc("complex_qq")], "expected two complex documents or two periodic documents"),
    (["orbit-homdim", doc("complex_qq"), doc("periodic_f5"), "--n", "2"], "orbit-homdim expects two complex documents"),
    (["periodize", doc("complex_qq")], "periodize expects a periodic document"),
    (["tensor", doc("periodic_f5"), doc("complex_f5")], "tensor expects complex (x) complex or complex (x) periodic"),
    (["bgg", doc("complex_qq")], "bgg expects a graded-module document"),
]


@pytest.mark.parametrize("argv, error", WRONG_KIND, ids=[argv[0] for argv, _ in WRONG_KIND])
def test_wrong_document_kind_exits_2(capsysbinary, argv, error):
    assert run(capsysbinary, *argv) == (2, b"", f"error: /kind: {error}\n".encode())


def test_verify_unknown_suite_exits_2(capsysbinary):
    want = (
        b"error: /suite: unknown suite 'nosuch'; available: bgg-cohomology, bgg-square, bgg-wellformed, "
        b"cone-compress, determinism, embedding, flags, periodize, tensor-square, twist, unit-splitting\n"
    )
    assert run(capsysbinary, "verify", "nosuch") == (2, b"", want)


def test_expand_empty_window_exits_2(capsysbinary):
    want = b"error: /window: window lower bound exceeds upper bound\n"
    assert run(capsysbinary, "expand", doc("periodic_f5"), "--window", "2", "1") == (2, b"", want)


def test_missing_file_exits_2(capsysbinary, tmp_path):
    path = tmp_path / "absent.json"
    want = f"error: [Errno 2] No such file or directory: {str(path)!r}\n".encode()
    assert run(capsysbinary, "cohomology", str(path)) == (2, b"", want)


def test_stdin_input(capsysbinary, monkeypatch):
    data = (GOLDEN / "complex_qq.json").read_bytes()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data)))
    assert run(capsysbinary, "cohomology", "-") == (0, b'{"cohomology":[[-2,0],[-1,1]],"ok":true}\n', b"")


def test_parser_is_built_once(capsysbinary, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    build_parser.cache_clear()
    for _ in range(2):
        assert run(capsysbinary, "cohomology", doc("complex_qq"))[0] == 0
    assert built.count("perhom") == 1


def test_missing_field_error_is_independent_of_hash_seed():
    # Under the hash seeds 1 and 2, set iteration order put a different
    # missing field first.
    env = {**os.environ, "PYTHONPATH": str(Path(perhom.__file__).parents[1])}
    runs = [
        subprocess.run(
            [sys.executable, "-m", "perhom", "cohomology", "-"],
            input=b'{"kind":"complex"}\n',
            capture_output=True,
            env={**env, "PYTHONHASHSEED": seed},
            timeout=60,
        )
        for seed in ("1", "2")
    ]
    assert [(done.returncode, done.stdout, done.stderr) for done in runs] == [
        (2, b"", b"error: /: missing field 'diffs'\n")
    ] * 2


def test_compress_of_invalid_complex_exits_1(capsysbinary, tmp_path):
    path = tmp_path / "square_nonzero.json"
    path.write_bytes(b'{"diffs":[[[1]],[[1]]],"dims":[1,1,1],"field":{"fp":5},"kind":"complex","window":[0,2]}\n')
    want = b'{"error":"invalid complex: square at degree 0: composite of consecutive differentials is nonzero","ok":false}\n'
    assert run(capsysbinary, "compress", str(path), "--n", "2") == (1, want, b"")


@pytest.mark.parametrize(
    "data",
    [b'{"kind":"complex","x":"\xff"}', b'{"kind":"complex","x":' + b"7" * 5000 + b"}", b"[" * 100000 + b"]" * 100000],
    ids=["non-utf8", "long-integer", "deep-nesting"],
)
def test_undecodable_input_exits_2(capsysbinary, tmp_path, data):
    path = tmp_path / "undecodable.json"
    path.write_bytes(data)
    code, out, err = run(capsysbinary, "cohomology", str(path))
    assert (code, out) == (2, b"")
    assert err.startswith(b"error: /: ")


@pytest.mark.parametrize(
    "argv, code, out, err",
    [
        (["cohomology", doc("complex_qq")], 0, b'{"cohomology":[[-2,0],[-1,1]],"ok":true}\n', b""),
        (["homdim", doc("complex_qq"), doc("complex_f5")], 1, b'{"error":"hom across fields","ok":false}\n', b""),
        (["periodize", doc("complex_qq")], 2, b"", b"error: /kind: periodize expects a periodic document\n"),
    ],
    ids=["exit-0", "exit-1", "exit-2"],
)
def test_module_entry_point(argv, code, out, err):
    env = {**os.environ, "PYTHONPATH": str(Path(perhom.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-m", "perhom", *argv], capture_output=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (code, out, err)
