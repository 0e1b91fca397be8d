"""Byte-exact `homdim` / `orbit-homdim` output on the golden documents, and
the exit codes of the Hom and period commands."""

from pathlib import Path

import pytest

from perhom import QQ, orbit_hom, single
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
