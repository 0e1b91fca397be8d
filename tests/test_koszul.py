"""The BGG folding square, the one comparison helper and the one label rule
(`_square_mismatch`, `_fold_labels`) behind the three folding squares
(cone, tensor, BGG), the BGG construction bytes, and the BGG cohomology
against the Koszul-complex Tor oracle."""

import hashlib
from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import koszul_tor_dims
from perhom import (
    GF,
    QQ,
    DoubleComplex,
    PeriodicComplex,
    bgg_complex,
    bgg_module,
    bgg_periodic,
    cohomology_dims,
    compress,
    compress_map,
    compress_modules,
    cone,
    periodic_cone,
    serialize_document,
    total_complex,
    verify_bgg_square,
)
from perhom.linalg import ShapeError, identity, kron, mat, zeros
from perhom.complexes import _cone_grid
from perhom.periodic import _fold_labels, _square_mismatch
from perhom.samples import random_bounded_complex, random_chain_map, random_graded_module, random_module_complex
from strategies import SETTINGS

F5 = GF(5)


def bgg_square_sides(mc, n):
    """The two sides of the BGG square and their label function."""
    bounded = bgg_complex(mc)
    cx = bounded.complex
    other = bgg_periodic(compress_modules(mc, n))
    size = bounded.dual.total_dim
    inner = lambda i, j: mc.module(j).dim(i) if mc.jlo <= j <= mc.jhi else 0  # noqa: E731
    return compress(cx, n), other, lambda r: _fold_labels(cx, n, r, mc.modules[0].degrees(), lambda i: size, inner)


def negated(p: PeriodicComplex) -> PeriodicComplex:
    return PeriodicComplex(p.field, p.n, p.dims, tuple(-d for d in p.diffs))


def seeded_module_complex(seed, field, c):
    """A seeded module complex whose BGG differentials are not all zero."""
    rng = Random(seed)
    while True:
        mc = random_module_complex(rng, field, c, (0, 2))
        if not all(d.is_zero() for d in bgg_complex(mc).complex.diffs):
            return mc


class TestBGGSquare:
    # The cone and tensor squares on seeded inputs are covered by
    # test_periodic.TestConeCompression and test_graded.TestTensorPeriodic.
    @pytest.mark.parametrize("field", [QQ, F5], ids=repr)
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("c", [1, 2])
    def test_bgg_square_is_exact(self, c, n, field):
        rng = Random((c, n, field.p).__repr__())
        for _ in range(3):
            rep = verify_bgg_square(random_module_complex(rng, field, c, (0, 2)), n)
            assert (rep.n, rep.ok, rep.detail) == (n, True, "exact equality")


# SHA-256 of the documents of bgg_complex(mc).complex followed by
# bgg_periodic(compress_modules(mc, n)) for three seeded module complexes
# mc over QQ and three over GF(5), recorded at commit 0836826, before the
# bounded and periodic BGG differentials were built by one totalization.
BGG_SHA256 = {
    (1, 1): "39b3c54b827eb4f121dabe547ce37f543211b69b7b63f744d6b34d4f450c733f",
    (1, 2): "6cc9b5634e137a3d066c38603f7bc990568dd80297690b693ff4b5379f5205d4",
    (1, 3): "58c7cd860c339b6f81368300be6343b2e17a1c2a22e48931ce4e54a19a6f781e",
    (2, 1): "bb08ce8ddab3489d532f3675aa47f16c9ff1662fea60edebab39e70dfaaaca6b",
    (2, 2): "a1fdad259637f260a6f50fab0351585238ddca92cad85df5bcc41e4b0509b2cb",
    (2, 3): "a9bd0e00b4c76da2f795fe596dc68610642a05c7ce84d0f1778dae6ef840c3fe",
}


@pytest.mark.parametrize("c, n", sorted(BGG_SHA256))
def test_bgg_construction_bytes(c, n):
    digest = hashlib.sha256()
    for field in (QQ, F5):
        rng = Random(f"bgg bytes {c} {n} {field!r}")
        for _ in range(3):
            mc = random_module_complex(rng, field, c, (0, 2))
            digest.update(serialize_document(bgg_complex(mc).complex))
            digest.update(serialize_document(bgg_periodic(compress_modules(mc, n))))
    assert digest.hexdigest() == BGG_SHA256[(c, n)]


class TestSquareMismatch:
    @pytest.mark.parametrize("field", [QQ, F5], ids=repr)
    @pytest.mark.parametrize("c", [1, 2])
    def test_sign_flipped_functor_is_rejected(self, c, field):
        # Negating every differential is a diagonal sign change when n is
        # even, so a check up to signs would accept it.
        n = 2
        folded, other, labels = bgg_square_sides(seeded_module_complex(c, field, c), n)
        assert _square_mismatch(folded, other, labels) is None
        first = next(r for r in range(n) if not other.diffs[r].is_zero())
        want = f"differentials disagree at residue {first}"
        assert _square_mismatch(folded, negated(other), labels) == want

    def test_negated_cone_side_is_rejected(self):
        rng = Random(73)
        x = random_bounded_complex(rng, QQ, max_dim=2, max_width=3)
        f = random_chain_map(rng, x, x)
        c = cone(f).complex
        other = periodic_cone(compress_map(f, 2))
        columns, dim, _, _ = _cone_grid(f)
        labels = lambda r: _fold_labels(c, 2, r, columns, lambda i: 1, dim)  # noqa: E731
        assert _square_mismatch(compress(c, 2), other, labels) is None
        first = next(r for r in range(2) if not other.diffs[r].is_zero())
        assert _square_mismatch(compress(c, 2), negated(other), labels) == f"differentials disagree at residue {first}"

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dropped_label_is_a_summand_mismatch(self, n, side):
        folded, other, labels = bgg_square_sides(seeded_module_complex(5, QQ, 1), n)
        r = next(r for r in range(n) if folded.dims[r])

        def dropping(t):
            pair = list(labels(t))
            if t == r:
                pair[side] = pair[side][:-1]
            return tuple(pair)

        assert _square_mismatch(folded, other, dropping) == f"summand mismatch at residue {r}"

    def test_foreign_label_is_a_summand_mismatch(self):
        folded, other, labels = bgg_square_sides(seeded_module_complex(6, F5, 2), 1)

        def renamed(t):
            src, dst = labels(t)
            return src, dst[:-1] + [("elsewhere",)]

        assert _square_mismatch(folded, other, renamed) == "summand mismatch at residue 0"


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.sampled_from([1, 2, 3]),
    field=st.sampled_from([QQ, F5]),
    width=st.integers(0, 3),
)
def test_bgg_cohomology_matches_koszul_tor(seed, c, field, width):
    m = random_graded_module(Random(seed), field, c, (0, min(width, 2) if c == 3 else width))
    coh = dict(cohomology_dims(bgg_module(m).complex))
    assert coh == {j: koszul_tor_dims(m, j) for j in m.degrees()}


def bgg_double_complex(mc):
    """The BGG double complex of mc from public constructions: column j is
    `bgg_module` of term j, the vertical maps are 1 (x) the maps of mc."""
    field = mc.modules[0].field
    cells, horizontal, vertical = {}, {}, {}
    for j in mc.homological_degrees():
        column = bgg_module(mc.module(j))
        for i in column.complex.degrees():
            cells[(i, j)] = column.complex.dim(i)
            horizontal[(i, j)] = column.complex.diff(i)
            if j < mc.jhi:
                vertical[(i, j)] = kron(identity(field, column.dual.total_dim), mc.map_at(j, i))
    return DoubleComplex(field, cells, horizontal, vertical)


class TestTotalComplex:
    @pytest.mark.parametrize("field", [QQ, F5])
    @pytest.mark.parametrize("c", [1, 2, 3])
    def test_totalizes_the_bgg_grid_as_bgg_complex(self, c, field):
        for seed in range(4):
            mc = random_module_complex(Random(f"total {c} {field!r} {seed}"), field, c, (0, 2))
            grid = bgg_double_complex(mc)
            total = total_complex(grid)
            assert total.complex == bgg_complex(mc).complex
            for l, cells in total.summands.items():
                columns = [i for i, _ in cells]
                assert columns == sorted(set(columns))
                assert all(i + j == l and grid.dim(i, j) for i, j in cells)
                assert sum(grid.dim(*cell) for cell in cells) == total.complex.dim(l)

    def test_mis_shaped_horizontal_map(self):
        grid = DoubleComplex(F5, {(0, 0): 1, (1, 0): 1}, {(0, 0): zeros(F5, 2, 1)}, {})
        with pytest.raises(ShapeError) as exc:
            total_complex(grid)
        assert str(exc.value) == "horizontal map at (0, 0) has the wrong shape"

    def test_row_that_does_not_square_to_zero(self):
        one = mat(F5, [[1]])
        grid = DoubleComplex(F5, {(0, 0): 1, (1, 0): 1, (2, 0): 1}, {(0, 0): one, (1, 0): one}, {})
        with pytest.raises(ValueError) as exc:
            total_complex(grid)
        assert str(exc.value) == "row 0 does not square to zero at (0, 0)"
