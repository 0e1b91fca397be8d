"""The BGG folding square, the one comparison helper and the one label rule
(`_square_mismatch`, `_fold_labels`) behind the three folding squares
(cone, tensor, BGG), the BGG construction bytes, the dual exterior algebra
and the index form of every exterior action against their constructions
from field scalars and by the dense route, the cell sizes a `BGGComplex`
stores, the signed gathers of `_linearity` and the `validate_bgg` verdicts
against the dense products, the linearity check of `bgg_periodic`, and the
BGG cohomology against the Koszul-complex Tor oracle."""

import hashlib
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from oracles import dense_linearity, index_matrices, koszul_tor_dims, kron_bgg_actions, scalar_lambda_dual
from perhom import (
    GF,
    QQ,
    BGGComplex,
    BoundedComplex,
    DoubleComplex,
    Violation,
    PeriodicComplex,
    bgg_complex,
    bgg_module,
    bgg_periodic,
    cohomology_dims,
    compress,
    compress_map,
    compress_modules,
    cone,
    free_module,
    lambda_dual,
    periodic_cone,
    serialize_document,
    polynomial_algebra,
    total_complex,
    validate,
    validate_bgg,
    verify_bgg_square,
)
from perhom.graded import ModuleComplex
from perhom import koszul
from perhom.koszul import _linearity, _term_index
from perhom.linalg import ShapeError, identity, kron, mat, zeros
from perhom.complexes import _cone_grid
from perhom.periodic import _fold_labels, _square_mismatch
from perhom.samples import random_bounded_complex, random_chain_map, random_graded_module, random_module_complex
from strategies import SETTINGS, matrices

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


@pytest.mark.parametrize("field", [QQ, GF(2), F5], ids=repr)
@pytest.mark.parametrize("c", range(1, 7))
def test_lambda_dual_matches_the_scalar_construction(c, field):
    dual = lambda_dual(c, field)
    scalar = scalar_lambda_dual(c, field)
    assert (dual.monomials, dual.actions) == scalar[:2]
    size = 2**c
    assert (index_matrices(field, size, dual.index), index_matrices(field, size, dual.signed_index)) == scalar[1:]


@st.composite
def signed_partial_permutations(draw, n, c):
    """The index form (rows, cols, signs) of c signed n x n partial
    permutations with k entries each, 0 <= k <= n: c x k arrays, row j for
    permutation j."""
    k = draw(st.integers(0, n))
    rows, cols, signs = [], [], []
    for _ in range(c):
        rows.append(draw(st.permutations(range(n)))[:k])
        cols.append(draw(st.permutations(range(n)))[:k])
        signs.append(draw(st.lists(st.sampled_from([1, -1]), min_size=k, max_size=k)))
    return tuple(np.array(x, dtype=np.int64).reshape(c, k) for x in (rows, cols, signs))


@SETTINGS
@given(data=st.data(), field=st.sampled_from([QQ, GF(2), F5, GF(2147483629)]))
def test_signed_gather_is_the_dense_product(data, field):
    # One differential d, out of term 0 into term 1 of a bounded complex or
    # back into term 0 of a 1-periodic one, and c generators acting on each
    # term by drawn signed partial permutations: `_linearity` gives the
    # verdict of the dense products.
    c, n, periodic = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 4)), data.draw(st.booleans())
    dims = (n,) if periodic else (n, data.draw(st.integers(0, 4)))
    forms = [data.draw(signed_partial_permutations(size, c)) for size in dims]
    actions = [index_matrices(field, size, form) for size, form in zip(dims, forms)]
    # Over QQ a denominator, so the gathers must cancel what the dropped
    # rows or columns shared with it.
    den = Fraction(1, data.draw(st.integers(1, 4))) if field.p is None else 1
    commuting = periodic and data.draw(st.booleans())
    if commuting:
        # Every generator acts by the first permutation P, and d = x + y P
        # commutes with it.
        forms = [tuple(np.repeat(a[:1], c, axis=0) for a in forms[0])]
        actions = [(actions[0][0],) * c]
        x, y = (data.draw(st.integers(-2, 2)) for _ in range(2))
        d = identity(field, n).scale(x) + actions[0][0].scale(y)
    else:
        d = data.draw(matrices(field, dims[-1], n))
    d = d.scale(den)
    cx = PeriodicComplex(field, 1, dims, (d,)) if periodic else BoundedComplex(field, 0, dims, (d,))
    want = dense_linearity(cx, actions)
    assert _linearity(cx, forms) == want
    assert want is None or not commuting


def bgg_cases(seed, c, field, kind):
    """A BGG complex built by `_bgg_total` and the module complex behind it."""
    rng = Random(seed)
    if kind == "complex":
        mc = random_module_complex(rng, field, c, (0, 2))
        return bgg_complex(mc), mc
    if kind == "module":
        m = random_graded_module(rng, field, c, (0, 2))
    else:
        m = free_module(field, polynomial_algebra(c), 0, (0, 2))
    return bgg_module(m), ModuleComplex(0, (m,), ())


@SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    c=st.sampled_from([1, 2, 3]),
    field=st.sampled_from([QQ, GF(2), F5]),
    kind=st.sampled_from(["module", "free", "complex"]),
)
def test_index_form_reproduces_the_dense_actions(seed, c, field, kind):
    b, mc = bgg_cases(seed, c, field, kind)
    assert b.actions == kron_bgg_actions(b, mc)
    assert len(_term_index(b)) == len(b.complex.dims)
    for k, (rows, cols, signs) in enumerate(_term_index(b)):
        assert index_matrices(field, b.complex.dims[k], (rows, cols, signs)) == b.actions[k]
        for j in range(c):
            assert len(set(rows[j].tolist())) == len(set(cols[j].tolist())) == rows.shape[1]
        assert set(signs.flat) <= {1, -1}


def unit(field, rows, cols, r, s):
    """The rows x cols matrix with a 1 at (r, s) and zeros elsewhere."""
    return mat(field, [[int((x, y) == (r, s)) for y in range(cols)] for x in range(rows)], rows=rows, cols=cols)


class TestLinearityMutations:
    """One changed entry, of a differential or of an action, gives the same
    verdict from the signed gathers of `_linearity` and from the dense
    products of the oracle, and that verdict is the one worked out by
    hand."""

    @staticmethod
    def verdicts(cx, actions, index):
        """The verdicts on cx of `_linearity` with the index form and of the
        dense oracle with the matrices of the actions."""
        return _linearity(cx, index), dense_linearity(cx, actions)

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1), c=st.sampled_from([1, 2, 3]), field=st.sampled_from([QQ, GF(2), F5]), data=st.data()
    )
    def test_changed_differential_entry(self, seed, c, field, data):
        # With two terms there is one differential, so only linearity can
        # fail.  Adding E = E_rs to d adds E A_j - A_j E, which is zero
        # exactly when row s of A_j and column r of A_j are: when index
        # j + 1 lies in the monomial of s and not in that of r.
        b = bgg_module(random_graded_module(Random(seed), field, c, (0, 1)))
        a, n = b.complex.dims
        assume(a and n)
        r, s = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, a - 1))
        cx = BoundedComplex(field, 0, (a, n), (b.complex.diff(0) + unit(field, n, a, r, s),))
        size = b.dual.total_dim
        rmono, smono = b.dual.monomials[r // (n // size)], b.dual.monomials[s // (a // size)]
        failing = [j for j in range(c) if j + 1 in rmono or j + 1 not in smono]
        want = None
        if failing:
            want = Violation("linearity", 0, f"differential does not commute with generator {failing[0]}")
        assert self.verdicts(cx, b.actions, _term_index(b)) == (want, want)
        assert validate_bgg(BGGComplex(b.dual, cx, b.cells)) == want

    @SETTINGS
    @given(
        seed=st.integers(0, 2**32 - 1), c=st.sampled_from([1, 2, 3]), field=st.sampled_from([QQ, F5]), data=st.data()
    )
    def test_negated_action_entry(self, seed, c, field, data):
        # Negating entry (r, s) of the action A_j on term k changes row r of
        # A_j d_(k-1) by a multiple of row s of d_(k-1), and column s of
        # d_k A_j by a multiple of column r of d_k; only generator j can
        # fail, and degree k - 1 is checked first.
        b = bgg_module(random_graded_module(Random(seed), field, c, (0, 2)))
        cx, dims = b.complex, b.complex.dims
        k = data.draw(st.integers(0, len(dims) - 1))
        assume(dims[k])
        rows, cols, signs = _term_index(b)[k]
        j, t = data.draw(st.integers(0, c - 1)), data.draw(st.integers(0, rows.shape[1] - 1))
        r, s = int(rows[j, t]), int(cols[j, t])
        flipped = signs.copy()
        flipped[j, t] *= -1
        index = _term_index(b)[:k] + ((rows, cols, flipped),) + _term_index(b)[k + 1 :]
        action = b.actions[k][j] + unit(field, dims[k], dims[k], r, s).scale(-2 * int(signs[j, t]))
        family = b.actions[k][:j] + (action,) + b.actions[k][j + 1 :]
        actions = b.actions[:k] + (family,) + b.actions[k + 1 :]
        into = k > 0 and cx.diff(cx.lo + k - 1).array[s].any()
        out = k + 1 < len(dims) and cx.diff(cx.lo + k).array[:, r].any()
        degree = cx.lo + k - (1 if into else 0)
        want = None
        if into or out:
            want = Violation("linearity", degree, f"differential does not commute with generator {j}")
        assert self.verdicts(cx, actions, index) == (want, want)


class TestCells:
    """A `BGGComplex` is its dual, its complex and its cell sizes: the cells
    fix the action, and cells that do not make up the terms are refused."""

    def test_cells_fix_the_action(self):
        # On one term of dimension 4 with c = 1, whose action on the dual is
        # a = -e_12: cells (1, 1) give diag(a, a), cells (2,) give
        # kron(a, 1_2).
        dual = lambda_dual(1, QQ)
        cx = BoundedComplex(QQ, 0, (4,), ())
        split, whole = BGGComplex(dual, cx, ((1, 1),)), BGGComplex(dual, cx, ((2,),))
        assert split != whole and split == BGGComplex(dual, cx, ((1, 1),))
        assert split.actions == ((mat(QQ, [[0, -1, 0, 0], [0, 0, 0, 0], [0, 0, 0, -1], [0, 0, 0, 0]]),),)
        assert whole.actions == ((mat(QQ, [[0, 0, -1, 0], [0, 0, 0, -1], [0, 0, 0, 0], [0, 0, 0, 0]]),),)

    @pytest.mark.parametrize("cells", [((1,),), ((3,),), ((2,), (1,)), ((2, 0),), ((3, -1),), ()], ids=repr)
    def test_mismatched_cells_raise(self, cells):
        cx = BoundedComplex(QQ, 0, (4,), ())
        with pytest.raises(ShapeError) as caught:
            BGGComplex(lambda_dual(1, QQ), cx, cells)
        assert str(caught.value) == f"cells {cells} do not make up terms of dimensions (4,)"

    def test_periodic_cells_are_checked(self):
        cx = PeriodicComplex(F5, 2, (2, 4), (zeros(F5, 4, 2), zeros(F5, 2, 4)))
        assert BGGComplex(lambda_dual(1, F5), cx, ((1,), (1, 1))).cells == ((1,), (1, 1))
        with pytest.raises(ShapeError):
            BGGComplex(lambda_dual(1, F5), cx, ((1,), (1,)))


def plus_one_at(original, field, pick):
    """`_bgg_differential` with 1 added to entry (r, s) of the block of the
    calls for which pick(call number, internal degree, shape) gives (r, s),
    and unchanged where it gives None."""
    calls = []

    def corrupted(dual, m, i):
        d = original(dual, m, i)
        at = pick(len(calls), i, d.shape)
        calls.append(d.shape)
        return d if at is None else d + unit(field, *d.shape, *at)

    return corrupted, calls


class TestPeriodicLinearity:
    """`bgg_periodic` checks its output for exterior linearity as well as
    square zero: a corrupted functor differential is refused exactly when
    the oracles refuse the complex it gives."""

    def test_refuses_a_square_zero_differential_that_is_not_linear(self, monkeypatch):
        # M = k[x] on degrees 0 and 1, folded mod 2: term 0 is dual (x) M_0,
        # term 1 is dual (x) M_1, and d out of term 1 is zero, so d squares
        # to zero whatever d out of term 0 is.  That map is e_12; adding e_21
        # gives d a - a d = diag(1, -1) for the action a = -e_12.
        m = free_module(QQ, polynomial_algebra(1), 0, (0, 1))
        pm = compress_modules(ModuleComplex(0, (m,), ()), 2)
        assert bgg_periodic(pm).diffs == (mat(QQ, [[0, 1], [0, 0]]), zeros(QQ, 2, 2))
        corrupted, _ = plus_one_at(koszul._bgg_differential, QQ, lambda t, i, shape: (1, 0) if i == 0 else None)
        monkeypatch.setattr(koszul, "_bgg_differential", corrupted)
        with pytest.raises(AssertionError) as caught:
            bgg_periodic(pm)
        want = "linearity at degree 0: differential does not commute with generator 0"
        assert str(caught.value) == f"construction violated its own invariant: {want}"

    @pytest.mark.parametrize("field", [QQ, F5], ids=repr)
    def test_refuses_what_the_oracles_refuse(self, monkeypatch, field):
        original, check = koszul._bgg_differential, koszul.validate_bgg
        built, linearity_only = [], 0
        monkeypatch.setattr(koszul, "validate_bgg", lambda b: built.append(b) or check(b))
        for seed in range(30):
            rng = Random(f"corrupt {seed} {field!r}")
            mc = random_module_complex(rng, field, rng.randint(1, 2), (0, 2))
            pm = compress_modules(mc, rng.randint(1, 3))
            counting, calls = plus_one_at(original, field, lambda t, i, shape: None)
            monkeypatch.setattr(koszul, "_bgg_differential", counting)
            bgg_periodic(pm)
            if not calls:
                continue
            t = rng.randrange(len(calls))
            at = tuple(rng.randrange(x) for x in calls[t])
            corrupted, _ = plus_one_at(original, field, lambda u, i, shape: at if u == t else None)
            monkeypatch.setattr(koszul, "_bgg_differential", corrupted)
            try:
                bgg_periodic(pm)
                refused = False
            except AssertionError:
                refused = True
            b = built[-1]
            square = validate(b.complex)
            want = square or dense_linearity(b.complex, kron_bgg_actions(b, pm))
            assert refused == (want is not None)
            linearity_only += square is None and want is not None
        assert linearity_only


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
