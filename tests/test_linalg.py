import json
import math
import operator
from fractions import Fraction
from random import Random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perhom import koszul, linalg, samples
from perhom.documents import matrix_doc
from perhom.linalg import (
    GF,
    QQ,
    BlockSystem,
    Field,
    FieldMismatch,
    Matrix,
    ShapeError,
    assemble_blocks,
    hstack,
    identity,
    kernel_basis,
    kron,
    mat,
    rank,
    rref,
    solve_linear,
    submatrix,
    unvec,
    vec,
    vstack,
    zeros,
)
from oracles import (
    brute_rank_fp,
    entries_blocks,
    entries_stack,
    entries_submatrix,
    entries_transpose,
    entries_unvec,
    entries_vec,
    fp_entrywise,
    fp_kernel_basis,
    fp_kron,
    fp_product,
    fp_rref,
    fp_solve,
    qq_entrywise,
    qq_kernel_basis,
    qq_kron,
    qq_product,
    qq_rref,
    qq_solve,
    rhs_vector,
    sympy_rank,
)
from strategies import SETTINGS


def rand_mat(rng, field, rows, cols, bound=3):
    if field.p is None:
        return mat(field, [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)], rows=rows, cols=cols)
    return mat(field, [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)], rows=rows, cols=cols)


class TestField:
    def test_prime_accepted(self):
        assert GF(2).p == 2
        assert GF(2147483647).p == 2147483647  # 2^31 - 1 is prime

    @pytest.mark.parametrize("p", [0, 1, 4, 9, 15, 2**31])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError):
            Field(p)

    def test_rational_coercion_round_trips(self):
        rng = Random(1)
        for _ in range(200):
            a, b = rng.randint(-50, 50), rng.randint(1, 50)
            x = Fraction(a, b)
            assert QQ.coerce(str(x)) == x
            assert x.denominator > 0

    def test_equality_and_hash(self):
        a, b = GF(7), GF(7)
        assert a is not b
        assert a == b and hash(a) == hash(b) and not a != b
        assert QQ == Field() and hash(QQ) == hash(Field())
        assert QQ != GF(7) and GF(5) != GF(7)
        assert a.__eq__(7) is NotImplemented and a != 7

    @pytest.mark.parametrize("field", [QQ, GF(5)], ids=repr)
    @pytest.mark.parametrize("text", ["0.5", "1e3", " 1/2", "1_000", " 7", "+5", "\u0663"])
    def test_mat_refuses_what_documents_refuse(self, field, text):
        kind = "rational" if field.p is None else "residue"
        with pytest.raises(ValueError) as caught:
            mat(field, [[text]])
        assert str(caught.value) == f"not a {kind}: {text!r}"

    def test_numpy_integers_coerce_as_ints(self):
        # What the constructor stores, `mat` takes: numpy integers are
        # Integral, numpy bools and floats are not.
        assert mat(QQ, [[np.int64(3)]]) == Matrix(QQ, 1, 1, ((np.int64(3),),)) == mat(QQ, [[3]])
        assert mat(GF(5), [[np.int64(7), np.uint8(9)]]) == mat(GF(5), [[2, 4]])
        assert type(GF(5).coerce(np.int32(-1))) is int and GF(5).coerce(np.int32(-1)) == 4
        assert type(QQ.coerce(np.int64(3)).numerator) is int
        assert mat(QQ, [[1]]).scale(np.int16(2)) == mat(QQ, [[2]])
        for field, message in ((QQ, "expected a rational string"), (GF(5), "expected a residue")):
            with pytest.raises(TypeError, match=f"^{message}$"):
                field.coerce(np.bool_(True))
        with pytest.raises(TypeError, match="^floats are not allowed$"):
            QQ.coerce(np.float64(3.0))

    def test_exact_rational_sum(self):
        a = Fraction(1, 3) + Fraction(1, 6)
        assert a == Fraction(1, 2)
        assert QQ.coerce("1/3") + QQ.coerce("1/6") == QQ.coerce("1/2")


class TestRank:
    def test_dependent_rows(self):
        assert rank(mat(QQ, [[1, 2], [2, 4]])) == 1

    def test_empty_matrix(self):
        assert rank(zeros(QQ, 0, 5)) == 0
        assert rank(zeros(GF(5), 3, 0)) == 0

    def test_single_nonzero_row_fp(self):
        assert rank(mat(GF(5), [[0, 1], [0, 0]])) == 1

    def test_rank_equals_transpose_rank(self):
        rng = Random(2)
        for k in range(40):
            field = QQ if k % 2 else GF(5)
            m = rand_mat(rng, field, rng.randint(0, 5), rng.randint(0, 5))
            assert rank(m) == rank(m.transpose())

    def test_against_brute_force_fp(self):
        rng = Random(3)
        for k in range(30):
            field = GF(2) if k % 2 else GF(3)
            m = rand_mat(rng, field, rng.randint(0, 3), rng.randint(0, 4))
            assert rank(m) == brute_rank_fp(m)

    def test_against_sympy_qq(self):
        rng = Random(4)
        for _ in range(25):
            m = rand_mat(rng, QQ, rng.randint(1, 6), rng.randint(1, 6))
            assert rank(m) == sympy_rank(m)

    def test_large_prime_field(self):
        p = 2147483647
        m = mat(GF(p), [[p - 1, 1], [1, p - 1]])
        # determinant (p-1)^2 - 1 = p^2 - 2p = 0 mod p, so rank drops
        assert rank(m) == 1


class TestKernel:
    def test_coordinate_axis(self):
        k = kernel_basis(mat(QQ, [[0, 1], [0, 0]]))
        assert k.entries == ((Fraction(1),), (Fraction(0),))

    def test_injective_map(self):
        assert kernel_basis(identity(QQ, 3)).cols == 0

    def test_sum_zero_vectors_f2(self):
        k = kernel_basis(mat(GF(2), [[1, 1]]))
        assert k.entries == ((1,), (1,))

    def test_rank_nullity(self):
        rng = Random(5)
        for k in range(40):
            field = GF(7) if k % 2 else QQ
            m = rand_mat(rng, field, rng.randint(0, 5), rng.randint(0, 5))
            basis = kernel_basis(m)
            assert m.cols == rank(m) + basis.cols
            if basis.cols:
                assert (m @ basis).is_zero()
                assert rank(basis) == basis.cols


class TestSolve:
    def test_direct_read_off(self):
        x = solve_linear(mat(QQ, [[1, 0], [0, 0]]), mat(QQ, [[1], [0]]))
        assert x.entries == ((Fraction(1),), (Fraction(0),))

    def test_unsolvable(self):
        assert solve_linear(mat(QQ, [[0]]), mat(QQ, [[1]])) is None

    def test_inverse_mod_five(self):
        x = solve_linear(mat(GF(5), [[2]]), mat(GF(5), [[1]]))
        assert x.entries == ((3,),)

    def test_solution_is_exact_or_rank_jumps(self):
        rng = Random(6)
        for k in range(40):
            field = QQ if k % 2 else GF(3)
            a = rand_mat(rng, field, rng.randint(1, 4), rng.randint(1, 4))
            b = rand_mat(rng, field, a.rows, rng.randint(1, 2))
            x = solve_linear(a, b)
            if x is None:
                assert rank(hstack([a, b])) > rank(a)
            else:
                assert a @ x == b

    def test_shape_and_field_errors(self):
        with pytest.raises(ShapeError):
            solve_linear(zeros(QQ, 2, 2), zeros(QQ, 3, 1))
        with pytest.raises(FieldMismatch):
            solve_linear(zeros(QQ, 2, 2), zeros(GF(5), 2, 1))


class TestStructure:
    def test_kron_vec_law(self):
        rng = Random(7)
        for k in range(25):
            field = GF(5) if k % 2 else QQ
            a = rand_mat(rng, field, 2, 3)
            u = rand_mat(rng, field, 3, 2)
            b = rand_mat(rng, field, 2, 4)
            assert vec(a @ u @ b) == kron(a, b.transpose()) @ vec(u)

    def test_unvec_inverts_vec(self):
        rng = Random(8)
        m = rand_mat(rng, QQ, 3, 4)
        assert unvec(vec(m), 3, 4) == m

    def test_permutations(self):
        m = mat(QQ, [[1, 2], [3, 4]])
        assert submatrix(m, [1, 0], [0, 1]).entries == ((Fraction(3), Fraction(4)), (Fraction(1), Fraction(2)))
        assert submatrix(m, [0, 1], [1, 0]).entries == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))

    def test_block_system_accumulates(self):
        # One unknown 1x1 block u appearing twice in one equation: 2u = 4.
        sys = BlockSystem(QQ)
        sys.add_unknown("u", 1, 1)
        sys.add_equation("e", 1, 1)
        sys.add_term("e", "u")
        sys.add_term("e", "u")
        x = solve_linear(sys.matrix(), rhs_vector(sys, {"e": mat(QQ, [[4]])}))
        assert sys.split_solution(x)["u"] == mat(QQ, [[2]])

    def test_matmul_big_prime_exact(self):
        p = 2147483647
        f = GF(p)
        a = mat(f, [[p - 1, p - 2], [1, p - 1]])
        b = mat(f, [[p - 1], [p - 1]])
        got = a @ b
        want = [[((p - 1) * (p - 1) + (p - 2) * (p - 1)) % p], [((p - 1) + (p - 1) * (p - 1)) % p]]
        assert got == mat(f, want)


# At inner dimension k = 64, 11863279 is the largest prime with
# k (p-1)^2 < 2^53, where products may run in float64, and 11863289 the
# first prime above it, so its products run in int64; 2147483629 takes the
# 16-bit limb kernel.
KERNEL_PRIMES = [2, 5, 32003, 11863279, 11863289, 2147483629]

# (rows, inner, cols) on both sides of 16^3 multiply-adds, the size from
# which float64 products are used, plus empty shapes.
PRODUCT_SHAPES = [(3, 64, 5), (15, 16, 16), (16, 16, 16), (20, 64, 20), (0, 64, 7), (7, 64, 0), (4, 0, 6)]


def fp_fill(rng, field, rows, cols, fill):
    """"top": every entry p - 1, so a product meets the bound k (p-1)^2;
    "near": entries in [p - 3, p), whose partial sums cross 2^53 where
    k (p-1)^2 does; "any": uniform residues."""
    p = field.p
    low = {"top": p - 1, "near": max(0, p - 3), "any": 0}[fill]
    return mat(field, [[rng.randrange(low, p) for _ in range(cols)] for _ in range(rows)], rows=rows, cols=cols)


def python_ints(m):
    return all(type(x) is int for row in m.entries for x in row)


class TestFpKernels:
    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_product_matches_oracle(self, p):
        rng = Random(p)
        for rows, inner, cols in PRODUCT_SHAPES:
            for fill in ("top", "near", "any"):
                a = fp_fill(rng, GF(p), rows, inner, fill)
                b = fp_fill(rng, GF(p), inner, cols, fill)
                got = a @ b
                assert got.shape == (rows, cols)
                assert got.entries == fp_product(a, b)
                assert python_ints(got)

    @pytest.mark.parametrize("p", KERNEL_PRIMES)
    def test_entrywise_and_structural_ops_match_oracle(self, p):
        rng = Random(-p)
        field = GF(p)
        for rows, cols in [(3, 4), (1, 1), (0, 3), (3, 0)]:
            for fill in ("top", "near", "any"):
                a, b = fp_fill(rng, field, rows, cols, fill), fp_fill(rng, field, rows, cols, fill)
                c = fp_fill(rng, field, 2, 3, fill)
                row_perm, col_perm = rng.sample(range(rows), rows), rng.sample(range(cols), cols)
                cases = [
                    (a + b, fp_entrywise(operator.add, a, b)),
                    (a - b, fp_entrywise(operator.sub, a, b)),
                    (-a, fp_entrywise(operator.neg, a)),
                    (a.scale(p - 1), fp_entrywise(lambda x: x * (p - 1), a)),
                    (kron(a, c), fp_kron(a, c)),
                    (kron(c, a), fp_kron(c, a)),
                    (a.transpose(), tuple(tuple(a.entries[i][j] for i in range(rows)) for j in range(cols))),
                    (hstack([a, b]), tuple(r + s for r, s in zip(a.entries, b.entries))),
                    (vstack([a, b]), a.entries + b.entries),
                    (submatrix(a, row_perm, range(cols)), tuple(a.entries[i] for i in row_perm)),
                    (submatrix(a, range(rows), col_perm), tuple(tuple(r[j] for j in col_perm) for r in a.entries)),
                    (
                        assemble_blocks(field, [rows, 2], [cols, 3], {(0, 0): a, (1, 1): c}),
                        tuple(r + (0,) * 3 for r in a.entries) + tuple((0,) * cols + r for r in c.entries),
                    ),
                ]
                for got, want in cases:
                    assert got.entries == want
                    assert python_ints(got)
                assert a.transpose().shape == (cols, rows)
                assert hstack([a, b]).shape == (rows, 2 * cols)

    @pytest.mark.parametrize("k", [1, 2, 17, 65537, 65538])
    def test_limb_product_matches_oracle(self, k):
        # At p = 2147483629, k (p-1)^2 >= 2^62 from k = 2 on, so products
        # take the 16-bit limb kernel while k (p-1) (2^16-1) < 2^63, that is
        # up to k = 65537, and object-dtype `@` from k = 65538.  Left rows of
        # p - 1 against right entries whose low limb is 2^16 - 1 meet that
        # bound, so a limb product past it would overflow int64.
        p = 2147483629
        field, rng = GF(p), Random(k)
        a = mat(field, [[p - 1] * k, [rng.randrange(p) for _ in range(k)]])
        b = mat(field, [[0x7FFEFFFF, rng.randrange(p), p - 1] for _ in range(k)])
        got = a @ b
        assert got.entries == fp_product(a, b)
        assert python_ints(got)


class TestValueSemantics:
    def test_tuple_and_array_built_matrices_are_equal_and_hash_equal(self):
        field = GF(7)
        rows = ((1, 2, 3), (4, 5, 6))
        source = np.array(rows)
        built = [
            Matrix(field, 2, 3, rows),
            Matrix(field, 2, 3, source),
            mat(field, rows),
            identity(field, 2) @ mat(field, rows),
            mat(field, rows).transpose().transpose(),
        ]
        source[0, 0] = 6
        for m in built:
            assert m == built[0]
            assert hash(m) == hash(built[0])
        assert built[1].entries == rows
        assert mat(field, ((1, 2, 3), (4, 5, 0))) != built[0]
        assert Matrix(field, 3, 2, ((1, 2), (3, 4), (5, 6))) != built[0]
        assert mat(GF(11), rows) != built[0]
        assert zeros(field, 0, 3) != zeros(field, 3, 0)
        assert built[0] != rows

    def test_entries_are_python_ints(self):
        field = GF(32003)
        a = fp_fill(Random(9), field, 20, 20, "any")
        for m in (a @ a, kron(a, a), a + a, -a, rref(a)[0], a.transpose(), hstack([a, a])):
            assert python_ints(m)
            assert type(m.entry(1, 2)) is int
            assert field.coerce(m.entry(1, 2)) == m.entry(1, 2)
            assert json.loads(json.dumps(matrix_doc(m))) == [list(r) for r in m.entries]

    def test_backing_array_is_read_only(self):
        field = GF(5)
        a = mat(field, [[1, 2], [3, 4]])
        for m in (a, a @ a, a + a, a.transpose(), kron(a, a), rref(a)[0], zeros(field, 2, 2), identity(field, 2)):
            with pytest.raises(ValueError):
                m.array[0, 0] = 1
        assert a == mat(field, [[1, 2], [3, 4]])


def rationals():
    """Zero, small integers, small fractions, and fractions whose numerator
    and denominator reach past 2^63."""
    return st.one_of(
        st.just(Fraction(0)),
        st.integers(-3, 3).map(Fraction),
        st.builds(Fraction, st.integers(-3, 3), st.integers(1, 4)),
        st.builds(Fraction, st.integers(2**63, 2**80) | st.integers(-(2**80), -(2**63)), st.integers(2**63, 2**80)),
    )


@st.composite
def qq_matrices(draw, rows, cols):
    return Matrix(QQ, rows, cols, tuple(tuple(draw(rationals()) for _ in range(cols)) for _ in range(rows)))


def assert_canonical(m):
    """m is array / den with den > 0 and no factor common to den and every
    numerator; the array is read-only and holds Python ints; entries are
    Fractions in lowest terms; rebuilding m from its entries gives an equal
    matrix with an equal hash."""
    assert type(m.den) is int and m.den > 0
    assert math.gcd(m.den, *m.array.flat) == 1
    assert m.array.dtype == object and all(type(x) is int for x in m.array.flat)
    assert not m.array.flags.writeable
    for row in m.entries:
        for x in row:
            assert type(x) is Fraction and x.denominator > 0 and math.gcd(x.numerator, x.denominator) == 1
    rebuilt = Matrix(QQ, m.rows, m.cols, m.entries)
    assert rebuilt == m and hash(rebuilt) == hash(m)


class TestQqKernels:
    @settings(SETTINGS, max_examples=120)
    @given(st.data())
    def test_kernels_match_fraction_oracles(self, data):
        rows, inner, cols = (data.draw(st.integers(0, 4)) for _ in range(3))
        a, a2 = data.draw(qq_matrices(rows, inner)), data.draw(qq_matrices(rows, inner))
        b = data.draw(qq_matrices(inner, cols))
        c = data.draw(qq_matrices(rows, cols))
        scalar = data.draw(rationals())
        # a @ b has rank at most inner, so row reduction meets dependent rows.
        low = Matrix(QQ, rows, cols, qq_product(a, b))
        pick_rows = data.draw(st.lists(st.integers(0, rows - 1), max_size=5)) if rows else []
        pick_cols = data.draw(st.lists(st.integers(0, inner - 1), max_size=5)) if inner else []
        blocks = {(0, 0): a, (1, 1): b}
        cases = [
            (a @ b, qq_product(a, b)),
            (kron(a, b), qq_kron(a, b)),
            (kron(b, a), qq_kron(b, a)),
            (a + a2, qq_entrywise(operator.add, a, a2)),
            (a - a2, qq_entrywise(operator.sub, a, a2)),
            (-a, qq_entrywise(operator.neg, a)),
            (a.scale(scalar), qq_entrywise(lambda x: x * scalar, a)),
            (a.transpose(), entries_transpose(a)),
            (hstack([a, a2]), entries_stack([a, a2], 1)),
            (vstack([a, a2]), entries_stack([a, a2], 0)),
            (assemble_blocks(QQ, [rows, inner], [inner, cols], blocks), entries_blocks(QQ, [rows, inner], [inner, cols], blocks)),
            (submatrix(a, pick_rows, pick_cols), entries_submatrix(a, pick_rows, pick_cols)),
            (vec(a), entries_vec(a)),
            (unvec(vec(a), rows, inner), entries_unvec(vec(a), rows, inner)),
            (rref(low)[0], qq_rref(low)[0]),
            (rref(a)[0], qq_rref(a)[0]),
            (kernel_basis(low), qq_kernel_basis(low)),
        ]
        for got, want in cases:
            assert got.entries == want
            assert_canonical(got)
        assert rref(low)[1] == qq_rref(low)[1]
        for rhs in (c, low):
            want = qq_solve(low, rhs)
            got = solve_linear(low, rhs)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.entries == want
                assert_canonical(got)

    def test_equal_values_are_equal_across_routes(self):
        half = mat(QQ, [["1/2"]])
        assert half.den == 2 and half != identity(QQ, 1)
        for one in (half.scale(2), half + half, half @ mat(QQ, [[2]]), rref(half)[0], Matrix(QQ, 1, 1, ((1,),))):
            assert one == identity(QQ, 1) and hash(one) == hash(identity(QQ, 1))
            assert one.den == 1
        m = mat(QQ, [["2/3", "1/6"], ["-1/2", 0]])
        routes = [
            Matrix(QQ, 2, 2, ((Fraction(2, 3), Fraction(1, 6)), (Fraction(-1, 2), 0))),
            m.transpose().transpose(),
            identity(QQ, 2) @ m,
            m.scale(3).scale("1/3"),
            submatrix(hstack([m, m]), [0, 1], [2, 3]),
            unvec(vec(m), 2, 2),
        ]
        for r in routes:
            assert r == m and hash(r) == hash(m)
            assert r.den == 6
        assert m.scale(0) == zeros(QQ, 2, 2) and m.scale(0).den == 1
        assert m - m == zeros(QQ, 2, 2) and hash(m - m) == hash(zeros(QQ, 2, 2))
        assert m != mat(QQ, [["2/3", "1/6"], ["-1/2", "1/6"]])
        assert mat(QQ, [[1, 2]]) != mat(GF(5), [[1, 2]])


def mixed_denominator_matrices(rows, cols):
    """Matrices whose entries are k / den for one den per matrix, drawn from
    denominators that share factors (2, 3, 4, 6, 12) or pass 2^63, so that
    lifting several to a common denominator can go wrong in both ways."""
    dens = st.sampled_from([1, 2, 3, 4, 6, 12, 2**64, 3 * 2**64])
    return dens.flatmap(
        lambda den: st.lists(st.integers(-6, 6), min_size=rows * cols, max_size=rows * cols).map(
            lambda ks: Matrix(QQ, rows, cols, tuple(tuple(Fraction(k, den) for k in ks[i * cols : (i + 1) * cols]) for i in range(rows)))
        )
    )


class TestCanonicalRearrangements:
    @SETTINGS
    @given(st.data())
    def test_stacks_blocks_and_reshapes_are_canonical(self, data):
        # These operations skip the gcd pass of `_wrap`; the result must be
        # in lowest terms all the same.
        rows, cols = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
        count = data.draw(st.integers(1, 4))
        side = [data.draw(mixed_denominator_matrices(rows, cols)) for _ in range(count)]
        heights = [data.draw(st.integers(0, 3)) for _ in range(count)]
        tower = [data.draw(mixed_denominator_matrices(h, cols)) for h in heights]
        widths = [data.draw(st.integers(0, 3)) for _ in range(count)]
        row = [data.draw(mixed_denominator_matrices(rows, w)) for w in widths]
        keep = data.draw(st.lists(st.booleans(), min_size=count, max_size=count))
        blocks = {(t, t): tower[t] for t in range(count) if keep[t]}
        blocks.update({(t, (t + 1) % count): data.draw(mixed_denominator_matrices(heights[t], cols))
                       for t in range(count) if not keep[t]})
        grid = ([*heights], [cols] * count)
        a = side[0]
        cases = [
            (hstack(row), entries_stack(row, 1)),
            (vstack(tower), entries_stack(tower, 0)),
            (hstack(side), entries_stack(side, 1)),
            (assemble_blocks(QQ, *grid, blocks), entries_blocks(QQ, *grid, blocks)),
            (a.transpose(), entries_transpose(a)),
            (-a, qq_entrywise(operator.neg, a)),
            (vec(a), entries_vec(a)),
            (unvec(vec(a), rows, cols), entries_unvec(vec(a), rows, cols)),
        ]
        for got, want in cases:
            assert got.entries == want
            assert_canonical(got)


# Shapes on both sides of the 64 cells up to which elimination runs on
# lists: 64 and 65 cells in one row or column, 8x8 against 8x9, 5x13 (65),
# and matrices with no cells.  With one right-hand column, an 8x7 or a 1x63
# system has 64 cells in [a | b] and an 8x8 one 72.
ROUTE_SHAPES = [(1, 64), (64, 1), (8, 8), (8, 9), (1, 65), (5, 13), (0, 7), (7, 0), (8, 7), (1, 63)]
ROUTE_FIELDS = [QQ, GF(2), GF(5), GF(2147483629)]


def field_values(field):
    """Zero-heavy draws: rationals past 2^63 over QQ, residues over F_p."""
    if field.p is None:
        return rationals()
    return st.one_of(st.just(0), st.just(field.p - 1), st.integers(0, field.p - 1))


@st.composite
def route_matrices(draw, field, rows, cols):
    """A matrix of full random entries, the zero matrix, or a product of
    rank at most two, so that rows become dependent."""
    kind = draw(st.sampled_from(["any", "zero", "low"]))
    if kind == "zero":
        return zeros(field, rows, cols)
    values = field_values(field)

    def fill(r, c):
        return Matrix(field, r, c, tuple(tuple(draw(values) for _ in range(c)) for _ in range(r)))

    if kind == "any":
        return fill(rows, cols)
    k = draw(st.integers(1, 2))
    u, v = fill(rows, k), fill(k, cols)
    return Matrix(field, rows, cols, qq_product(u, v) if field.p is None else fp_product(u, v))


def assert_well_formed(m):
    if m.field.p is None:
        assert_canonical(m)
    else:
        assert m.den == 1 and python_ints(m) and not m.array.flags.writeable


class TestEliminationRoutes:
    @settings(SETTINGS, max_examples=200)
    @given(st.data())
    def test_both_routes_match_the_oracles(self, data):
        field = data.draw(st.sampled_from(ROUTE_FIELDS))
        rows, cols = data.draw(st.sampled_from(ROUTE_SHAPES))
        a = data.draw(route_matrices(field, rows, cols))
        reference = (qq_rref, qq_kernel_basis, qq_solve) if field.p is None else (fp_rref, fp_kernel_basis, fp_solve)
        want_rref, want_kernel, want_solve = reference
        reduced, pivots = rref(a)
        assert (reduced.entries, pivots) == want_rref(a)
        assert rank(a) == len(pivots)
        kernel = kernel_basis(a)
        assert kernel.entries == want_kernel(a)
        for m in (reduced, kernel):
            assert_well_formed(m)
        # A right-hand side in the image of a is solvable; a random one is
        # not when a has dependent rows.
        k = data.draw(st.integers(0, 2))
        image = a @ data.draw(route_matrices(field, cols, k))
        for b in (image, data.draw(route_matrices(field, rows, k))):
            got, want = solve_linear(a, b), want_solve(a, b)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.entries == want
                assert_well_formed(got)
        assert solve_linear(a, image) is not None

    @pytest.mark.parametrize("field", [QQ, GF(7)])
    def test_lists_run_up_to_64_cells(self, monkeypatch, field):
        # Over F_p rref runs the list loop up to 64 cells; above that it
        # runs sparse rows to the end when nnz <= 2 (rows + cols), and the
        # array loop otherwise.  Over QQ it runs the lists at every size.
        # solve_linear takes the route of rref on [a | b], and _invert_rows
        # the lists at every size over both fields.
        calls = []
        real_rows, real_sparse = linalg._rref_rows, linalg._rref_sparse
        monkeypatch.setattr(linalg, "_rref_rows", lambda *args: calls.append("lists") or real_rows(*args))
        monkeypatch.setattr(linalg, "_rref_sparse", lambda *args: calls.append("sparse") or real_sparse(*args))
        rng = Random(11)

        def route(run, *args):
            calls.clear()
            run(*args)
            return "+".join(calls) or "array"

        def full(rows, cols):
            return mat(field, [[rng.randint(1, 6) for _ in range(cols)] for _ in range(rows)], rows=rows, cols=cols)

        # Its inverse is dense upper triangular, so the rref of [u | 1]
        # has 12 + 78 entries against 35 in [u | 1].
        u = identity(field, 12) + Matrix(field, 12, 12, [[int(j == i + 1) for j in range(12)] for i in range(12)])
        perm = submatrix(identity(field, 40), range(40), [(7 * j) % 40 for j in range(40)]).scale(-1)

        def fp(name):
            return "lists" if field.p is None else name

        assert route(rref, full(8, 8)) == route(rref, full(64, 1)) == "lists"
        assert route(rref, full(5, 13)) == route(rref, full(8, 9)) == fp("array")
        assert route(rref, full(1, 65)) == route(rref, perm) == route(kernel_basis, perm) == fp("sparse")
        assert route(rref, hstack([u, identity(field, 12)])) == fp("sparse")
        assert route(solve_linear, full(8, 7), full(8, 1)) == route(solve_linear, full(1, 63), full(1, 1)) == "lists"
        assert route(solve_linear, full(8, 8), full(8, 1)) == fp("array")
        assert route(solve_linear, perm, full(40, 1)) == fp("sparse")
        assert route(solve_linear, u, identity(field, 12)) == fp("sparse")
        # _invert_rows runs the lists at every size: past the 8 x 8 that the
        # verify suites invert at most at seed 0, to 9 x 9 and the 12 x 12 u.
        for m in (u, full(9, 9), full(5, 5)):
            assert route(linalg._invert_rows, field, m.array.tolist()) == "lists"
        if field.p is None:
            assert route(rref, full(40, 80)) == route(solve_linear, full(20, 20), full(20, 20)) == "lists"

    @settings(SETTINGS, max_examples=300)
    @given(st.data())
    def test_sparse_rows_match_the_oracles(self, data):
        # Every F_p route against the oracles, on the inputs the sparse rule
        # is for: signed partial permutations, sparse matrices with zero
        # rows and empty columns on both sides of nnz = 2 (rows + cols), BGG
        # differentials, and fill-heavy ones that the sparse route carries
        # to the end.
        field = data.draw(st.sampled_from(SPARSE_FIELDS))
        a = data.draw(sparse_matrices(field))
        reduced, pivots = rref(a)
        assert (reduced.entries, pivots) == fp_rref(a)
        assert rank(a) == len(pivots)
        assert kernel_basis(a).entries == fp_kernel_basis(a)
        for m in (reduced, kernel_basis(a)):
            assert_well_formed(m)
        k = data.draw(st.integers(1, 2))
        image = a @ data.draw(sparse_matrices(field, a.cols, k))
        for b in (image, data.draw(sparse_matrices(field, a.rows, k))):
            got, want = solve_linear(a, b), fp_solve(a, b)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.entries == want
                assert_well_formed(got)
        assert solve_linear(a, image) is not None


# GF(2) and GF(5) have many zero sums; 32003 is the prime of the bgg-fp
# workload, and 2147483629 that of homotopy-fp, near the bound p < 2^31.
SPARSE_FIELDS = [GF(2), GF(5), GF(32003), GF(2147483629)]
# On both sides of 64 cells, and of the sparse rule at every fill; at
# 6 x 90 the rule admits rows of up to 32 entries, the densest inputs that
# the sparse route takes.
SPARSE_SHAPES = [(8, 8), (5, 13), (1, 65), (12, 16), (16, 12), (20, 30), (30, 20), (6, 90)]


@st.composite
def sparse_matrices(draw, field, rows=None, cols=None):
    """A signed partial permutation or a sparse matrix with some rows and
    columns zeroed; when no shape is given, also a BGG differential of a
    random graded module, or [u | diag] for an upper bidiagonal u with a
    nonzero diagonal, rows shuffled, whose rref fills in past twice its
    nonzeros and which the sparse route carries to the end."""
    kinds = ["permutation", "sparse"] + (["bgg", "fill"] if rows is None else [])
    kind = draw(st.sampled_from(kinds))
    p = field.p
    unit = st.integers(1, p - 1)
    if kind == "bgg":
        c, hi = draw(st.sampled_from([(2, 2), (3, 1), (3, 2)]))
        module = samples.random_graded_module(Random(draw(st.integers(0, 2**32))), field, c, (0, hi))
        complex_ = koszul.bgg_module(module).complex
        return complex_.diff(draw(st.sampled_from(sorted(complex_.degrees()))))
    if kind == "fill":
        n = draw(st.integers(9, 14))
        a = np.zeros((n, 2 * n), dtype=np.int64)
        for i in range(n):
            a[i, i], a[i, n + i] = draw(unit), draw(unit)
            if i + 1 < n:
                a[i, i + 1] = draw(unit)
        a = a[draw(st.permutations(range(n)))]
        return Matrix(field, n, 2 * n, a)
    if rows is None:
        rows, cols = draw(st.sampled_from(SPARSE_SHAPES))
    if rows * cols == 0:
        return zeros(field, rows, cols)
    a = np.zeros((rows, cols), dtype=np.int64)
    if kind == "permutation":
        targets = draw(st.permutations(range(cols)))
        for i in draw(st.lists(st.integers(0, rows - 1), unique=True, max_size=min(rows, cols))):
            a[i, targets[i % cols]] = draw(st.sampled_from([1, p - 1]))
    else:
        for _ in range(draw(st.integers(0, 4 * (rows + cols)))):
            a[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(unit)
        a[draw(st.lists(st.integers(0, rows - 1), max_size=2))] = 0
        a[:, draw(st.lists(st.integers(0, cols - 1), max_size=2))] = 0
    return Matrix(field, rows, cols, a)


class TestConstructor:
    def test_ints_are_reduced_mod_p(self):
        field = GF(5)
        assert Matrix(field, 1, 1, ((7,),)) == mat(field, [[2]])
        assert hash(Matrix(field, 1, 1, ((7,),))) == hash(mat(field, [[2]]))
        assert Matrix(field, 1, 1, ((-1,),)).entries == ((4,),)
        assert Matrix(field, 1, 2, ((2**70, -(2**70)),)).entries == ((2**70 % 5, -(2**70) % 5),)
        assert Matrix(field, 1, 2, np.array([[7, -1]])) == mat(field, [[2, 4]])

    def test_rationals_take_ints_and_fractions(self):
        m = Matrix(QQ, 1, 3, ((1, Fraction(1, 2), np.int64(3)),))
        assert m == mat(QQ, [["1", "1/2", "3"]]) and m.den == 2
        assert Matrix(QQ, 1, 2, np.array([[2, -4]])) == mat(QQ, [[2, -4]])

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    @pytest.mark.parametrize("bad", [0.5, 2.0, True, False, np.float64(1.0), np.bool_(True), "1", None])
    def test_floats_bools_and_other_values_raise(self, field, bad):
        with pytest.raises(TypeError):
            Matrix(field, 1, 2, ((1, bad),))

    @pytest.mark.parametrize("field", [QQ, GF(5)])
    def test_float_and_bool_arrays_raise(self, field):
        for bad in (np.array([[0.5, 1.0]]), np.array([[True, False]])):
            with pytest.raises(TypeError):
                Matrix(field, 1, 2, bad)

    def test_fraction_over_fp_raises(self):
        with pytest.raises(TypeError):
            Matrix(GF(5), 1, 1, ((Fraction(1, 2),),))


ONE, ONE_F5, ROW = mat(QQ, [[1]]), mat(GF(5), [[1]]), mat(QQ, [[1, 2]])


def block_system(unknown=(1, 1), equation=(1, 1), term=None):
    """A system over QQ with an unknown "u" and an equation "e" of these
    shapes (None leaves one undeclared) and, given the factors (left,
    right) as `term`, one term of "u" in "e"."""
    sys = BlockSystem(QQ)
    if unknown:
        sys.add_unknown("u", *unknown)
    if equation:
        sys.add_equation("e", *equation)
    if term:
        sys.add_term("e", "u", *term)
    return sys


# The guard of each constructor and operator: call, exception type, message.
GUARDS = {
    "matrix-negative": (lambda: Matrix(QQ, -1, 0, ()), ShapeError, "negative dimensions"),
    "matrix-row-count": (lambda: Matrix(QQ, 2, 1, ((1,),)), ShapeError, "row count does not match entries"),
    "matrix-ragged": (lambda: Matrix(QQ, 2, 2, ((1, 2), (3,))), ShapeError, "ragged rows"),
    "mat-row-count": (lambda: mat(QQ, [[1]], rows=2), ShapeError, "row count does not match data"),
    "mat-no-rows": (lambda: mat(QQ, []), ShapeError, "column count required for a matrix with no rows"),
    "mat-ragged": (lambda: mat(QQ, [[1, 2], [3]]), ShapeError, "ragged rows"),
    "add-fields": (lambda: ONE + ONE_F5, FieldMismatch, "QQ vs GF(5)"),
    "sub-shapes": (lambda: ONE - ROW, ShapeError, "(1, 1) vs (1, 2)"),
    "matmul-fields": (lambda: ONE @ ONE_F5, FieldMismatch, "QQ vs GF(5)"),
    "matmul-shapes": (lambda: ROW @ ROW, ShapeError, "cannot multiply (1, 2) by (1, 2)"),
    "stack-nothing": (lambda: vstack([]), ShapeError, "nothing to stack"),
    "hstack-rows": (lambda: hstack([ONE, ROW.transpose()]), ShapeError, "hstack needs equal row counts"),
    "vstack-columns": (lambda: vstack([ONE, ROW]), ShapeError, "vstack needs equal column counts"),
    "hstack-fields": (lambda: hstack([ONE, ONE_F5]), FieldMismatch, "hstack across fields"),
    "blocks-field": (lambda: assemble_blocks(QQ, [1], [1], {(0, 0): ONE_F5}), FieldMismatch, "block over the wrong field"),
    "blocks-shape": (
        lambda: assemble_blocks(QQ, [1], [1, 1], {(0, 1): ROW}),
        ShapeError,
        "block (0,1) has shape (1, 2), expected (1, 1)",
    ),
    "kron-fields": (lambda: kron(ONE, ONE_F5), FieldMismatch, "kron across fields"),
    "unvec-length": (lambda: unvec(vec(ROW), 2, 2), ShapeError, "column has the wrong length"),
    "unvec-row": (lambda: unvec(ROW, 1, 2), ShapeError, "column has the wrong length"),
    "system-equation-key": (lambda: block_system(equation=None, term=(ONE,)), KeyError, "unknown equation 'e'"),
    "system-unknown-key": (lambda: block_system(unknown=None, term=(ONE,)), KeyError, "unknown block 'u'"),
    "system-left-shape": (
        lambda: block_system(term=(ROW,)).matrix(),
        ShapeError,
        "left factor of 'e'/'u' has shape (1, 2)",
    ),
    # An empty unknown block does not exempt its factors from the check.
    "system-left-shape-empty-unknown": (
        lambda: block_system(unknown=(0, 1), term=(ROW,)).matrix(),
        ShapeError,
        "left factor of 'e'/'u' has shape (1, 2)",
    ),
    "system-right-shape": (
        lambda: block_system(term=(None, ROW)).matrix(),
        ShapeError,
        "right factor of 'e'/'u' has shape (1, 2)",
    ),
    "system-left-identity": (
        lambda: block_system(unknown=(2, 1), term=(None, ONE)).matrix(),
        ShapeError,
        "implicit identity needs square placement",
    ),
    "system-right-identity": (
        lambda: block_system(unknown=(1, 2), term=(ONE, None)).matrix(),
        ShapeError,
        "implicit identity needs square placement",
    ),
    "system-solution": (lambda: block_system().split_solution(ROW), ShapeError, "solution vector has the wrong length"),
    "system-unknown-redeclared": (
        lambda: block_system().add_unknown("u", 2, 1),
        ShapeError,
        "unknown 'u' redeclared with a different shape",
    ),
    "system-equation-redeclared": (
        lambda: block_system().add_equation("e", 1, 2),
        ShapeError,
        "equation 'e' redeclared with a different shape",
    ),
}


@pytest.mark.parametrize("call, kind, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_type_and_message(call, kind, message):
    with pytest.raises(Exception) as error:
        call()
    assert (type(error.value), error.value.args) == (kind, (message,))
