from fractions import Fraction
from random import Random

import pytest

from perhom.linalg import (
    GF,
    QQ,
    BlockSystem,
    Field,
    FieldMismatch,
    ShapeError,
    hstack,
    identity,
    kernel_basis,
    kron,
    mat,
    permute_cols,
    permute_rows,
    rank,
    solve_linear,
    unvec,
    vec,
    zeros,
)
from oracles import brute_rank_fp, sympy_rank


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
        assert unvec(QQ, vec(m), 3, 4) == m

    def test_permutations(self):
        m = mat(QQ, [[1, 2], [3, 4]])
        assert permute_rows(m, [1, 0]).entries == ((Fraction(3), Fraction(4)), (Fraction(1), Fraction(2)))
        assert permute_cols(m, [1, 0]).entries == ((Fraction(2), Fraction(1)), (Fraction(4), Fraction(3)))

    def test_block_system_accumulates(self):
        # One unknown 1x1 block u appearing twice in one equation: 2u = 4.
        sys = BlockSystem(QQ)
        sys.add_unknown("u", 1, 1)
        sys.add_equation("e", 1, 1)
        sys.add_term("e", "u")
        sys.add_term("e", "u")
        sys.set_rhs("e", mat(QQ, [[4]]))
        x = solve_linear(sys.matrix(), sys.rhs_vector())
        assert sys.split_solution(x)["u"] == mat(QQ, [[2]])

    def test_matmul_big_prime_exact(self):
        p = 2147483647
        f = GF(p)
        a = mat(f, [[p - 1, p - 2], [1, p - 1]])
        b = mat(f, [[p - 1], [p - 1]])
        got = a @ b
        want = [[((p - 1) * (p - 1) + (p - 2) * (p - 1)) % p], [((p - 1) + (p - 1) * (p - 1)) % p]]
        assert got == mat(f, want)
