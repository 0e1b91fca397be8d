from random import Random

import pytest

from perhom import (
    GF,
    QQ,
    FlagData,
    FlagError,
    GradedModule,
    Matrix,
    compress,
    direct_sum_modules,
    exterior_algebra,
    flag_assemble,
    flag_filtration,
    free_module,
    is_acyclic_periodic,
    mat,
    polynomial_algebra,
    rank,
    single,
    tensor_compression_square,
    tensor_periodic,
    two_term,
    validate_module,
    zeros,
)
from perhom.graded import ModuleComplex, PeriodicModuleComplex, compress_modules, validate_module_complex
from perhom.samples import random_bounded_complex, random_flag, random_module_complex

F5 = GF(5)
F7 = GF(7)


def exterior_rank_one(field=QQ):
    """The exterior algebra on one generator as a module over itself."""
    return GradedModule(field, exterior_algebra(1), -1, (1, 1), ((mat(field, [[1]]),),))


def exterior_rank_two(field=QQ):
    """The exterior algebra on two generators over itself, degrees -2..0."""
    xi1 = (mat(field, [[0, 1]]), mat(field, [[1], [0]]))
    xi2 = (mat(field, [[-1, 0]]), mat(field, [[0], [1]]))
    return GradedModule(field, exterior_algebra(2), -2, (1, 2, 1), (xi1, xi2))


class TestValidateModule:
    def test_polynomial_shift_chain(self):
        m = free_module(QQ, polynomial_algebra(1), 0, (0, 3))
        assert m.dims == (1, 1, 1, 1)
        assert validate_module(m) is None

    def test_exterior_rank_one(self):
        assert validate_module(exterior_rank_one()) is None

    def test_exterior_rank_two(self):
        assert validate_module(exterior_rank_two()) is None

    def test_broken_anticommutation_names_pair_and_degree(self):
        good = exterior_rank_two()
        actions = [list(f) for f in good.actions]
        actions[1][0] = -actions[1][0]
        bad = GradedModule(QQ, good.algebra, good.lo, good.dims, tuple(tuple(f) for f in actions))
        v = validate_module(bad)
        assert v is not None
        assert v.kind == "anticommute"
        assert "(0, 1)" in v.detail and v.degree == 0

    @pytest.mark.parametrize("c", [2, 3])
    def test_free_modules_reject_single_sign_corruption(self, c):
        # Negating one entry of one action matrix may or may not break a
        # law: negating x_j * x_j alone rescales a basis vector and gives an
        # isomorphic, valid module.  Each corruption is classified by
        # `polynomial_laws_hold`, computed here on plain entries, and the
        # validator must agree with it on every one.
        field = F7
        m = direct_sum_modules([free_module(field, polynomial_algebra(c), 0, (0, 2))])
        assert validate_module(m) is None and polynomial_laws_hold(m.actions, field.p)
        for j in range(c):
            for k in range(len(m.dims) - 1):
                source = m.actions[j][k]
                breaking = 0
                for a, row in enumerate(source.entries):
                    for b, x in enumerate(row):
                        if not x:
                            continue
                        body = [list(r) for r in source.entries]
                        body[a][b] = (-x) % field.p
                        broken_actions = [list(f) for f in m.actions]
                        broken_actions[j][k] = Matrix(field, source.rows, source.cols, tuple(tuple(r) for r in body))
                        actions = tuple(tuple(f) for f in broken_actions)
                        broken = GradedModule(field, m.algebra, m.lo, m.dims, actions)
                        breaks_law = not polynomial_laws_hold(actions, field.p)
                        assert (validate_module(broken) is not None) == breaks_law, (j, k, a, b)
                        breaking += breaks_law
                assert breaking > 0, f"no corruption of generator {j} at degree {k} breaks a law"


def polynomial_laws_hold(actions, p: int) -> bool:
    """x_j x_l = x_l x_j for every pair of generators and every pair of
    consecutive action matrices, multiplied out on entry tuples mod p."""

    def product(u, v):
        return [[sum(u.entries[r][t] * v.entries[t][s] for t in range(v.rows)) % p for s in range(v.cols)]
                for r in range(u.rows)]

    for j, first in enumerate(actions):
        for second in actions[j + 1:]:
            for k in range(len(first) - 1):
                if product(first[k + 1], second[k]) != product(second[k + 1], first[k]):
                    return False
    return True


class TestFlags:
    def test_single_part_zero_differential(self):
        p = flag_assemble(FlagData(QQ, (1,), ()))
        assert p.diffs[0].is_zero()

    def test_two_parts(self):
        f = FlagData(QQ, (1, 1), ((1, 0, mat(QQ, [[1]])),))
        p = flag_assemble(f)
        assert p.diffs[0] == mat(QQ, [[0, 1], [0, 0]])
        assert is_acyclic_periodic(p)

    def test_square_zero_is_checked_not_assumed(self):
        f = FlagData(QQ, (1, 1, 1), ((1, 0, mat(QQ, [[1]])), (2, 1, mat(QQ, [[1]]))))
        with pytest.raises(FlagError):
            flag_assemble(f)

    def test_random_three_part_flags_validate(self):
        rng = Random(53)
        for _ in range(10):
            f = random_flag(rng, F7)
            p = flag_assemble(f)
            assert (p.diffs[0] @ p.diffs[0]).is_zero()

    def test_filtration_subquotients_are_zero(self):
        f = FlagData(QQ, (1, 1), ((1, 0, mat(QQ, [[1]])),))
        stages = flag_filtration(f)
        assert stages[0].sub.dims == (1,) and stages[0].sub.diffs[0].is_zero()
        assert stages[1].subquotient.dims == (1,) and stages[1].subquotient.diffs[0].is_zero()

    def test_single_part_filtration_length_one(self):
        stages = flag_filtration(FlagData(QQ, (2,), ()))
        assert len(stages) == 1

    def test_random_flags_have_zero_subquotients(self):
        rng = Random(54)
        for _ in range(10):
            f = random_flag(rng, F7)
            for stage in flag_filtration(f):
                assert stage.subquotient.diffs[0].is_zero()


class TestTensorPeriodic:
    def test_unit(self):
        y = compress(two_term(QQ, 0, mat(QQ, [[1]])), 2)
        t = tensor_periodic(single(QQ, 0), y)
        assert t == y

    def test_interval_against_point(self):
        y = compress(single(QQ, 0), 1)
        t = tensor_periodic(two_term(QQ, 0, mat(QQ, [[1]])), y)
        assert t.dims == (2,)
        assert rank(t.diffs[0]) == 1
        assert is_acyclic_periodic(t)

    def test_commutation_square_examples(self):
        c = two_term(QQ, 0, mat(QQ, [[1]]))
        assert tensor_compression_square(c, c, 2)
        assert tensor_compression_square(c, single(QQ, 1), 3)
        assert tensor_compression_square(single(QQ, 0), c, 1)

    def test_commutation_square_seeded(self):
        rng = Random(55)
        for k in range(12):
            field = QQ if k % 2 else F5
            dim = 2 if field.p is None else 3
            x = random_bounded_complex(rng, field, max_dim=dim, max_width=3)
            y0 = random_bounded_complex(rng, field, max_dim=dim, max_width=3)
            for n in (1, 2, 3):
                assert tensor_compression_square(x, y0, n)


class TestModuleComplexes:
    def test_validation_and_folding(self):
        rng = Random(56)
        for k in range(8):
            field = F5 if k % 2 else QQ
            mc = random_module_complex(rng, field, 1 + k % 2, (0, 2))
            assert validate_module_complex(mc) is None
            for n in (1, 2, 3):
                pm = compress_modules(mc, n)
                assert validate_module_complex(pm) is None

    def test_maps_and_terms_outside_the_terms(self):
        small = free_module(QQ, polynomial_algebra(1), 0, (0, 2))
        mc = ModuleComplex(0, (small, direct_sum_modules([small, small])), ((mat(QQ, [[1], [0]]),) * 3,))
        assert validate_module_complex(mc) is None
        # The map into the first term, out of the last, and past both.
        assert mc.map_at(-1, 1) == zeros(QQ, 1, 0)
        assert mc.map_at(1, 1) == zeros(QQ, 0, 2)
        assert mc.map_at(2, 1) == mc.map_at(-2, 1) == zeros(QQ, 0, 0)
        for j in (-1, 2):
            with pytest.raises(IndexError, match=rf"^no term in homological degree {j};"):
                mc.module(j)

    def test_equivariance_violation_detected(self):
        field = QQ
        s = free_module(field, polynomial_algebra(1), 0, (0, 2))
        maps = (mat(field, [[1]]), mat(field, [[2]]), mat(field, [[1]]))
        mc = ModuleComplex(0, (s, s), (maps,))
        v = validate_module_complex(mc)
        assert v is not None and v.kind == "linearity"

    @pytest.mark.parametrize("middle", [zeros(QQ, 1, 2), zeros(QQ, 2, 1)], ids=["extra-column", "extra-row"])
    @pytest.mark.parametrize("periodic", [False, True], ids=["bounded", "periodic"])
    def test_misshaped_map_is_a_shape_violation(self, periodic, middle):
        s = free_module(QQ, polynomial_algebra(1), 0, (0, 2))
        maps = (mat(QQ, [[1]]), middle, mat(QQ, [[1]]))
        mc = PeriodicModuleComplex(1, (s,), (maps,)) if periodic else ModuleComplex(0, (s, s), (maps,))
        v = validate_module_complex(mc)
        assert v is not None and (v.kind, v.degree) == ("shape", 1)

    @pytest.mark.parametrize("periodic", [False, True], ids=["bounded", "periodic"])
    def test_misshaped_later_map_is_a_shape_violation(self, periodic):
        s = free_module(QQ, polynomial_algebra(1), 0, (0, 2))
        zero = (zeros(QQ, 1, 1),) * 3
        bad = (zeros(QQ, 1, 1), zeros(QQ, 1, 2), zeros(QQ, 1, 1))
        if periodic:
            mc = PeriodicModuleComplex(2, (s, s), (zero, bad))
        else:
            mc = ModuleComplex(0, (s, s, s), (zero, bad))
        v = validate_module_complex(mc)
        assert v is not None and (v.kind, v.degree) == ("shape", 1)
