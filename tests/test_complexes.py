from random import Random

import pytest

from perhom import (
    GF,
    QQ,
    BoundedComplex,
    FieldMismatch,
    ShapeError,
    chain_map,
    cohomology_dims,
    complex_from,
    compose,
    cone,
    euler_characteristic,
    find_null_homotopy,
    hom_space_dims,
    homotopy_defect,
    identity_chain_map,
    is_acyclic,
    mat,
    rank,
    shift,
    single,
    tensor_complex,
    two_term,
    validate,
    validate_chain_map,
    zero_chain_map,
    zero_complex,
    zeros,
)
from perhom.samples import random_bounded_complex, random_chain_map
from oracles import brute_hom_dims

F5 = GF(5)


def unit_interval(field=QQ):
    """k -> k with the identity differential, degrees 0 and 1."""
    return two_term(field, 0, mat(field, [[1]]))


class TestValidate:
    def test_identity_two_term_ok(self):
        assert validate(unit_interval()) is None

    def test_nonzero_composite_reports_first_degree(self):
        bad = complex_from(QQ, 0, (1, 1, 1), (mat(QQ, [[1]]), mat(QQ, [[1]])))
        v = validate(bad)
        assert v is not None and v.degree == 0 and v.kind == "square"

    def test_empty_window_ok(self):
        assert validate(zero_complex(QQ)) is None

    def test_shape_violation(self):
        c = complex_from(QQ, 0, (1, 2), (zeros(QQ, 2, 1),))
        broken = type(c)(QQ, 0, (1, 1), c.diffs)
        v = validate(broken)
        assert v is not None and v.kind == "shape"


class TestComplexFrom:
    def test_negative_dimension_is_refused(self):
        # Such a complex would pass validate, fail inside numpy in
        # cohomology_dims and serialize to a document that does not parse.
        for build in (complex_from, BoundedComplex):
            with pytest.raises(ShapeError, match="^dimensions must be nonnegative$"):
                build(QQ, 0, (-1,), ())
        with pytest.raises(ShapeError, match="^dimensions must be nonnegative$"):
            complex_from(QQ, 0, (1, -1), (zeros(QQ, 0, 1),))

    def test_surplus_differential_is_refused(self):
        with pytest.raises(ShapeError, match="^expected one differential per adjacent pair of degrees$"):
            complex_from(QQ, 0, (1,), (mat(QQ, [[1]]),))

    def test_each_differential_is_checked(self):
        with pytest.raises(ShapeError, match=r"^differential at degree 3 has shape \(1, 1\), expected \(2, 1\)$"):
            complex_from(QQ, 3, (1, 2), (mat(QQ, [[1]]),))
        with pytest.raises(FieldMismatch, match="^differential over the wrong field$"):
            complex_from(QQ, 0, (1, 1), (mat(F5, [[1]]),))
        with pytest.raises(TypeError, match="^differentials must be Matrix values$"):
            complex_from(QQ, 0, (1, 1), ([[1]],))


class TestShift:
    def test_zero_shift_is_identity(self):
        c = unit_interval()
        assert shift(c, 0) == c

    def test_sign_rule(self):
        s = shift(unit_interval(), 1)
        assert s.lo == -1 and s.hi == 0
        assert s.diffs[0] == mat(QQ, [[-1]])

    def test_double_shift_matches_shift_by_two(self):
        c = unit_interval()
        assert shift(shift(c, 1), 1) == shift(c, 2)

    def test_zero_complex_moves_its_window(self):
        assert shift(zero_complex(F5, 2), 3) == BoundedComplex(F5, -1, (), ())

    def test_validates_and_translates_cohomology(self):
        rng = Random(11)
        for _ in range(10):
            c = random_bounded_complex(rng, F5)
            for l in range(-4, 5):
                s = shift(c, l)
                assert validate(s) is None
                shifted = dict(cohomology_dims(s))
                original = dict(cohomology_dims(c))
                for i, h in original.items():
                    assert shifted.get(i - l, 0) == h


class TestCone:
    def test_cone_of_identity_is_contractible(self):
        t = cone(identity_chain_map(single(QQ, 0)))
        assert t.complex.lo == -1
        assert t.complex.dims == (1, 1)
        assert t.complex.diffs[0] == mat(QQ, [[1]])
        assert is_acyclic(t.complex)

    def test_cone_of_zero_is_shift_plus_target(self):
        z = zero_chain_map(single(QQ, 0), single(QQ, 0))
        t = cone(z)
        assert t.complex.dims == (1, 1)
        assert t.complex.diffs[0].is_zero()

    def test_cone_of_multiplication_by_two_is_acyclic(self):
        f = chain_map(single(QQ, 0), single(QQ, 0), {0: mat(QQ, [[2]])})
        assert is_acyclic(cone(f).complex)

    def test_inclusion_and_projection_are_chain_maps(self):
        rng = Random(12)
        for _ in range(8):
            x = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            y = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            f = random_chain_map(rng, x, y)
            t = cone(f)
            assert validate(t.complex) is None
            assert validate_chain_map(t.inclusion) is None
            # the projection intertwines the cone differential with -d_X
            proj = dict(t.projection)
            for i in range(t.complex.lo, t.complex.hi):
                p_next = proj.get(i + 1, zeros(x.field, x.dim(i + 2), t.complex.dim(i + 1)))
                p_here = proj.get(i, zeros(x.field, x.dim(i + 1), t.complex.dim(i)))
                assert p_next @ t.complex.diff(i) == (-x.diff(i + 1)) @ p_here

    def test_euler_characteristic_identity(self):
        rng = Random(13)
        for k in range(10):
            field = QQ if k % 2 else F5
            x = random_bounded_complex(rng, field, max_dim=3, max_width=3)
            y = random_bounded_complex(rng, field, max_dim=3, max_width=3)
            f = random_chain_map(rng, x, y)
            t = cone(f)
            assert euler_characteristic(t.complex) == euler_characteristic(y) - euler_characteristic(x)
            coh_sum = lambda c: sum((-1) ** (i % 2) * h for i, h in cohomology_dims(c))
            assert coh_sum(t.complex) == coh_sum(y) - coh_sum(x)


class TestCohomology:
    def test_exact_two_term(self):
        assert cohomology_dims(unit_interval()) == ((0, 0), (1, 0))

    def test_zero_differential(self):
        c = two_term(QQ, 0, zeros(QQ, 1, 1))
        assert cohomology_dims(c) == ((0, 1), (1, 1))

    def test_rejects_invalid_complex(self):
        bad = complex_from(QQ, 0, (1, 1, 1), (mat(QQ, [[1]]), mat(QQ, [[1]])))
        with pytest.raises(ValueError):
            cohomology_dims(bad)


class TestHomSpace:
    def test_scalars(self):
        r = hom_space_dims(single(QQ, 0), single(QQ, 0))
        assert (r.chain_maps, r.null_homotopic, r.homotopy_classes) == (1, 0, 1)

    def test_contractible_has_no_classes(self):
        c = unit_interval()
        assert hom_space_dims(c, c).homotopy_classes == 0

    def test_zero_differential_over_f5(self):
        c = two_term(F5, 0, zeros(F5, 1, 1))
        r = hom_space_dims(c, c)
        assert (r.chain_maps, r.null_homotopic, r.homotopy_classes) == (2, 0, 2)

    def test_identity_is_always_a_chain_map(self):
        rng = Random(14)
        for _ in range(10):
            x = random_bounded_complex(rng, F5)
            if x.total_dim() == 0:
                continue
            assert hom_space_dims(x, x).chain_maps >= 1

    def test_against_brute_force(self):
        rng = Random(15)
        checked = 0
        while checked < 6:
            field = GF(2)
            x = random_bounded_complex(rng, field, max_dim=2, max_width=2)
            y = random_bounded_complex(rng, field, max_dim=2, max_width=2)
            weight = sum(x.dim(i) * y.dim(i) for i in range(-4, 6)) + sum(
                x.dim(i) * y.dim(i - 1) for i in range(-4, 6)
            )
            if not 0 < weight <= 9:
                continue
            z, b = brute_hom_dims(x, y)
            r = hom_space_dims(x, y)
            assert (r.chain_maps, r.null_homotopic) == (z, b)
            checked += 1


class TestNullHomotopy:
    def test_identity_of_contractible(self):
        h = find_null_homotopy(identity_chain_map(unit_interval()))
        assert h is not None
        assert dict(h.components)[1] == mat(QQ, [[1]])
        assert homotopy_defect(h) is None

    def test_identity_of_point_is_essential(self):
        assert find_null_homotopy(identity_chain_map(single(QQ, 0))) is None

    def test_twice_identity_on_cone(self):
        t = cone(identity_chain_map(single(QQ, 0)))
        f = chain_map(t.complex, t.complex, {i: mat(QQ, [[2]]) for i in (-1, 0)})
        h = find_null_homotopy(f)
        assert h is not None and homotopy_defect(h) is None

    def test_witness_or_nonzero_class(self):
        rng = Random(16)
        for _ in range(12):
            x = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            y = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            f = random_chain_map(rng, x, y)
            h = find_null_homotopy(f)
            if h is not None:
                assert homotopy_defect(h) is None
            else:
                assert hom_space_dims(x, y).homotopy_classes > 0


class TestTensor:
    def test_unit(self):
        c = unit_interval()
        assert tensor_complex(single(QQ, 0), c) == c

    def test_interval_squared(self):
        c = unit_interval()
        t = tensor_complex(c, c)
        assert t.dims == (1, 2, 1)
        assert t.diffs[0] == mat(QQ, [[1], [1]])
        assert t.diffs[1] == mat(QQ, [[1, -1]])
        assert rank(t.diffs[1]) == 1
        assert validate(t) is None

    def test_euler_characteristics_multiply(self):
        c = unit_interval()
        t = tensor_complex(c, c)
        assert euler_characteristic(t) == euler_characteristic(c) * euler_characteristic(c) == 0
        rng = Random(17)
        for _ in range(8):
            x = random_bounded_complex(rng, F5, max_dim=2, max_width=3)
            y = random_bounded_complex(rng, F5, max_dim=2, max_width=3)
            t = tensor_complex(x, y)
            assert validate(t) is None
            assert euler_characteristic(t) == euler_characteristic(x) * euler_characteristic(y)


class TestChainMapAlgebra:
    def test_composition_and_validation(self):
        rng = Random(18)
        for _ in range(8):
            x = random_bounded_complex(rng, F5, max_dim=2, max_width=3)
            y = random_bounded_complex(rng, F5, max_dim=2, max_width=3)
            z = random_bounded_complex(rng, F5, max_dim=2, max_width=3)
            f = random_chain_map(rng, x, y)
            g = random_chain_map(rng, y, z)
            assert validate_chain_map(compose(g, f)) is None

    def test_invalid_components_rejected(self):
        c = unit_interval()
        d = two_term(QQ, 0, zeros(QQ, 1, 1))
        f = chain_map(c, d, {0: mat(QQ, [[1]]), 1: mat(QQ, [[2]])})
        v = validate_chain_map(f)
        assert v is not None and v.kind == "chain-map"
