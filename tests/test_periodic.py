from random import Random

import pytest

from perhom import (
    GF,
    QQ,
    BoundedComplex,
    Homotopy,
    PeriodicComplex,
    chain_map,
    compose,
    compress,
    compress_map,
    compression_cone_square,
    cone,
    expand_window,
    find_null_homotopy,
    find_periodic_homotopy,
    hom_space_dims,
    identity,
    identity_chain_map,
    identity_periodic_map,
    is_acyclic_periodic,
    mat,
    periodic_cohomology,
    periodic_cone,
    periodic_hom_dims,
    periodic_homotopy_defect,
    periodize_null_homotopy,
    shift,
    shift_periodic,
    single,
    twist_iso,
    two_term,
    unit_and_retraction,
    unrolled_identity_contraction,
    validate_chain_map,
    validate_periodic,
    zero_chain_map,
    zero_complex,
    zeros,
)
from perhom.periodic import periodic_chain_map
from perhom.complexes import identity_chain_map as id_map
from perhom.samples import (
    random_bounded_complex,
    random_chain_map,
    random_contractible_periodic,
    random_periodic,
)
from oracles import solver_periodic_homotopy

F5 = GF(5)


def unit_interval(field=QQ):
    return two_term(field, 0, mat(field, [[1]]))


class TestCompress:
    def test_two_residues(self):
        p = compress(unit_interval(), 2)
        assert p.dims == (1, 1)
        assert p.diffs[0] == mat(QQ, [[1]])
        assert p.diffs[1].is_zero()

    def test_single_residue_stacks_terms(self):
        p = compress(unit_interval(), 1)
        assert p.dims == (2,)
        assert p.diffs[0] == mat(QQ, [[0, 0], [1, 0]])

    def test_sparse_residues(self):
        p = compress(single(QQ, 5), 3)
        assert p.dims == (0, 0, 1)
        assert all(m.is_zero() for m in p.diffs)

    def test_always_validates(self):
        rng = Random(21)
        for k in range(12):
            x = random_bounded_complex(rng, F5 if k % 2 else QQ, max_dim=3)
            for n in (1, 2, 3, 4):
                assert validate_periodic(compress(x, n)) is None


class TestCompressMap:
    def test_identity_folds_to_identity(self):
        f = compress_map(identity_chain_map(unit_interval()), 2)
        assert f.components == (identity(QQ, 1), identity(QQ, 1))

    def test_componentwise(self):
        c = two_term(QQ, 0, zeros(QQ, 1, 1))
        g = chain_map(c, c, {0: mat(QQ, [[1]]), 1: mat(QQ, [[2]])})
        pg = compress_map(g, 2)
        assert pg.components == (mat(QQ, [[1]]), mat(QQ, [[2]]))

    def test_functoriality(self):
        rng = Random(22)
        for _ in range(6):
            x = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            y = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            z = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            f = random_chain_map(rng, x, y)
            g = random_chain_map(rng, y, z)
            for n in (1, 2, 3):
                folded = compress_map(compose(g, f), n)
                left = compress_map(g, n)
                right = compress_map(f, n)
                assert folded.components == tuple(
                    left.components[r] @ right.components[r] for r in range(n)
                )

    def test_preserves_null_homotopy(self):
        # Fold a homotopy witness along with the map and check it still works.
        rng = Random(23)
        for _ in range(8):
            x = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            y = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            f = random_chain_map(rng, x, y)
            h = find_null_homotopy(f)
            if h is None:
                continue
            n = 2
            pf = compress_map(f, n)
            sigma = []
            for r in range(n):
                px, py = pf.source, pf.target
                from perhom.periodic import residue_degrees
                src = residue_degrees(x, n, r)
                dst = residue_degrees(y, n, (r - 1) % n)
                from perhom.linalg import assemble_blocks
                blocks = {}
                for sj, j in enumerate(src):
                    if j - 1 in dst and x.dim(j) and y.dim(j - 1):
                        blocks[(dst.index(j - 1), sj)] = h.component(j)
                sigma.append(
                    assemble_blocks(x.field, [y.dim(j) for j in dst], [x.dim(j) for j in src], blocks)
                )
            from perhom import PeriodicHomotopy
            zero = periodic_chain_map(pf.source, pf.target, tuple(zeros(F5, d, s) for d, s in zip(pf.target.dims, pf.source.dims)))
            ph = PeriodicHomotopy(pf, zero, tuple(sigma))
            assert periodic_homotopy_defect(ph) is None


class TestExpand:
    def test_unrolls_two_periods(self):
        e = expand_window(compress(unit_interval(), 2), 0, 3)
        assert e.dims == (1, 1, 1, 1)
        assert e.diffs[0] == mat(QQ, [[1]])
        assert e.diffs[1].is_zero()
        assert e.diffs[2] == mat(QQ, [[1]])

    def test_point_window(self):
        e = expand_window(compress(unit_interval(), 2), 0, 0)
        assert e.dims == (1,)

    def test_reversed_window_is_the_zero_complex_at_its_low_end(self):
        p = compress(unit_interval(F5), 2)
        assert expand_window(p, 3, 1) == zero_complex(F5, 3)

    def test_interior_agrees_with_unrolling(self):
        rng = Random(24)
        for _ in range(6):
            p = random_periodic(rng, F5, 3)
            e = expand_window(p, -2, 5)
            for i in range(-2, 5):
                assert e.dim(i) == p.dim(i)
                if i < 5:
                    assert e.diff(i) == p.diff(i)


class TestUnitRetraction:
    def test_point_module(self):
        eta, rho = unit_and_retraction(single(QQ, 0), 1, (-1, 1))
        assert eta.component(0) == mat(QQ, [[1]])
        assert compose(rho, eta) == identity_chain_map(single(QQ, 0))

    def test_degreewise_identity(self):
        x = unit_interval()
        eta, rho = unit_and_retraction(x, 2, (-2, 3))
        assert validate_chain_map(eta) is None
        assert validate_chain_map(rho) is None
        assert compose(rho, eta) == identity_chain_map(x)

    def test_expanded_dims_count_residues(self):
        x = unit_interval()
        e = expand_window(compress(x, 2), -2, 3)
        for i in range(-2, 4):
            assert e.dim(i) == sum(x.dim(j) for j in range(-4, 8) if (j - i) % 2 == 0)

    def test_window_too_small_rejected(self):
        with pytest.raises(ValueError):
            unit_and_retraction(unit_interval(), 2, (0, 2))


class TestPeriodicCone:
    def test_cone_of_identity_period_one(self):
        p = compress(single(QQ, 0), 1)
        c = periodic_cone(identity_periodic_map(p))
        assert c.dims == (2,)
        assert c.diffs[0] == mat(QQ, [[0, 0], [1, 0]])
        assert is_acyclic_periodic(c)

    def test_cone_of_zero(self):
        p = compress(single(QQ, 0), 1)
        z = periodic_chain_map(p, p, (zeros(QQ, 1, 1),))
        c = periodic_cone(z)
        assert c.dims == (2,) and c.diffs[0].is_zero()

    def test_cone_of_identity_period_two(self):
        p = compress(two_term(QQ, 0, zeros(QQ, 1, 1)), 2)
        assert is_acyclic_periodic(periodic_cone(identity_periodic_map(p)))


class TestPeriodicCohomology:
    def test_folded_exact_complex(self):
        assert periodic_cohomology(compress(unit_interval(), 2)) == (0, 0)

    def test_zero_differential(self):
        p = PeriodicComplex(QQ, 1, (1,), (zeros(QQ, 1, 1),))
        assert periodic_cohomology(p) == (1,)

    def test_nilpotent_rank_one(self):
        p = PeriodicComplex(QQ, 1, (2,), (mat(QQ, [[0, 1], [0, 0]]),))
        assert periodic_cohomology(p) == (0,)

    def test_acyclicity_transfer(self):
        rng = Random(25)
        for k in range(10):
            n = 1 + k % 3
            p = random_contractible_periodic(rng, F5, n) if k % 2 else random_periodic(rng, F5, n)
            e = expand_window(p, 0, 2 * n)
            from perhom import cohomology_dims
            interior = [h for i, h in cohomology_dims(e) if 1 <= i <= 2 * n - 1]
            assert is_acyclic_periodic(p) == all(h == 0 for h in interior)


class TestPeriodicHomotopy:
    def test_equal_maps_get_zero_homotopy(self):
        p = random_periodic(Random(26), F5, 2)
        f = identity_periodic_map(p)
        h = find_periodic_homotopy(f, f)
        assert h is not None and all(m.is_zero() for m in h.components)

    def test_contractible_witness(self):
        p = compress(cone(id_map(single(QQ, 0))).complex, 1)
        f = identity_periodic_map(p)
        z = periodic_chain_map(p, p, tuple(zeros(QQ, d, d) for d in p.dims))
        h = find_periodic_homotopy(f, z)
        assert h is not None and periodic_homotopy_defect(h) is None

    def test_point_is_not_contractible(self):
        p = PeriodicComplex(QQ, 1, (1,), (zeros(QQ, 1, 1),))
        f = identity_periodic_map(p)
        z = periodic_chain_map(p, p, (zeros(QQ, 1, 1),))
        assert find_periodic_homotopy(f, z) is None


class TestPeriodize:
    def test_frozen_two_by_two(self):
        p = PeriodicComplex(QQ, 1, (2,), (mat(QQ, [[0, 1], [0, 0]]),))
        s0 = mat(QQ, [[0, 0], [1, 0]])
        e = expand_window(p, -1, 1)
        s = Homotopy(id_map(e), zero_chain_map(e, e), ((0, s0), (1, s0)))
        sigma = periodize_null_homotopy(p, s)
        # s d s = s for this witness, and d sigma + sigma d = id
        assert sigma.components[0] == mat(QQ, [[0, 0], [1, 0]])
        assert periodic_homotopy_defect(sigma) is None

    def test_solver_supplied_witness(self):
        p = compress(unit_interval(), 2)
        s = unrolled_identity_contraction(p)
        assert s is not None
        sigma = periodize_null_homotopy(p, s)
        assert periodic_homotopy_defect(sigma) is None

    def test_known_periodic_contraction_still_verifies(self):
        rng = Random(27)
        p = random_contractible_periodic(rng, QQ, 2)
        s = unrolled_identity_contraction(p)
        sigma = periodize_null_homotopy(p, s)
        assert periodic_homotopy_defect(sigma) is None
        # and independently, the cyclic solver oracle finds some witness
        f = identity_periodic_map(p)
        z = periodic_chain_map(p, p, tuple(zeros(QQ, d, d) for d in p.dims))
        witness = solver_periodic_homotopy(f, z)
        assert witness is not None and periodic_homotopy_defect(witness) is None

    def test_bad_input_rejected(self):
        p = PeriodicComplex(QQ, 1, (1,), (zeros(QQ, 1, 1),))
        e = expand_window(p, -1, 1)
        s = Homotopy(id_map(e), zero_chain_map(e, e), ((0, zeros(QQ, 1, 1)), (1, zeros(QQ, 1, 1))))
        with pytest.raises(ValueError):
            periodize_null_homotopy(p, s)


class TestPeriodicHomDims:
    def test_point_period_one(self):
        p = compress(single(QQ, 0), 1)
        assert periodic_hom_dims(p, p).homotopy_classes == 1

    def test_point_period_two(self):
        p = compress(single(QQ, 0), 2)
        assert periodic_hom_dims(p, p).homotopy_classes == 1

    def test_matches_shifted_sum(self):
        c = two_term(F5, 0, zeros(F5, 1, 1))
        p = compress(c, 2)
        lhs = periodic_hom_dims(p, p).homotopy_classes
        rhs = sum(hom_space_dims(c, shift(c, 2 * i)).homotopy_classes for i in range(-4, 5))
        assert lhs == rhs


class TestShiftTwist:
    def test_full_rotation_twists_signs(self):
        rng = Random(28)
        p = random_periodic(rng, F5, 3)
        s = shift_periodic(p, 3)
        assert s.dims == p.dims
        assert s.diffs == tuple(-m for m in p.diffs)
        assert validate_periodic(s) is None

    def test_even_twist_is_identity(self):
        t = twist_iso(unit_interval(), 2)
        assert all(m == identity(QQ, 1) for _, m in t.components)
        assert validate_chain_map(t) is None

    def test_odd_twist_signs(self):
        t = twist_iso(unit_interval(), 1)
        comps = dict(t.components)
        assert comps[-1] == mat(QQ, [[1]])
        assert comps[0] == mat(QQ, [[-1]])
        assert validate_chain_map(t) is None

    def test_zero_term_inside_the_window_has_no_component(self):
        x = BoundedComplex(QQ, 1, (1, 0, 1), (zeros(QQ, 0, 1), zeros(QQ, 1, 0)))
        t = twist_iso(x, 1)
        assert t.components == ((0, mat(QQ, [[-1]])), (2, mat(QQ, [[-1]])))
        assert validate_chain_map(t) is None

    def test_twist_is_isomorphism(self):
        rng = Random(29)
        for k in range(9):
            x = random_bounded_complex(rng, F5 if k % 2 else QQ, max_dim=3)
            n = 1 + k % 3
            t = twist_iso(x, n)
            inv = chain_map(t.target, t.source, dict(t.components))
            assert validate_chain_map(t) is None
            assert validate_chain_map(inv) is None
            assert compose(inv, t) == identity_chain_map(t.source)


class TestConeCompression:
    def test_identity_map(self):
        assert compression_cone_square(identity_chain_map(unit_interval()), 2)

    def test_seeded_maps_all_periods(self):
        rng = Random(30)
        for k in range(12):
            field = QQ if k % 3 == 0 else F5
            dim = 2 if field.p is None else 3
            x = random_bounded_complex(rng, field, max_dim=dim, max_width=3)
            y = random_bounded_complex(rng, field, max_dim=dim, max_width=3)
            f = random_chain_map(rng, x, y)
            for n in (1, 2, 3):
                assert compression_cone_square(f, n)

    def test_folded_cone_of_identity_is_acyclic(self):
        rng = Random(31)
        for _ in range(6):
            x = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            for n in (1, 2):
                folded = periodic_cone(compress_map(identity_chain_map(x), n))
                assert is_acyclic_periodic(folded)


class TestHomDimensionIdentity:
    def test_seeded_pairs(self):
        rng = Random(32)
        from perhom import orbit_hom

        for k in range(10):
            x = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            y = random_bounded_complex(rng, F5, max_dim=3, max_width=3)
            n = 1 + k % 3
            report = orbit_hom(x, y, n)
            assert report.matches
