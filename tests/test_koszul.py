"""The BGG folding square, the one comparison helper behind the three
folding squares (cone, tensor, BGG), and the BGG cohomology against the
Koszul-complex Tor oracle."""

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import koszul_tor_dims
from perhom import (
    GF,
    QQ,
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
    verify_bgg_square,
)
from perhom.koszul import _square_labels
from perhom.periodic import _cone_labels, _square_mismatch
from perhom.samples import random_bounded_complex, random_chain_map, random_graded_module, random_module_complex
from strategies import SETTINGS

F5 = GF(5)


def bgg_square_sides(mc, n):
    """The two sides of the BGG square and their label function."""
    bounded = bgg_complex(mc)
    cx = bounded.complex
    other = bgg_periodic(compress_modules(mc, n))
    return compress(cx, n), other, lambda r: _square_labels(mc, bounded.dual, cx, n, r)


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
        labels = lambda r: _cone_labels(f, c, 2, r)  # noqa: E731
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
