"""The checked splitting of `complexes.splitting`, recomputed from the
differentials: in every degree p i = 1, s d s = s, d s + s d = 1 - i p,
d i = 0 and p d = 0, with as many columns of i as the rank route
(`cohomology_dims`, `periodic_cohomology`) counts cohomology.  On
contractible periodic complexes the windowed route folds back to the same
contraction: `periodize_null_homotopy` of `unrolled_identity_contraction`
returns the s of the splitting, component for component.  And the mapping
cone has the cohomology that the long exact sequence gives, with the map on
cohomology read off the splittings (`oracles.cone_cohomology`).  The
splitting of each degree, read off one elimination, equals the earlier
route of two (`oracles.two_elimination_contraction`)."""

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import cone_cohomology, two_elimination_contraction
from perhom import (
    GF,
    QQ,
    BoundedComplex,
    cohomology_dims,
    compress_map,
    cone,
    identity,
    periodic_cohomology,
    periodic_cone,
    periodize_null_homotopy,
    splitting,
    unrolled_identity_contraction,
    zeros,
)
from perhom.complexes import _contraction
from perhom.samples import random_bounded_complex, random_chain_map, random_contractible_periodic, random_periodic
from strategies import SETTINGS

SPLIT_FIELDS = [QQ, GF(2), GF(5), GF(2147483629)]
SAMPLERS = {
    "random_periodic": lambda rng, field, n: random_periodic(rng, field, n),
    "random_contractible_periodic": lambda rng, field, n: random_contractible_periodic(rng, field, n),
    "random_bounded_complex": lambda rng, field, n: random_bounded_complex(rng, field),
}


def after(c, parts, r):
    """The s out of the degree after r: zero past the top of a bounded c."""
    if isinstance(c, BoundedComplex):
        return parts[r + 1].s if r + 1 in parts else zeros(c.field, c.dim(r), 0)
    return parts[(r + 1) % c.n].s


@SETTINGS
@given(
    field=st.sampled_from(SPLIT_FIELDS),
    n=st.integers(1, 4),
    sampler=st.sampled_from(sorted(SAMPLERS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_splitting_satisfies_its_identities(field, n, sampler, seed):
    c = SAMPLERS[sampler](Random(seed), field, n)
    parts = splitting(c)
    assert list(parts) == list(c.degrees())
    for r, (i, p, s) in parts.items():
        d_in, d_out = c.diff(r - 1), c.diff(r)
        one = identity(field, c.dim(r))
        assert p @ i == identity(field, i.cols)
        assert s @ d_in @ s == s
        assert after(c, parts, r) @ d_out + d_in @ s == one - i @ p
        assert (d_out @ i).is_zero() and (p @ d_in).is_zero()
    if isinstance(c, BoundedComplex):
        assert tuple((r, part.i.cols) for r, part in parts.items()) == cohomology_dims(c)
        return
    assert tuple(part.i.cols for part in parts.values()) == periodic_cohomology(c)
    if not any(periodic_cohomology(c)):
        folded = periodize_null_homotopy(c, unrolled_identity_contraction(c))
        assert folded.components == tuple(part.s for part in parts.values())


@SETTINGS
@given(
    field=st.sampled_from(SPLIT_FIELDS),
    n=st.integers(1, 4),
    sampler=st.sampled_from(sorted(SAMPLERS)),
    seed=st.integers(0, 2**32 - 1),
)
def test_one_elimination_matches_the_two_elimination_reference(field, n, sampler, seed):
    # In every degree, and in the degrees just outside a bounded window,
    # which `_split_null_homotopy` reads: the same (i, p, s), den and bytes.
    c = SAMPLERS[sampler](Random(seed), field, n)
    degrees = list(c.degrees())
    if isinstance(c, BoundedComplex):
        degrees = [c.lo - 1, *degrees, c.hi + 1]
    for r in degrees:
        assert tuple(_contraction(c, r)) == two_elimination_contraction(c, r)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=repr)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_cone_cohomology_follows_the_long_exact_sequence(field, seed, n):
    rng = Random(seed)
    x = random_bounded_complex(rng, field, max_dim=3, lo_range=(-1, 0))
    y = random_bounded_complex(rng, field, max_dim=3, lo_range=(-1, 0))
    f = random_chain_map(rng, x, y)
    assert {i: h for i, h in cohomology_dims(cone(f).complex) if h} == cone_cohomology(f)
    g = compress_map(f, n)
    assert {r: h for r, h in enumerate(periodic_cohomology(periodic_cone(g))) if h} == cone_cohomology(g)
