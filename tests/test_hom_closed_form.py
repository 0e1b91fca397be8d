"""The closed-form Hom dimensions against the Kronecker-system solver oracle,
on complexes drawn by structure (`strategies`)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from perhom import compress, hom_space_dims, orbit_hom, periodic_hom_dims, shift
from oracles import solver_hom_dims, solver_periodic_hom_dims
from strategies import FIELDS, SETTINGS, bounded_complexes, periodic_complexes


@st.composite
def bounded_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    x = draw(bounded_complexes(field))
    y = shift(draw(bounded_complexes(field)), draw(st.integers(-2, 2)))
    return x, y


@st.composite
def periodic_pairs(draw):
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(1, 4))
    return draw(periodic_complexes(field, n)), draw(periodic_complexes(field, n))


def triple(report):
    return report.chain_maps, report.null_homotopic, report.homotopy_classes


@SETTINGS
@given(bounded_pairs())
def test_bounded_closed_form_matches_solver(pair):
    x, y = pair
    assert triple(hom_space_dims(x, y)) == solver_hom_dims(x, y)


@SETTINGS
@given(periodic_pairs())
def test_periodic_closed_form_matches_solver(pair):
    x, y = pair
    assert triple(periodic_hom_dims(x, y)) == solver_periodic_hom_dims(x, y)


@settings(SETTINGS, max_examples=40)
@given(bounded_pairs(), st.integers(1, 3))
def test_orbit_summands_match_solver(pair, n):
    x, y = pair
    report = orbit_hom(x, y, n)
    for i, d in report.summands:
        assert d == solver_hom_dims(x, shift(y, n * i))[2]
    assert report.periodic_side == solver_periodic_hom_dims(compress(x, n), compress(y, n))[2]
    assert report.matches

