"""The closed-form Hom dimensions against the Kronecker-system solver oracle.

Inputs are drawn by structure: over a field every complex is isomorphic to
h_i copies of k in degree i plus p_i contractible pieces k -> k from degree
i to the next, so a complex is drawn as that data followed by a basis
change L U (unit lower times unit upper triangular) in every degree.
Failures shrink towards fewer summands and sparser basis changes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from perhom import (
    GF,
    QQ,
    PeriodicComplex,
    compress,
    complex_from,
    hom_space_dims,
    identity,
    mat,
    orbit_hom,
    periodic_hom_dims,
    shift,
    solve_linear,
    zero_complex,
)
from oracles import solver_hom_dims, solver_periodic_hom_dims

FIELDS = [QQ, GF(2), GF(3), GF(5)]

# Derandomized and without an example database, so the suite is
# deterministic from run to run.
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


@st.composite
def basis_change(draw, field, d):
    entries = st.integers(-2, 2) if field.p is None else st.integers(0, field.p - 1)
    lower = [[int(i == j) if i <= j else draw(entries) for j in range(d)] for i in range(d)]
    upper = [[int(i == j) if i >= j else draw(entries) for j in range(d)] for i in range(d)]
    return mat(field, lower, rows=d, cols=d) @ mat(field, upper, rows=d, cols=d)


@st.composite
def split_terms(draw, field, count, cyclic):
    """dims and differentials of `count` terms drawn as split data; with
    `cyclic` the last term maps back to the first."""
    h = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    p = draw(st.lists(st.integers(0, 2), min_size=count, max_size=count))
    if not cyclic:
        p[-1] = 0
    tails = [p[i - 1] if cyclic or i else 0 for i in range(count)]
    dims = [tails[i] + p[i] + h[i] for i in range(count)]
    basis = [draw(basis_change(field, d)) for d in dims]
    diffs = []
    for i in range(count if cyclic else count - 1):
        j = (i + 1) % count
        # Basis of a term: tails of pieces from the previous term, heads of
        # pieces to the next term, then the one-term summands.
        body = [[int(r < p[i] and c == tails[i] + r) for c in range(dims[i])] for r in range(dims[j])]
        split = mat(field, body, rows=dims[j], cols=dims[i])
        diffs.append(basis[j] @ split @ solve_linear(basis[i], identity(field, dims[i])))
    return dims, diffs


@st.composite
def bounded_complexes(draw, field):
    lo = draw(st.integers(-2, 2))
    count = draw(st.integers(0, 4))
    if count == 0:
        return zero_complex(field, lo)
    return complex_from(field, lo, *draw(split_terms(field, count, cyclic=False)))


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
    x = PeriodicComplex(field, n, *map(tuple, draw(split_terms(field, n, cyclic=True))))
    y = PeriodicComplex(field, n, *map(tuple, draw(split_terms(field, n, cyclic=True))))
    return x, y


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

