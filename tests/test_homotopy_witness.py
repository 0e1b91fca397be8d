"""Homotopy witnesses from splitting data against the Kronecker-system
solver oracle: the same `periodize` bytes on contractible periodic
complexes, the same solvability everywhere, and every returned witness
satisfies its homotopy identity."""

from random import Random

from hypothesis import assume, given
from hypothesis import strategies as st

from perhom import (
    GF,
    PeriodicComplex,
    chain_map,
    compress,
    cone,
    find_null_homotopy,
    find_periodic_homotopy,
    homotopy_defect,
    identity_chain_map,
    periodic_homotopy_defect,
    periodize_null_homotopy,
    shift,
    unrolled_identity_contraction,
    zeros,
)
from perhom.documents import canonical_json_bytes, matrix_doc
from perhom.periodic import periodic_chain_map
from perhom.samples import _chain_map_system, random_periodic
from oracles import (
    _cyclic_chain_map_system,
    solver_null_homotopy,
    solver_periodic_homotopy,
    solver_unrolled_contraction,
)
from strategies import (
    FIELDS,
    SETTINGS,
    basis_change,
    bounded_complexes,
    conjugate,
    kernel_elements,
    matrices,
    periodic_complexes,
)

# The fields of the Hom tests plus a prime just below 2^31 (the one the
# F_p benchmark workloads use), where residue products need all of int64.
WITNESS_FIELDS = FIELDS + [GF(2147483629)]


@st.composite
def contractible_periodic(draw):
    """Nonzero contractible split data, or a folded cone of an identity in a
    drawn basis; the oracle's windowed system grows as the square of a
    term, so the cones are kept to eight dimensions in all."""
    field = draw(st.sampled_from(WITNESS_FIELDS))
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        p = draw(periodic_complexes(field, n, homology=False))
        assume(p.total_dim() > 0)
        return p
    x = draw(bounded_complexes(field, max_terms=2))
    folded = compress(cone(identity_chain_map(x)).complex, n)
    assume(0 < folded.total_dim() <= 8)
    basis = [draw(basis_change(field, d)) for d in folded.dims]
    diffs = tuple(conjugate(basis, m, r, (r + 1) % n) for r, m in enumerate(folded.diffs))
    return PeriodicComplex(field, n, folded.dims, diffs)


def periodized_bytes(p, s) -> bytes:
    sigma = periodize_null_homotopy(p, s)
    assert periodic_homotopy_defect(sigma) is None
    return canonical_json_bytes([matrix_doc(m) for m in sigma.components])


@SETTINGS
@given(contractible_periodic())
def test_periodize_matches_solver_bit_for_bit(p):
    s = unrolled_identity_contraction(p)
    assert s is not None
    assert periodized_bytes(p, s) == periodized_bytes(p, solver_unrolled_contraction(p))


@SETTINGS
@given(st.sampled_from(WITNESS_FIELDS), st.integers(1, 4), st.integers(0, 2**32))
def test_unrolled_contraction_exists_iff_solver_solvable(field, n, seed):
    p = random_periodic(Random(seed), field, n, max_dim=2, max_width=3)
    s = unrolled_identity_contraction(p)
    assert (s is None) == (solver_unrolled_contraction(p) is None)
    if s is not None:
        periodized_bytes(p, s)


def boundary(x, y, h, r, prev):
    """(d h + h d) in degree r, for h(r) : X^r -> Y^prev(r)."""
    return h(r + 1) @ x.diff(r) + y.diff(prev(r)) @ h(r)


@st.composite
def degree_minus_one_maps(draw, x, y, degrees, prev):
    drawn = {r: draw(matrices(x.field, y.dim(prev(r)), x.dim(r))) for r in degrees}
    return lambda r: drawn.get(r, zeros(x.field, y.dim(prev(r)), x.dim(r)))


@st.composite
def bounded_maps(draw):
    """A chain map that is a drawn chain map (or zero) plus the boundary of
    a drawn degree -1 map, so both outcomes occur."""
    field = draw(st.sampled_from(WITNESS_FIELDS))
    x = draw(bounded_complexes(field))
    y = shift(draw(bounded_complexes(field)), draw(st.integers(-1, 1)))
    parts = {} if draw(st.booleans()) else draw(kernel_elements(_chain_map_system(x, y)))
    lo, hi = min(x.lo, y.lo), max(x.hi, y.hi)
    prev = lambda r: r - 1
    h = draw(degree_minus_one_maps(x, y, range(lo, hi + 2), prev))
    comps = {}
    for r in range(lo, hi + 1):
        comps[r] = boundary(x, y, h, r, prev)
        if r in parts:
            comps[r] = comps[r] + parts[r]
    return chain_map(x, y, comps)


@SETTINGS
@given(bounded_maps())
def test_null_homotopy_exists_iff_solver_solvable(f):
    h = find_null_homotopy(f)
    assert (h is None) == (solver_null_homotopy(f) is None)
    if h is not None:
        assert homotopy_defect(h) is None


@st.composite
def periodic_map_pairs(draw):
    """(f, g) with g a drawn chain map and f - g a drawn chain map (or zero)
    plus the boundary of a drawn degree -1 map."""
    field = draw(st.sampled_from(WITNESS_FIELDS))
    n = draw(st.integers(1, 4))
    x, y = draw(periodic_complexes(field, n)), draw(periodic_complexes(field, n))
    system = _cyclic_chain_map_system(x, y)

    def chain(parts):
        return [parts.get(r, zeros(field, y.dims[r], x.dims[r])) for r in range(n)]

    g = chain(draw(kernel_elements(system)))
    extra = chain({} if draw(st.booleans()) else draw(kernel_elements(system)))
    prev = lambda r: (r - 1) % n
    h = draw(degree_minus_one_maps(x, y, range(n), prev))
    f = [g[r] + extra[r] + boundary(x, y, lambda i: h(i % n), r, prev) for r in range(n)]
    return periodic_chain_map(x, y, f), periodic_chain_map(x, y, g)


@SETTINGS
@given(periodic_map_pairs())
def test_periodic_homotopy_exists_iff_solver_solvable(pair):
    f, g = pair
    h = find_periodic_homotopy(f, g)
    assert (h is None) == (solver_periodic_homotopy(f, g) is None)
    if h is not None:
        assert periodic_homotopy_defect(h) is None
