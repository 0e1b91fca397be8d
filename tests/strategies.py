"""Hypothesis strategies for complexes drawn by structure.

Over a field every complex is isomorphic to h_i copies of k in degree i
plus p_i contractible pieces k -> k from degree i to the next, so a complex
is drawn as that data followed by a basis change L U (unit lower times unit
upper triangular) in every degree.  Failures shrink towards fewer summands
and sparser basis changes.
"""

from hypothesis import settings
from hypothesis import strategies as st

from perhom import (
    GF,
    QQ,
    PeriodicComplex,
    complex_from,
    identity,
    kernel_basis,
    mat,
    solve_linear,
    zero_complex,
)
from perhom.linalg import BlockSystem

FIELDS = [QQ, GF(2), GF(3), GF(5)]

# Derandomized and without an example database, so the suite is
# deterministic from run to run.
SETTINGS = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def entries(field):
    return st.integers(-2, 2) if field.p is None else st.integers(0, field.p - 1)


@st.composite
def matrices(draw, field, rows, cols):
    body = [[draw(entries(field)) for _ in range(cols)] for _ in range(rows)]
    return mat(field, body, rows=rows, cols=cols)


@st.composite
def basis_change(draw, field, d):
    lower = [[int(i == j) if i <= j else draw(entries(field)) for j in range(d)] for i in range(d)]
    upper = [[int(i == j) if i >= j else draw(entries(field)) for j in range(d)] for i in range(d)]
    return mat(field, lower, rows=d, cols=d) @ mat(field, upper, rows=d, cols=d)


def conjugate(basis, m, src, dst):
    """The matrix m : src -> dst written in the bases basis[src], basis[dst]."""
    return basis[dst] @ m @ solve_linear(basis[src], identity(m.field, m.cols))


@st.composite
def split_terms(draw, field, count, cyclic, homology=True):
    """dims and differentials of `count` terms drawn as split data; with
    `cyclic` the last term maps back to the first, and without `homology`
    the complex is contractible."""
    h = draw(st.lists(st.integers(0, 2 if homology else 0), min_size=count, max_size=count))
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
        diffs.append(conjugate(basis, mat(field, body, rows=dims[j], cols=dims[i]), i, j))
    return dims, diffs


@st.composite
def bounded_complexes(draw, field, max_terms=4):
    lo = draw(st.integers(-2, 2))
    count = draw(st.integers(0, max_terms))
    if count == 0:
        return zero_complex(field, lo)
    return complex_from(field, lo, *draw(split_terms(field, count, cyclic=False)))


@st.composite
def periodic_complexes(draw, field, n, homology=True):
    return PeriodicComplex(field, n, *map(tuple, draw(split_terms(field, n, cyclic=True, homology=homology))))


@st.composite
def kernel_elements(draw, sys: BlockSystem) -> dict:
    """The unknown blocks of a drawn element of the kernel of sys.matrix()."""
    basis = kernel_basis(sys.matrix())
    coeffs = draw(matrices(sys.field, basis.cols, 1))
    return sys.split_solution(basis @ coeffs)
