"""The samplers' matrices against the route they replaced.

`rand_matrix` and `_basis_change` wrap the Python ints they draw and take
each inverse from one list elimination (`linalg._invert_rows`).  The
oracles in `oracles.py` draw the same values through `mat` and solve
against the identity.  Both must give equal matrices with equal hashes and
leave the generator in the same state, on both sides of the 64-cell
crossover of the inversion's elimination route.
"""

from fractions import Fraction
from random import Random

from hypothesis import given, settings
from hypothesis import strategies as st

from perhom.linalg import GF, QQ, _invert_rows, identity, solve_linear
from perhom.samples import _basis_change, _inverse, rand_matrix
from oracles import drawn_basis_change, drawn_matrix
from strategies import SETTINGS

FIELDS = [QQ, GF(2), GF(5), GF(7)]

SAMPLER_SETTINGS = settings(SETTINGS, max_examples=200)


def same(got, want) -> bool:
    return got == want and hash(got) == hash(want)


@SAMPLER_SETTINGS
@given(st.sampled_from(FIELDS), st.integers(0, 9), st.integers(0, 9), st.integers(0, 2**32))
def test_rand_matrix_matches_the_mat_route(field, rows, cols, seed):
    rng, old = Random(seed), Random(seed)
    assert same(rand_matrix(rng, field, rows, cols), drawn_matrix(old, field, rows, cols))
    assert rng.getstate() == old.getstate()


@SAMPLER_SETTINGS
@given(st.sampled_from(FIELDS), st.integers(0, 9), st.integers(0, 2**32))
def test_basis_change_matches_the_solve_route(field, n, seed):
    rng, old = Random(seed), Random(seed)
    m, inv = _basis_change(rng, field, n)
    want_m, want_inv = drawn_basis_change(old, field, n)
    assert same(m, want_m) and same(inv, want_inv)
    assert rng.getstate() == old.getstate()
    assert m @ inv == identity(field, n)


@SAMPLER_SETTINGS
@given(st.sampled_from(FIELDS), st.integers(0, 9), st.integers(0, 9), st.integers(0, 2**32), st.data())
def test_invert_rows_matches_solve_linear(field, n, inner, seed, data):
    """On random squares (often singular over GF(2)), on their scalings by
    a fraction over QQ, and on products through a smaller inner dimension,
    which are singular: the inverse is `solve_linear`'s, or None."""
    rng = Random(seed)
    m = rand_matrix(rng, field, n, n)
    if field.p is None:
        m = m.scale(Fraction(data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9))))
    cases = [m]
    if n:
        k = inner % n
        low = rand_matrix(rng, field, n, k) @ rand_matrix(rng, field, k, n)
        assert _invert_rows(field, low.array.tolist(), low.den) is None
        cases.append(low)
    for a in cases:
        got, want = _invert_rows(field, a.array.tolist(), a.den), solve_linear(a, identity(field, n))
        assert got is want is None or same(got, want)


class Singular(Random):
    """A generator whose draws are all at the bottom of their range: every
    candidate is a zero matrix over F_p and a constant one over QQ, so
    singular for n >= 2, and every fallback draw is -2."""

    def __init__(self):
        super().__init__(0)
        self.draws = 0

    def randrange(self, *args):
        self.draws += 1
        return 0

    def randint(self, a, b):
        self.draws += 1
        return a


def test_basis_change_falls_back_when_every_candidate_is_singular():
    for field in FIELDS:
        for n in range(2, 9):
            rng, old = Singular(), Singular()
            m, inv = _basis_change(rng, field, n)
            want_m, want_inv = drawn_basis_change(old, field, n)
            assert rng.draws == old.draws == 30 * n * n + n * (n - 1) // 2
            assert same(m, want_m) and same(inv, want_inv)
            assert m @ inv == identity(field, n)
            assert all(m.entry(i, j) == (i == j) for i in range(n) for j in range(i + 1))
            assert all(m.entry(i, j) == field.coerce(-2) for i in range(n) for j in range(i + 1, n))
            if field.p is not None:
                assert 0 <= m.array.min() and m.array.max() < field.p
            assert same(_inverse(m), inv)
