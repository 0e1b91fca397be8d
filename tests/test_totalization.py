"""The cone and tensor constructions, bounded and periodic, against the
entrywise oracles, which write each differential one entry at a time from
the input differentials on basis labels."""

from hypothesis import given
from hypothesis import strategies as st

from perhom import GF, QQ, chain_map, compress_map, cone, periodic_cone, shift, tensor_complex, tensor_periodic
from perhom.samples import _chain_map_system
from oracles import entrywise_cone, entrywise_tensor
from strategies import SETTINGS, bounded_complexes, kernel_elements, periodic_complexes

# QQ, a small prime, and a prime just below 2^31, where residue products
# need all of int64.
ORACLE_FIELDS = [QQ, GF(5), GF(2147483629)]


def bounded(c):
    return c.lo, c.dims, c.diffs


def periodic(p):
    return p.n, p.dims, p.diffs


@SETTINGS
@given(st.data(), st.sampled_from(ORACLE_FIELDS), st.integers(1, 4), st.integers(-1, 1))
def test_cone_matches_entrywise_oracle(data, field, n, offset):
    x = data.draw(bounded_complexes(field, max_terms=3))
    y = shift(data.draw(bounded_complexes(field, max_terms=3)), offset)
    f = chain_map(x, y, data.draw(kernel_elements(_chain_map_system(x, y))))
    assert bounded(cone(f).complex) == entrywise_cone(f)
    folded = compress_map(f, n)
    assert periodic(periodic_cone(folded)) == entrywise_cone(folded)


@SETTINGS
@given(st.data(), st.sampled_from(ORACLE_FIELDS), st.integers(1, 4))
def test_tensor_matches_entrywise_oracle(data, field, n):
    x = data.draw(bounded_complexes(field, max_terms=3))
    y = data.draw(bounded_complexes(field, max_terms=3))
    assert bounded(tensor_complex(x, y)) == entrywise_tensor(x, y)
    p = data.draw(periodic_complexes(field, n))
    assert periodic(tensor_periodic(x, p)) == entrywise_tensor(x, p)
