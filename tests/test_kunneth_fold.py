"""Closed-form cohomology of the tensor and fold constructions, against
`oracles.kunneth_cohomology` and `oracles.fold_cohomology`, which read only
the cohomology of the inputs:

    H^m(x (x) y) = sum over i + j = m of h^i(x) h^j(y)   (Kuenneth),

with j and m taken mod n when y is n-periodic, and

    H^r(compress(x, n)) = sum over i = r mod n of h^i(x).

Each formula is checked on seeded samples over QQ, GF(2) and GF(5) with
periods 1 to 4, and the inputs are asserted to carry cohomology often
enough that the sums are not all zero."""

from random import Random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fold_cohomology, kunneth_cohomology
from perhom import GF, QQ, cohomology_dims, compress, periodic_cohomology, tensor_complex, tensor_periodic
from perhom.samples import random_bounded_complex, random_periodic
from strategies import SETTINGS

FIELDS = [QQ, GF(2), GF(5)]


def nonzero(dims) -> dict[int, int]:
    return {m: h for m, h in dims if h}


def tensor_inputs(field, seed: int, n: int):
    """Two bounded complexes and an n-periodic one, drawn from one seed."""
    rng = Random(seed)
    x = random_bounded_complex(rng, field, max_dim=3, max_width=3)
    y = random_bounded_complex(rng, field, max_dim=3, max_width=3)
    return x, y, random_periodic(rng, field, n, max_dim=3, max_width=3)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_tensor_cohomology_follows_kunneth(field, seed, n):
    x, y, p = tensor_inputs(field, seed, n)
    assert nonzero(cohomology_dims(tensor_complex(x, y))) == kunneth_cohomology(x, y)
    assert nonzero(enumerate(periodic_cohomology(tensor_periodic(x, p)))) == kunneth_cohomology(x, p)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
@SETTINGS
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4))
def test_fold_cohomology_sums_residue_classes(field, seed, n):
    x = random_bounded_complex(Random(seed), field)
    assert nonzero(enumerate(periodic_cohomology(compress(x, n)))) == fold_cohomology(x, n)


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_samples_carry_cohomology(field):
    """On seeds 0 to 39, drawn as above, at least a quarter of the bounded
    tensor, periodic tensor and fold sums are nonzero, so the formulas are
    not checked on zeros alone."""
    carried = [0, 0, 0]
    for seed in range(40):
        n = 1 + seed % 4
        x, y, p = tensor_inputs(field, seed, n)
        folded = fold_cohomology(random_bounded_complex(Random(seed), field), n)
        sums = kunneth_cohomology(x, y), kunneth_cohomology(x, p), folded
        carried = [c + bool(h) for c, h in zip(carried, sums)]
    assert min(carried) >= 10, carried
