"""Every fold against the entrywise fold oracle, which writes each folded
matrix one entry at a time from the labels (j, a), j = r mod n in
increasing order: `compress`, `compress_map`, `compress_modules` and both
maps of `unit_and_retraction`, on seeded inputs over QQ and GF(5) with
periods 1 to 4.  The seeds include periods wider than the input (empty
residue classes) and zero-dimensional terms, and the tests assert that
they do."""

from random import Random

import pytest

from perhom import GF, QQ, compress, compress_map, unit_and_retraction
from perhom.graded import compress_modules
from perhom.samples import random_bounded_complex, random_chain_map, random_module_complex
from oracles import (
    entrywise_compress,
    entrywise_compress_map,
    entrywise_compress_modules,
    entrywise_unit_and_retraction,
)

FIELDS = [QQ, GF(5)]
PERIODS = range(1, 5)
SEEDS = range(10)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_compress_and_unit_match_oracle(field):
    xs = [random_bounded_complex(Random(seed), field) for seed in SEEDS]
    for x in xs:
        for n in PERIODS:
            p = compress(x, n)
            assert (p.dims, p.diffs) == entrywise_compress(x, n)
            eta, rho = unit_and_retraction(x, n, (x.lo - n, x.hi + n))
            unit, retraction = entrywise_unit_and_retraction(x, n)
            assert dict(eta.components) == unit
            assert dict(rho.components) == retraction
    assert any(0 in x.dims for x in xs)
    assert any(len(x.dims) < max(PERIODS) for x in xs)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_compress_map_matches_oracle(field):
    seen_zero_term = False
    for seed in SEEDS:
        rng = Random(seed)
        x = random_bounded_complex(rng, field)
        y = random_bounded_complex(rng, field)
        f = random_chain_map(rng, x, y)
        seen_zero_term |= 0 in x.dims + y.dims
        for n in PERIODS:
            assert compress_map(f, n).components == entrywise_compress_map(f, n)
    assert seen_zero_term


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_compress_modules_matches_oracle(field):
    seen_zero_piece = seen_empty_class = False
    for seed in SEEDS:
        rng = Random(seed)
        mc = random_module_complex(rng, field, rng.randint(1, 2), (0, 2), jlo=rng.randint(-1, 1))
        seen_zero_piece |= any(0 in m.dims for m in mc.modules)
        for n in PERIODS:
            seen_empty_class |= n > len(mc.modules)
            folded = compress_modules(mc, n)
            got = tuple((m.dims, m.actions, maps) for m, maps in zip(folded.modules, folded.maps))
            assert got == entrywise_compress_modules(mc, n)
    assert seen_zero_piece and seen_empty_class
