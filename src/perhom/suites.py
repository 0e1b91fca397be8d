"""Seed-deterministic verification suites.

Each suite checks one acceptance property on a fixed number of seeded
random instances.  It yields one ``(case, ok, detail)`` triple per
instance: the case label, whether the property holds, and a detail
string.  ``SUITES`` maps each suite name to a function from a seed to
the JSON-able report that ``_report`` builds from those triples;
identical seeds give byte-identical reports.  Suite names are the
`verify` subcommand surface.
"""

from __future__ import annotations

import functools
from random import Random
from typing import Callable, Iterator

from .complexes import (
    chain_map,
    cohomology_dims,
    compose,
    identity_chain_map,
    splitting,
    validate_chain_map,
)
from .documents import canonical_json_bytes
from .graded import (
    flag_filtration,
    free_module,
    polynomial_algebra,
    tensor_compression_square,
)
from .koszul import bgg_complex, bgg_module, verify_bgg_square
from .linalg import GF, QQ
from .orbit import embedding_certificate
from .periodic import (
    compression_cone_square,
    twist_iso,
    unit_and_retraction,
)
from .samples import (
    random_bounded_complex,
    random_chain_map,
    random_contractible_periodic,
    random_flag,
    random_graded_module,
    random_module_complex,
)

__all__ = ["SUITES", "available_suites", "run_suite"]

F5 = GF(5)
F7 = GF(7)

# One (case label, property holds, detail) triple per checked instance.
_Cases = Iterator[tuple[str, bool, str]]


def _report(name: str, cases: Callable[[int], _Cases], seed: int) -> dict:
    """The report of suite ``name`` on the ``(case, ok, detail)`` triples
    that ``cases(seed)`` yields."""
    rows = [{"case": case, "ok": ok, "detail": detail} for case, ok, detail in cases(seed)]
    failed = sum(1 for row in rows if not row["ok"])
    return {
        "suite": name,
        "seed": seed,
        "cases": rows,
        "passed": len(rows) - failed,
        "failed": failed,
        "ok": failed == 0,
    }


def suite_embedding(seed: int) -> _Cases:
    """Orbit Hom dimensions, summed from the cohomology of each complex,
    agree with the Hom dimension between the folded complexes, counted
    from the ranks of their own differentials: folding preserves
    cohomology summed over residues.  Pairwise over seeded corpora of five
    complexes per period."""
    for n in (1, 2, 3):
        rng = Random((seed, "embedding", n).__repr__())
        corpus = [random_bounded_complex(rng, F5, max_dim=4, max_width=4) for _ in range(5)]
        cert = embedding_certificate(corpus, n)
        for xi, yi, total, periodic in cert.pairs:
            yield f"n={n} pair=({xi},{yi})", total == periodic, f"orbit={total} periodic={periodic}"


def suite_periodize(seed: int) -> _Cases:
    """Contractible complexes over both fields split with no cohomology, so
    the checked splitting (`complexes.splitting`) is an exact periodic
    contraction."""
    rng = Random((seed, "periodize").__repr__())
    for k in range(50):
        n = 1 + k % 3
        field = QQ if k % 2 else F5
        p = random_contractible_periodic(rng, field, n, max_dim=1 if field.p is None else 2)
        try:
            # Raises unless d s + s d = 1 - i p holds in every residue.
            ok = not any(part.i.cols for part in splitting(p).values())
        except (ValueError, AssertionError) as exc:
            yield f"k={k} n={n}", False, str(exc)
        else:
            yield f"k={k} n={n}", ok, f"dims={list(p.dims)} field={field!r}"


def suite_cone_compress(seed: int) -> _Cases:
    """Folding commutes with mapping cones up to the documented reordering,
    as an exact matrix identity."""
    for n in (1, 2, 3):
        rng = Random((seed, "cone-compress", n).__repr__())
        for k in range(25):
            field = QQ if k % 3 == 0 else F5
            dim = 2 if field.p is None else 3
            x = random_bounded_complex(rng, field, max_dim=dim, max_width=3)
            y = random_bounded_complex(rng, field, max_dim=dim, max_width=3)
            f = random_chain_map(rng, x, y)
            yield f"n={n} k={k}", compression_cone_square(f, n), f"field={field!r}"


def suite_unit_splitting(seed: int) -> _Cases:
    """The unit into the unrolled fold is a split monomorphism: the
    canonical projection retracts it exactly."""
    for n in (1, 2, 3):
        rng = Random((seed, "unit-splitting", n).__repr__())
        for k in range(25):
            field = QQ if k % 2 else F5
            x = random_bounded_complex(rng, field, max_dim=3, max_width=4)
            pad = rng.randint(0, 1)
            eta, rho = unit_and_retraction(x, n, (x.lo - n - pad, x.hi + n + pad))
            ok = (
                validate_chain_map(eta) is None
                and validate_chain_map(rho) is None
                and compose(rho, eta) == identity_chain_map(x)
            )
            yield f"n={n} k={k}", ok, f"window_pad={pad}"


def suite_twist(seed: int) -> _Cases:
    """The signed-shift to plain-translation comparison map is a chain
    isomorphism with its own components as inverse."""
    for n in (1, 2, 3):
        rng = Random((seed, "twist", n).__repr__())
        for k in range(25):
            field = QQ if k % 2 else F5
            x = random_bounded_complex(rng, field, max_dim=4, max_width=4)
            t = twist_iso(x, n)
            inv = chain_map(t.target, t.source, dict(t.components))
            ok = (
                validate_chain_map(t) is None
                and validate_chain_map(inv) is None
                and compose(inv, t) == identity_chain_map(t.source)
                and compose(t, inv) == identity_chain_map(t.target)
            )
            yield f"n={n} k={k}", ok, ""


def suite_tensor_square(seed: int) -> _Cases:
    """Folding commutes with the tensor functor, entrywise after the
    canonical matching of summands, over both fields."""
    for n in (1, 2, 3):
        rng = Random((seed, "tensor-square", n).__repr__())
        for k in range(25):
            field = QQ if k % 2 else F5
            dim = 2 if field.p is None else 3
            width = 3
            x = random_bounded_complex(rng, field, max_dim=dim, max_width=width)
            y0 = random_bounded_complex(rng, field, max_dim=dim, max_width=width)
            yield f"n={n} k={k}", tensor_compression_square(x, y0, n), f"field={field!r}"


def suite_bgg_wellformed(seed: int) -> _Cases:
    """Every constructed dual-exterior complex squares to zero and its
    differential commutes with the exterior action, exactly, and term i
    has dimension 2^c times that of its module pieces.

    `bgg_module` and `bgg_complex` check the first two with `validate_bgg`
    and raise on a violation, which fails the case with its message.  The
    case then checks that every term dimension is a multiple of 2^c."""
    rng = Random((seed, "bgg-wellformed").__repr__())
    for k in range(50):
        c = 1 + k % 3
        field = F5 if k % 2 else QQ
        width = 4 if c <= 2 else 2
        window = (0, width)
        if k % 3 == 0 or c == 3:
            tag, build, source = "module", bgg_module, random_graded_module(rng, field, c, window)
        else:
            tag, build, source = "complex", bgg_complex, random_module_complex(rng, field, c, window, length=1 + k % 2)
        case = f"k={k} c={c} {tag}"
        try:
            b = build(source)
        except (ValueError, AssertionError) as exc:
            yield case, False, str(exc)
            continue
        yield case, all(d % (2**c) == 0 for d in b.complex.dims), ""


def suite_bgg_square(seed: int) -> _Cases:
    """Folding commutes with the duality functor: the relabelled
    differentials agree exactly.

    Each case compares `bgg_periodic` of the folded module complex with
    the fold of `bgg_complex`; a construction that breaks its own checked
    invariant fails the case with its message."""
    rng = Random((seed, "bgg-square").__repr__())
    for k in range(50):
        c = 1 + k % 2
        n = 1 + k % 3
        field = F5 if k % 2 else QQ
        mc = random_module_complex(rng, field, c, (0, 2 + k % 2))
        case = f"k={k} c={c} n={n}"
        try:
            rep = verify_bgg_square(mc, n)
        except (ValueError, AssertionError) as exc:
            yield case, False, str(exc)
        else:
            yield case, rep.ok, rep.detail


def suite_bgg_cohomology(seed: int) -> _Cases:
    """The free rank-one module has one-dimensional cohomology at the
    bottom of the window and none in the interior."""
    for field, tag in ((QQ, "QQ"), (F5, "GF(5)")):
        s = free_module(field, polynomial_algebra(1), 0, (0, 6))
        coh = dict(cohomology_dims(bgg_module(s).complex))
        ok = coh.get(0) == 1 and all(coh.get(i) == 0 for i in range(1, 6))
        yield f"free module over {tag}, window [0, 6]", ok, f"h={[coh.get(i, 0) for i in range(0, 7)]}"


def suite_flags(seed: int) -> _Cases:
    """Seeded flags over QQ and GF(7) assemble and filter into stages that
    validate (`flag_filtration` raises otherwise).  The recorded verdict, a
    zero differential on each subquotient, holds by construction: every
    block lies strictly above the diagonal.  That each stage is a mapping
    cone is checked in ``tests/test_graded.py``."""
    rng = Random((seed, "flags").__repr__())
    for k in range(25):
        field = QQ if k % 3 == 0 else F7
        flag = random_flag(rng, field)
        stages = flag_filtration(flag)
        ok = all(stage.subquotient.diffs[0].is_zero() for stage in stages)
        yield f"k={k} parts={list(flag.parts)}", ok, f"field={field!r}"


def suite_determinism(seed: int) -> _Cases:
    """Two runs of every other suite with one seed are byte-identical."""
    for name in sorted(SUITES):
        if name == "determinism":
            continue
        first = canonical_json_bytes(SUITES[name](seed))
        second = canonical_json_bytes(SUITES[name](seed))
        yield name, first == second, f"bytes={len(first)}"


_CASES = {
    "embedding": suite_embedding,
    "periodize": suite_periodize,
    "cone-compress": suite_cone_compress,
    "unit-splitting": suite_unit_splitting,
    "twist": suite_twist,
    "tensor-square": suite_tensor_square,
    "bgg-wellformed": suite_bgg_wellformed,
    "bgg-square": suite_bgg_square,
    "bgg-cohomology": suite_bgg_cohomology,
    "flags": suite_flags,
    "determinism": suite_determinism,
}
# Each suite as a function from a seed to its report.
SUITES = {name: functools.partial(_report, name, cases) for name, cases in _CASES.items()}


def available_suites() -> list[str]:
    return sorted(SUITES)


def run_suite(name: str, seed: int = 0) -> dict:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; available: {', '.join(available_suites())}")
    return SUITES[name](seed)
