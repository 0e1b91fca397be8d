"""The four workloads: seeded inputs, the fixed operation list, and the
checks every output must pass.

An operation is one public entry point called in-process: a `perhom`
command through ``perhom.cli.main(argv)`` with its standard output
captured, or, where no command exists, a library function.  A workload is
a number of rounds of one operation mix; every round draws fresh inputs
from ``Random(f"{workload}/{seed}/{round}")``, so the inputs of a round do
not depend on how many rounds run.
"""

from __future__ import annotations

import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import gen

HOM_PRIME = 2147483629
BGG_PRIME = 32003

# Seconds one round takes at commit 587281c on the reference machine (a
# 2-core Xeon VM, Python 3.11); a run does round(seconds / ROUND_S) rounds,
# so the operation list depends on --seconds and the seed, never on the
# machine.
ROUND_S = {"homotopy-qq": 3.5, "homotopy-fp": 3.0, "bgg-fp": 3.3, "verify": 1.4}

WHY = {
    "homotopy-qq": "QQ Hom dimensions, folds, orbit Hom and periodize on (3,5,5,3) complexes: Fraction row reduction dominates",
    "homotopy-fp": "the same mix over GF(2147483629) on (4,12,17,12,4) tensor complexes: F_p elimination and BlockSystem assembly dominate",
    "bgg-fp": "BGG functor over GF(32003) up to c=6 generators: kron, elementwise adds, validate_bgg and JSON output dominate",
    "verify": "the ten verify suites: thousands of tiny matrices, so per-call overhead dominates",
}

VERIFY_SUITES = ["bgg-cohomology", "bgg-square", "bgg-wellformed", "cone-compress", "embedding",
                 "flags", "periodize", "tensor-square", "twist", "unit-splitting"]


@dataclass
class Op:
    """One timed call, its seed-independent check (None when the output is
    right, else the reason), and the bytes compared with recorded digests."""

    id: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    output: Callable[[object], bytes]


def call_cli(main, argv: list[str]) -> tuple[int, bytes]:
    """Run ``main(argv)`` with stdout and stderr captured; (exit code, stdout)."""
    buf = io.BytesIO()
    out = io.TextIOWrapper(buf, encoding="utf-8")
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, io.StringIO()
    try:
        code = main(argv)
    finally:
        out.flush()
        sys.stdout, sys.stderr = saved
    data = buf.getvalue()
    out.detach()
    return code, data


def _cli_output(result) -> bytes:
    return result[1]


def _body(result):
    """Parsed JSON output of a command that should succeed, or raises with
    the reason it is wrong."""
    code, data = result
    if code != 0:
        raise ValueError(f"exit code {code}, expected 0")
    body = json.loads(data)
    if body.get("ok") is not True:
        raise ValueError("output does not say ok")
    return body


def _checked(fn):
    """Turn a check that raises into one that returns the reason."""

    def check(result):
        try:
            fn(result)
        except (ValueError, KeyError, TypeError, AssertionError) as exc:
            return f"{type(exc).__name__}: {exc}"
        return None

    return check


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise AssertionError(message)


def _fold(h: list[int], n: int) -> list[int]:
    return [sum(h[k] for k in range(len(h)) if k % n == r) for r in range(n)]


def _kunneth(hx: list[int], hy: list[int]) -> list[int]:
    out = [0] * (len(hx) + len(hy) - 1)
    for i, a in enumerate(hx):
        for j, b in enumerate(hy):
            out[i + j] += a * b
    return out


class Context:
    """What one set-up produces: the imported package, a directory for the
    generated documents, and the cohomology the checks read from the
    `perhom cohomology` command, cached per document."""

    def __init__(self, ph, main, workdir: Path):
        self.ph = ph
        self.main = main
        self.workdir = workdir
        self._cohomology: dict[str, list[int]] = {}

    def write(self, name: str, value) -> str:
        path = self.workdir / f"{name}.json"
        path.write_bytes(self.ph.serialize_document(value))
        return str(path)

    def cli_op(self, op_id: str, argv: list[str], check) -> Op:
        main = self.main
        return Op(op_id, lambda: call_cli(main, argv), _checked(check), _cli_output)

    def cohomology(self, path: str) -> list[int]:
        """Cohomology of a document by the `perhom cohomology` command."""
        if path not in self._cohomology:
            body = _body(call_cli(self.main, ["cohomology", path]))
            self._cohomology[path] = [h for _, h in body["cohomology"]]
        return self._cohomology[path]


# Rank patterns (heads, singles) per shape; a seed changes entries only.
QQ_PATTERNS = {
    False: [((2, 3, 2), (1, 0, 0, 1)), ((2, 2, 2), (1, 1, 1, 1)), ((1, 3, 1), (2, 1, 1, 2)), ((3, 2, 3), (0, 0, 0, 0))],
    True: [((1, 0), (0, 1, 1)), ((0, 1), (1, 1, 0)), ((0, 0), (1, 2, 1)), ((1, 1), (0, 0, 0))],
}
FP_FACTORS = {
    False: [((1, 1), (1, 1, 1)), ((2, 1), (0, 0, 1)), ((1, 2), (1, 0, 0))],
    True: [((1, 1), (0, 0, 0)), ((1, 0), (0, 1, 1)), ((0, 1), (1, 1, 0))],
}


def _homdim_check(ctx: Context, x: str, y: str, hx: list[int], hy: list[int]):
    def check(result):
        body = _body(result)
        _expect(ctx.cohomology(x) == hx and ctx.cohomology(y) == hy, "cohomology differs from the construction")
        want = sum(a * b for a, b in zip(hx, hy))
        _expect(body["homotopy_classes"] == want, f"homotopy_classes {body['homotopy_classes']}, expected {want}")
        _expect(body["chain_maps"] - body["null_homotopic"] == want, "Z - B differs from the class count")

    return check


def _orbit_check(hx: list[int], hy: list[int], n: int):
    def check(result):
        body = _body(result)
        want = sum(a * b for a, b in zip(_fold(hx, n), _fold(hy, n)))
        _expect(body["periodic_side"] == want, f"periodic side {body['periodic_side']}, expected {want}")
        _expect(body["total"] == want and body["matches"] is True, "orbit total differs from the periodic side")

    return check


def _periodize_check(n: int):
    def check(result):
        body = _body(result)
        _expect(body["verified"] is True, "periodize did not report verified")
        _expect(len(body["components"]) == n, "wrong number of periodic components")

    return check


def _homotopy_round(ctx: Context, rng: Random, r: int, p, smoke: bool) -> list[Op]:
    """Bounded Hom dimensions, Hom dimensions of folds with n=3, orbit Hom
    with n=2 and periodize; over QQ on disguised split complexes, over F_p
    on tensor products of them."""
    build = gen.Build(ctx.ph, p)
    if p is None:
        pats = QQ_PATTERNS[smoke]
        data = [gen.split_complex(rng, *pats[k % len(pats)], p) for k in range(7 if not smoke else 3)]
        cohom = [list(pats[k % len(pats)][1]) for k in range(len(data))]
        pairs = [(k, k + 1) for k in range(6 if not smoke else 2)]
        folds, periodizes = pairs[:3] if not smoke else pairs[:1], 1
        contractible = ((3, 2, 3), (0, 0, 0, 0)) if not smoke else ((1, 1), (0, 0, 0))
    else:
        facs = FP_FACTORS[smoke]
        factors = [gen.split_complex(rng, *facs[k % len(facs)], p) for k in range(4)]
        tensors = [(0, 1), (0, 0), (1, 2), (2, 0)]
        data = [gen.tensor_data(factors[a], factors[b], p) for a, b in tensors]
        cohom = [_kunneth(list(facs[a % len(facs)][1]), list(facs[b % len(facs)][1])) for a, b in tensors]
        pairs = [(0, 1), (2, 3)]
        folds, periodizes = pairs[:1], 2
        contractible = ((4, 4, 4), (0, 0, 0, 0)) if not smoke else ((1, 1), (0, 0, 0))
    cxs = [build.complex(0, d) for d in data]
    paths = [ctx.write(f"r{r}.x{k}", c) for k, c in enumerate(cxs)]
    ops = []
    for k, (a, b) in enumerate(pairs):
        ops.append(ctx.cli_op(f"r{r}.homdim.{k}", ["homdim", paths[a], paths[b]],
                              _homdim_check(ctx, paths[a], paths[b], cohom[a], cohom[b])))
    for k, (a, b) in enumerate(folds):
        fa = ctx.write(f"r{r}.fold{k}a", ctx.ph.compress(cxs[a], 3))
        fb = ctx.write(f"r{r}.fold{k}b", ctx.ph.compress(cxs[b], 3))
        ops.append(ctx.cli_op(f"r{r}.homdim-fold.{k}", ["homdim", fa, fb],
                              _homdim_check(ctx, fa, fb, _fold(cohom[a], 3), _fold(cohom[b], 3))))
    a, b = pairs[-1]
    ops.append(ctx.cli_op(f"r{r}.orbit-homdim", ["orbit-homdim", paths[a], paths[b], "--n", "2"],
                          _orbit_check(cohom[a], cohom[b], 2)))
    for k in range(periodizes):
        flat = build.complex(0, gen.split_complex(rng, *contractible, p))
        path = ctx.write(f"r{r}.contractible{k}", ctx.ph.compress(flat, 2))
        ops.append(ctx.cli_op(f"r{r}.periodize.{k}", ["periodize", path], _periodize_check(2)))
    return ops


BGG_FREE = {False: [(4, (0, 3)), (5, (0, 2)), (6, (0, 1))], True: [(2, (0, 2))]}
BGG_COMPLEX = {False: (3, (0, 3)), True: (2, (0, 1))}
BGG_PERIODIC = {False: (3, (0, 2)), True: (2, (0, 1))}


def _bgg_free_check(c: int, window):
    def check(result):
        body = _body(result)
        lo, hi = window
        h = dict(map(tuple, body["cohomology"]))
        _expect(h[lo] == 1, f"cohomology {h[lo]} at the bottom, expected 1")
        _expect(all(h[i] == 0 for i in range(lo + 1, hi)), "nonzero cohomology inside the window")
        _expect(body["complex"]["dims"][0] == 2**c, "bottom term is not the dual exterior algebra")

    return check


def _acyclic_check(ph):
    def check(built):
        _expect(all(h == 0 for _, h in ph.cohomology_dims(built.complex)), "BGG complex is not acyclic")

    return check


def _periodic_acyclic_check(ph):
    def check(built):
        _expect(all(h == 0 for h in ph.periodic_cohomology(built)), "periodic BGG complex is not acyclic")

    return check


def _bgg_round(ctx: Context, rng: Random, r: int, smoke: bool, free_docs) -> list[Op]:
    """`perhom bgg` on free modules, then `bgg_complex` and `bgg_periodic`
    on contractible complexes of free modules generated at the bottom of the
    window, with seeded scalar maps."""
    ph = ctx.ph
    build = gen.Build(ph, BGG_PRIME)
    ops = [ctx.cli_op(f"r{r}.bgg.c{c}", ["bgg", path], _bgg_free_check(c, window))
           for (c, window), path in zip(BGG_FREE[smoke], free_docs)]

    # Split exact F -> F^2 -> F, disguised by g in the middle.
    c, window = BGG_COMPLEX[smoke]
    one, two = build.free_sum(c, 1, window), build.free_sum(c, 2, window)
    unit = list(one.dims)
    g, g_inv = gen.basis_change(rng, 2, BGG_PRIME)
    into = [[g[0][0]], [g[1][0]]]
    onto = [g_inv[1]]
    mc = ph.ModuleComplex(0, (one, two, one), (build.scalar_map(unit, into), build.scalar_map(unit, onto)))
    ops.append(Op(f"r{r}.bgg_complex", lambda: ph.bgg_complex(mc), _checked(_acyclic_check(ph)),
                  lambda built: ph.serialize_document(built.complex)))

    # Two-periodic F^2 -> F^2 -> F^2 with maps g1 N g0^-1 and g0 N g1^-1,
    # N the nilpotent Jordan block: exact at both terms.
    c, window = BGG_PERIODIC[smoke]
    two = build.free_sum(c, 2, window)
    unit = [d // 2 for d in two.dims]
    (g0, g0_inv), (g1, g1_inv) = gen.basis_change(rng, 2, BGG_PRIME), gen.basis_change(rng, 2, BGG_PRIME)
    nil = [[0, 1], [0, 0]]
    m0 = gen.matmul(gen.matmul(g1, nil, BGG_PRIME), g0_inv, BGG_PRIME)
    m1 = gen.matmul(gen.matmul(g0, nil, BGG_PRIME), g1_inv, BGG_PRIME)
    pm = ph.PeriodicModuleComplex(2, (two, two), (build.scalar_map(unit, m0), build.scalar_map(unit, m1)))
    ops.append(Op(f"r{r}.bgg_periodic", lambda: ph.bgg_periodic(pm), _checked(_periodic_acyclic_check(ph)),
                  ph.serialize_document))
    return ops


def _verify_check(suite: str, seed: int):
    def check(result):
        body = _body(result)
        _expect(body["suite"] == suite and body["seed"] == seed, "report names another suite or seed")
        _expect(body["failed"] == 0 and body["passed"] > 0, f"{body['failed']} cases failed")

    return check


def _verify_round(ctx: Context, rng: Random, r: int, smoke: bool) -> list[Op]:
    """Every verify suite except `determinism` (which only reruns the
    others) for one seed drawn from the round's generator."""
    seed = rng.randrange(2**31)
    suites = VERIFY_SUITES if not smoke else ["bgg-cohomology", "flags"]
    return [ctx.cli_op(f"r{r}.verify.{s}", ["verify", s, "--seed", str(seed)], _verify_check(s, seed))
            for s in suites]


def rounds_for(workload: str, seconds: float, smoke: bool) -> int:
    return 1 if smoke else max(1, round(seconds / ROUND_S[workload]))


def build_ops(workload: str, ctx: Context, seed: int, rounds: int, smoke: bool) -> list[Op]:
    """The workload's fixed operation list for this seed."""
    free_docs = []
    if workload == "bgg-fp":
        build = gen.Build(ctx.ph, BGG_PRIME)
        free_docs = [ctx.write(f"free{c}", build.free_sum(c, 1, window)) for c, window in BGG_FREE[smoke]]
    ops = []
    for r in range(rounds):
        rng = Random(f"{workload}/{seed}/{r}")
        if workload == "homotopy-qq":
            ops += _homotopy_round(ctx, rng, r, None, smoke)
        elif workload == "homotopy-fp":
            ops += _homotopy_round(ctx, rng, r, HOM_PRIME, smoke)
        elif workload == "bgg-fp":
            ops += _bgg_round(ctx, rng, r, smoke, free_docs)
        else:
            ops += _verify_round(ctx, rng, r, smoke)
    return ops


def warm_up(ctx: Context) -> None:
    """One small command, so lazy state is in place before timing."""
    build = gen.Build(ctx.ph, None)
    path = ctx.write("warm-up", build.complex(0, gen.split_complex(Random(0), (1,), (0, 1), None)))
    call_cli(ctx.main, ["cohomology", path])
