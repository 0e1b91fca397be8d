"""The BGG functor from graded polynomial modules to complexes of exterior
modules, its periodic variant, and the folding square between them.

Sign conventions, pinned here and verified by the well-formedness checks:

* the dual exterior algebra carries the left action
  ``(xi_j . f)(a) = (-1)^deg(f) * f(xi_j a)``;
* the differential on the dual-algebra tensor pieces sends ``f (x) m`` with
  ``f`` of exterior degree l and ``m`` of internal degree i to
  ``(-1)^(l+i) * sum_j (xi_j f) (x) (x_j m)``;
* totalization follows the one sign and order rule of
  `complexes._total_diffs`: cells by increasing internal degree i, and the
  vertical map with the sign ``(-1)^i``.

With these choices every constructed differential squares to zero, commutes
with the exterior action on the nose, and folding commutes with the functor
up to the canonical relabeling of summands, all of which is asserted rather
than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .complexes import BoundedComplex, Violation, _once, _require, _total_diffs, validate, zero_complex
from .graded import (
    GradedModule,
    ModuleComplex,
    PeriodicModuleComplex,
    compress_modules,
    validate_module,
    validate_module_complex,
)
from .linalg import (
    Field,
    Matrix,
    ShapeError,
    assemble_blocks,
    identity,
    kron,
    zeros,
)
from .periodic import PeriodicComplex, _fold_labels, _square_mismatch, compress, validate_periodic

__all__ = [
    "BGGComplex",
    "BGGSquareReport",
    "DoubleComplex",
    "LambdaDual",
    "Totalization",
    "bgg_complex",
    "bgg_module",
    "bgg_periodic",
    "lambda_dual",
    "total_complex",
    "validate_bgg",
    "verify_bgg_square",
]


@dataclass(frozen=True)
class LambdaDual:
    """The dual of the exterior algebra on c generators.

    ``monomials`` lists the 2^c index sets, grouped by exterior degree and
    lexicographic within each degree; ``actions[j]`` is the matrix of the
    generator action on the whole dual, ``signed_actions[j]`` the same with
    each column scaled by (-1)^(degree of its monomial).
    """

    field: Field
    c: int
    monomials: tuple[tuple[int, ...], ...]
    actions: tuple[Matrix, ...]
    signed_actions: tuple[Matrix, ...]

    @property
    def total_dim(self) -> int:
        return len(self.monomials)


@lru_cache(maxsize=32)
def lambda_dual(c: int, field: Field) -> LambdaDual:
    """Construct the dual exterior algebra; 1 <= c <= 6.

    Cached per (c, field), so the construction and its self-check run once
    per key; sharing the result is safe because matrices are immutable.
    """
    if not 1 <= c <= 6:
        raise ValueError(f"generator count out of range: {c}")
    monomials: list[tuple[int, ...]] = []
    for l in range(c + 1):
        monomials.extend(sorted(combinations(range(1, c + 1), l)))
    index = {mono: k for k, mono in enumerate(monomials)}
    n = len(monomials)
    actions = []
    signed = []
    for j in range(1, c + 1):
        body = [[0] * n for _ in range(n)]
        sbody = [[0] * n for _ in range(n)]
        for col, mono in enumerate(monomials):
            if j not in mono:
                continue
            rest = tuple(t for t in mono if t != j)
            swaps = sum(1 for t in rest if t < j)
            sign = (-1) ** (len(mono) + swaps)
            body[index[rest]][col] = sign
            sbody[index[rest]][col] = sign * (-1) ** len(mono)
        actions.append(Matrix(field, n, n, body))
        signed.append(Matrix(field, n, n, sbody))
    dual = LambdaDual(field, c, tuple(monomials), tuple(actions), tuple(signed))
    for j in range(c):
        if not (dual.actions[j] @ dual.actions[j]).is_zero():
            raise AssertionError("generator action does not square to zero")
        for l in range(j + 1, c):
            anti = dual.actions[j] @ dual.actions[l] + dual.actions[l] @ dual.actions[j]
            if not anti.is_zero():
                raise AssertionError("generator actions do not anticommute")
    return dual


@dataclass(frozen=True)
class BGGComplex:
    """A bounded complex whose terms carry the dual exterior action.

    ``actions[k][j]`` is the generator-j action on the term in degree
    ``complex.lo + k``; the differential commutes with every action.
    """

    dual: LambdaDual
    complex: BoundedComplex
    actions: tuple[tuple[Matrix, ...], ...]

    def action(self, j: int, degree: int) -> Matrix:
        if self.complex.lo <= degree <= self.complex.hi:
            return self.actions[degree - self.complex.lo][j]
        return zeros(self.complex.field, 0, 0)


@_once
def validate_bgg(b: BGGComplex) -> Violation | None:
    """Square-zero plus exterior-linearity of the differential."""
    c = b.complex
    v = validate(c)
    if v is not None:
        return v
    for i in range(c.lo, c.hi):
        for j in range(b.dual.c):
            if c.diff(i) @ b.action(j, i) != b.action(j, i + 1) @ c.diff(i):
                return Violation("linearity", i, f"differential does not commute with generator {j}")
    return None


def _bgg_differential(dual: LambdaDual, m: GradedModule, i: int) -> Matrix:
    """Differential block out of internal degree i: the signed generator
    actions tensored with the module actions, scaled by (-1)^i."""
    field = m.field
    out = zeros(field, dual.total_dim * m.dim(i + 1), dual.total_dim * m.dim(i))
    for j in range(dual.c):
        out = out + kron(dual.signed_actions[j], m.action(j, i))
    return out if i % 2 == 0 else -out


def bgg_module(m: GradedModule) -> BGGComplex:
    """The complex with term dual (x) M_i in degree i, over the whole
    window of m: zero pieces give zero terms, at the ends too.

    Built by `_bgg_total`, the totalization of `bgg_complex`, applied to
    the one-term complex of m.  Output invariants (checked): the
    differential squares to zero and commutes with the exterior action;
    term i has dimension 2^c * dim M_i.
    """
    if m.algebra.kind != "poly":
        raise ValueError("input must be a module over a polynomial algebra")
    _require(validate_module(m), "graded module")
    return _bgg_total(ModuleComplex(0, (m,), ()), m.degrees())


@dataclass(frozen=True)
class DoubleComplex:
    """A finite grid of spaces with commuting-square data.

    ``horizontal[(i, j)]`` maps cell (i, j) to (i+1, j); ``vertical`` maps
    it to (i, j+1).  Rows and columns must individually square to zero.
    """

    field: Field
    cells: dict
    horizontal: dict
    vertical: dict

    def dim(self, i: int, j: int) -> int:
        return self.cells.get((i, j), 0)

    def h(self, i: int, j: int) -> Matrix:
        got = self.horizontal.get((i, j))
        if got is None:
            return zeros(self.field, self.dim(i + 1, j), self.dim(i, j))
        return got

    def v(self, i: int, j: int) -> Matrix:
        got = self.vertical.get((i, j))
        if got is None:
            return zeros(self.field, self.dim(i, j + 1), self.dim(i, j))
        return got


@dataclass(frozen=True)
class Totalization:
    complex: BoundedComplex
    summands: dict  # total degree -> tuple of contributing (i, j) cells


def total_complex(grid: DoubleComplex) -> Totalization:
    """Collapse a double complex along anti-diagonals.

    Cell (i, j) lands in total degree i + j, with the sign and order rule
    of `complexes._total_diffs`: within one total degree the cells are
    ordered by increasing i, and the total differential restricted to cell
    (i, j) is horizontal + (-1)^i vertical.  The result is checked to
    square to zero; a failure signals malformed input signs.
    """
    field = grid.field
    live = sorted((key for key, d in grid.cells.items() if d > 0), key=lambda t: (t[0] + t[1], t[0]))
    for (i, j) in live:
        if grid.h(i, j).shape != (grid.dim(i + 1, j), grid.dim(i, j)):
            raise ShapeError(f"horizontal map at {(i, j)} has the wrong shape")
        if grid.v(i, j).shape != (grid.dim(i, j + 1), grid.dim(i, j)):
            raise ShapeError(f"vertical map at {(i, j)} has the wrong shape")
    for (i, j) in live:
        if grid.dim(i + 2, j) and not (grid.h(i + 1, j) @ grid.h(i, j)).is_zero():
            raise ValueError(f"row {j} does not square to zero at {(i, j)}")
        if grid.dim(i, j + 2) and not (grid.v(i, j + 1) @ grid.v(i, j)).is_zero():
            raise ValueError(f"column {i} does not square to zero at {(i, j)}")
    if not live:
        return Totalization(zero_complex(field), {})
    lo = min(i + j for i, j in live)
    hi = max(i + j for i, j in live)
    summands = {l: tuple(cell for cell in live if cell[0] + cell[1] == l) for l in range(lo, hi + 1)}
    dims = tuple(sum(grid.dim(*cell) for cell in summands[l]) for l in range(lo, hi + 1))
    columns = range(min(i for i, _ in live), max(i for i, _ in live) + 1)
    cx = BoundedComplex(field, lo, dims, _total_diffs(field, range(lo, hi), columns, grid.dim, grid.h, grid.v))
    bad = validate(cx)
    if bad is not None:
        raise ValueError(f"total differential does not square to zero: {bad}")
    return Totalization(cx, summands)


def _bgg_grid(mc: ModuleComplex | PeriodicModuleComplex, dual: LambdaDual):
    """The functor applied to each term of a bounded or periodic module
    complex, as a double complex for `_total_diffs` over the columns of the
    internal window: cell (i, j) is the dual (x) the piece of term j in
    internal degree i, the horizontal map the functor differential and the
    vertical map 1 (x) the map of mc."""
    field = mc.modules[0].field
    size = dual.total_dim
    return (
        mc.modules[0].degrees(),
        lambda i, j: size * mc.dim(j, i),
        lambda i, j: _bgg_differential(dual, mc.module(j), i),
        lambda i, j: kron(identity(field, size), mc.map_at(j, i)),
    )


def bgg_complex(mc: ModuleComplex) -> BGGComplex:
    """Apply the functor columnwise and totalize by `_total_diffs`.

    Term l collects the nonzero cells (i, l - i) by increasing i, as
    `total_complex` orders them, over the total degrees from the lowest to
    the highest nonzero cell.  `bgg_module` is the same totalization,
    `_bgg_total`, over the whole window of its module.
    """
    _require(validate_module_complex(mc), "module complex")
    if not mc.modules:
        raise ValueError("cannot apply the functor to an empty complex")
    if mc.modules[0].algebra.kind != "poly":
        raise ValueError("input must be a complex of polynomial-algebra modules")
    live = [i + j for j in mc.homological_degrees() for i in mc.modules[0].degrees() if mc.dim(j, i)]
    return _bgg_total(mc, range(min(live), max(live) + 1) if live else range(0))


def _bgg_total(mc: ModuleComplex, degrees: range) -> BGGComplex:
    """The functor applied to each term of mc, totalized by `_total_diffs`
    over the total degrees `degrees` from degrees.start, so an empty range
    gives the zero complex.  The exterior action on a total term is
    blockwise over its nonzero cells.  The output is checked by
    `validate_bgg`; `bgg_module` and `bgg_complex` guard mc."""
    field = mc.modules[0].field
    dual = lambda_dual(mc.modules[0].algebra.generators, field)
    window, dim, _, _ = grid = _bgg_grid(mc, dual)
    dims = tuple(sum(dim(i, l - i) for i in window) for l in degrees)
    cx = BoundedComplex(field, degrees.start, dims, _total_diffs(field, degrees[:-1], *grid))
    actions = []
    for l in degrees:
        cells = [mc.dim(l - i, i) for i in window if dim(i, l - i)]
        sizes = [dual.total_dim * d for d in cells]
        per_gen = []
        for g in range(dual.c):
            blocks = {(t, t): kron(dual.actions[g], identity(field, d)) for t, d in enumerate(cells)}
            per_gen.append(assemble_blocks(field, sizes, sizes, blocks))
        actions.append(tuple(per_gen))
    out = BGGComplex(dual, cx, tuple(actions))
    bad = validate_bgg(out)
    if bad is not None:
        raise AssertionError(f"construction violated its own invariant: {bad}")
    return out


def bgg_periodic(pm: PeriodicModuleComplex) -> PeriodicComplex:
    """The periodic variant: totalize the cylinder-shaped grid.

    Term r collects the cells (i, homological class (r - i) mod n) over the
    bounded internal window, ordered by increasing i; the differential uses
    the same signs as the bounded totalization.
    """
    _require(validate_module_complex(pm), "periodic module complex")
    field = pm.modules[0].field
    if pm.modules[0].algebra.kind != "poly":
        raise ValueError("input must be periodic over a polynomial algebra")
    dual = lambda_dual(pm.modules[0].algebra.generators, field)
    window, dim, _, _ = grid = _bgg_grid(pm, dual)
    dims = tuple(sum(dim(i, r - i) for i in window) for r in range(pm.n))
    out = PeriodicComplex(field, pm.n, dims, _total_diffs(field, range(pm.n), *grid))
    bad = validate_periodic(out)
    if bad is not None:
        raise AssertionError(f"construction violated its own invariant: {bad}")
    return out


@dataclass(frozen=True)
class BGGSquareReport:
    """Outcome of comparing fold-then-functor against functor-then-fold:
    ``ok`` iff the two agree exactly, ``detail`` says where they first
    differ."""

    n: int
    ok: bool
    detail: str


def verify_bgg_square(mc: ModuleComplex, n: int) -> BGGSquareReport:
    """Compare folding after the functor with the periodic functor after
    folding, matching summands by the canonical bijection.

    Passes only on exact equality of the relabelled differentials; the
    detail names the first residue where summands or differentials differ.
    """
    bounded = bgg_complex(mc)
    cx = bounded.complex
    other = bgg_periodic(compress_modules(mc, n))
    size = bounded.dual.total_dim
    labels = lambda r: _fold_labels(cx, n, r, mc.modules[0].degrees(), lambda i: size, lambda i, j: mc.dim(j, i))
    mismatch = _square_mismatch(compress(cx, n), other, labels)
    return BGGSquareReport(n, mismatch is None, mismatch or "exact equality")
