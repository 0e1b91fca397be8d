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

Index form: each generator action on the dual has at most one nonzero
entry, +-1, in each row and each column (the action removes one index from
a monomial), and so has every block-diagonal sum of kron(action, 1_d).  So
an exterior action is kept as its index form, three int64 arrays (rows,
cols, signs) with entry signs[t] at (rows[t], cols[t]) and zeros elsewhere.
A `BGGComplex` stores only its cell sizes, the dimensions of the module
pieces that make up each term, and derives the index form of every term
from them once (`_term_index`).  `lambda_dual` builds its dense actions
from the form, `_bgg_differential` places the functor differential by it,
and `validate_bgg` compares d A with A d as signed gathers of the columns
and rows of d, for bounded and periodic complexes alike (`_linearity`).
Only `BGGComplex.actions` builds the dense matrices of a complex.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

import numpy as np

from .complexes import BoundedComplex, Violation, _once, _require, _total_diffs, validate, zero_complex
from .graded import (
    GradedModule,
    ModuleComplex,
    PeriodicModuleComplex,
    compress_modules,
    validate_module,
    validate_module_complex,
)
from .linalg import Field, Matrix, ShapeError, _dtype, _mod, _over, _wrap, identity, kron, zeros
from .periodic import PeriodicComplex, _fold_labels, _square_mismatch, compress

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
    generator action on the whole dual, built from ``index``.

    ``index`` is the index form (module docstring) of ``actions``, and
    ``signed_index`` that of the signed actions, each column of action j
    scaled by (-1)^(degree of its monomial): three read-only c x 2^(c-1)
    int64 arrays (rows, cols, signs) each, whose row j lists the nonzero
    entries of action j.  The two share rows and cols.
    """

    field: Field
    c: int
    monomials: tuple[tuple[int, ...], ...]
    actions: tuple[Matrix, ...]
    index: tuple[np.ndarray, np.ndarray, np.ndarray] = dataclasses.field(compare=False, repr=False)
    signed_index: tuple[np.ndarray, np.ndarray, np.ndarray] = dataclasses.field(compare=False, repr=False)

    @property
    def total_dim(self) -> int:
        return len(self.monomials)


@lru_cache(maxsize=32)
def lambda_dual(c: int, field: Field) -> LambdaDual:
    """Construct the dual exterior algebra; 1 <= c <= 6.

    Cached per (c, field), so the construction and its self-check run once
    per key; sharing the result is safe because matrices are immutable
    and the index arrays read-only.
    """
    if not 1 <= c <= 6:
        raise ValueError(f"generator count out of range: {c}")
    monomials: list[tuple[int, ...]] = []
    for l in range(c + 1):
        monomials.extend(sorted(combinations(range(1, c + 1), l)))
    position = {mono: k for k, mono in enumerate(monomials)}
    entries = []
    for j in range(1, c + 1):
        for col, mono in enumerate(monomials):
            if j in mono:
                rest = tuple(t for t in mono if t != j)
                swaps = sum(1 for t in rest if t < j)
                entries.append((position[rest], col, (-1) ** (len(mono) + swaps)))
    rows, cols, signs = np.array(entries, dtype=np.int64).reshape(c, 2 ** (c - 1), 3).transpose(2, 0, 1)
    parity = np.array([len(mono) % 2 for mono in monomials], dtype=np.int64)
    index, signed = (rows, cols, signs), (rows, cols, signs * (1 - 2 * parity[cols]))
    for a in (rows, cols, signs, signed[2]):
        a.setflags(write=False)
    dual = LambdaDual(field, c, tuple(monomials), _placed(field, len(monomials), index), index, signed)
    for j in range(c):
        if not (dual.actions[j] @ dual.actions[j]).is_zero():
            raise AssertionError("generator action does not square to zero")
        for l in range(j + 1, c):
            anti = dual.actions[j] @ dual.actions[l] + dual.actions[l] @ dual.actions[j]
            if not anti.is_zero():
                raise AssertionError("generator actions do not anticommute")
    return dual


def _placed(field: Field, size: int, index) -> tuple[Matrix, ...]:
    """The size x size matrices of the index form (rows, cols, signs), one
    per row of the arrays.

    Each matrix gets an array of its own.  Placing all of them in one
    (c, size, size) block raised the peak RSS of the ``bgg-fp`` benchmark
    by about 2 MB (66.3 against 64.2 MB at seed 71, on a 2-vCPU Xeon VM
    with numpy 2.4), since at c = 5 one block is several MB."""
    out = []
    for rows, cols, signs in zip(*index):
        a = np.zeros((size, size), dtype=_dtype(field))
        a[rows, cols] = _mod(field, signs)
        out.append(_wrap(field, a))
    return tuple(out)


@dataclass(frozen=True)
class BGGComplex:
    """A bounded or periodic complex whose terms carry the dual exterior
    action.

    ``cells[k]`` lists the sizes d of the module pieces whose dual (x)
    piece make up term k, in the order of `_total_diffs`: the action of
    generator j on term k is block diagonal, kron(dual.actions[j], 1_d)
    for each d in turn.  The constructor raises `ShapeError` unless every
    size is positive and term k has dimension 2^c * sum(cells[k]).
    """

    dual: LambdaDual
    complex: BoundedComplex | PeriodicComplex
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        dims = self.complex.dims
        sizes = [self.dual.total_dim * sum(t) if min(t, default=1) > 0 else None for t in self.cells]
        if sizes != list(dims):
            raise ShapeError(f"cells {self.cells} do not make up terms of dimensions {dims}")

    @property
    def actions(self) -> tuple[tuple[Matrix, ...], ...]:
        """``actions[k][j]``, the matrix of the generator-j action on term
        k: the term in degree ``complex.lo + k`` of a bounded complex, in
        residue k of a periodic one."""
        return tuple(_placed(self.complex.field, n, form) for n, form in zip(self.complex.dims, _term_index(self)))


@_once
def validate_bgg(b: BGGComplex) -> Violation | None:
    """`complexes.validate` of the complex of b, bounded or periodic, then
    the exterior linearity of its differentials (`_linearity`)."""
    return validate(b.complex) or _linearity(b.complex, _term_index(b))


def _linearity(c, index) -> Violation | None:
    """The first stored differential d of c and generator j with d A != A d
    for the generator-j action A, whose index form on term k is row j of
    ``index[k]``; d runs out of term k into term k + 1, mod the term count.

    Both sides are signed gathers of ``d.array``: d A has column cols[t]
    equal to signs[t] times column rows[t] of d, for the form on the
    source, and A d has row rows[t] equal to signs[t] times row cols[t] of
    d, for the form on the target; the other columns and rows are zero.
    The two share the denominator of d."""
    for k, (i, d) in enumerate(zip(c.degrees(), c.diffs)):
        source, target = index[k], index[(k + 1) % len(index)]
        for j in range(len(source[0])):
            rows, cols, signs = (a[j] for a in source)
            diff = np.zeros_like(d.array)
            diff[:, cols] = d.array[:, rows] * signs
            rows, cols, signs = (a[j] for a in target)
            diff[rows] -= d.array[cols] * signs[:, None]
            # Over F_p the gathers are signed residues, so a linear d may
            # leave entries of +-p; only the nonzero ones need reducing.
            if _mod(c.field, diff[diff != 0]).any():
                return Violation("linearity", i, f"differential does not commute with generator {j}")
    return None


def _bgg_differential(dual: LambdaDual, m: GradedModule, i: int) -> Matrix:
    """Differential block out of internal degree i: (-1)^i sum_j
    kron(S_j, X_j) for the signed generator actions S_j and the module
    actions X_j, placed by index.  In the 2^c x 2^c grid of dim M_(i+1) x
    dim M_i blocks, block (rows[j, t], cols[j, t]) of ``signed_index`` is
    signs[j, t] X_j.  No two of these blocks share a place, since the
    monomial of the column is that of the row with index j added."""
    field, n, a, b = m.field, dual.total_dim, m.dim(i + 1), m.dim(i)
    blocks = [m.action(j, i) for j in range(dual.c)]
    den = math.lcm(*(x.den for x in blocks))
    rows, cols, signs = dual.signed_index
    signs = signs if i % 2 == 0 else -signs
    grid = np.zeros((n, a, n, b), dtype=_dtype(field))
    stacked = np.stack([_over(x, den) for x in blocks])
    grid[rows, :, cols, :] = signs[:, :, None, None] * stacked[:, None]
    return _wrap(field, _mod(field, grid.reshape(n * a, n * b)), den)


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


def _bgg_total(mc: ModuleComplex | PeriodicModuleComplex, degrees: range) -> BGGComplex:
    """The functor applied to each term of mc, totalized by `_total_diffs`
    over the total degrees `degrees`: from degrees.start for a bounded mc,
    so an empty range gives the zero complex, and the n residues for a
    periodic one.  The cells of term l are the sizes of the nonzero pieces
    mc.dim(l - i, i), by increasing i.  The output is checked by
    `validate_bgg`; the callers guard mc."""
    field = mc.modules[0].field
    dual = lambda_dual(mc.modules[0].algebra.generators, field)
    window, _, _, _ = grid = _bgg_grid(mc, dual)
    cells = tuple(tuple(d for i in window if (d := mc.dim(l - i, i))) for l in degrees)
    dims = tuple(dual.total_dim * sum(t) for t in cells)
    if isinstance(mc, PeriodicModuleComplex):
        cx = PeriodicComplex(field, mc.n, dims, _total_diffs(field, degrees, *grid))
    else:
        cx = BoundedComplex(field, degrees.start, dims, _total_diffs(field, degrees[:-1], *grid))
    out = BGGComplex(dual, cx, cells)
    bad = validate_bgg(out)
    if bad is not None:
        raise AssertionError(f"construction violated its own invariant: {bad}")
    return out


@_once
def _kron_index(dual: LambdaDual, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index form of kron(actions[j], 1_d), row j for generator j:
    entry (r, c) of an action gives the d entries (r d + s, c d + s)."""
    rows, cols, signs = dual.index
    rows, cols = ((k[:, :, None] * d + np.arange(d)).reshape(dual.c, -1) for k in (rows, cols))
    return rows, cols, np.repeat(signs, d, axis=1)


@_once
def _term_index(b: BGGComplex) -> tuple:
    """The index form of the exterior action on each term of b: on term k,
    block t of action j is kron(actions[j], 1_d) for d = cells[k][t],
    shifted to the offset of its cell."""
    out = []
    for cells in b.cells:
        # The (c, 0) arrays of d = 0 give a term without cells its form.
        parts, offset = [_kron_index(b.dual, 0)], 0
        for d in cells:
            rows, cols, signs = _kron_index(b.dual, d)
            parts.append((rows + offset, cols + offset, signs))
            offset += b.dual.total_dim * d
        out.append(tuple(np.concatenate(arrays, axis=1) for arrays in zip(*parts)))
    return tuple(out)


def bgg_periodic(pm: PeriodicModuleComplex) -> PeriodicComplex:
    """The periodic variant: totalize the cylinder-shaped grid.

    Term r collects the cells (i, homological class (r - i) mod n) over the
    bounded internal window, ordered by increasing i; the differential uses
    the same signs as the bounded totalization.  The output is checked for
    exterior linearity as well as square zero (`validate_bgg`).
    """
    _require(validate_module_complex(pm), "periodic module complex")
    if pm.modules[0].algebra.kind != "poly":
        raise ValueError("input must be periodic over a polynomial algebra")
    return _bgg_total(pm, range(pm.n)).complex


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
