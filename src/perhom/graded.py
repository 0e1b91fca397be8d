"""Graded modules over a polynomial or exterior algebra, projective flags,
and the periodic tensor functor.

A module is a finite window of graded pieces together with one matrix per
generator and adjacent degree pair.  Polynomial generators raise the
internal degree by one and must commute; exterior generators lower it by
one, anticommute, and square to zero.  Relations are only checked where
both composites stay inside the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations_with_replacement

from .complexes import BoundedComplex, Violation, _once, _require, _tensor_grid, _total_diffs, tensor_complex, validate
from .linalg import (
    Field,
    FieldMismatch,
    Matrix,
    ShapeError,
    _from_rows,
    assemble_blocks,
    submatrix,
    zeros,
)
from .periodic import PeriodicComplex, _fold, _fold_labels, _square_mismatch, compress, validate_periodic

__all__ = [
    "Algebra",
    "FlagData",
    "FlagError",
    "FlagStage",
    "GradedModule",
    "ModuleComplex",
    "PeriodicModuleComplex",
    "compress_modules",
    "direct_sum_modules",
    "exterior_algebra",
    "flag_assemble",
    "flag_filtration",
    "free_module",
    "polynomial_algebra",
    "tensor_compression_square",
    "tensor_periodic",
    "validate_module",
    "validate_module_complex",
]


@dataclass(frozen=True)
class Algebra:
    """Ambient graded algebra: 'poly' generators of degree +1 or 'ext'
    generators of degree -1."""

    kind: str
    generators: int

    def __post_init__(self) -> None:
        if self.kind not in ("poly", "ext"):
            raise ValueError(f"unknown algebra kind {self.kind!r}")
        if self.generators < 1:
            raise ValueError("at least one generator required")

    @property
    def step(self) -> int:
        return 1 if self.kind == "poly" else -1

    def bridge(self, k: int) -> tuple[int, int]:
        """Offsets from the window's low degree of the source and the target
        of action matrix k: over 'poly' it maps lo+k up to lo+k+1, over
        'ext' lo+k+1 down to lo+k."""
        return (k, k + 1) if self.kind == "poly" else (k + 1, k)


def polynomial_algebra(c: int) -> Algebra:
    return Algebra("poly", c)


def exterior_algebra(c: int) -> Algebra:
    return Algebra("ext", c)


@dataclass(frozen=True)
class GradedModule:
    """Finite degree window of graded pieces of nonnegative dimension with generator actions.

    ``actions[j][k]`` bridges the adjacent degrees ``lo+k`` and ``lo+k+1``,
    in the direction ``Algebra.bridge(k)`` gives.
    """

    field: Field
    algebra: Algebra
    lo: int
    dims: tuple[int, ...]
    actions: tuple[tuple[Matrix, ...], ...]

    def __post_init__(self) -> None:
        if len(self.actions) != self.algebra.generators:
            raise ShapeError("expected one action family per generator")
        want = max(0, len(self.dims) - 1)
        for family in self.actions:
            if len(family) != want:
                raise ShapeError("expected one action matrix per adjacent degree pair")
        if min(self.dims, default=0) < 0:
            raise ShapeError("dimensions must be nonnegative")

    @property
    def hi(self) -> int:
        return self.lo + len(self.dims) - 1

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def dim(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.dims[i - self.lo]
        return 0

    def action(self, j: int, i: int) -> Matrix:
        """Action of generator j on the piece of degree i (padded with zero
        maps outside the window)."""
        # Matrix k has its source at offset bridge(k)[0] = k + bridge(0)[0].
        k = i - self.lo - self.algebra.bridge(0)[0]
        if 0 <= k < len(self.dims) - 1:
            return self.actions[j][k]
        return zeros(self.field, self.dim(i + self.algebra.step), self.dim(i))


@_once
def validate_module(m: GradedModule) -> Violation | None:
    """Shape checks plus the commutation laws of the ambient algebra.

    Violations name the generator pair and the source degree.
    """
    step = m.algebra.step
    for j, family in enumerate(m.actions):
        for k, mx in enumerate(family):
            src, dst = (m.lo + offset for offset in m.algebra.bridge(k))
            want = (m.dim(dst), m.dim(src))
            if mx.shape != want:
                return Violation("shape", src, f"action {j} has shape {mx.shape}, expected {want}")
            if mx.field != m.field:
                return Violation("field", src, f"action {j} over the wrong field")
    c, exterior = m.algebra.generators, m.algebra.kind == "ext"
    law = "anticommute" if exterior else "commute"
    for i in m.degrees():
        if not (m.lo <= i + 2 * step <= m.hi):
            continue
        for j in range(c):
            if exterior and not (m.action(j, i + step) @ m.action(j, i)).is_zero():
                return Violation("square", i, f"generator {j} does not square to zero")
            for l in range(j + 1, c):
                lhs = m.action(j, i + step) @ m.action(l, i)
                rhs = m.action(l, i + step) @ m.action(j, i)
                if lhs != (-rhs if exterior else rhs):
                    return Violation(law, i, f"generators ({j}, {l}) do not {law}")
    return None


def free_module(field: Field, algebra: Algebra, generator_degree: int, window: tuple[int, int]) -> GradedModule:
    """The free rank-one module on a generator, truncated to the window.

    Pieces carry the monomial basis in lexicographic exponent order.  A
    monomial is held as the increasing tuple of its generators, and
    `combinations_with_replacement` yields those tuples in decreasing
    exponent order, so each piece reads them in reverse.
    """
    lo, hi = window
    c = algebra.generators
    if algebra.kind != "poly":
        raise ValueError("free exterior modules are not needed here")
    basis = {
        i: list(combinations_with_replacement(range(c), i - generator_degree))[::-1] if i >= generator_degree else []
        for i in range(lo, hi + 1)
    }
    dims = tuple(len(basis[i]) for i in range(lo, hi + 1))
    actions = []
    for j in range(c):
        family = []
        for i in range(lo, hi):
            src = basis[i]
            dst = {mono: t for t, mono in enumerate(basis[i + 1])}
            mx = [[0] * len(src) for _ in range(len(dst))]
            for s, mono in enumerate(src):
                mx[dst[tuple(sorted(mono + (j,)))]][s] = 1
            family.append(_from_rows(field, mx, len(src)))
        actions.append(tuple(family))
    return GradedModule(field, algebra, lo, dims, tuple(actions))


def direct_sum_modules(mods: list[GradedModule]) -> GradedModule:
    """Degreewise direct sum; all summands must share window and algebra."""
    if not mods:
        raise ValueError("nothing to sum")
    first = mods[0]
    for m in mods:
        if (m.field, m.algebra, m.lo, len(m.dims)) != (first.field, first.algebra, first.lo, len(first.dims)):
            raise ShapeError("direct sum needs matching windows and algebras")
    return _module_sum(first, mods)


def _module_sum(first: GradedModule, mods: list[GradedModule]) -> GradedModule:
    """The direct sum of `mods`, which share `first`'s window and algebra;
    with no `mods`, the zero module on that window."""
    dims = tuple(sum(m.dims[k] for m in mods) for k in range(len(first.dims)))
    actions = []
    for j in range(first.algebra.generators):
        family = []
        for k in range(max(0, len(dims) - 1)):
            src, dst = first.algebra.bridge(k)
            rows = [m.dims[dst] for m in mods]
            cols = [m.dims[src] for m in mods]
            blocks = {(t, t): m.actions[j][k] for t, m in enumerate(mods)}
            family.append(assemble_blocks(first.field, rows, cols, blocks))
        actions.append(tuple(family))
    return GradedModule(first.field, first.algebra, first.lo, dims, tuple(actions))


@dataclass(frozen=True)
class ModuleComplex:
    """Bounded complex of graded modules with degree-preserving maps.

    All terms share one internal window; ``maps[k]`` has one matrix per
    internal degree and sends term ``jlo+k`` to term ``jlo+k+1``.
    """

    jlo: int
    modules: tuple[GradedModule, ...]
    maps: tuple[tuple[Matrix, ...], ...]

    def __post_init__(self) -> None:
        if len(self.maps) != max(0, len(self.modules) - 1):
            raise ShapeError("expected one map per adjacent pair of terms")

    @property
    def jhi(self) -> int:
        return self.jlo + len(self.modules) - 1

    def homological_degrees(self) -> range:
        return range(self.jlo, self.jhi + 1)

    def module(self, j: int) -> GradedModule:
        if not self.jlo <= j <= self.jhi:
            raise IndexError(f"no term in homological degree {j}; the terms run {self.jlo}..{self.jhi}")
        return self.modules[j - self.jlo]

    def dim(self, j: int, i: int) -> int:
        """Dimension of term j in internal degree i; zero outside the terms."""
        return self.modules[j - self.jlo].dim(i) if self.jlo <= j <= self.jhi else 0

    def map_at(self, j: int, i: int) -> Matrix:
        """Component of the map out of term j in internal degree i; zero
        outside the terms and the internal window.  Raises IndexError when
        the complex has no terms, as `module` does."""
        if self.jlo <= j < self.jhi:
            m = self.modules[j - self.jlo]
            if m.lo <= i <= m.hi:
                return self.maps[j - self.jlo][i - m.lo]
        if not self.modules:
            raise IndexError(f"no map out of term {j}: the complex has no terms")
        return zeros(self.modules[0].field, self.dim(j + 1, i), self.dim(j, i))


@dataclass(frozen=True)
class PeriodicModuleComplex:
    """n-periodic complex of graded modules; maps wrap cyclically."""

    n: int
    modules: tuple[GradedModule, ...]
    maps: tuple[tuple[Matrix, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("period must be at least 1")
        if len(self.modules) != self.n or len(self.maps) != self.n:
            raise ShapeError("expected n modules and n maps")

    def homological_degrees(self) -> range:
        """One term per residue."""
        return range(self.n)

    def module(self, j: int) -> GradedModule:
        return self.modules[j % self.n]

    def dim(self, j: int, i: int) -> int:
        """Dimension of term j in internal degree i."""
        return self.module(j).dim(i)

    def map_at(self, j: int, i: int) -> Matrix:
        m = self.module(j)
        if m.lo <= i <= m.hi:
            return self.maps[j % self.n][i - m.lo]
        return zeros(m.field, self.dim(j + 1, i), m.dim(i))


@_once
def validate_module_complex(mc: ModuleComplex | PeriodicModuleComplex) -> Violation | None:
    """Check a bounded `ModuleComplex` or an n-periodic `PeriodicModuleComplex`.

    The terms must share window and algebra and be valid modules.  The maps
    run out of every term, the last of a periodic complex wrapping around
    to term 0 and that of a bounded one landing in zero.  They are checked
    in this order: every map has the right shape, every map is equivariant,
    consecutive maps compose to zero.  So a mis-shaped map is reported as a
    shape violation and never reaches a product.  A composite into or out
    of a zero piece is empty, hence zero, and is skipped.
    """
    if not mc.modules:
        return None
    first = mc.modules[0]
    for m in mc.modules:
        if (m.field, m.algebra, m.lo, len(m.dims)) != (first.field, first.algebra, first.lo, len(first.dims)):
            return Violation("window", m.lo, "terms must share window and algebra")
        v = validate_module(m)
        if v is not None:
            return v
    terms, window, step = mc.homological_degrees(), first.degrees(), first.algebra.step
    for j in terms:
        for i in window:
            if mc.map_at(j, i).shape != (mc.dim(j + 1, i), mc.dim(j, i)):
                return Violation("shape", i, f"map out of term {j} has the wrong shape")
    for j in terms:
        for g in range(first.algebra.generators):
            for i in window:
                if not (mc.dim(j, i) and mc.dim(j + 1, i + step)):
                    continue
                lhs = mc.map_at(j, i + step) @ mc.module(j).action(g, i)
                rhs = mc.module(j + 1).action(g, i) @ mc.map_at(j, i)
                if lhs != rhs:
                    return Violation("linearity", i, f"map out of term {j} is not equivariant for generator {g}")
    for j in terms:
        for i in window:
            if mc.dim(j, i) and mc.dim(j + 2, i) and not (mc.map_at(j + 1, i) @ mc.map_at(j, i)).is_zero():
                return Violation("square", i, f"composite of maps {j}, {j + 1} is nonzero")
    return None


def compress_modules(mc: ModuleComplex, n: int) -> PeriodicModuleComplex:
    """Fold a bounded complex of modules into residue classes mod n.

    Term r is the direct sum of the terms with homological degree r mod n,
    in increasing degree, with the block maps of the original complex.
    """
    _require(validate_module_complex(mc), "module complex")
    if n < 1:
        raise ValueError("period must be at least 1")
    if not mc.modules:
        raise ValueError("cannot fold an empty module complex")
    first = mc.modules[0]
    field = first.field
    classes = [[j for j in mc.homological_degrees() if (j - r) % n == 0] for r in range(n)]
    terms = [_module_sum(first, [mc.module(j) for j in degrees]) for degrees in classes]
    maps = []
    for r in range(n):
        family = []
        for i in first.degrees():
            dim = lambda j: mc.module(j).dim(i)
            block = lambda j: mc.map_at(j, i)
            family.append(_fold(field, classes[r], classes[(r + 1) % n], 1, dim, dim, block))
        maps.append(tuple(family))
    return PeriodicModuleComplex(n, tuple(terms), tuple(maps))


@dataclass(frozen=True)
class FlagData:
    """Nonnegative summand dimensions plus strictly upper-triangular blocks.

    ``blocks`` holds triples (src, dst, matrix) with dst < src; the block
    maps part src into part dst.  Square-zero of the assembled differential
    is a hypothesis, checked by `flag_assemble`.
    """

    field: Field
    parts: tuple[int, ...]
    blocks: tuple[tuple[int, int, Matrix], ...]

    def __post_init__(self) -> None:
        if min(self.parts, default=0) < 0:
            raise ShapeError("dimensions must be nonnegative")
        for src, dst, m in self.blocks:
            if not 0 <= dst < src < len(self.parts):
                raise ShapeError(f"block ({src}, {dst}) is not strictly upper triangular")
            if m.shape != (self.parts[dst], self.parts[src]):
                raise ShapeError(f"block ({src}, {dst}) has shape {m.shape}")


class FlagError(ValueError):
    """The assembled flag differential is not square-zero."""


def flag_assemble(f: FlagData) -> PeriodicComplex:
    """Assemble the block differential and return it as a period-1 complex.

    Raises FlagError when the square of the assembled matrix is nonzero;
    upper-triangular shape alone does not force it.
    """
    sizes = list(f.parts)
    blocks = {(dst, src): m for src, dst, m in f.blocks}
    delta = assemble_blocks(f.field, sizes, sizes, blocks)
    if not (delta @ delta).is_zero():
        raise FlagError("assembled differential does not square to zero")
    return PeriodicComplex(f.field, 1, (sum(sizes),), (delta,))


@dataclass(frozen=True)
class FlagStage:
    """One filtration step: the submodule on the first parts and the
    subquotient carried by the next part (always with zero differential)."""

    sub: PeriodicComplex
    subquotient: PeriodicComplex


def flag_filtration(f: FlagData) -> tuple[FlagStage, ...]:
    """Filtration by the first i+1 parts; subquotients are (P_i, 0)."""
    assembled = flag_assemble(f)
    delta = assembled.diffs[0]
    offsets = list(accumulate(f.parts, initial=0))
    stages = []
    for i in range(len(f.parts)):
        cut = offsets[i + 1]
        sub = PeriodicComplex(f.field, 1, (cut,), (submatrix(delta, range(cut), range(cut)),))
        v = validate_periodic(sub)
        if v is not None:
            raise FlagError(f"filtration stage {i} is not a differential module: {v}")
        induced = submatrix(delta, range(offsets[i], cut), range(offsets[i], cut))
        stages.append(
            FlagStage(sub, PeriodicComplex(f.field, 1, (f.parts[i],), (induced,)))
        )
    return tuple(stages)


def tensor_periodic(x: BoundedComplex, y: PeriodicComplex) -> PeriodicComplex:
    """Tensor of a bounded complex with a periodic one, over the base field.

    Term r is the sum over increasing x-degrees j of X^j (x) Y^((r-j) mod
    n); the Y differential picks up the Koszul sign (-1)^j.  Signs and
    order are those of `complexes._total_diffs`, as for `tensor_complex`.
    """
    if x.field != y.field:
        raise FieldMismatch("tensor across fields")
    _require(validate(x), "complex")
    _require(validate_periodic(y), "periodic complex")
    n = y.n
    dims = tuple(sum(x.dim(j) * y.dim(r - j) for j in x.degrees()) for r in range(n))
    return PeriodicComplex(x.field, n, dims, _total_diffs(x.field, range(n), *_tensor_grid(x, y)))


def tensor_compression_square(x: BoundedComplex, y0: BoundedComplex, n: int) -> bool:
    """Exact equality of fold(x tensor y0) and x tensor fold(y0) after the
    canonical matching of summands."""
    t = tensor_complex(x, y0)
    other = tensor_periodic(x, compress(y0, n))
    labels = lambda r: _fold_labels(t, n, r, x.degrees(), x.dim, lambda i, j: y0.dim(j))
    return _square_mismatch(compress(t, n), other, labels) is None
