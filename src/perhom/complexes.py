"""Bounded cochain complexes over a field.

Cohomological conventions: upper indices, degree-raising differentials
``d^i : X^i -> X^(i+1)``.  A complex is stored on a closed window
``[lo, hi]``; every term outside the window is zero.  Binary operations
take the union window.  Direct sums order the X part before the Y part,
and tensor bases are ordered with the left factor major, so equality of
complexes is a meaningful assertion.

Checks, folds, splittings and contractions are computed once per value
(`_once`) and kept on it.  That is sound as values are frozen dataclasses
over read-only matrix arrays and no code rebinds a `Matrix` attribute (the
class does not refuse it).  Results are shared: no caller mutates one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

from .linalg import (
    Field,
    FieldMismatch,
    Matrix,
    ShapeError,
    _kernel_of_rref,
    assemble_blocks,
    hstack,
    identity,
    kron,
    place_rows,
    rref,
    solve_linear,
    submatrix,
    zeros,
)

__all__ = [
    "BoundedComplex",
    "ChainMap",
    "Cone",
    "HomReport",
    "Homotopy",
    "Violation",
    "chain_map",
    "cohomology_dims",
    "complex_from",
    "compose",
    "cone",
    "degree_shift",
    "euler_characteristic",
    "find_null_homotopy",
    "hom_space_dims",
    "homotopy_defect",
    "identity_chain_map",
    "is_acyclic",
    "shift",
    "single",
    "tensor_complex",
    "two_term",
    "validate",
    "validate_chain_map",
    "zero_chain_map",
    "zero_complex",
]


@dataclass(frozen=True)
class Violation:
    """A failed structural check; data, not an exception."""

    kind: str
    degree: int
    detail: str

    def __str__(self) -> str:
        return f"{self.kind} at degree {self.degree}: {self.detail}"


@dataclass(frozen=True)
class BoundedComplex:
    """Finite window of dimensions plus degree-raising differentials.

    ``dims[k]`` is the dimension in degree ``lo + k``; ``diffs[k]`` maps
    degree ``lo + k`` to ``lo + k + 1``.  ``dims`` may be empty (the zero
    complex).
    """

    field: Field
    lo: int
    dims: tuple[int, ...]
    diffs: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if len(self.diffs) != max(0, len(self.dims) - 1):
            raise ShapeError("expected one differential per adjacent pair of degrees")

    @property
    def hi(self) -> int:
        return self.lo + len(self.dims) - 1

    def degrees(self) -> range:
        return range(self.lo, self.hi + 1)

    def prev(self, i: int) -> int:
        """The degree whose differential lands in degree i."""
        return i - 1

    def dim(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self.dims[i - self.lo]
        return 0

    def diff(self, i: int) -> Matrix:
        """The differential out of degree i (zero outside the window)."""
        if self.lo <= i < self.hi:
            return self.diffs[i - self.lo]
        return zeros(self.field, self.dim(i + 1), self.dim(i))

    def total_dim(self) -> int:
        return sum(self.dims)


def complex_from(field: Field, lo: int, dims, diffs) -> BoundedComplex:
    """Build a complex, coercing the differentials to matrices over `field`."""
    dims = tuple(int(d) for d in dims)
    fixed = []
    for k, m in enumerate(diffs):
        if not isinstance(m, Matrix):
            raise TypeError("differentials must be Matrix values")
        if m.field != field:
            raise FieldMismatch("differential over the wrong field")
        if m.shape != (dims[k + 1], dims[k]):
            raise ShapeError(
                f"differential at degree {lo + k} has shape {m.shape}, expected "
                f"({dims[k + 1]}, {dims[k]})"
            )
        fixed.append(m)
    return BoundedComplex(field, lo, dims, tuple(fixed))


def zero_complex(field: Field, lo: int = 0) -> BoundedComplex:
    return BoundedComplex(field, lo, (), ())


def single(field: Field, degree: int = 0) -> BoundedComplex:
    """The complex with one term, of dimension one, in the given degree."""
    return BoundedComplex(field, degree, (1,), ())


def two_term(field: Field, degree: int, matrix: Matrix) -> BoundedComplex:
    """The complex ``matrix : X^degree -> X^(degree+1)``."""
    return BoundedComplex(field, degree, (matrix.cols, matrix.rows), (matrix,))


def _once(fn):
    """fn(value, *args), once per value and arguments, kept in the dict
    ``value._derived`` under fn itself, so two functions of one name keep
    apart; a raise keeps nothing and ``once`` marks a miss.  Reading
    ``__dict__`` instead would slow attribute reads (CPython 3.11)."""

    @functools.wraps(fn)
    def once(value, *args):
        key = (fn, *args) if args else fn
        derived = getattr(value, "_derived", None)
        if derived is None:
            derived = {}
            object.__setattr__(value, "_derived", derived)
        result = derived.get(key, once)
        if result is once:
            result = derived[key] = fn(value, *args)
        return result

    return once


@_once
def validate(c) -> Violation | None:
    """Check shapes and d after d = 0 of a bounded or periodic complex;
    returns the first offending degree.

    The stored differentials run out of the first len(diffs) degrees: every
    degree of a periodic complex, all but the top one of a bounded one.  A
    composite into or out of a zero term is empty, hence zero, and is
    skipped."""
    for i, m in zip(c.degrees(), c.diffs):
        if m.shape != (c.dim(i + 1), c.dim(i)):
            return Violation("shape", i, f"differential has shape {m.shape}")
        if m.field != c.field:
            return Violation("field", i, "differential over the wrong field")
    for i in c.degrees():
        if c.dim(i) and c.dim(i + 2) and not (c.diff(i + 1) @ c.diff(i)).is_zero():
            return Violation("square", i, "composite of consecutive differentials is nonzero")
    return None


def _require(violation: Violation | None, what: str) -> None:
    """The guard of every public entry point: raise ``ValueError("invalid
    <what>: <violation>")`` when the validator of its input found one."""
    if violation is not None:
        raise ValueError(f"invalid {what}: {violation}")


def shift(c: BoundedComplex, l: int) -> BoundedComplex:
    """Suspension: term i becomes the old term i+l, differentials pick up (-1)^l."""
    if not c.dims:
        return BoundedComplex(c.field, c.lo - l, (), ())
    sign = 1 if l % 2 == 0 else -1
    diffs = c.diffs if sign == 1 else tuple(-m for m in c.diffs)
    return BoundedComplex(c.field, c.lo - l, c.dims, diffs)


def degree_shift(c: BoundedComplex, l: int) -> BoundedComplex:
    """Index translation without signs: term i becomes the old term i+l."""
    return BoundedComplex(c.field, c.lo - l, c.dims, c.diffs)


@dataclass(frozen=True)
class ChainMap:
    """Degreewise components of a map of complexes.

    Components are stored for exactly the degrees where source and target
    are both nonzero; `component` pads with zero matrices elsewhere.
    """

    source: BoundedComplex
    target: BoundedComplex
    components: tuple[tuple[int, Matrix], ...]

    def component(self, i: int) -> Matrix:
        for d, m in self.components:
            if d == i:
                return m
        return zeros(self.source.field, self.target.dim(i), self.source.dim(i))


def chain_map(source: BoundedComplex, target: BoundedComplex, components: dict[int, Matrix]) -> ChainMap:
    """Normalize a components dict into a ChainMap (shapes checked strictly)."""
    if source.field != target.field:
        raise FieldMismatch("chain map across fields")
    out = []
    for i in sorted(set(source.degrees()) & set(target.degrees())):
        if source.dim(i) == 0 or target.dim(i) == 0:
            continue
        m = components.get(i)
        if m is None:
            m = zeros(source.field, target.dim(i), source.dim(i))
        if m.shape != (target.dim(i), source.dim(i)):
            raise ShapeError(f"component at degree {i} has shape {m.shape}")
        out.append((i, m))
    for i, m in components.items():
        if m.field != source.field:
            raise FieldMismatch(f"component at degree {i} over the wrong field")
        if (source.dim(i) == 0 or target.dim(i) == 0) and not m.is_zero():
            raise ShapeError(f"nonzero component at degree {i} outside both supports")
    return ChainMap(source, target, tuple(out))


def identity_chain_map(c: BoundedComplex) -> ChainMap:
    return chain_map(c, c, {i: identity(c.field, c.dim(i)) for i in c.degrees() if c.dim(i)})


def zero_chain_map(source: BoundedComplex, target: BoundedComplex) -> ChainMap:
    return chain_map(source, target, {})


def compose(g: ChainMap, f: ChainMap) -> ChainMap:
    """g after f, degreewise G @ F."""
    if f.target != g.source:
        raise ShapeError("middle complexes do not match")
    comps = {}
    for i, _ in f.components:
        comps[i] = g.component(i) @ f.component(i)
    return chain_map(f.source, g.target, comps)


@_once
def validate_chain_map(f) -> Violation | None:
    """Check a bounded or periodic chain map: both complexes, then f d = d f
    out of every degree of the source."""
    x, y = f.source, f.target
    v = validate(x) or validate(y)
    if v is not None:
        return v
    for i in x.degrees():
        if x.dim(i) and y.dim(i + 1) and f.component(i + 1) @ x.diff(i) != y.diff(i) @ f.component(i):
            return Violation("chain-map", i, "f d != d f")
    return None


@dataclass(frozen=True)
class Cone:
    """Mapping cone with its canonical inclusion and projection.

    The projection family sends the cone in degree i onto X^(i+1); it is a
    chain map into shift(X, 1).
    """

    complex: BoundedComplex
    inclusion: ChainMap
    projection: tuple[tuple[int, Matrix], ...]


def _total_diffs(field: Field, degrees, columns, dim, h, v) -> tuple[Matrix, ...]:
    """The differentials out of the total degrees `degrees` of a double
    complex, given by its cell sizes dim(i, j), horizontal maps h(i, j) into
    (i+1, j) and vertical maps v(i, j) into (i, j+1).

    This is the one sign and order rule of every totalization here: term l
    is the sum of the cells (i, l - i) over the consecutive `columns` i, in
    increasing i, and out of cell (i, j) the differential is
    h(i, j) + (-1)^i v(i, j).  Cells of size zero get no block.
    """
    diffs = []
    for l in degrees:
        blocks = {}
        for k, i in enumerate(columns):
            j = l - i
            if not dim(i, j):
                continue
            if k + 1 < len(columns) and dim(i + 1, j):
                blocks[(k + 1, k)] = h(i, j)
            if dim(i, j + 1):
                m = v(i, j)
                blocks[(k, k)] = m if i % 2 == 0 else -m
        rows = [dim(i, l + 1 - i) for i in columns]
        cols = [dim(i, l - i) for i in columns]
        diffs.append(assemble_blocks(field, rows, cols, blocks))
    return tuple(diffs)


def _cone_grid(f):
    """The cone of a bounded or periodic chain map f as a double complex:
    X in column -1 and Y in column 0, with f horizontal.  The sign
    (-1)^(-1) of `_total_diffs` gives the -d_X block."""
    side = {-1: f.source, 0: f.target}
    return (
        (-1, 0),
        lambda i, j: side[i].dim(j),
        lambda i, j: f.component(j),
        lambda i, j: side[i].diff(j),
    )


def cone(f: ChainMap) -> Cone:
    """C(f)^i = X^(i+1) (+) Y^i with differential ((-dX, 0), (f, dY)),
    totalized by `_total_diffs`."""
    _require(validate_chain_map(f), "chain map")
    x, y = f.source, f.target
    field = x.field
    live = [c for c in (degree_shift(x, 1), y) if c.dims]
    if not live:
        c = zero_complex(field)
        return Cone(c, zero_chain_map(y, c), ())
    lo, hi = min(c.lo for c in live), max(c.hi for c in live)
    dims = tuple(x.dim(i + 1) + y.dim(i) for i in range(lo, hi + 1))
    c = BoundedComplex(field, lo, dims, _total_diffs(field, range(lo, hi), *_cone_grid(f)))
    incl = {}
    for i in y.degrees():
        if y.dim(i) == 0:
            continue
        blocks = {(1, 0): identity(field, y.dim(i))}
        incl[i] = assemble_blocks(field, (x.dim(i + 1), y.dim(i)), (y.dim(i),), blocks)
    inclusion = chain_map(y, c, incl)
    projection = []
    for i in range(lo, hi + 1):
        if x.dim(i + 1) == 0 or c.dim(i) == 0:
            continue
        blocks = {(0, 0): identity(field, x.dim(i + 1))}
        projection.append((i, assemble_blocks(field, (x.dim(i + 1),), (x.dim(i + 1), y.dim(i)), blocks)))
    return Cone(c, inclusion, tuple(projection))


@_once
def _echelon(c, r: int) -> tuple[Matrix, tuple[int, ...]]:
    """rref and pivot columns of the differential out of degree r of c."""
    return rref(c.diff(r))


@_once
def _splitting(c) -> tuple[dict[int, int], dict[int, int]]:
    """(h, p) with p_i = rank d^i and h_i = dim X^i - p_i - p_prev(i) for
    every degree i of a bounded or periodic complex c.

    Over a field, c is isomorphic to the sum of h_i copies of k in degree i
    and p_i copies of the contractible k -> k in degrees i, i+1.  Degrees
    outside the window of a bounded c have zero differential.
    """
    p = {r: len(_echelon(c, r)[1]) for r in c.degrees()}
    h = {i: c.dim(i) - p[i] - p.get(c.prev(i), 0) for i in c.degrees()}
    return h, p


class _Split(NamedTuple):
    """Splitting data of one degree: d s + s d = 1 - i p."""

    i: Matrix
    p: Matrix
    s: Matrix


@_once
def _contraction(c, r: int) -> _Split:
    """Splitting data (i, p, s) of a bounded or periodic complex c in degree
    r, with d s + s d = 1 - i p and p d = 0, d i = 0.

    `_echelon` gives the rref R and pivot columns P of the differentials out
    of r and out of c.prev(r).  The unit vectors at P_r span a complement of
    the cycles Z_r; the columns D of d^(r-1) at P_(r-1) are a basis of the
    boundaries B_r; the columns I of a kernel basis of d^r that are pivots
    of [D | kernel] span a complement H_r of B_r in Z_r.  Write a vector of
    degree r as v = E_P a + D b + I c.  Then R v = a, because R is zero on
    cycles and the identity at its pivots, so (b; c) solves
    [D | I] (b; c) = (1 - E_P R) v; set i = I, p v = c and
    s v = E_(P_(r-1)) b.  As d^r v = d^r E_P a has boundary coordinates a
    in degree r + 1, s d v = E_P a, while d s v = D b.

    Only the rank data is needed for Hom counts (`_splitting`); this
    solve is paid for by the homotopy witnesses alone.
    """
    field = c.field
    m = c.dim(r)
    reduced, pivots = _echelon(c, r)
    incoming = _echelon(c, c.prev(r))[1]
    boundaries = submatrix(c.diff(r - 1), range(m), incoming)
    cycles = zeros(field, m, 0)
    if m - len(pivots) - len(incoming):
        kernel = _kernel_of_rref(reduced, pivots)
        chosen = rref(hstack([boundaries, kernel]))[1][len(incoming) :]
        cycles = submatrix(kernel, range(m), [j - len(incoming) for j in chosen])
    coords = solve_linear(hstack([boundaries, cycles]), identity(field, m) - place_rows(reduced, pivots, m))
    if coords is None:
        raise AssertionError(f"splitting of degree {r} is not a basis")
    s = place_rows(coords, incoming, c.dim(r - 1))
    project = submatrix(coords, range(len(incoming), coords.rows), range(m))
    return _Split(cycles, project, s)


def _split_null_homotopy(x, y, phi) -> dict | None:
    """h with d h + h d = phi in every degree of x, or None when the chain
    map phi (phi(r) its component in degree r) between the bounded or
    periodic complexes x and y is not null-homotopic; the criterion and
    the witness are those of `find_null_homotopy`.

    Why the witness works: as p_Y d = 0 and d i_Y = 0,
    d h + h d = (1 - i_Y p_Y) phi + i_Y p_Y phi s_X d, and when
    p_Y phi i_X = 0, p_Y phi = p_Y phi (d s_X + s_X d + i_X p_X) = p_Y phi s_X d.
    """
    degrees, prev = x.degrees(), x.prev
    sx, sy = functools.partial(_contraction, x), functools.partial(_contraction, y)
    if any(not (sy(r).p @ phi(r) @ sx(r).i).is_zero() for r in degrees):
        return None
    return {
        r: sy(r).s @ phi(r) + sy(prev(r)).i @ sy(prev(r)).p @ phi(prev(r)) @ sx(r).s
        for r in degrees
    }


def cohomology_dims(c: BoundedComplex) -> tuple[tuple[int, int], ...]:
    """dim H^i = dim X^i - rank d^i - rank d^(i-1) for every window degree."""
    _require(validate(c), "complex")
    return tuple(_splitting(c)[0].items())


def is_acyclic(c: BoundedComplex) -> bool:
    return all(h == 0 for _, h in cohomology_dims(c))


def euler_characteristic(c: BoundedComplex) -> int:
    return sum((-1) ** (i % 2) * c.dim(i) for i in c.degrees())


@dataclass(frozen=True)
class HomReport:
    """Dimensions of the chain-map space, its null-homotopic subspace, and
    the quotient (the Hom space in the homotopy category)."""

    chain_maps: int
    null_homotopic: int
    homotopy_classes: int


def _split_hom_report(x, y) -> HomReport:
    """Hom dimensions counted over the splittings (`_splitting`) of two
    complexes x and y of one kind, bounded or periodic; y.prev(i) is the
    degree before i.  Each term counts the chain maps between two kinds of
    summand, and only maps k[-i] -> k[-i] survive up to homotopy.
    """
    hx, px = _splitting(x)
    hy, qy = _splitting(y)
    z = classes = 0
    for i, h in hx.items():
        p, hh, q, q_prev = px.get(i, 0), hy.get(i, 0), qy.get(i, 0), qy.get(y.prev(i), 0)
        classes += h * hh
        z += h * hh + h * q_prev + p * hh + p * q + p * q_prev
    return HomReport(z, z - classes, classes)


def hom_space_dims(x: BoundedComplex, y: BoundedComplex) -> HomReport:
    """Z, B and Z - B for the homotopy category Hom space.

    Z is the dimension of the degree 0 chain maps X -> Y, B that of the
    null-homotopic ones (the image of s -> d s + s d), and Z - B the Hom
    space in the homotopy category.  They are counted in closed form from
    the ranks of d_X and d_Y: with p_i = rank d_X^i, h_i = dim H^i(X) and
    q_i, h'_i the same for Y,

        Z = sum_i h_i h'_i + h_i q_(i-1) + p_i h'_i + p_i q_i + p_i q_(i-1),
        Z - B = sum_i h_i h'_i.
    """
    if x.field != y.field:
        raise FieldMismatch("hom across fields")
    _require(validate(x) or validate(y), "complex")
    return _split_hom_report(x, y)


@dataclass(frozen=True)
class Homotopy:
    """Degree -1 components s^i : X^i -> Y^(i-1) relating f and g.

    Plain data; `homotopy_defect` checks the identity
    f - g = s d + d s degree by degree.
    """

    f: ChainMap
    g: ChainMap
    components: tuple[tuple[int, Matrix], ...]

    def component(self, i: int) -> Matrix:
        for d, m in self.components:
            if d == i:
                return m
        x, y = self.f.source, self.f.target
        return zeros(x.field, y.dim(i - 1), x.dim(i))


def homotopy_defect(h) -> Violation | None:
    """First degree where f - g != s d + d s, if any, for a bounded or
    periodic homotopy."""
    x, y = h.f.source, h.f.target
    for i in x.degrees():
        if not (x.dim(i) and y.dim(i)):
            continue
        want = h.f.component(i) - h.g.component(i)
        got = h.component(i + 1) @ x.diff(i) + y.diff(i - 1) @ h.component(i)
        if want != got:
            return Violation("homotopy", i, "f - g != s d + d s")
    return None


def find_null_homotopy(f: ChainMap) -> Homotopy | None:
    """A homotopy from f to zero, or None when f is not null-homotopic.

    From the splitting data d s + s d = 1 - i p of source and target, with
    i including a complement of the boundaries in the cycles and p
    projecting onto it: f is null-homotopic iff p_Y f i_X = 0 in every
    degree, and then h = s_Y f + i_Y p_Y f s_X, that is
    h^r = s_Y^r f^r + i_Y^(r-1) p_Y^(r-1) f^(r-1) s_X^r.  Components are
    kept for the degrees r with X^r and Y^(r-1) both nonzero.
    """
    _require(validate_chain_map(f), "chain map")
    x, y = f.source, f.target
    parts = _split_null_homotopy(x, y, f.component)
    if parts is None:
        return None
    comps = tuple((r, m) for r, m in parts.items() if x.dim(r) and y.dim(r - 1))
    h = Homotopy(f, zero_chain_map(x, y), comps)
    if homotopy_defect(h) is not None:
        raise AssertionError("splitting returned a non-homotopy")
    return h


def _tensor_grid(x: BoundedComplex, y):
    """X (x) Y as a double complex over the degrees of the bounded complex
    x: cell (i, j) is X^i (x) Y^j with the X factor major; y may be
    bounded or periodic."""
    field = x.field
    return (
        x.degrees(),
        lambda i, j: x.dim(i) * y.dim(j),
        lambda i, j: kron(x.diff(i), identity(field, y.dim(j))),
        lambda i, j: kron(identity(field, x.dim(i)), y.diff(j)),
    )


def tensor_complex(x: BoundedComplex, y: BoundedComplex) -> BoundedComplex:
    """Tensor product over the base field with the Koszul sign.

    Degree l is the sum of X^i (x) Y^(l-i) over increasing i, bases ordered
    with the X factor major.  The differential is dx (x) 1 + (-1)^i 1 (x) dy,
    the sign and order rule of `_total_diffs`.
    """
    if x.field != y.field:
        raise FieldMismatch("tensor across fields")
    _require(validate(x) or validate(y), "complex")
    field = x.field
    if not x.dims or not y.dims:
        return zero_complex(field)
    lo = x.lo + y.lo
    hi = x.hi + y.hi
    dims = tuple(sum(x.dim(i) * y.dim(l - i) for i in x.degrees()) for l in range(lo, hi + 1))
    return BoundedComplex(field, lo, dims, _total_diffs(field, range(lo, hi), *_tensor_grid(x, y)))
