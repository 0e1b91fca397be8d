"""n-periodic complexes and their interaction with bounded ones.

A period-n complex is stored as n terms and n cyclically composed
differentials ``d^i : X^i -> X^((i+1) mod n)``.  Folding a bounded complex
into residue classes mod n (`compress`) orders the summands of each term by
increasing original degree.  `_fold` is the one home of that order: every
fold of a complex, a chain map or a complex of modules, and the unit and
retraction of the fold, places its blocks through it.  Unrolling a periodic
complex onto a finite window (`expand_window`) truncates the outgoing
differential at the top of the window, so statements about the unrolled
complex are made on window interiors.

A periodic complex states its degrees (the residues) and the degree before
each (i - 1 mod n), as a bounded one does, so the periodic checks and the
splitting below share the bounded bodies in `complexes`.

Hom dimensions and homotopy witnesses come from the splitting of each
complex into cohomology and contractible pieces, read off one rref of each
differential (`complexes._contraction`).  `perhom periodize` reads its
contraction off the checked `complexes.splitting`, with no Kronecker-sized
system; `unrolled_identity_contraction` and `periodize_null_homotopy` keep
the windowed route, which folds any windowed contraction.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import (
    BoundedComplex,
    ChainMap,
    HomReport,
    Homotopy,
    Violation,
    _cone_grid,
    _once,
    _require,
    _split_hom_report,
    _split_null_homotopy,
    _splitting,
    _total_diffs,
    chain_map,
    cone,
    homotopy_defect,
    identity_chain_map,
    shift,
    degree_shift,
    splitting,
    validate,
    validate_chain_map,
    zero_chain_map,
)
from .linalg import (
    Field,
    FieldMismatch,
    Matrix,
    ShapeError,
    assemble_blocks,
    identity,
    submatrix,
    zeros,
)

__all__ = [
    "PeriodicChainMap",
    "PeriodicComplex",
    "PeriodicHomotopy",
    "compress",
    "compress_map",
    "compression_cone_square",
    "expand_window",
    "find_periodic_homotopy",
    "identity_periodic_map",
    "is_acyclic_periodic",
    "periodic_cohomology",
    "periodic_cone",
    "periodic_homotopy_defect",
    "periodic_hom_dims",
    "periodize_null_homotopy",
    "residue_degrees",
    "shift_periodic",
    "twist_iso",
    "unit_and_retraction",
    "unrolled_identity_contraction",
    "validate_periodic",
    "validate_periodic_map",
]


@dataclass(frozen=True)
class PeriodicComplex:
    """n terms, of nonnegative dimensions, and differentials d^i : i -> (i+1) mod n."""

    field: Field
    n: int
    dims: tuple[int, ...]
    diffs: tuple[Matrix, ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("period must be at least 1")
        if len(self.dims) != self.n or len(self.diffs) != self.n:
            raise ShapeError("expected exactly n dimensions and n differentials")
        if min(self.dims) < 0:
            raise ShapeError("dimensions must be nonnegative")

    def degrees(self) -> range:
        """One degree per residue."""
        return range(self.n)

    def prev(self, i: int) -> int:
        """The residue whose differential lands in residue i."""
        return (i - 1) % self.n

    def dim(self, i: int) -> int:
        return self.dims[i % self.n]

    def diff(self, i: int) -> Matrix:
        return self.diffs[i % self.n]

    def total_dim(self) -> int:
        return sum(self.dims)


def validate_periodic(p: PeriodicComplex) -> Violation | None:
    """`complexes.validate`, residue by residue."""
    return validate(p)


@dataclass(frozen=True)
class PeriodicChainMap:
    """n components f^i compatible with the cyclic differentials."""

    source: PeriodicComplex
    target: PeriodicComplex
    components: tuple[Matrix, ...]

    def component(self, i: int) -> Matrix:
        return self.components[i % self.source.n]


def periodic_chain_map(source: PeriodicComplex, target: PeriodicComplex, components) -> PeriodicChainMap:
    if source.field != target.field:
        raise FieldMismatch("periodic map across fields")
    if source.n != target.n:
        raise ShapeError("periodic map across different periods")
    comps = tuple(components)
    if len(comps) != source.n:
        raise ShapeError("expected one component per residue")
    for i, m in enumerate(comps):
        if m.shape != (target.dims[i], source.dims[i]):
            raise ShapeError(f"component {i} has shape {m.shape}")
        if m.field != source.field:
            raise FieldMismatch(f"component {i} over the wrong field")
    return PeriodicChainMap(source, target, comps)


def identity_periodic_map(p: PeriodicComplex) -> PeriodicChainMap:
    return periodic_chain_map(p, p, tuple(identity(p.field, d) for d in p.dims))


def validate_periodic_map(f: PeriodicChainMap) -> Violation | None:
    """`complexes.validate_chain_map`, residue by residue."""
    return validate_chain_map(f)


@dataclass(frozen=True)
class PeriodicHomotopy:
    """n components s^i : X^i -> Y^((i-1) mod n) relating f and g."""

    f: PeriodicChainMap
    g: PeriodicChainMap
    components: tuple[Matrix, ...]

    def component(self, i: int) -> Matrix:
        return self.components[i % self.f.source.n]


def periodic_homotopy_defect(h: PeriodicHomotopy) -> Violation | None:
    """First residue where f - g != s d + d s, if any: `complexes.homotopy_defect`."""
    return homotopy_defect(h)


def residue_degrees(x: BoundedComplex, n: int, r: int) -> list[int]:
    """Window degrees of x congruent to r mod n, in increasing order."""
    return [j for j in x.degrees() if (j - r) % n == 0]


def _fold(field: Field, src, dst, step: int, src_dim, dst_dim, block) -> Matrix:
    """The fold rule: term r of a fold is the sum of the X^j with j = r mod
    n, in increasing j, and a folded map has the blocks of the maps it folds.

    Returns the map from the sum of the X^j over j in `src` to the sum of
    the Y^j over j in `dst` (each list increasing, as `residue_degrees`
    gives) whose block from summand j to summand j + step is block(j):
    step 1 folds a differential, step 0 a degree-0 map.  Blocks whose
    summand j + step is missing from `dst`, or whose source or target has
    dimension zero (src_dim(j), dst_dim(j + step)), are zero.
    """
    pos = {j: k for k, j in enumerate(dst)}
    blocks = {}
    for k, j in enumerate(src):
        if j + step in pos and src_dim(j) and dst_dim(j + step):
            blocks[(pos[j + step], k)] = block(j)
    return assemble_blocks(field, [dst_dim(j) for j in dst], [src_dim(j) for j in src], blocks)


@_once
def compress(x: BoundedComplex, n: int) -> PeriodicComplex:
    """Fold a bounded complex into residue classes mod n.

    Term r is the direct sum of the X^j with j = r mod n, summands in
    increasing j; the differential has the blocks of d_X between adjacent
    degrees and zero elsewhere.
    """
    _require(validate(x), "complex")
    classes = [residue_degrees(x, n, r) for r in range(n)]
    dims = tuple(sum(x.dim(j) for j in classes[r]) for r in range(n))
    diffs = tuple(
        _fold(x.field, classes[r], classes[(r + 1) % n], 1, x.dim, x.dim, x.diff) for r in range(n)
    )
    return PeriodicComplex(x.field, n, dims, diffs)


def compress_map(f: ChainMap, n: int) -> PeriodicChainMap:
    """Fold a chain map block-diagonally into residue classes."""
    _require(validate_chain_map(f), "chain map")
    x, y = f.source, f.target
    comps = [
        _fold(x.field, residue_degrees(x, n, r), residue_degrees(y, n, r), 0, x.dim, y.dim, f.component)
        for r in range(n)
    ]
    return periodic_chain_map(compress(x, n), compress(y, n), comps)


def expand_window(p: PeriodicComplex, lo: int, hi: int) -> BoundedComplex:
    """Unroll a periodic complex onto the window [lo, hi].

    The outgoing differential at the top degree is truncated to zero; the
    restriction to [lo, hi-1] agrees with the unrolled complex.
    """
    dims = tuple(p.dim(i) for i in range(lo, hi + 1))
    diffs = tuple(p.diff(i) for i in range(lo, hi))
    return BoundedComplex(p.field, lo, dims, diffs)


def unit_and_retraction(x: BoundedComplex, n: int, window: tuple[int, int]) -> tuple[ChainMap, ChainMap]:
    """The canonical summand inclusion into the unrolled compression and the
    projection back; their composite is the identity of x.

    The window must contain the support of x with at least one full period
    of slack on each side.
    """
    lo, hi = window
    if x.dims and not (lo <= x.lo - n and hi >= x.hi + n):
        raise ValueError("window must exceed the support by a full period on each side")
    e = expand_window(compress(x, n), lo, hi)
    eta = {}
    rho = {}
    field = x.field
    unit = lambda j: identity(field, x.dim(j))
    for i in x.degrees():
        degrees = residue_degrees(x, n, i % n)
        eta[i] = _fold(field, [i], degrees, 0, x.dim, x.dim, unit)
        rho[i] = _fold(field, degrees, [i], 0, x.dim, x.dim, unit)
    return chain_map(x, e, eta), chain_map(e, x, rho)


def periodic_cone(f: PeriodicChainMap) -> PeriodicComplex:
    """Cyclic mapping cone: term i is X^(i+1) (+) Y^i with the blocks of
    `complexes.cone`, totalized by `complexes._total_diffs`."""
    _require(validate_periodic_map(f), "periodic chain map")
    x, y = f.source, f.target
    n = x.n
    dims = tuple(x.dim(i + 1) + y.dims[i] for i in range(n))
    return PeriodicComplex(x.field, n, dims, _total_diffs(x.field, range(n), *_cone_grid(f)))


def periodic_cohomology(p: PeriodicComplex) -> tuple[int, ...]:
    """dim H^i = dims_i - rank d^i - rank d^(i-1), cyclically."""
    _require(validate_periodic(p), "periodic complex")
    return tuple(_splitting(p)[0].values())


def is_acyclic_periodic(p: PeriodicComplex) -> bool:
    return all(h == 0 for h in periodic_cohomology(p))


def periodic_hom_dims(x: PeriodicComplex, y: PeriodicComplex) -> HomReport:
    """Z, B and Z - B for the cyclic chain-map and homotopy operators.

    Counted in closed form as in `hom_space_dims`, with degrees taken mod
    n: for p_i = rank d_X^i, h_i = dim H^i(X) and q_i, h'_i the same for Y,

        Z = sum_i h_i h'_i + h_i q_(i-1) + p_i h'_i + p_i q_i + p_i q_(i-1),
        Z - B = sum_i h_i h'_i,

    the sums running over the residues 0 .. n-1 and i - 1 taken mod n.
    """
    if x.field != y.field:
        raise FieldMismatch("hom across fields")
    if x.n != y.n:
        raise ShapeError("hom across different periods")
    _require(validate_periodic(x) or validate_periodic(y), "periodic complex")
    return _split_hom_report(x, y)


def find_periodic_homotopy(f: PeriodicChainMap, g: PeriodicChainMap) -> PeriodicHomotopy | None:
    """A periodic homotopy from f to g, or None when none exists.

    As `find_null_homotopy` for phi = f - g with residues mod n: phi is
    null-homotopic iff p_Y phi i_X = 0 at every residue, and then the
    witness is h = s_Y phi + i_Y p_Y phi s_X, built from the splitting data
    d s + s d = 1 - i p of source and target.
    """
    if f.source != g.source or f.target != g.target:
        raise ShapeError("homotopy endpoints must share source and target")
    _require(validate_periodic_map(f) or validate_periodic_map(g), "periodic chain map")
    parts = _split_null_homotopy(f.source, f.target, lambda r: f.component(r) - g.component(r))
    if parts is None:
        return None
    h = PeriodicHomotopy(f, g, tuple(parts.values()))
    if periodic_homotopy_defect(h) is not None:
        raise AssertionError("splitting returned a non-homotopy")
    return h


def unrolled_identity_contraction(p: PeriodicComplex) -> Homotopy | None:
    """Degree -1 maps s^0..s^n on the window [-1, n] with
    ``id = s^(i+1) d^i + d^(i-1) s^i`` for 0 <= i <= n-1, or None when some
    periodic cohomology is nonzero and no such maps exist.

    This is the windowed input consumed by `periodize_null_homotopy`; it is
    weaker than a contraction of the truncated unrolled complex, whose
    identity at the window edges is perturbed by the truncation.  The maps
    are the contraction of `complexes.splitting`, unrolled as
    s^i = s_(i mod n), so the top edge is s^n = s_0.
    """
    if any(periodic_cohomology(p)):
        return None
    n, parts = p.n, splitting(p)
    e = expand_window(p, -1, n)
    comps = tuple((i, parts[i % n].s) for i in range(n + 1) if p.dim(i) and p.dim(i - 1))
    return Homotopy(identity_chain_map(e), zero_chain_map(e, e), comps)


def periodize_null_homotopy(p: PeriodicComplex, s: Homotopy) -> PeriodicHomotopy:
    """Fold a windowed contraction into a periodic one.

    Expects s^0..s^n on the window [-1, n] satisfying
    ``id = s^(i+1) d^i + d^(i-1) s^i`` for 0 <= i <= n-1 (checked).  The
    periodic components are s^n d^(-1) s^0 at residue 0 and s^j at residue
    j for 1 <= j <= n-1; the output is checked against the periodic
    homotopy identity before being returned.
    """
    _require(validate_periodic(p), "periodic complex")
    n = p.n
    for i in range(0, n):
        got = s.component(i + 1) @ p.diff(i) + p.diff(i - 1) @ s.component(i)
        if got != identity(p.field, p.dim(i)):
            raise ValueError(f"input homotopy fails its defining identity at degree {i}")
    comps = [s.component(n) @ p.diff(-1) @ s.component(0)]
    for j in range(1, n):
        comps.append(s.component(j))
    ident = identity_periodic_map(p)
    zero = periodic_chain_map(p, p, tuple(zeros(p.field, d, d) for d in p.dims))
    out = PeriodicHomotopy(ident, zero, tuple(comps))
    defect = periodic_homotopy_defect(out)
    if defect is not None:
        raise AssertionError(f"periodized homotopy failed its invariant: {defect}")
    return out


def shift_periodic(p: PeriodicComplex, l: int) -> PeriodicComplex:
    """Rotate the indexing by l and twist the differentials by (-1)^l."""
    _require(validate_periodic(p), "periodic complex")
    n = p.n
    dims = tuple(p.dim(i + l) for i in range(n))
    sign = 1 if l % 2 == 0 else -1
    diffs = tuple(p.diff(i + l) if sign == 1 else -p.diff(i + l) for i in range(n))
    return PeriodicComplex(p.field, n, dims, diffs)


def twist_iso(x: BoundedComplex, n: int) -> ChainMap:
    """The chain isomorphism from the signed shift by n to the plain index
    translation by n, acting on an original degree-i vector by (-1)^(n*i)."""
    _require(validate(x), "complex")
    src = shift(x, n)
    dst = degree_shift(x, n)
    comps = {}
    for i in src.degrees():
        sign = 1 if (n * (i + n)) % 2 == 0 else -1
        m = identity(x.field, src.dim(i))
        comps[i] = m if sign == 1 else -m
    return chain_map(src, dst, comps)


def _square_mismatch(folded: PeriodicComplex, other: PeriodicComplex, labels) -> str | None:
    """Where two periodic complexes with the same summands, listed in two
    orders, first differ after relabelling; None if they agree exactly.

    ``labels(r)`` returns the labels of term r in ``folded``'s order and in
    ``other``'s order.
    """
    perms = []
    for r in range(folded.n):
        src, dst = labels(r)
        if len(src) != folded.dims[r] or len(dst) != other.dims[r] or set(src) != set(dst):
            return f"summand mismatch at residue {r}"
        pos = {label: k for k, label in enumerate(src)}
        perms.append([pos[label] for label in dst])
    for r in range(folded.n):
        # Conjugation by the relabeling: entry (i, j) in the reordered basis
        # is entry (perm[i], perm[j]) of the folded differential.
        if submatrix(folded.diffs[r], perms[(r + 1) % folded.n], perms[r]) != other.diffs[r]:
            return f"differentials disagree at residue {r}"
    return None


def _fold_labels(total: BoundedComplex, n: int, r: int, columns, outer, inner) -> tuple[list[tuple], list[tuple]]:
    """Labels of term r of a folded totalization, in the order of
    compress(total, n) and in the order of the periodic construction on the
    folded inputs.

    `total` is the bounded totalization of a double complex whose cell
    (i, j) has the basis (a, b) with a < outer(i) major and b < inner(i, j);
    label (i, l, a, b) names a basis vector of cell (i, l - i).  The folded
    side runs over l = r mod n, then i, a, b; the periodic side sums the
    cells of column i over the same l inside each a, so it runs over i, a,
    l, b.
    """
    degrees = residue_degrees(total, n, r)
    folded = [
        (i, l, a, b) for l in degrees for i in columns for a in range(outer(i)) for b in range(inner(i, l - i))
    ]
    other = [
        (i, l, a, b) for i in columns for a in range(outer(i)) for l in degrees for b in range(inner(i, l - i))
    ]
    return folded, other


def compression_cone_square(f: ChainMap, n: int) -> bool:
    """Exact matrix equality of compress(cone(f)) and the periodic cone of
    the compressed map, after the documented reordering of summands."""
    c = cone(f).complex
    other = periodic_cone(compress_map(f, n))
    columns, dim, _, _ = _cone_grid(f)
    labels = lambda r: _fold_labels(c, n, r, columns, lambda i: 1, dim)
    return _square_mismatch(compress(c, n), other, labels) is None
