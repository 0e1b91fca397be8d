"""Seeded random instances for the verification suites and tests.

Everything here is deterministic given a `random.Random` instance.  Random
complexes are assembled from contractible two-term pieces and one-term
homology pieces, then conjugated by random basis changes, so the square
of every differential vanishes exactly.  Random graded modules are sums
of shifted truncated free modules, conjugated degreewise, which preserves
the commutation laws on the nose.

Random matrices, basis changes and split blocks are built from rows of
Python ints (residues over F_p, integers in [-``_BOUND``, ``_BOUND``] =
[-2, 2] over QQ) and wrapped once, without coercing each entry.  A basis
change takes its invertibility test and its inverse from one elimination
of [M | 1] (`linalg._invert_rows`).  A random flag has at most
``_FLAG_PARTS`` = 3 parts of dimension at most ``_FLAG_PART_DIM`` = 3.
The draws, and the order in which they consume the generator, are pinned
by ``tests/test_sampler_pins.py``.
"""

from __future__ import annotations

from itertools import accumulate
from random import Random

from .complexes import (
    BoundedComplex,
    ChainMap,
    chain_map,
)
from .graded import (
    FlagData,
    GradedModule,
    ModuleComplex,
    direct_sum_modules,
    free_module,
    polynomial_algebra,
)
from .linalg import (
    BlockSystem,
    Field,
    Matrix,
    _from_rows,
    _invert_rows,
    assemble_blocks,
    identity,
    kernel_basis,
    place_rows,
    submatrix,
    zeros,
)
from .periodic import PeriodicComplex, compress, identity_periodic_map, periodic_cone

__all__ = [
    "rand_matrix",
    "random_bounded_complex",
    "random_chain_map",
    "random_contractible_periodic",
    "random_flag",
    "random_graded_module",
    "random_module_complex",
    "random_module_map",
    "random_periodic",
]


_BOUND = 2
_FLAG_PARTS = 3
_FLAG_PART_DIM = 3


def rand_matrix(rng: Random, field: Field, rows: int, cols: int) -> Matrix:
    return _from_rows(field, _draw_rows(rng, field, rows, cols), cols)


def _draw_rows(rng: Random, field: Field, rows: int, cols: int) -> list[list[int]]:
    """The rows of a random matrix as Python ints: residues in [0, p) over
    F_p, integers in [-_BOUND, _BOUND] over QQ."""
    if field.p is not None:
        return [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    return [[rng.randint(-_BOUND, _BOUND) for _ in range(cols)] for _ in range(rows)]


def _basis_change(rng: Random, field: Field, n: int) -> tuple[Matrix, Matrix]:
    """A random invertible n x n matrix and its inverse.

    Up to 30 random candidates are tried in turn; one elimination of
    [M | 1] on the drawn rows decides whether a candidate M is invertible
    and gives its inverse.
    """
    for _ in range(30):
        rows = _draw_rows(rng, field, n, n)
        inv = _invert_rows(field, rows)
        if inv is not None:
            return _from_rows(field, rows, n), inv
    # Unit upper-triangular fallback, invertible by construction.
    body = [[1 if i == j else rng.randint(-2, 2) if j > i else 0 for j in range(n)] for i in range(n)]
    m = Matrix(field, n, n, body)
    return m, _inverse(m)


def _inverse(m: Matrix) -> Matrix:
    inv = _invert_rows(m.field, m.array.tolist(), m.den)
    if inv is None:
        raise ValueError("matrix is not invertible")
    return inv


def random_bounded_complex(
    rng: Random,
    field: Field,
    max_dim: int = 4,
    max_width: int = 4,
    lo_range: tuple[int, int] = (-2, 1),
) -> BoundedComplex:
    """A random complex built from split pieces plus basis changes."""
    width = rng.randint(1, max_width)
    lo = rng.randint(*lo_range)
    degs = list(range(lo, lo + width))
    heads = {i: rng.randint(0, 2) for i in degs[:-1]}
    singles = {i: rng.randint(0, 1) for i in degs}
    for _ in range(10 * width):
        oversized = [i for i in degs if heads.get(i - 1, 0) + heads.get(i, 0) + singles[i] > max_dim]
        if not oversized:
            break
        i = oversized[0]
        if heads.get(i - 1, 0) >= heads.get(i, 0) and heads.get(i - 1, 0) > 0:
            heads[i - 1] -= 1
        elif heads.get(i, 0) > 0:
            heads[i] -= 1
        else:
            singles[i] -= 1
    dims = tuple(heads.get(i - 1, 0) + heads.get(i, 0) + singles[i] for i in degs)
    diffs = []
    for i in degs[:-1]:
        rows = dims[i + 1 - lo]
        cols = dims[i - lo]
        # Degree-i basis order: tails of pieces from i-1, heads of pieces at
        # i, then the one-term summands; the identity block links heads at i
        # to tails at i+1.
        block = [[0] * cols for _ in range(rows)]
        for t in range(heads.get(i, 0)):
            block[t][heads.get(i - 1, 0) + t] = 1
        diffs.append(_from_rows(field, block, cols))
    return BoundedComplex(field, lo, dims, _conjugated(rng, field, dims, diffs))


def random_chain_map(rng: Random, x: BoundedComplex, y: BoundedComplex) -> ChainMap:
    """A uniform-ish random element of the chain-map space."""
    return chain_map(x, y, _random_solution(rng, _chain_map_system(x, y)))


def random_periodic(
    rng: Random,
    field: Field,
    n: int,
    max_dim: int = 3,
    max_width: int = 4,
) -> PeriodicComplex:
    x = random_bounded_complex(rng, field, max_dim=max_dim, max_width=max_width)
    return conjugate_periodic(rng, compress(x, n))


def conjugate_periodic(rng: Random, p: PeriodicComplex) -> PeriodicComplex:
    return PeriodicComplex(p.field, p.n, p.dims, _conjugated(rng, p.field, p.dims, p.diffs))


def _conjugated(rng: Random, field: Field, dims, diffs) -> tuple[Matrix, ...]:
    """``diffs`` in a random basis: one basis change B_k per term of ``dims``, all
    drawn in term order first, then d_k becomes B_((k+1) mod terms) d_k B_k^-1."""
    basis = [_basis_change(rng, field, d) for d in dims]
    return tuple(basis[(k + 1) % len(dims)][0] @ d @ basis[k][1] for k, d in enumerate(diffs))


def random_contractible_periodic(rng: Random, field: Field, n: int, max_dim: int = 2) -> PeriodicComplex:
    """A cone of an identity map, disguised by a random basis change."""
    while True:
        q = compress(random_bounded_complex(rng, field, max_dim=max_dim, max_width=min(n + 1, 3)), n)
        if q.total_dim() > 0:
            break
    return conjugate_periodic(rng, periodic_cone(identity_periodic_map(q)))


def random_flag(rng: Random, field: Field) -> FlagData:
    """Strictly upper-triangular square-zero data with full off-diagonal.

    Adjacent blocks come from a random complex read backwards, so their
    composites vanish; conjugating by a unit block-upper-triangular change
    fills the rest of the upper triangle without breaking square-zero, and
    block-diagonal changes scramble the part bases.
    """
    x = random_bounded_complex(rng, field, max_dim=_FLAG_PART_DIM, max_width=_FLAG_PARTS, lo_range=(0, 0))
    count = len(x.dims)
    parts = tuple(reversed(x.dims))
    adjacent = {j: x.diffs[count - 1 - j] for j in range(1, count)}
    delta = assemble_blocks(field, parts, parts, {(j - 1, j): adjacent[j] for j in adjacent})
    if not (delta @ delta).is_zero():
        raise AssertionError("adjacent construction must square to zero")
    upper = {
        (i, j): rand_matrix(rng, field, parts[i], parts[j])
        for i in range(count)
        for j in range(i + 1, count)
    }
    diag = {(i, i): identity(field, parts[i]) for i in range(count)}
    u = assemble_blocks(field, parts, parts, {**diag, **upper})
    v = assemble_blocks(field, parts, parts, {(i, i): _basis_change(rng, field, parts[i])[0] for i in range(count)})
    g = v @ u
    delta = g @ delta @ _inverse(g)
    offs = list(accumulate(parts, initial=0))
    out_blocks = []
    for jj in range(count):
        for ii in range(jj):
            m = submatrix(delta, range(offs[ii], offs[ii + 1]), range(offs[jj], offs[jj + 1]))
            if not m.is_zero():
                out_blocks.append((jj, ii, m))
    return FlagData(field, parts, tuple(out_blocks))


def conjugate_module(rng: Random, m: GradedModule) -> tuple[GradedModule, list[tuple[Matrix, Matrix]]]:
    """Reskin a module by degreewise basis changes; returns the changes,
    each with its inverse."""
    changes = [_basis_change(rng, m.field, d) for d in m.dims]
    actions = []
    for j in range(m.algebra.generators):
        family = []
        for k in range(max(0, len(m.dims) - 1)):
            src, dst = m.algebra.bridge(k)
            family.append(changes[dst][0] @ m.actions[j][k] @ changes[src][1])
        actions.append(tuple(family))
    return GradedModule(m.field, m.algebra, m.lo, m.dims, tuple(actions)), changes


def random_graded_module(
    rng: Random,
    field: Field,
    c: int,
    window: tuple[int, int],
    max_gens: int = 2,
) -> GradedModule:
    """A sum of shifted truncated free modules in a random basis."""
    lo, hi = window
    algebra = polynomial_algebra(c)
    count = rng.randint(1, max_gens)
    slack = 2 if c <= 2 else 1
    gens = [hi - rng.randint(0, min(slack, hi - lo)) for _ in range(count)]
    m = direct_sum_modules([free_module(field, algebra, g, window) for g in gens])
    return conjugate_module(rng, m)[0]


def _random_solution(rng: Random, sys: BlockSystem) -> dict:
    """The unknown blocks of a random element of the kernel of ``sys``: one
    random coefficient per kernel basis vector, so zero blocks and no draw
    when the kernel is 0."""
    basis = kernel_basis(sys.matrix())
    return sys.split_solution(basis @ rand_matrix(rng, sys.field, basis.cols, 1))


def _map_system(src, dst, degrees, relations) -> BlockSystem:
    """The maps U_k from src_k to dst_k over ``degrees`` with U_t a = b U_k
    for each (key, k, t, a, b) of ``relations``; zero blocks are left out.
    Unknowns come in degree order and equations in relation order, which
    fixes the kernel basis and so every draw."""
    sys = BlockSystem(src.field)
    unknowns = [k for k in degrees if src.dim(k) and dst.dim(k)]
    for k in unknowns:
        sys.add_unknown(k, dst.dim(k), src.dim(k))
    for key, k, t, a, b in relations:
        if src.dim(k) and dst.dim(t):
            sys.add_equation(key, dst.dim(t), src.dim(k))
            if t in unknowns:
                sys.add_term(key, t, right=a)
            if k in unknowns:
                sys.add_term(key, k, left=-b)
    return sys


def _chain_map_system(x: BoundedComplex, y: BoundedComplex) -> BlockSystem:
    """The chain maps f from x to y: f_(i+1) d_x = d_y f_i."""
    degrees = range(min(x.lo, y.lo), max(x.hi, y.hi) + 1) if x.dims and y.dims else range(0)
    return _map_system(x, y, degrees, ((i, i, i + 1, x.diff(i), y.diff(i)) for i in degrees))


def _module_map_system(src: GradedModule, dst: GradedModule) -> BlockSystem:
    """The degree-0 module maps f from src to dst: f_(i+step) x_g = x_g f_i."""
    step = src.algebra.step
    relations = (
        ((g, i), i, i + step, src.action(g, i), dst.action(g, i))
        for g in range(src.algebra.generators)
        for i in src.degrees()
        if src.lo <= i + step <= src.hi
    )
    return _map_system(src, dst, src.degrees(), relations)


def random_module_map(rng: Random, src: GradedModule, dst: GradedModule) -> tuple[Matrix, ...]:
    """Random equivariant degree-0 map, one matrix per window degree."""
    parts = _random_solution(rng, _module_map_system(src, dst))
    return tuple(
        parts.get(i, zeros(src.field, dst.dim(i), src.dim(i))) for i in src.degrees()
    )


def random_module_complex(
    rng: Random,
    field: Field,
    c: int,
    window: tuple[int, int],
    length: int | None = None,
) -> ModuleComplex:
    """A complex of graded modules of one, two, or three terms."""
    length = length if length is not None else rng.randint(1, 3)
    if length == 1:
        return ModuleComplex(0, (random_graded_module(rng, field, c, window),), ())
    if length == 2:
        a = random_graded_module(rng, field, c, window)
        b = random_graded_module(rng, field, c, window)
        return ModuleComplex(0, (a, b), (random_module_map(rng, a, b),))
    a = random_graded_module(rng, field, c, window, max_gens=1)
    b = random_graded_module(rng, field, c, window, max_gens=1)
    middle = direct_sum_modules([a, b])
    include = tuple(place_rows(identity(field, a.dim(i)), range(a.dim(i)), middle.dim(i)) for i in a.degrees())
    project = tuple(
        submatrix(identity(field, middle.dim(i)), range(a.dim(i), middle.dim(i)), range(middle.dim(i)))
        for i in a.degrees()
    )
    skin_a, ua = conjugate_module(rng, a)
    skin_m, um = conjugate_module(rng, middle)
    skin_b, ub = conjugate_module(rng, b)
    maps0 = tuple(um[k][0] @ include[k] @ ua[k][1] for k in range(len(a.dims)))
    maps1 = tuple(ub[k][0] @ project[k] @ um[k][1] for k in range(len(a.dims)))
    return ModuleComplex(0, (skin_a, skin_m, skin_b), (maps0, maps1))
