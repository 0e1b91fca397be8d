"""Independent routes to the numbers and witnesses the library computes.

The brute-force oracles enumerate small prime-field spaces outright or
defer to sympy's exact rational arithmetic, so they share no code path
with the Gaussian elimination they check.  The solver oracles take the
long way, through the Kronecker-sized linear systems for chain maps and
homotopies: Hom dimensions as their nullity and rank, and homotopy
witnesses as the reduced-echelon particular solution (free variables
zero).  They share `rank`, `solve_linear` and the system assembly with the
library, but not the splitting of each complex into cohomology and
contractible pieces that the library counts and builds witnesses from.
The splitting of one degree has a reference too: the earlier route of
two eliminations, a cycle complement from one rref and its coordinates
from `solve_linear`, against the library's one rref.
The Tor oracle counts BGG cohomology from the Koszul complex of the module,
sharing only `rank` and `assemble_blocks` with the functor it checks, and
the dual exterior algebra is written entry by entry from field scalars, as
is the matrix of each index form of an exterior action; the BGG actions are
also built by the dense route, kron(action, 1_d) assembled blockwise, and
their linearity is checked by dense products, not by signed gathers.  The
entrywise oracles write the cone and tensor differentials one entry at a
time from the input differentials on basis labels, sharing only `Matrix`
with the totalization they check.  The entrywise fold oracles do the same
for every fold (`compress`, `compress_map`, `compress_modules` and the unit
and retraction of `unit_and_retraction`), on the labels (j, a) with
j = r mod n in increasing order, sharing only `Matrix` with
`periodic._fold`.  The F_p kernel oracles compute products, Kronecker
products and entrywise operations on Python ints from `entries`, with no
numpy and no choice of kernel.  The QQ kernel oracles do the same
on the `Fraction` rows of `entries`, down to row reduction, kernel bases
and particular solutions by Gauss-Jordan elimination on fractions, and
the F_p row-reduction oracles by the same elimination on residues; the
structural oracles (transpose, stacks, blocks, submatrices, vec) rearrange
the `entries` of either field.  The sampler oracles draw random matrices
and basis changes by the samplers' earlier route: every entry through
`mat` and `Field.coerce`, and each inverse from `solve_linear(cand,
identity)`, sharing only the generator calls with `perhom.samples`.  The
Kuenneth and fold oracles read only `cohomology_dims` and
`periodic_cohomology` of the inputs of the construction they check, and
the free-module oracle enumerates exponent tuples with
`itertools.product`, sharing nothing with `graded.free_module`.
"""

from fractions import Fraction
from itertools import combinations, product
from math import comb

from perhom import (
    BoundedComplex,
    ChainMap,
    GradedModule,
    Homotopy,
    Matrix,
    PeriodicComplex,
    Violation,
    cohomology_dims,
    expand_window,
    identity,
    identity_chain_map,
    kernel_basis,
    mat,
    periodic_cohomology,
    rank,
    solve_linear,
    splitting,
    zero_chain_map,
    zeros,
)
from perhom.samples import _chain_map_system
from perhom.linalg import BlockSystem, assemble_blocks, hstack, kron, place_rows, rref, submatrix, vec, vstack
from perhom.periodic import PeriodicChainMap, PeriodicHomotopy


def brute_rank_fp(m: Matrix) -> int:
    """Rank over F_p as log_p of the row-span size, by full enumeration."""
    p = m.field.p
    span = set()
    rows = [tuple(r) for r in m.entries]
    for coeffs in product(range(p), repeat=m.rows):
        vec = tuple(sum(c * row[j] for c, row in zip(coeffs, rows)) % p for j in range(m.cols))
        span.add(vec)
    size = len(span)
    rank = 0
    while p**rank < size:
        rank += 1
    assert p**rank == size
    return rank


def fp_product(a: Matrix, b: Matrix) -> tuple:
    """Entries of a @ b over F_p: sum_t a[i][t] * b[t][j] mod p, on Python ints."""
    p, ea, eb = a.field.p, a.entries, b.entries
    return tuple(tuple(sum(ea[i][t] * eb[t][j] for t in range(a.cols)) % p for j in range(b.cols)) for i in range(a.rows))


def fp_kron(a: Matrix, b: Matrix) -> tuple:
    """Entries of kron(a, b) over F_p: entry (i*r + k, j*s + l) is
    a[i][j] * b[k][l] mod p for b of shape r x s."""
    p, r, s = a.field.p, b.rows, b.cols
    return tuple(
        tuple(a.entries[i // r][j // s] * b.entries[i % r][j % s] % p for j in range(a.cols * s))
        for i in range(a.rows * r)
    )


def fp_entrywise(op, *mats: Matrix) -> tuple:
    """Entries of `op` applied entry by entry to equally shaped matrices
    over F_p, reduced mod p: (operator.add, a, b) for a + b,
    (operator.neg, a) for -a."""
    p, m = mats[0].field.p, mats[0]
    return tuple(tuple(op(*(x.entries[i][j] for x in mats)) % p for j in range(m.cols)) for i in range(m.rows))


def qq_product(a: Matrix, b: Matrix) -> tuple:
    """Entries of a @ b over QQ: sum_t a[i][t] * b[t][j] on `Fraction`s."""
    ea, eb = a.entries, b.entries
    return tuple(
        tuple(sum((ea[i][t] * eb[t][j] for t in range(a.cols)), Fraction(0)) for j in range(b.cols))
        for i in range(a.rows)
    )


def qq_kron(a: Matrix, b: Matrix) -> tuple:
    """Entries of kron(a, b) over QQ, indexed as in `fp_kron`."""
    r, s = b.rows, b.cols
    return tuple(
        tuple(a.entries[i // r][j // s] * b.entries[i % r][j % s] for j in range(a.cols * s)) for i in range(a.rows * r)
    )


def qq_entrywise(op, *mats: Matrix) -> tuple:
    """Entries of `op` applied entry by entry to equally shaped matrices over QQ."""
    m = mats[0]
    return tuple(tuple(op(*(x.entries[i][j] for x in mats)) for j in range(m.cols)) for i in range(m.rows))


def qq_rref(m: Matrix) -> tuple[tuple, tuple]:
    """Entries of the reduced row echelon form over QQ and the pivot columns."""
    return _gauss_jordan(m.entries, m.cols)


def fp_rref(m: Matrix) -> tuple[tuple, tuple]:
    """Entries of the reduced row echelon form over F_p and the pivot
    columns, on Python ints with inverses by Fermat's little theorem."""
    return _gauss_jordan(m.entries, m.cols, m.field.p)


def _gauss_jordan(entries, cols: int, p: int | None = None) -> tuple[tuple, tuple]:
    """Gauss-Jordan elimination on `Fraction` rows (p None) or on rows of
    residues mod p, pivoting on the first nonzero entry of each column."""
    rows = [list(r) for r in entries]
    pivots = []
    for c in range(cols):
        r = len(pivots)
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        if p is None:
            rows[r] = [x / rows[r][c] for x in rows[r]]
        else:
            inv = pow(rows[r][c], p - 2, p)
            rows[r] = [x * inv % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if p is None else (x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return tuple(map(tuple, rows)), tuple(pivots)


def qq_kernel_basis(m: Matrix) -> tuple:
    """Entries of the kernel basis over QQ: column t sets the t-th free
    variable to 1, the other free variables to 0, and solves for the pivot
    variables from the reduced rows."""
    return _kernel_basis(m, qq_rref(m), Fraction(0), Fraction(1), lambda x: -x)


def fp_kernel_basis(m: Matrix) -> tuple:
    """Entries of the kernel basis over F_p, as in `qq_kernel_basis`."""
    p = m.field.p
    return _kernel_basis(m, fp_rref(m), 0, 1, lambda x: -x % p)


def _kernel_basis(m: Matrix, echelon, zero, one, neg) -> tuple:
    reduced, pivots = echelon
    free = [c for c in range(m.cols) if c not in pivots]
    cols = []
    for f in free:
        x = [zero] * m.cols
        x[f] = one
        for r, c in enumerate(pivots):
            x[c] = neg(reduced[r][f])
        cols.append(x)
    return tuple(tuple(col[v] for col in cols) for v in range(m.cols))


def qq_solve(a: Matrix, b: Matrix):
    """Entries of the particular solution of a x = b over QQ with every free
    variable zero, or None when the system has no solution."""
    return _particular_solution(a, b, None, Fraction(0))


def fp_solve(a: Matrix, b: Matrix):
    """Entries of the particular solution of a x = b over F_p, as in `qq_solve`."""
    return _particular_solution(a, b, a.field.p, 0)


def _particular_solution(a: Matrix, b: Matrix, p, zero):
    rows = [r + s for r, s in zip(a.entries, b.entries)]
    reduced, pivots = _gauss_jordan(rows, a.cols + b.cols, p)
    if any(c >= a.cols for c in pivots):
        return None
    x = [(zero,) * b.cols] * a.cols
    for r, c in enumerate(pivots):
        x[c] = reduced[r][a.cols :]
    return tuple(x)


def entries_transpose(m: Matrix) -> tuple:
    return tuple(tuple(row[j] for row in m.entries) for j in range(m.cols))


def entries_stack(mats, axis: int) -> tuple:
    """Entries of hstack (axis 1) or vstack (axis 0) of `mats`."""
    if axis == 0:
        return tuple(row for m in mats for row in m.entries)
    return tuple(tuple(x for m in mats for x in m.entries[i]) for i in range(mats[0].rows))


def entries_blocks(field, row_sizes, col_sizes, blocks) -> tuple:
    """Entries of assemble_blocks: block (bi, bj) at its offsets, zero elsewhere."""
    body = [[field.zero] * sum(col_sizes) for _ in range(sum(row_sizes))]
    for (bi, bj), m in blocks.items():
        r0, c0 = sum(row_sizes[:bi]), sum(col_sizes[:bj])
        for i, row in enumerate(m.entries):
            body[r0 + i][c0 : c0 + m.cols] = row
    return tuple(map(tuple, body))


def entries_submatrix(m: Matrix, rows, cols) -> tuple:
    return tuple(tuple(m.entries[i][j] for j in cols) for i in rows)


def entries_vec(m: Matrix) -> tuple:
    return tuple((x,) for row in m.entries for x in row)


def entries_unvec(column: Matrix, rows: int, cols: int) -> tuple:
    flat = [r[0] for r in column.entries]
    return tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows))


def _graded_maps(x: BoundedComplex, y: BoundedComplex, offset: int):
    """All families of matrices X^i -> Y^(i+offset) over F_p, by brute force."""
    p = x.field.p
    degrees = [i for i in range(min(x.lo, y.lo), max(x.hi, y.hi) + 1) if x.dim(i) and y.dim(i + offset)]
    shapes = [(y.dim(i + offset), x.dim(i)) for i in degrees]
    total = sum(r * c for r, c in shapes)
    for flat in product(range(p), repeat=total):
        maps = {}
        pos = 0
        for i, (r, c) in zip(degrees, shapes):
            chunk = flat[pos : pos + r * c]
            pos += r * c
            maps[i] = Matrix(x.field, r, c, tuple(tuple(chunk[a * c : (a + 1) * c]) for a in range(r)))
        yield maps


def brute_hom_dims(x: BoundedComplex, y: BoundedComplex) -> tuple[int, int]:
    """(Z, B) over a small prime field by enumerating every graded map."""
    p = x.field.p
    lo = min(x.lo, y.lo)
    hi = max(x.hi, y.hi)

    def zero_padded(maps, i, offset):
        got = maps.get(i)
        if got is not None:
            return got
        from perhom import zeros

        return zeros(x.field, y.dim(i + offset), x.dim(i))

    chain_count = 0
    for maps in _graded_maps(x, y, 0):
        if all(
            zero_padded(maps, i + 1, 0) @ x.diff(i) == y.diff(i) @ zero_padded(maps, i, 0)
            for i in range(lo, hi + 1)
        ):
            chain_count += 1
    boundaries = set()
    for maps in _graded_maps(x, y, -1):
        image = tuple(
            tuple(
                tuple(row)
                for row in (zero_padded(maps, i + 1, -1) @ x.diff(i) + y.diff(i - 1) @ zero_padded(maps, i, -1)).entries
            )
            for i in range(lo, hi + 1)
        )
        boundaries.add(image)

    def logp(size: int) -> int:
        e = 0
        while p**e < size:
            e += 1
        assert p**e == size
        return e

    return logp(chain_count), logp(len(boundaries))


def sympy_rank(m: Matrix) -> int:
    """Exact rational rank through sympy, as an independent route."""
    import sympy

    if m.rows == 0 or m.cols == 0:
        return 0
    body = [[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.entries]
    return sympy.Matrix(body).rank()


def _homotopy_system(x: BoundedComplex, y: BoundedComplex) -> BlockSystem:
    # Unknowns are degree -1 maps s^i : X^i -> Y^(i-1); the operator lands in
    # degree 0 maps via s -> d s + s d.
    sys = BlockSystem(x.field)
    lo = min(x.lo, y.lo) if x.dims and y.dims else 0
    hi = max(x.hi, y.hi) if x.dims and y.dims else -1
    for i in range(lo, hi + 2):
        if x.dim(i) and y.dim(i - 1):
            sys.add_unknown(i, y.dim(i - 1), x.dim(i))
    for i in range(lo, hi + 1):
        if x.dim(i) and y.dim(i):
            sys.add_equation(i, y.dim(i), x.dim(i))
    for i in range(lo, hi + 1):
        if not (x.dim(i) and y.dim(i)):
            continue
        if x.dim(i + 1) and y.dim(i):
            sys.add_term(i, i + 1, right=x.diff(i))
        if x.dim(i) and y.dim(i - 1):
            sys.add_term(i, i, left=y.diff(i - 1))
    return sys


def _cyclic_homotopy_system(x: PeriodicComplex, y: PeriodicComplex) -> BlockSystem:
    sys = BlockSystem(x.field)
    n = x.n
    for r in range(n):
        if x.dims[r] and y.dim(r - 1):
            sys.add_unknown(r, y.dim(r - 1), x.dims[r])
    for r in range(n):
        if x.dims[r] and y.dims[r]:
            sys.add_equation(r, y.dims[r], x.dims[r])
    for r in range(n):
        if not (x.dims[r] and y.dims[r]):
            continue
        if x.dim(r + 1) and y.dims[r]:
            sys.add_term(r, (r + 1) % n, right=x.diff(r))
        if x.dims[r] and y.dim(r - 1):
            sys.add_term(r, r, left=y.diff(r - 1))
    return sys


def rhs_vector(sys: BlockSystem, rhs: dict) -> Matrix:
    """The right side of `sys` as one column: the block ``rhs[key]`` of each
    equation, zero where absent, flattened row major in equation order."""
    shapes = sys._equations
    assert rhs.keys() <= shapes.keys(), "right side for an unknown equation"
    assert all(m.shape == shapes[key] for key, m in rhs.items()), "right side of the wrong shape"
    pieces = [vec(rhs.get(key, zeros(sys.field, r, c))) for key, (r, c) in shapes.items()]
    return vstack([zeros(sys.field, 0, 1), *pieces])


def _windowed_contraction_system(p: PeriodicComplex) -> tuple[BlockSystem, dict]:
    # Unknowns s^0..s^n on the window [-1, n]; equations
    # s^(i+1) d^i + d^(i-1) s^i = id for 0 <= i <= n-1.
    sys = BlockSystem(p.field)
    rhs = {}
    n = p.n
    for i in range(0, n + 1):
        if p.dim(i) and p.dim(i - 1):
            sys.add_unknown(i, p.dim(i - 1), p.dim(i))
    for i in range(0, n):
        if p.dim(i):
            sys.add_equation(i, p.dim(i), p.dim(i))
            rhs[i] = identity(p.field, p.dim(i))
            if p.dim(i + 1):
                sys.add_term(i, i + 1, right=p.diff(i))
            if p.dim(i - 1):
                sys.add_term(i, i, left=p.diff(i - 1))
    return sys, rhs


def _solve(sys: BlockSystem, rhs: dict) -> dict | None:
    solution = solve_linear(sys.matrix(), rhs_vector(sys, rhs))
    return None if solution is None else sys.split_solution(solution)


def solver_unrolled_contraction(p: PeriodicComplex) -> Homotopy | None:
    """`unrolled_identity_contraction` as the particular solution of the
    windowed system, or None when it is unsolvable."""
    parts = _solve(*_windowed_contraction_system(p))
    if parts is None:
        return None
    e = expand_window(p, -1, p.n)
    return Homotopy(identity_chain_map(e), zero_chain_map(e, e), tuple(sorted(parts.items())))


def two_elimination_contraction(c, r: int) -> tuple[Matrix, Matrix, Matrix]:
    """(i, p, s) of `complexes._contraction` in degree r of the bounded or
    periodic complex c, by the earlier route of two eliminations: H_r from
    the pivots of rref([D | K]), then (b; c) from `solve_linear([D | I],
    1 - E_P R)`, both with the notation of `_contraction`."""
    field, m = c.field, c.dim(r)
    reduced, pivots = rref(c.diff(r))
    incoming = rref(c.diff(c.prev(r)))[1]
    boundaries = submatrix(c.diff(r - 1), range(m), incoming)
    cycles = zeros(field, m, 0)
    if m - len(pivots) - len(incoming):
        kernel = kernel_basis(c.diff(r))
        chosen = rref(hstack([boundaries, kernel]))[1][len(incoming) :]
        cycles = submatrix(kernel, range(m), [j - len(incoming) for j in chosen])
    coords = solve_linear(hstack([boundaries, cycles]), identity(field, m) - place_rows(reduced, pivots, m))
    assert coords is not None, f"splitting of degree {r} is not a basis"
    s = place_rows(coords, incoming, c.dim(r - 1))
    return cycles, submatrix(coords, range(len(incoming), coords.rows), range(m)), s


def solver_null_homotopy(f: ChainMap) -> Homotopy | None:
    """`find_null_homotopy` as the particular solution of s -> d s + s d = f."""
    x, y = f.source, f.target
    parts = _solve(_homotopy_system(x, y), dict(f.components))
    if parts is None:
        return None
    return Homotopy(f, zero_chain_map(x, y), tuple(sorted(parts.items())))


def solver_periodic_homotopy(f: PeriodicChainMap, g: PeriodicChainMap) -> PeriodicHomotopy | None:
    """`find_periodic_homotopy` as the particular solution of the cyclic
    system s -> d s + s d = f - g."""
    x, y = f.source, f.target
    rhs = {r: f.components[r] - g.components[r] for r in range(x.n) if x.dims[r] and y.dims[r]}
    parts = _solve(_cyclic_homotopy_system(x, y), rhs)
    if parts is None:
        return None
    comps = tuple(parts.get(r, zeros(x.field, y.dim(r - 1), x.dims[r])) for r in range(x.n))
    return PeriodicHomotopy(f, g, comps)


def solver_hom_dims(x: BoundedComplex, y: BoundedComplex) -> tuple[int, int, int]:
    """(Z, B, Z - B) from the kernel of f -> d f - f d on degree 0 maps and
    the rank of s -> d s + s d on degree -1 maps."""
    tsys = _chain_map_system(x, y)
    z = tsys.unknown_dim - rank(tsys.matrix())
    b = rank(_homotopy_system(x, y).matrix())
    return z, b, z - b


def _cyclic_chain_map_system(x: PeriodicComplex, y: PeriodicComplex) -> BlockSystem:
    sys = BlockSystem(x.field)
    n = x.n
    for r in range(n):
        if x.dims[r] and y.dims[r]:
            sys.add_unknown(r, y.dims[r], x.dims[r])
    for r in range(n):
        if x.dims[r] and y.dim(r + 1):
            sys.add_equation(r, y.dim(r + 1), x.dims[r])
    for r in range(n):
        if not (x.dims[r] and y.dim(r + 1)):
            continue
        if x.dim(r + 1) and y.dim(r + 1):
            sys.add_term(r, (r + 1) % n, right=x.diff(r))
        if x.dims[r] and y.dims[r]:
            sys.add_term(r, r, left=-y.diff(r))
    return sys


def solver_periodic_hom_dims(x: PeriodicComplex, y: PeriodicComplex) -> tuple[int, int, int]:
    """(Z, B, Z - B) for the cyclic chain-map and homotopy operators."""
    tsys = _cyclic_chain_map_system(x, y)
    z = tsys.unknown_dim - rank(tsys.matrix())
    b = rank(_cyclic_homotopy_system(x, y).matrix())
    return z, b, z - b


def _koszul_differential(m: GradedModule, l: int, j: int) -> Matrix:
    """Lambda^l V (x) M_j -> Lambda^(l-1) V (x) M_(j+1), sending
    e_S (x) v to sum_k (-1)^k e_(S without s_k) (x) x_(s_k) v."""
    src = list(combinations(range(m.algebra.generators), l))
    dst = list(combinations(range(m.algebra.generators), l - 1))
    blocks = {}
    for col, s in enumerate(src):
        for k, g in enumerate(s):
            a = m.action(g, j)
            blocks[(dst.index(s[:k] + s[k + 1 :]), col)] = a if k % 2 == 0 else -a
    return assemble_blocks(m.field, [m.dim(j + 1)] * len(dst), [m.dim(j)] * len(src), blocks)


def koszul_tor_dims(m: GradedModule, j: int) -> int:
    """sum_l dim Tor_l(k, M)_(l+j): the homology of the Koszul complex of a
    module over a polynomial algebra at the spots Lambda^l V (x) M_j.  By
    Eisenbud-Floystad-Schreyer (arXiv:math/0104203, section 2) this is the
    dimension of the degree-j cohomology of the BGG complex of M."""
    c = m.algebra.generators
    total = 0
    for l in range(c + 1):
        out = rank(_koszul_differential(m, l, j)) if l > 0 else 0
        into = rank(_koszul_differential(m, l + 1, j - 1)) if l < c else 0
        total += comb(c, l) * m.dim(j) - out - into
    return total


def scalar_lambda_dual(c: int, field) -> tuple:
    """The monomials, generator actions and signed actions of
    `koszul.lambda_dual`, written entry by entry as field scalars
    (`Field.zero` and `Field.coerce`, so `Fraction`s over QQ)."""
    monomials = [mono for l in range(c + 1) for mono in sorted(combinations(range(1, c + 1), l))]
    index = {mono: k for k, mono in enumerate(monomials)}
    n = len(monomials)
    actions, signed = [], []
    for j in range(1, c + 1):
        body = [[field.zero] * n for _ in range(n)]
        sbody = [[field.zero] * n for _ in range(n)]
        for col, mono in enumerate(monomials):
            if j not in mono:
                continue
            rest = tuple(t for t in mono if t != j)
            swaps = sum(1 for t in rest if t < j)
            sign = 1 if (len(mono) + swaps) % 2 == 0 else -1
            body[index[rest]][col] = field.coerce(sign)
            col_sign = 1 if len(mono) % 2 == 0 else -1
            sbody[index[rest]][col] = field.coerce(sign * col_sign)
        actions.append(Matrix(field, n, n, tuple(tuple(r) for r in body)))
        signed.append(Matrix(field, n, n, tuple(tuple(r) for r in sbody)))
    return tuple(monomials), tuple(actions), tuple(signed)


def index_matrices(field, size: int, index) -> tuple:
    """The size x size matrices of the index form (rows, cols, signs) of
    exterior actions, one per row of the arrays, written entry by entry as
    field scalars; an entry placed twice raises."""
    out = []
    for rows, cols, signs in zip(*index):
        body = [[field.zero] * size for _ in range(size)]
        for r, c, s in zip(rows.tolist(), cols.tolist(), signs.tolist()):
            if body[r][c] != field.zero:
                raise AssertionError(f"entry ({r}, {c}) placed twice")
            body[r][c] = field.coerce(s)
        out.append(Matrix(field, size, size, tuple(tuple(r) for r in body)))
    return tuple(out)


def kron_bgg_actions(b, mc) -> tuple:
    """The exterior actions of the BGG complex b of the bounded or periodic
    module complex mc by the dense route: on each total term l,
    block-diagonal over the nonzero cells (i, l - i) by increasing internal
    degree i, each block kron(actions[j], 1_d) for the cell's piece of
    dimension d."""
    field, dual = b.complex.field, b.dual
    out = []
    for l in b.complex.degrees():
        cells = [mc.dim(l - i, i) for i in mc.modules[0].degrees() if mc.dim(l - i, i)]
        sizes = [dual.total_dim * d for d in cells]
        out.append(tuple(
            assemble_blocks(field, sizes, sizes, {(t, t): kron(a, identity(field, d)) for t, d in enumerate(cells)})
            for a in dual.actions
        ))
    return tuple(out)


def dense_linearity(c, actions) -> Violation | None:
    """The linearity verdict of `koszul.validate_bgg` by dense products: the
    first stored differential d of the bounded or periodic complex c and
    generator j with d actions[k][j] != actions[k'][j] d, where d runs out
    of term k into term k' = k + 1, mod the term count."""
    for k, (i, d) in enumerate(zip(c.degrees(), c.diffs)):
        for j, (a, b) in enumerate(zip(actions[k], actions[(k + 1) % len(actions)])):
            if d @ a != b @ d:
                return Violation("linearity", i, f"differential does not commute with generator {j}")
    return None


def cone_cohomology(f) -> dict[int, int]:
    """The nonzero cohomology dimensions of the mapping cone of a bounded or
    periodic chain map f : X -> Y, from the long exact sequence of the cone:

        dim H^i(cone f) = (h^i(Y) - rk_i) + (h^(i+1)(X) - rk_(i+1)),

    where rk_i is the rank of H^i(f) = p_Y f^i i_X, read off the splittings
    of X and Y; for a periodic map, i + 1 is taken mod n."""
    x, y = f.source, f.target
    sx, sy = splitting(x), splitting(y)
    if isinstance(x, PeriodicComplex):
        degrees, up = range(x.n), lambda i: (i + 1) % x.n
    else:
        degrees, up = range(min(x.lo - 1, y.lo), max(x.hi, y.hi) + 1), lambda i: i + 1
    h = lambda parts, i: parts[i].i.cols if i in parts else 0
    rk = lambda i: rank(sy[i].p @ f.component(i) @ sx[i].i) if i in sx and i in sy else 0
    dims = {i: h(sy, i) - rk(i) + h(sx, up(i)) - rk(up(i)) for i in degrees}
    return {i: d for i, d in dims.items() if d}


def kunneth_cohomology(x: BoundedComplex, y) -> dict[int, int]:
    """The nonzero cohomology dimensions of x (x) y by the Kuenneth formula,
    h^m = sum over i + j = m of h^i(x) h^j(y), read off `cohomology_dims`
    of x and `cohomology_dims` or `periodic_cohomology` of y; for a
    periodic y of period n, m and j are taken mod n."""
    hx = cohomology_dims(x)
    if isinstance(y, PeriodicComplex):
        return _summed(((i + j) % y.n, a * b) for i, a in hx for j, b in enumerate(periodic_cohomology(y)))
    return _summed((i + j, a * b) for i, a in hx for j, b in cohomology_dims(y))


def fold_cohomology(x: BoundedComplex, n: int) -> dict[int, int]:
    """The nonzero cohomology dimensions of compress(x, n): h^r = sum over
    i = r mod n of h^i(x), read off `cohomology_dims` of x."""
    return _summed((i % n, h) for i, h in cohomology_dims(x))


def _summed(pairs) -> dict[int, int]:
    """The sums of the values of (degree, value) pairs by degree, nonzero
    sums only."""
    out = {}
    for m, h in pairs:
        out[m] = out.get(m, 0) + h
    return {m: h for m, h in out.items() if h}


def free_module_entries(c: int, generator_degree: int, window: tuple[int, int]) -> tuple:
    """The dims and the action entries of `graded.free_module` on c
    generators by another route: degree i has the exponent tuples of
    ``product(range(t + 1), repeat=c)`` with sum t = i - generator_degree,
    in increasing lexicographic order, and generator j maps the monomial
    with exponents e to the one with e_j + 1, entry by entry."""
    lo, hi = window
    basis = {
        i: [e for e in product(range(i - generator_degree + 1), repeat=c) if sum(e) == i - generator_degree]
        for i in range(lo, hi + 1)
    }
    bump = lambda e, j: tuple(x + (t == j) for t, x in enumerate(e))
    actions = tuple(
        tuple(
            tuple(tuple(int(target == bump(e, j)) for e in basis[i]) for target in basis[i + 1])
            for i in range(lo, hi)
        )
        for j in range(c)
    )
    return tuple(len(basis[i]) for i in range(lo, hi + 1)), actions


def _dim(c, i: int) -> int:
    """Dimension of degree i of a bounded or periodic complex."""
    if isinstance(c, PeriodicComplex):
        return c.dims[i % c.n]
    return c.dims[i - c.lo] if c.lo <= i < c.lo + len(c.dims) else 0


def _rows(c, i: int) -> tuple:
    """Rows of the differential out of degree i; none outside the window."""
    if isinstance(c, PeriodicComplex):
        return c.diffs[i % c.n].entries
    return c.diffs[i - c.lo].entries if c.lo <= i < c.lo + len(c.diffs) else ()


def _component_rows(f, i: int) -> tuple:
    if isinstance(f, PeriodicChainMap):
        return f.components[i % f.source.n].entries
    return next((m.entries for d, m in f.components if d == i), ())


def _column(rows, col: int) -> list:
    """(row, entry) for the nonzero entries of one column."""
    return [(k, row[col]) for k, row in enumerate(rows) if row[col]]


def _add(field, a, b):
    """a + b for scalars of `field` as `entries` holds them."""
    return a + b if field.p is None else (a + b) % field.p


def _neg(field, a):
    return -a if field.p is None else (-a) % field.p


def _labelled_matrix(field, src, dst, image) -> Matrix:
    """The matrix from the basis labelled `src` to the one labelled `dst`,
    entry by entry: label s goes to the sum of e * t over (t, e) in image(s)."""
    pos = {label: k for k, label in enumerate(dst)}
    body = [[field.zero] * len(src) for _ in dst]
    for col, label in enumerate(src):
        for target, e in image(label):
            body[pos[target]][col] = _add(field, body[pos[target]][col], e)
    return Matrix(field, len(dst), len(src), tuple(map(tuple, body)))


def _by_labels(field, degrees, out_of, labels, image) -> tuple:
    """Term dimensions over `degrees` and the differential out of each degree
    in `out_of`, entry by entry: basis label s of term l goes to the sum of
    e * t over (t, e) in image(l, s)."""
    diffs = tuple(_labelled_matrix(field, labels(l), labels(l + 1), lambda s: image(l, s)) for l in out_of)
    return tuple(len(labels(l)) for l in degrees), diffs


def entrywise_cone(f) -> tuple:
    """(lo, dims, diffs) of `cone(f).complex`, or (n, dims, diffs) of the
    periodic cone of a periodic chain map: term l has the labels ("x", a) of
    X^(l+1), then ("y", b) of Y^l, with ("x", a) -> -d_X a + f a and
    ("y", b) -> d_Y b."""
    x, y = f.source, f.target
    field = x.field

    def labels(l):
        return [("x", a) for a in range(_dim(x, l + 1))] + [("y", b) for b in range(_dim(y, l))]

    def image(l, label):
        side, a = label
        if side == "y":
            return [(("y", b), e) for b, e in _column(_rows(y, l), a)]
        out = [(("x", a2), _neg(field, e)) for a2, e in _column(_rows(x, l + 1), a)]
        return out + [(("y", b), e) for b, e in _column(_component_rows(f, l + 1), a)]

    if isinstance(x, PeriodicComplex):
        return (x.n, *_by_labels(field, range(x.n), range(x.n), labels, image))
    windows = [(c.lo - s, c.lo + len(c.dims) - 1 - s) for c, s in ((x, 1), (y, 0)) if c.dims]
    if not windows:
        return 0, (), ()
    lo, hi = min(w[0] for w in windows), max(w[1] for w in windows)
    return (lo, *_by_labels(field, range(lo, hi + 1), range(lo, hi), labels, image))


def entrywise_tensor(x: BoundedComplex, y) -> tuple:
    """(lo, dims, diffs) of `tensor_complex(x, y)`, or (n, dims, diffs) of
    `tensor_periodic(x, y)`: term l has the labels (i, a, b) of
    X^i (x) Y^(l-i) over increasing i, then a, then b, with
    (i, a, b) -> sum dx (i+1, a', b) + (-1)^i sum dy (i, a, b')."""
    field = x.field
    xdegs = range(x.lo, x.lo + len(x.dims))

    def labels(l):
        return [(i, a, b) for i in xdegs for a in range(_dim(x, i)) for b in range(_dim(y, l - i))]

    def image(l, label):
        i, a, b = label
        out = [((i + 1, a2, b), e) for a2, e in _column(_rows(x, i), a)]
        dy = _column(_rows(y, l - i), b)
        return out + [((i, a, b2), e if i % 2 == 0 else _neg(field, e)) for b2, e in dy]

    if isinstance(y, PeriodicComplex):
        return (y.n, *_by_labels(field, range(y.n), range(y.n), labels, image))
    if not x.dims or not y.dims:
        return 0, (), ()
    lo, hi = x.lo + y.lo, x.lo + y.lo + len(x.dims) + len(y.dims) - 2
    return (lo, *_by_labels(field, range(lo, hi + 1), range(lo, hi), labels, image))


def _residue_labels(degrees, dim, n: int, r: int) -> list:
    """Labels (j, a) of term r of a fold: the degrees j = r mod n in
    increasing order, then a < dim(j)."""
    return [(j, a) for j in degrees if (j - r) % n == 0 for a in range(dim(j))]


def _blockwise(rows, step: int):
    """The image function of a folded map whose block out of summand j has
    the rows rows(j) and lands in summand j + step: (j, a) goes to the sum
    of e * (j + step, b) over the entries e in row b, column a."""
    return lambda label: [((label[0] + step, b), e) for b, e in _column(rows(label[0]), label[1])]


def entrywise_compress(x: BoundedComplex, n: int) -> tuple:
    """(dims, diffs) of `compress(x, n)`: term r has the labels (j, a) of X^j
    over j = r mod n, with (j, a) -> d_X (j + 1, b)."""
    degrees = range(x.lo, x.lo + len(x.dims))
    labels = lambda r: _residue_labels(degrees, lambda j: _dim(x, j), n, r)
    image = _blockwise(lambda j: _rows(x, j), 1)
    diffs = tuple(_labelled_matrix(x.field, labels(r), labels((r + 1) % n), image) for r in range(n))
    return tuple(len(labels(r)) for r in range(n)), diffs


def entrywise_compress_map(f: ChainMap, n: int) -> tuple:
    """The components of `compress_map(f, n)`: label (j, a) of the source
    term r goes to f (j, b) in the target term r."""
    x, y = f.source, f.target

    def labels(c, r):
        return _residue_labels(range(c.lo, c.lo + len(c.dims)), lambda j: _dim(c, j), n, r)

    image = _blockwise(lambda j: _component_rows(f, j), 0)
    return tuple(_labelled_matrix(x.field, labels(x, r), labels(y, r), image) for r in range(n))


def entrywise_compress_modules(mc, n: int) -> tuple:
    """Term by term, (dims, actions, maps) of `compress_modules(mc, n)` for a
    complex of polynomial-algebra modules, in each internal degree i: term r
    has the labels (j, a) of the i-th piece of the modules j = r mod n.  The
    action of generator g sends (j, a) of degree i to x_g (j, b) of degree
    i + 1, and the map out of term r sends (j, a) to d (j + 1, b)."""
    first = mc.modules[0]
    field, width = first.field, len(first.dims)
    terms = range(mc.jlo, mc.jlo + len(mc.modules))
    module = lambda j: mc.modules[j - mc.jlo]
    labels = lambda r, k: _residue_labels(terms, lambda j: module(j).dims[k], n, r)

    def map_rows(j, k):
        return mc.maps[j - mc.jlo][k].entries if j < terms[-1] else ()

    out = []
    for r in range(n):
        dims = tuple(len(labels(r, k)) for k in range(width))
        actions = []
        for g in range(first.algebra.generators):
            family = []
            for k in range(width - 1):
                image = _blockwise(lambda j: module(j).actions[g][k].entries, 0)
                family.append(_labelled_matrix(field, labels(r, k), labels(r, k + 1), image))
            actions.append(tuple(family))
        maps = []
        for k in range(width):
            image = _blockwise(lambda j: map_rows(j, k), 1)
            maps.append(_labelled_matrix(field, labels(r, k), labels((r + 1) % n, k), image))
        out.append((dims, tuple(actions), tuple(maps)))
    return tuple(out)


def entrywise_unit_and_retraction(x: BoundedComplex, n: int) -> tuple[dict, dict]:
    """The components, by degree, of both maps of `unit_and_retraction`: in
    degree i the unit sends label (i, a) of X^i to the label (i, a) of the
    fold term of i mod n (labelled as in `entrywise_compress`), and the
    retraction sends that label back and every other label to zero."""
    field = x.field
    degrees = range(x.lo, x.lo + len(x.dims))
    unit, retraction = {}, {}
    for i in degrees:
        if not _dim(x, i):
            continue
        own = [(i, a) for a in range(_dim(x, i))]
        folded = _residue_labels(degrees, lambda j: _dim(x, j), n, i % n)
        unit[i] = _labelled_matrix(field, own, folded, lambda s: [(s, field.one)])
        retraction[i] = _labelled_matrix(field, folded, own, lambda s: [(s, field.one)] if s[0] == i else [])
    return unit, retraction


def drawn_matrix(rng, field, rows: int, cols: int, bound: int = 2) -> Matrix:
    """`samples.rand_matrix` by the route through `mat`: the same draws in
    the same order, each entry coerced into the field."""
    if field.p is not None:
        body = [[rng.randrange(field.p) for _ in range(cols)] for _ in range(rows)]
    else:
        body = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    return mat(field, body, rows=rows, cols=cols)


def drawn_basis_change(rng, field, n: int) -> tuple[Matrix, Matrix]:
    """`samples._basis_change` by the route through `solve_linear`: up to
    30 candidates from `drawn_matrix`, each inverse solved against the
    identity, then the unit upper-triangular fallback of field scalars."""
    if n == 0:
        return identity(field, 0), identity(field, 0)
    for _ in range(30):
        cand = drawn_matrix(rng, field, n, n)
        inv = solve_linear(cand, identity(field, n))
        if inv is not None:
            return cand, inv
    body = [
        [field.one if i == j else (field.coerce(rng.randint(-2, 2)) if j > i else field.zero) for j in range(n)]
        for i in range(n)
    ]
    m = mat(field, body, rows=n, cols=n)
    return m, solve_linear(m, identity(field, n))
