"""Independent routes to the numbers the library computes.

The brute-force oracles enumerate small prime-field spaces outright or
defer to sympy's exact rational arithmetic, so they share no code path
with the Gaussian elimination they check.  The solver oracles compute Hom
dimensions the long way, as the nullity and rank of the Kronecker-sized
linear systems for chain maps and null homotopies: they share `rank` (and
the system assembly) with the library, but not the closed-form count over
the splitting of each complex that the library uses.
"""

from itertools import product

from perhom import BoundedComplex, Matrix, PeriodicComplex, rank
from perhom.complexes import _chain_map_system, _homotopy_system
from perhom.linalg import BlockSystem
from perhom.periodic import _cyclic_homotopy_system


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
            sys.add_term(r, r, left=y.diff(r), sign=-1)
    return sys


def solver_periodic_hom_dims(x: PeriodicComplex, y: PeriodicComplex) -> tuple[int, int, int]:
    """(Z, B, Z - B) for the cyclic chain-map and homotopy operators."""
    tsys = _cyclic_chain_map_system(x, y)
    z = tsys.unknown_dim - rank(tsys.matrix())
    b = rank(_cyclic_homotopy_system(x, y).matrix())
    return z, b, z - b
