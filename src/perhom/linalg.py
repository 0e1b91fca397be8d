"""Exact linear algebra over the rationals and prime fields.

Conventions used by the whole package:

* matrices act on column vectors, so "g after f" is the product ``G @ F``;
* a matrix is stored as integers over one denominator (see Storage below):
  residues in ``[0, p)`` over F_p, numerators over QQ; only ``entries``
  reads rational entries out as `fractions.Fraction` values in lowest
  terms;
* pivoting is deterministic (first nonzero row in column order), so echelon
  forms, kernel bases and particular solutions are reproducible bit for bit.

Storage: a matrix over either field is one read-only numpy array of
integers, ``array``, over one positive int ``den``, and every operation
but row reduction on lists (below) runs on the array.  The fields differ
only in the reduction mod p and in the bookkeeping of the denominator:

* over F_p the array is int64 and holds residues in [0, p), and ``den`` is
  1.  Sums, scalings, Kronecker products and row reduction stay below 2**62
  since p < 2**31;
* over QQ the array has object dtype and holds Python ints, the numerators
  over ``den``.  The pair is canonical: gcd(den, every numerator) = 1, so an
  integer matrix and every zero matrix have ``den`` 1, and two matrices are
  equal exactly when their (den, array) pairs are.  Python ints grow as
  needed, so no QQ step has an overflow bound to prove.

`Fraction` values appear only where entries come in (``Field.coerce`` and
the constructor) and where they go out (``Matrix.entries``); documents
read and write the arrays.

A product over QQ is object-dtype `@` over the product of the two
denominators.  A product over F_p with inner dimension k is chosen by the
bound k (p-1)^2 on the entries of the unreduced product:

* below 2**53, from 16**3 multiply-adds on: float64 `@` (BLAS).  Every
  product of two residues and every partial sum is an integer in
  [0, 2**53), which float64 holds exactly, so each step is exact in any
  summation order, with or without fused multiply-add.  Smaller products
  stay in int64, where the conversions would cost more than they save;
* below 2**62: int64 `@`;
* while k (p-1) (2**16-1) < 2**63, which holds for every k < 2**16 since
  p < 2**31: the right factor is split into 16-bit limbs, b = hi 2**16 +
  lo, and the product is ((a @ hi mod p) 2**16 + a @ lo mod p) mod p, with
  both limb products in int64;
* above: object-dtype `@` on Python ints, the kernel QQ uses.

Row reduction over QQ is fraction-free Gauss-Jordan elimination (Bareiss,
Math. Comp. 22, 1968) on the numerators; see `rref`.  QQ has one loop, on
Python lists of Python ints (`_rref_rows`), at every size.  Over F_p the
same loop runs on lists up to ``_SMALL_CELLS`` = 64 cells, where numpy's
per-call cost is most of the time, and on the int64 array above.
`rref` alone states this rule, except that `_invert_rows` applies it to
[M | den 1] itself: the samplers call it 34628 times in a pass of the
seed-0 ``verify`` benchmark, and each call reduces the rows they drew.

Measured with numpy 2.4 and Python 3.11 on one core of a 2-vCPU Xeon VM.
Over F_p (best of five) lists win at 64 cells (8x8 over GF(7): 0.14
against 0.30 ms), and int64 numpy wins past about 200 cells (10x20 over
GF(2147483629): 0.40 against 0.87 ms) and by far at 40x80 (2.9 against 16
ms at GF(7), 2.2 against 35 ms at GF(2147483629)).  Over QQ (best of nine,
two runs) the lists take 0.75-0.83 of the time of the same loop on
object-dtype numpy arrays on [M | 1] at 8x16, 0.93-0.96 at 12x24,
0.89-0.91 at 20x40 and 1.23-1.36 at 40x80 (entries of M in [-9, 9]), and
0.98-1.18 on fractions near 2^20/50, entries near 2^70 and rank-4
products.  No benchmark workload reduces a QQ matrix larger than 8x14.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Field",
    "FieldMismatch",
    "GF",
    "Matrix",
    "QQ",
    "ShapeError",
    "BlockSystem",
    "assemble_blocks",
    "hstack",
    "identity",
    "kernel_basis",
    "kron",
    "mat",
    "place_rows",
    "rank",
    "rref",
    "solve_linear",
    "submatrix",
    "vec",
    "unvec",
    "vstack",
    "zeros",
]


# The largest matrix, in cells, that `rref` reduces on lists over F_p; see
# the module docstring for the measured crossover.
_SMALL_CELLS = 64


class ShapeError(ValueError):
    """Matrix dimensions do not line up."""


class FieldMismatch(ValueError):
    """Operands live over different fields."""


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; bases (2, 7, 61) decide every n < 3.2e9.
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 7, 61):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rational numbers (``p is None``) or the prime field F_p."""

    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if not isinstance(self.p, int) or isinstance(self.p, bool):
                raise ValueError(f"prime must be an int, got {self.p!r}")
            if not 2 <= self.p < 2**31:
                raise ValueError(f"prime must lie in [2, 2^31), got {self.p}")
            if not _is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def coerce(self, value):
        """Normalize `value` to the canonical scalar representation."""
        if self.p is None:
            if isinstance(value, bool):
                raise TypeError("bool is not a scalar")
            if isinstance(value, (Fraction, int, str)):
                return Fraction(value)
            raise TypeError(f"cannot coerce {value!r} into QQ")
        if isinstance(value, str):
            value = int(value, 10)
        if isinstance(value, bool) or not isinstance(value, int):
            raise TypeError(f"cannot coerce {value!r} into GF({self.p})")
        return value % self.p

    def __repr__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()


def GF(p: int) -> Field:
    """The prime field with p elements; raises ValueError unless p is prime."""
    return Field(p)


class Matrix:
    """Immutable exact-entry matrix; 0xm and mx0 shapes are legal.

    The matrix is ``array / den``: ``array`` is one read-only integer array
    (int64 residues in [0, p) over F_p, Python ints in an object array over
    QQ) and ``den`` a positive int, 1 over F_p, with gcd(den, every entry)
    = 1 over QQ.  The constructor takes nested rows or an array of ints,
    and over QQ of `Fraction`s too; it copies them, reduces ints mod p, and
    raises TypeError on a float, a bool or anything else.  ``entries`` is a
    tuple of row tuples of Python ints (F_p) or of `Fraction`s in lowest
    terms (QQ), derived on first use for `entry`, ``repr`` and callers
    outside the package; documents read and write ``array`` instead.
    Matrices compare and hash by field, shape, ``den`` and ``array``, which
    the canonical form makes the same as comparing entries.  Python ints
    grow as needed, so QQ arithmetic has no overflow bound; the F_p product
    kernels and their bounds, the 16-bit limb split among them, are set out
    in the module docstring.
    """

    __slots__ = ("field", "rows", "cols", "array", "den", "_entries")

    def __init__(self, field: Field, rows: int, cols: int, entries) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if len(entries) != rows:
            raise ShapeError("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise ShapeError("ragged rows")
        flat = entries.ravel().tolist() if isinstance(entries, np.ndarray) else [x for row in entries for x in row]
        allowed = (int,) if field.p is not None else (int, Fraction)
        for kind in set(map(type, flat)).difference(allowed):
            if kind is bool or not issubclass(kind, numbers.Integral):
                raise TypeError(f"cannot store a {kind.__name__} in a matrix over {field}")
            flat = [x if type(x) in allowed else int(x) for x in flat]
        if field.p is None:
            # The least common denominator of fractions in lowest terms
            # leaves no factor common to it and every numerator.
            den = math.lcm(*(x.denominator for x in flat))
            array = np.array([x.numerator * (den // x.denominator) for x in flat], dtype=object)
        else:
            den, array = 1, _residues(flat, field.p)
        self.field, self.rows, self.cols, self.den, self._entries = field, rows, cols, den, None
        self.array = array.reshape(rows, cols)
        self.array.setflags(write=False)

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            rows = self.array.tolist()
            if self.field.p is None:
                rows = [[Fraction(x, self.den) for x in row] for row in rows]
            self._entries = tuple(map(tuple, rows))
        return self._entries

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape or self.den != other.den:
            return False
        return not (self.array != other.array).any()

    def __hash__(self) -> int:
        body = tuple(self.array.flat) if self.field.p is None else self.array.tobytes()
        return hash((self.field, self.rows, self.cols, self.den, body))

    def is_zero(self) -> bool:
        return not self.array.any()

    def transpose(self) -> "Matrix":
        return _wrap(self.field, self.array.T, self.den, canonical=True)

    def scale(self, value) -> "Matrix":
        c = self.field.coerce(value)
        if self.field.p is not None:
            return _wrap(self.field, self.array * c % self.field.p)
        return _wrap(self.field, self.array * c.numerator, self.den * c.denominator)

    def __neg__(self) -> "Matrix":
        return _wrap(self.field, _mod(self.field, -self.array), self.den, canonical=True)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.shape != other.shape:
            raise ShapeError(f"{self.shape} vs {other.shape}")
        den = math.lcm(self.den, other.den)
        return _wrap(self.field, _mod(self.field, op(_over(self, den), _over(other, den))), den)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        p, k, a, b = self.field.p, self.cols, self.array, other.array
        if p is None:
            return _wrap(self.field, a @ b, self.den * other.den)
        if k * (p - 1) ** 2 < 2**53 and self.rows * k * other.cols >= 16**3:
            product = (a.astype(np.float64) @ b.astype(np.float64)).astype(np.int64)
        elif k * (p - 1) ** 2 < 2**62:
            product = a @ b
        elif k * (p - 1) * 0xFFFF < 2**63:
            product = ((a @ (b >> 16) % p) << 16) + a @ (b & 0xFFFF) % p
        else:
            product = (a.astype(object) @ b.astype(object) % p).astype(np.int64)
        return _wrap(self.field, product % p)

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"Matrix({self.field}, {self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.field}, [{body}])"


def _wrap(field: Field, a: np.ndarray, den: int = 1, canonical: bool = False) -> Matrix:
    """The matrix a / den, wrapping `a` without copying it; nothing else may
    write to `a`, which becomes read-only.

    Over F_p `a` is an int64 array of residues and `den` is 1.  Over QQ `a`
    is an object array of Python ints and `den` > 0; the factor common to
    `den` and every entry is cancelled here, so the result is canonical.
    A caller passes ``canonical=True`` to skip that gcd pass when the pair
    is canonical already: when it rearranges the entries of one canonical
    matrix, or lifts several to the lcm of their denominators.  (For each
    prime at its highest power in the lcm, the matrix carrying that power
    has a numerator the prime does not divide, and the lift multiplies it
    by a factor the prime does not divide either.)
    """
    if den != 1 and not canonical:
        g = math.gcd(den, *a.flat)
        if g != 1:
            a, den = a // g, den // g
    a.setflags(write=False)
    m = object.__new__(Matrix)
    m.field, m.rows, m.cols, m.array, m.den, m._entries = field, a.shape[0], a.shape[1], a, den, None
    return m


def _residues(ints: list, p: int) -> np.ndarray:
    """The Python ints ``ints`` mod p, as a flat int64 array."""
    try:
        return np.array(ints, dtype=np.int64) % p
    except OverflowError:  # an int outside int64, reduced on Python ints
        return (np.array(ints, dtype=object) % p).astype(np.int64)


def _mod(field: Field, a: np.ndarray) -> np.ndarray:
    """`a` reduced mod p over F_p; over QQ `a` itself."""
    return a if field.p is None else a % field.p


def _over(m: Matrix, den: int) -> np.ndarray:
    """The numerators of `m` over `den`, a multiple of m.den."""
    return m.array if m.den == den else m.array * (den // m.den)


def _dtype(field: Field):
    return object if field.p is None else np.int64


def mat(field: Field, data: Iterable[Iterable], rows: int | None = None, cols: int | None = None) -> Matrix:
    """Build a matrix from nested data, coercing every entry.

    `rows`/`cols` are only needed for degenerate shapes (no rows, or rows of
    length zero) where they cannot be inferred.
    """
    body = [list(r) for r in data]
    nrows = len(body) if rows is None else rows
    if len(body) != nrows:
        raise ShapeError("row count does not match data")
    if body:
        ncols = len(body[0]) if cols is None else cols
    else:
        if cols is None:
            raise ShapeError("column count required for a matrix with no rows")
        ncols = cols
    entries = []
    for r in body:
        if len(r) != ncols:
            raise ShapeError("ragged rows")
        entries.append(tuple(field.coerce(x) for x in r))
    return Matrix(field, nrows, ncols, tuple(entries))


def zeros(field: Field, rows: int, cols: int) -> Matrix:
    return _wrap(field, np.zeros((rows, cols), dtype=_dtype(field)))


def identity(field: Field, n: int) -> Matrix:
    return _wrap(field, np.eye(n, dtype=_dtype(field)))


def hstack(mats: Sequence[Matrix]) -> Matrix:
    return _stack(mats, 1)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    return _stack(mats, 0)


def _stack(mats: Sequence[Matrix], axis: int) -> Matrix:
    """Side by side (axis 1) or one above another (axis 0)."""
    if not mats:
        raise ShapeError("nothing to stack")
    name, counts = ("hstack", "row") if axis else ("vstack", "column")
    field, side = mats[0].field, mats[0].shape[1 - axis]
    for m in mats:
        if m.shape[1 - axis] != side:
            raise ShapeError(f"{name} needs equal {counts} counts")
        if m.field != field:
            raise FieldMismatch(f"{name} across fields")
    den = math.lcm(*(m.den for m in mats))
    return _wrap(field, np.concatenate([_over(m, den) for m in mats], axis=axis), den, canonical=True)


def assemble_blocks(
    field: Field,
    row_sizes: Sequence[int],
    col_sizes: Sequence[int],
    blocks: dict[tuple[int, int], Matrix],
) -> Matrix:
    """Assemble a block matrix; missing blocks are zero.

    ``blocks[(bi, bj)]`` must have shape ``row_sizes[bi] x col_sizes[bj]``.
    """
    row_off = [0]
    for s in row_sizes:
        row_off.append(row_off[-1] + s)
    col_off = [0]
    for s in col_sizes:
        col_off.append(col_off[-1] + s)
    grid = np.zeros((row_off[-1], col_off[-1]), dtype=_dtype(field))
    den = math.lcm(*(m.den for m in blocks.values()))
    for (bi, bj), m in blocks.items():
        if m.field != field:
            raise FieldMismatch("block over the wrong field")
        if m.shape != (row_sizes[bi], col_sizes[bj]):
            raise ShapeError(
                f"block ({bi},{bj}) has shape {m.shape}, expected "
                f"({row_sizes[bi]}, {col_sizes[bj]})"
            )
        r0, c0 = row_off[bi], col_off[bj]
        grid[r0 : r0 + m.rows, c0 : c0 + m.cols] = _over(m, den)
    return _wrap(field, grid, den, canonical=True)


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in row-major convention.

    With ``vec`` flattening matrices row by row, ``vec(A @ U @ B) ==
    kron(A, B.transpose()) @ vec(U)``.
    """
    if a.field != b.field:
        raise FieldMismatch("kron across fields")
    out = a.array[:, None, :, None] * b.array[None, :, None, :]
    return _wrap(a.field, _mod(a.field, out.reshape(a.rows * b.rows, a.cols * b.cols)), a.den * b.den)


def vec(m: Matrix) -> Matrix:
    """Row-major flattening into a column vector."""
    return _wrap(m.field, m.array.reshape(m.rows * m.cols, 1), m.den, canonical=True)


def unvec(field: Field, column: Matrix, rows: int, cols: int) -> Matrix:
    if column.field != field:
        raise FieldMismatch(f"{column.field} vs {field}")
    if column.cols != 1 or column.rows != rows * cols:
        raise ShapeError("column has the wrong length")
    return _wrap(field, column.array.reshape(rows, cols), column.den, canonical=True)


def submatrix(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    """Entry (s, t) is entry (rows[s], cols[t]) of m; indices may repeat."""
    return _wrap(m.field, m.array.take(rows, 0).take(cols, 1), m.den)


def place_rows(m: Matrix, positions: Sequence[int], height: int) -> Matrix:
    """The height x m.cols matrix whose row positions[t] is row t of m, the
    other rows zero; rows of m past len(positions) are dropped."""
    source = dict(zip(positions, range(m.rows)))
    padded = vstack([m, zeros(m.field, 1, m.cols)])
    return submatrix(padded, [source.get(i, m.rows) for i in range(height)], range(m.cols))


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns.

    Both fields share the pivot loop.  Over F_p the pivot row is scaled to
    1 and cleared from the other rows mod p.  Over QQ the elimination is
    fraction-free Gauss-Jordan (Bareiss) on the numerators: with d the
    previous pivot (1 at first) and q the new one, every other row becomes
    (q row - row[c] pivot_row) / d.  Every entry then stays a minor of the
    numerator array, so each division is exact, and at the end every pivot
    entry equals the last pivot, which the result takes as its denominator.
    The reduced row echelon form is unique, so both fields' routes give the
    same matrix.

    The loop runs on Python lists (`_rref_rows`) over QQ, and over F_p for
    a matrix of at most ``_SMALL_CELLS`` = 64 cells; above that, F_p runs
    it on the int64 numpy array, making the same steps in the same order.
    The module docstring gives the measured times.
    """
    if m.rows == 0 or m.cols == 0:
        return m, ()
    p = m.field.p
    if p is None or m.rows * m.cols <= _SMALL_CELLS:
        rows, pivots, den = _rref_rows(p, m.array.tolist(), m.cols)
        return _from_rows(m.field, rows, m.cols, den), pivots
    a = m.array.copy()
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        if inv != 1:
            a[r] = (a[r] * inv) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] -= np.outer(a[others, c], a[r])
            a[others] %= p
        pivots.append(c)
        r += 1
    return _wrap(m.field, a), tuple(pivots)


def _rref_rows(p: int | None, a: list[list[int]], cols: int) -> tuple[list[list[int]], tuple[int, ...], int]:
    """The pivot loop of `rref` on the rows `a` of Python ints (numerators
    over QQ, residues over F_p; `p` is None over QQ), which it consumes.

    Returns the rows of the reduced matrix, its pivot columns and its
    denominator, positive and 1 over F_p; the rows over the denominator
    are the reduced row echelon form, not yet in lowest terms.
    """
    n = len(a)
    pivots = []
    d = 1
    r = 0
    for c in range(cols):
        if r == n:
            break
        for piv in range(r, n):
            if a[piv][c]:
                break
        else:
            continue
        top = a[piv]
        a[piv], a[r] = a[r], top
        if p is None:
            q = top[c]
            for i, row in enumerate(a):
                f = row[c]
                if i != r and (f or q != d):
                    a[i] = [(q * x - f * y) // d for x, y in zip(row, top)]
            d = q
        else:
            inv = pow(top[c], -1, p)
            if inv != 1:
                top = a[r] = [x * inv % p for x in top]
            for i, row in enumerate(a):
                f = row[c]
                if f and i != r:
                    a[i] = [(x - f * y) % p for x, y in zip(row, top)]
        pivots.append(c)
        r += 1
    if d < 0:
        a = [[-x for x in row] for row in a]
    return a, tuple(pivots), abs(d)


def _from_rows(field: Field, rows: list[list[int]], cols: int, den: int = 1) -> Matrix:
    """The matrix rows / den from rows of Python ints, residues over F_p."""
    return _wrap(field, np.array(rows, dtype=_dtype(field)).reshape(len(rows), cols), den)


def rank(m: Matrix) -> int:
    """Exact rank; rank(m) <= min(rows, cols)."""
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the right kernel; cols - rank(m) of them.

    Free variables are processed in increasing column order, so the result
    is deterministic.
    """
    return _kernel_of_rref(*rref(m))


def _kernel_of_rref(reduced: Matrix, pivots: Sequence[int]) -> Matrix:
    """`kernel_basis` of any matrix whose rref is `reduced`, with these pivots.

    Column t sets free variable free[t] to 1 and pivot variable pivots[r]
    to -reduced[r][free[t]]; the columns are written on lists.
    """
    p, den, pivot_set = reduced.field.p, reduced.den, set(pivots)
    rows = reduced.array.tolist()
    free = [c for c in range(reduced.cols) if c not in pivot_set]
    out = [[0] * len(free) for _ in range(reduced.cols)]
    for t, c in enumerate(free):
        out[c][t] = den
    for r, c in enumerate(pivots):
        row = rows[r]
        out[c] = [-row[f] for f in free] if p is None else [-row[f] % p for f in free]
    return _from_rows(reduced.field, out, len(free), den)


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """Some x with a @ x = b, or None when the system is unsolvable.

    Deterministic choice: the reduced-echelon particular solution with all
    free variables set to zero, read off the rows of `rref` of [a | b].
    The seed-0 benchmark calls it only from `complexes._contraction` (1202
    times in ``verify``, 12 in ``homotopy-qq``, 28 in ``homotopy-fp``); a
    list route of its own saved 5-15 us on each small system.
    """
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    if a.rows != b.rows:
        raise ShapeError(f"a has {a.rows} rows, b has {b.rows}")
    reduced, pivots = rref(hstack([a, b]))
    if pivots and pivots[-1] >= a.cols:
        return None
    rows = reduced.array.tolist()
    x = [[0] * b.cols] * a.cols
    for r, c in enumerate(pivots):
        x[c] = rows[r][a.cols :]
    return _from_rows(a.field, x, b.cols, reduced.den)


def _invert_rows(field: Field, rows: list[list[int]], den: int = 1) -> Matrix | None:
    """The inverse of the square matrix ``rows / den``, or None when it is
    singular; `rows` are Python ints (residues over F_p), left unchanged.

    One elimination of [rows | den 1] decides both: the matrix is
    invertible exactly when every pivot lies left of the identity block,
    and then the rows of the reduced form end in the inverse.  The
    elimination takes the route `rref` would take on the same cells:
    lists (`_rref_rows`) over QQ, and over F_p up to ``_SMALL_CELLS``
    cells; `rref` on the int64 array above that.
    """
    n = len(rows)
    p = field.p
    augmented = [row + [0] * i + [den] + [0] * (n - 1 - i) for i, row in enumerate(rows)]
    if p is None or 2 * n * n <= _SMALL_CELLS:
        augmented, pivots, den = _rref_rows(p, augmented, 2 * n)
    else:
        reduced, pivots = rref(_from_rows(field, augmented, 2 * n))
        augmented, den = reduced.array.tolist(), reduced.den
    if pivots and pivots[-1] >= n:
        return None
    return _from_rows(field, [row[n:] for row in augmented], n, den)


class BlockSystem:
    """Linear systems whose unknowns are families of matrices.

    Each unknown is a matrix block U_k; each equation block is the left
    side ``sum sign * A @ U_k @ B`` of a matrix identity.  Blocks are
    flattened row major, so a term contributes ``sign * kron(A, B^T)``.
    Contributions to the same (equation, unknown) pair accumulate, which is
    what the cyclic systems with period 1 or 2 need.  `matrix` is the matrix
    of the left sides, and `split_solution` cuts a solution column into the
    unknown blocks; a right side is the caller's to stack, in equation
    order.
    """

    def __init__(self, field: Field):
        self.field = field
        self._unknowns: dict = {}
        self._equations: dict = {}
        self._terms: list = []

    def add_unknown(self, key, rows: int, cols: int) -> None:
        if key in self._unknowns:
            if self._unknowns[key] != (rows, cols):
                raise ShapeError(f"unknown {key!r} redeclared with a different shape")
            return
        self._unknowns[key] = (rows, cols)

    def add_equation(self, key, rows: int, cols: int) -> None:
        if key in self._equations:
            if self._equations[key] != (rows, cols):
                raise ShapeError(f"equation {key!r} redeclared with a different shape")
            return
        self._equations[key] = (rows, cols)

    def add_term(self, eq_key, unk_key, left: Matrix | None = None, right: Matrix | None = None, sign: int = 1) -> None:
        if eq_key not in self._equations:
            raise KeyError(f"unknown equation {eq_key!r}")
        if unk_key not in self._unknowns:
            raise KeyError(f"unknown block {unk_key!r}")
        self._terms.append((eq_key, unk_key, left, right, sign))

    @property
    def unknown_dim(self) -> int:
        return sum(r * c for r, c in self._unknowns.values())

    def matrix(self) -> Matrix:
        field = self.field
        row_of = {key: t for t, key in enumerate(self._equations)}
        col_of = {key: t for t, key in enumerate(self._unknowns)}
        blocks: dict = {}
        for eq_key, unk_key, left, right, sign in self._terms:
            er, ec = self._equations[eq_key]
            ur, uc = self._unknowns[unk_key]
            if er * ec == 0 or ur * uc == 0:
                continue
            if left is not None and left.shape != (er, ur):
                raise ShapeError(f"left factor of {eq_key!r}/{unk_key!r} has shape {left.shape}")
            if right is not None and right.shape != (uc, ec):
                raise ShapeError(f"right factor of {eq_key!r}/{unk_key!r} has shape {right.shape}")
            if left is None and er != ur:
                raise ShapeError("implicit identity needs square placement")
            if right is None and uc != ec:
                raise ShapeError("implicit identity needs square placement")
            left = identity(field, er) if left is None else left
            right = identity(field, ec) if right is None else right
            term = kron(left, right.transpose())
            term = term if sign == 1 else term.scale(sign)
            key = (row_of[eq_key], col_of[unk_key])
            blocks[key] = blocks[key] + term if key in blocks else term
        rows = [r * c for r, c in self._equations.values()]
        cols = [r * c for r, c in self._unknowns.values()]
        return assemble_blocks(field, rows, cols, blocks)

    def split_solution(self, column: Matrix) -> dict:
        if column.shape != (self.unknown_dim, 1):
            raise ShapeError("solution vector has the wrong length")
        out, off = {}, 0
        for k, (r, c) in self._unknowns.items():
            out[k] = unvec(self.field, submatrix(column, range(off, off + r * c), [0]), r, c)
            off += r * c
        return out
