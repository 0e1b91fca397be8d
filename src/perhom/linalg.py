"""Exact linear algebra over the rationals and prime fields.

Conventions used by the whole package:

* matrices act on column vectors, so "g after f" is the product ``G @ F``;
* rational entries are `fractions.Fraction` values (lowest terms, positive
  denominator), prime-field entries are ints in ``[0, p)``;
* pivoting is deterministic (first nonzero row in column order), so echelon
  forms, kernel bases and particular solutions are reproducible bit for bit.

Storage: over QQ a matrix holds row tuples of `Fraction`s and every
operation runs on exact Python scalars.  Over F_p it holds one read-only
int64 array of residues and every operation runs in numpy; sums, scalings,
Kronecker products and row reduction stay below 2**62 since p < 2**31.

A product over F_p with inner dimension k is chosen by the bound
k (p-1)^2 on the entries of the unreduced product:

* below 2**53, from 16**3 multiply-adds on: float64 `@` (BLAS).  Every
  product of two residues and every partial sum is an integer in
  [0, 2**53), which float64 holds exactly, so each step is exact in any
  summation order, with or without fused multiply-add.  Smaller products
  stay in int64, where the conversions would cost more than they save;
* below 2**62: int64 `@`;
* above (p beyond about 2**31 / sqrt(k)): Python ints.
"""

from __future__ import annotations

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
    "permute_cols",
    "permute_rows",
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
    def is_rationals(self) -> bool:
        return self.p is None

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

    def add(self, a, b):
        return a + b if self.p is None else (a + b) % self.p

    def sub(self, a, b):
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a, b):
        return a * b if self.p is None else (a * b) % self.p

    def neg(self, a):
        return -a if self.p is None else (-a) % self.p

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("inverse of zero")
        return Fraction(1) / a if self.p is None else pow(a, self.p - 2, self.p)

    def __repr__(self) -> str:
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()


def GF(p: int) -> Field:
    """The prime field with p elements; raises ValueError unless p is prime."""
    return Field(p)


class Matrix:
    """Immutable exact-entry matrix; 0xm and mx0 shapes are legal.

    Over QQ the entries are a tuple of row tuples of `Fraction` values and
    ``array`` is None.  Over F_p ``array`` is the only storage: one
    read-only int64 array of residues in [0, p), which the constructor
    copies from nested rows or from an array.  ``entries`` is then a tuple
    of row tuples of Python ints, derived from it on first use for callers
    outside this module.  Matrices compare and hash by field, shape and
    entries, whatever they were built from.
    """

    __slots__ = ("field", "rows", "cols", "array", "_entries")

    def __init__(self, field: Field, rows: int, cols: int, entries) -> None:
        if rows < 0 or cols < 0:
            raise ShapeError("negative dimensions")
        if len(entries) != rows:
            raise ShapeError("row count does not match entries")
        for row in entries:
            if len(row) != cols:
                raise ShapeError("ragged rows")
        self.field, self.rows, self.cols = field, rows, cols
        if field.p is None:
            self.array, self._entries = None, entries
        else:
            self.array, self._entries = np.array(entries, dtype=np.int64).reshape(rows, cols), None
            self.array.flags.writeable = False

    @property
    def entries(self) -> tuple:
        if self._entries is None:
            self._entries = tuple(map(tuple, self.array.tolist()))
        return self._entries

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.field != other.field or self.shape != other.shape:
            return False
        if self.array is None:
            return self._entries == other._entries
        return not (self.array != other.array).any()

    def __hash__(self) -> int:
        body = self._entries if self.array is None else self.array.tobytes()
        return hash((self.field, self.rows, self.cols, body))

    def is_zero(self) -> bool:
        if self.array is not None:
            return not self.array.any()
        z = self.field.zero
        return all(x == z for row in self._entries for x in row)

    def transpose(self) -> "Matrix":
        if self.array is not None:
            return _fp(self.field, self.array.T)
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            tuple(tuple(self._entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def scale(self, value) -> "Matrix":
        c = self.field.coerce(value)
        if self.array is not None:
            return _fp(self.field, self.array * c % self.field.p)
        return Matrix(self.field, self.rows, self.cols, tuple(tuple(c * x for x in row) for row in self._entries))

    def __neg__(self) -> "Matrix":
        if self.array is not None:
            return _fp(self.field, -self.array % self.field.p)
        return Matrix(self.field, self.rows, self.cols, tuple(tuple(-x for x in row) for row in self._entries))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._entrywise(other, operator.sub)

    def _entrywise(self, other: "Matrix", op) -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.shape != other.shape:
            raise ShapeError(f"{self.shape} vs {other.shape}")
        if self.array is not None:
            return _fp(self.field, op(self.array, other.array) % self.field.p)
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            tuple(tuple(map(op, r1, r2)) for r1, r2 in zip(self._entries, other._entries)),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        p = self.field.p
        if p is not None:
            bound = self.cols * (p - 1) ** 2
            if bound < 2**53 and self.rows * self.cols * other.cols >= 16**3:
                product = self.array.astype(np.float64) @ other.array.astype(np.float64)
                return _fp(self.field, product.astype(np.int64) % p)
            if bound < 2**62:
                return _fp(self.field, self.array @ other.array % p)
        out = [[self.field.zero] * other.cols for _ in range(self.rows)]
        right = other.entries
        for i, arow in enumerate(self.entries):
            acc = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                for j, b in enumerate(right[k]):
                    if b:
                        acc[j] = acc[j] + a * b
        if p is not None:
            out = [[x % p for x in row] for row in out]
        return Matrix(self.field, self.rows, other.cols, tuple(map(tuple, out)))

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"Matrix({self.field}, {self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.field}, [{body}])"


def _fp(field: Field, a: np.ndarray) -> Matrix:
    """Wrap `a`, an int64 array of residues mod field.p that nothing else
    writes to, without copying it; the array becomes read-only."""
    a.flags.writeable = False
    m = object.__new__(Matrix)
    m.field, m.rows, m.cols, m.array, m._entries = field, a.shape[0], a.shape[1], a, None
    return m


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
    if field.p is not None:
        return _fp(field, np.zeros((rows, cols), dtype=np.int64))
    z = field.zero
    return Matrix(field, rows, cols, tuple(tuple([z] * cols) for _ in range(rows)))


def identity(field: Field, n: int) -> Matrix:
    if field.p is not None:
        return _fp(field, np.eye(n, dtype=np.int64))
    z, o = field.zero, field.one
    return Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))


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
    if field.p is not None:
        return _fp(field, np.concatenate([m.array for m in mats], axis=axis))
    if axis:
        entries = tuple(tuple(x for m in mats for x in m.entries[i]) for i in range(side))
        return Matrix(field, side, sum(m.cols for m in mats), entries)
    return Matrix(field, sum(m.rows for m in mats), side, tuple(row for m in mats for row in m.entries))


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
    if field.p is not None:
        grid = np.zeros((row_off[-1], col_off[-1]), dtype=np.int64)
    else:
        grid = [[field.zero] * col_off[-1] for _ in range(row_off[-1])]
    for (bi, bj), m in blocks.items():
        if m.field != field:
            raise FieldMismatch("block over the wrong field")
        if m.shape != (row_sizes[bi], col_sizes[bj]):
            raise ShapeError(
                f"block ({bi},{bj}) has shape {m.shape}, expected "
                f"({row_sizes[bi]}, {col_sizes[bj]})"
            )
        r0, c0 = row_off[bi], col_off[bj]
        if m.array is not None:
            grid[r0 : r0 + m.rows, c0 : c0 + m.cols] = m.array
        else:
            for i, row in enumerate(m.entries):
                grid[r0 + i][c0 : c0 + m.cols] = row
    if field.p is not None:
        return _fp(field, grid)
    return Matrix(field, row_off[-1], col_off[-1], tuple(map(tuple, grid)))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in row-major convention.

    With ``vec`` flattening matrices row by row, ``vec(A @ U @ B) ==
    kron(A, B.transpose()) @ vec(U)``.
    """
    if a.field != b.field:
        raise FieldMismatch("kron across fields")
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    if a.array is not None:
        out = a.array[:, None, :, None] * b.array[None, :, None, :]
        return _fp(a.field, out.reshape(rows, cols) % a.field.p)
    out = tuple(tuple(ax * bx for ax in arow for bx in brow) for arow in a.entries for brow in b.entries)
    return Matrix(a.field, rows, cols, out)


def vec(m: Matrix) -> Matrix:
    """Row-major flattening into a column vector."""
    col = tuple((x,) for row in m.entries for x in row)
    return Matrix(m.field, m.rows * m.cols, 1, col)


def unvec(field: Field, column: Matrix, rows: int, cols: int) -> Matrix:
    if column.cols != 1 or column.rows != rows * cols:
        raise ShapeError("column has the wrong length")
    flat = [r[0] for r in column.entries]
    return Matrix(field, rows, cols, tuple(tuple(flat[i * cols : (i + 1) * cols]) for i in range(rows)))


def permute_rows(m: Matrix, perm: Sequence[int]) -> Matrix:
    """Row shuffle: row i of the result is row perm[i] of the input."""
    if len(perm) != m.rows or sorted(perm) != list(range(m.rows)):
        raise ShapeError("not a permutation of the rows")
    return submatrix(m, perm, range(m.cols))


def permute_cols(m: Matrix, perm: Sequence[int]) -> Matrix:
    """Column shuffle: column j of the result is column perm[j] of the input."""
    if len(perm) != m.cols or sorted(perm) != list(range(m.cols)):
        raise ShapeError("not a permutation of the columns")
    return submatrix(m, range(m.rows), perm)


def submatrix(m: Matrix, rows: Sequence[int], cols: Sequence[int]) -> Matrix:
    """Entry (s, t) is entry (rows[s], cols[t]) of m; indices may repeat."""
    if m.array is not None:
        return _fp(m.field, m.array.take(rows, 0).take(cols, 1))
    return Matrix(m.field, len(rows), len(cols), tuple(tuple(m.entries[i][j] for j in cols) for i in rows))


def place_rows(m: Matrix, positions: Sequence[int], height: int) -> Matrix:
    """The height x m.cols matrix whose row positions[t] is row t of m, the
    other rows zero; rows of m past len(positions) are dropped."""
    source = dict(zip(positions, range(m.rows)))
    padded = vstack([m, zeros(m.field, 1, m.cols)])
    return submatrix(padded, [source.get(i, m.rows) for i in range(height)], range(m.cols))


def _rref_fp(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    p = m.field.p
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
    return _fp(m.field, a), tuple(pivots)


def _rref_exact(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    field = m.field
    rows = [list(r) for r in m.entries]
    pivots = []
    r = 0
    for c in range(m.cols):
        if r == m.rows:
            break
        piv = next((i for i in range(r, m.rows) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = field.inv(rows[r][c])
        if inv != field.one:
            rows[r] = [field.mul(inv, x) for x in rows[r]]
        prow = rows[r]
        for i in range(m.rows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(rows[i], prow)]
        pivots.append(c)
        r += 1
    return Matrix(field, m.rows, m.cols, tuple(tuple(row) for row in rows)), tuple(pivots)


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and the tuple of pivot columns."""
    if m.rows == 0 or m.cols == 0:
        return m, ()
    if m.field.p is not None:
        return _rref_fp(m)
    return _rref_exact(m)


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
    """`kernel_basis` of any matrix whose rref is `reduced`, with these pivots."""
    pivot_set = set(pivots)
    free = [c for c in range(reduced.cols) if c not in pivot_set]
    # Column t sets free variable free[t] to 1 and pivot variable pivots[r]
    # to -reduced[r][free[t]]: rows of [-R_free; 1] put into variable order.
    stacked = vstack([-submatrix(reduced, range(len(pivots)), free), identity(reduced.field, len(free))])
    row_of = {c: t for t, c in enumerate([*pivots, *free])}
    return submatrix(stacked, [row_of[c] for c in range(reduced.cols)], range(len(free)))


def solve_linear(a: Matrix, b: Matrix) -> Matrix | None:
    """Some x with a @ x = b, or None when the system is unsolvable.

    Deterministic choice: the reduced-echelon particular solution with all
    free variables set to zero.
    """
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    if a.rows != b.rows:
        raise ShapeError(f"a has {a.rows} rows, b has {b.rows}")
    reduced, pivots = rref(hstack([a, b]))
    if any(p >= a.cols for p in pivots):
        return None
    return place_rows(submatrix(reduced, range(len(pivots)), range(a.cols, reduced.cols)), pivots, a.cols)


class BlockSystem:
    """Linear systems whose unknowns are families of matrices.

    Each unknown is a matrix block U_k; each equation block is a matrix
    identity ``sum sign * A @ U_k @ B = rhs``.  Blocks are flattened row
    major, so a term contributes ``sign * kron(A, B^T)``.  Contributions to
    the same (equation, unknown) pair accumulate, which is what the cyclic
    systems with period 1 or 2 need.
    """

    def __init__(self, field: Field):
        self.field = field
        self._unknowns: dict = {}
        self._equations: dict = {}
        self._terms: list = []
        self._rhs: dict = {}

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

    def set_rhs(self, eq_key, value: Matrix) -> None:
        if eq_key not in self._equations:
            raise KeyError(f"unknown equation {eq_key!r}")
        if value.shape != self._equations[eq_key]:
            raise ShapeError("rhs shape mismatch")
        self._rhs[eq_key] = value

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

    def rhs_vector(self) -> Matrix:
        pieces = [vec(self._rhs.get(k, zeros(self.field, r, c))) for k, (r, c) in self._equations.items()]
        return vstack([zeros(self.field, 0, 1), *pieces])

    def split_solution(self, column: Matrix) -> dict:
        if column.shape != (self.unknown_dim, 1):
            raise ShapeError("solution vector has the wrong length")
        out, off = {}, 0
        for k, (r, c) in self._unknowns.items():
            out[k] = unvec(self.field, submatrix(column, range(off, off + r * c), [0]), r, c)
            off += r * c
        return out
