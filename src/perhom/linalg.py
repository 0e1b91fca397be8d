"""Exact linear algebra over the rationals and prime fields.

Conventions used by the whole package:

* matrices act on column vectors, so "g after f" is the product ``G @ F``;
* rational entries are `fractions.Fraction` values (lowest terms, positive
  denominator), prime-field entries are ints in ``[0, p)``;
* pivoting is deterministic (first nonzero row in column order), so echelon
  forms, kernel bases and particular solutions are reproducible bit for bit.

Row reduction over F_p runs on int64 numpy buffers; products of residues
stay below 2**62 for p < 2**31, so the arithmetic is exact.  Everything
else runs on exact Python scalars.  There is no floating point anywhere.
"""

from __future__ import annotations

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
    "rank",
    "rref",
    "solve_linear",
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


@dataclass(frozen=True)
class Matrix:
    """Immutable exact-entry matrix; 0xm and mx0 shapes are legal."""

    field: Field
    rows: int
    cols: int
    entries: tuple

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ShapeError("negative dimensions")
        if len(self.entries) != self.rows:
            raise ShapeError("row count does not match entries")
        for row in self.entries:
            if len(row) != self.cols:
                raise ShapeError("ragged rows")

    def entry(self, i: int, j: int):
        return self.entries[i][j]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero(self) -> bool:
        z = self.field.zero
        return all(x == z for row in self.entries for x in row)

    def transpose(self) -> "Matrix":
        return Matrix(
            self.field,
            self.cols,
            self.rows,
            tuple(tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)),
        )

    def scale(self, value) -> "Matrix":
        c = self.field.coerce(value)
        mul = self.field.mul
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            tuple(tuple(mul(c, x) for x in row) for row in self.entries),
        )

    def __neg__(self) -> "Matrix":
        neg = self.field.neg
        return Matrix(
            self.field, self.rows, self.cols, tuple(tuple(neg(x) for x in row) for row in self.entries)
        )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        add = self.field.add
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            tuple(tuple(add(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_shape(other)
        sub = self.field.sub
        return Matrix(
            self.field,
            self.rows,
            self.cols,
            tuple(tuple(sub(a, b) for a, b in zip(r1, r2)) for r1, r2 in zip(self.entries, other.entries)),
        )

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.shape} by {other.shape}")
        p = self.field.p
        if p is not None and self.rows and self.cols and other.cols:
            # int64 products are exact while (p-1)^2 * inner < 2**62.
            if (p - 1) ** 2 * self.cols < 2**62:
                a = np.array(self.entries, dtype=np.int64)
                b = np.array(other.entries, dtype=np.int64)
                c = (a @ b) % p
                return Matrix(
                    self.field,
                    self.rows,
                    other.cols,
                    tuple(tuple(int(x) for x in row) for row in c),
                )
        zero = self.field.zero
        out = [[zero] * other.cols for _ in range(self.rows)]
        for i in range(self.rows):
            arow = self.entries[i]
            acc = out[i]
            for k, a in enumerate(arow):
                if not a:
                    continue
                brow = other.entries[k]
                for j, b in enumerate(brow):
                    if b:
                        acc[j] = acc[j] + a * b
        if p is not None:
            return Matrix(
                self.field, self.rows, other.cols, tuple(tuple(x % p for x in row) for row in out)
            )
        return Matrix(self.field, self.rows, other.cols, tuple(tuple(row) for row in out))

    def _check_same_shape(self, other: "Matrix") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.shape != other.shape:
            raise ShapeError(f"{self.shape} vs {other.shape}")

    def __repr__(self) -> str:
        if self.rows * self.cols == 0:
            return f"Matrix({self.field}, {self.rows}x{self.cols})"
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix({self.field}, [{body}])"


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
    z = field.zero
    return Matrix(field, rows, cols, tuple(tuple([z] * cols) for _ in range(rows)))


def identity(field: Field, n: int) -> Matrix:
    z, o = field.zero, field.one
    return Matrix(field, n, n, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))


def hstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ShapeError("nothing to stack")
    rows = mats[0].rows
    field = mats[0].field
    for m in mats:
        if m.rows != rows:
            raise ShapeError("hstack needs equal row counts")
        if m.field != field:
            raise FieldMismatch("hstack across fields")
    entries = tuple(tuple(x for m in mats for x in m.entries[i]) for i in range(rows))
    return Matrix(field, rows, sum(m.cols for m in mats), entries)


def vstack(mats: Sequence[Matrix]) -> Matrix:
    if not mats:
        raise ShapeError("nothing to stack")
    cols = mats[0].cols
    field = mats[0].field
    for m in mats:
        if m.cols != cols:
            raise ShapeError("vstack needs equal column counts")
        if m.field != field:
            raise FieldMismatch("vstack across fields")
    entries = tuple(row for m in mats for row in m.entries)
    return Matrix(field, sum(m.rows for m in mats), cols, entries)


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
    z = field.zero
    grid = [[z] * col_off[-1] for _ in range(row_off[-1])]
    for (bi, bj), m in blocks.items():
        if m.field != field:
            raise FieldMismatch("block over the wrong field")
        if m.shape != (row_sizes[bi], col_sizes[bj]):
            raise ShapeError(
                f"block ({bi},{bj}) has shape {m.shape}, expected "
                f"({row_sizes[bi]}, {col_sizes[bj]})"
            )
        r0, c0 = row_off[bi], col_off[bj]
        for i, row in enumerate(m.entries):
            grid[r0 + i][c0 : c0 + m.cols] = row
    return Matrix(field, row_off[-1], col_off[-1], tuple(tuple(r) for r in grid))


def kron(a: Matrix, b: Matrix) -> Matrix:
    """Kronecker product in row-major convention.

    With ``vec`` flattening matrices row by row, ``vec(A @ U @ B) ==
    kron(A, B.transpose()) @ vec(U)``.
    """
    if a.field != b.field:
        raise FieldMismatch("kron across fields")
    mul = a.field.mul
    rows = a.rows * b.rows
    cols = a.cols * b.cols
    out = []
    for i in range(a.rows):
        for k in range(b.rows):
            arow = a.entries[i]
            brow = b.entries[k]
            out.append(tuple(mul(ax, bx) for ax in arow for bx in brow))
    return Matrix(a.field, rows, cols, tuple(out))


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
    return Matrix(m.field, m.rows, m.cols, tuple(m.entries[p] for p in perm))


def permute_cols(m: Matrix, perm: Sequence[int]) -> Matrix:
    """Column shuffle: column j of the result is column perm[j] of the input."""
    if len(perm) != m.cols or sorted(perm) != list(range(m.cols)):
        raise ShapeError("not a permutation of the columns")
    return Matrix(m.field, m.rows, m.cols, tuple(tuple(row[p] for p in perm) for row in m.entries))


def _rref_fp(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    p = m.field.p
    a = np.array(m.entries, dtype=np.int64).reshape(m.rows, m.cols)
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
    entries = tuple(tuple(int(x) for x in row) for row in a)
    return Matrix(m.field, m.rows, m.cols, entries), tuple(pivots)


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
    field = reduced.field
    z = field.zero
    o = field.one
    columns = []
    for f in free:
        v = [z] * reduced.cols
        v[f] = o
        for r_i, pc in enumerate(pivots):
            v[pc] = field.neg(reduced.entries[r_i][f])
        columns.append(v)
    entries = tuple(tuple(col[i] for col in columns) for i in range(reduced.cols))
    return Matrix(field, reduced.cols, len(free), entries)


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
    z = a.field.zero
    out = [[z] * b.cols for _ in range(a.cols)]
    for r_i, pc in enumerate(pivots):
        out[pc] = list(reduced.entries[r_i][a.cols :])
    return Matrix(a.field, a.cols, b.cols, tuple(tuple(r) for r in out))


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

    def _offsets(self) -> tuple[dict, dict, int, int]:
        col_off = {}
        off = 0
        for k, (r, c) in self._unknowns.items():
            col_off[k] = off
            off += r * c
        total_cols = off
        row_off = {}
        off = 0
        for k, (r, c) in self._equations.items():
            row_off[k] = off
            off += r * c
        return row_off, col_off, off, total_cols

    def matrix(self) -> Matrix:
        row_off, col_off, total_rows, total_cols = self._offsets()
        field = self.field
        z = field.zero
        grid = [[z] * total_cols for _ in range(total_rows)]
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
            r0, c0 = row_off[eq_key], col_off[unk_key]
            sgn = field.coerce(sign)
            for i in range(er):
                lrow = left.entries[i] if left is not None else None
                for r_ in range(ur):
                    a = lrow[r_] if lrow is not None else (field.one if i == r_ else z)
                    if not a:
                        continue
                    a = a * sgn
                    base_r = r0 + i * ec
                    base_c = c0 + r_ * uc
                    for c_ in range(uc):
                        if right is None:
                            grid[base_r + c_][base_c + c_] += a
                        else:
                            for l, b in enumerate(right.entries[c_]):
                                if b:
                                    grid[base_r + l][base_c + c_] += a * b
        if field.p is not None:
            p = field.p
            grid = [[x % p for x in row] for row in grid]
        return Matrix(field, total_rows, total_cols, tuple(tuple(r) for r in grid))

    def rhs_vector(self) -> Matrix:
        row_off, _, total_rows, _ = self._offsets()
        z = self.field.zero
        out = [z] * total_rows
        for key, value in self._rhs.items():
            off = row_off[key]
            flat = [x for row in value.entries for x in row]
            out[off : off + len(flat)] = flat
        return Matrix(self.field, total_rows, 1, tuple((x,) for x in out))

    def split_solution(self, column: Matrix) -> dict:
        _, col_off, _, total_cols = self._offsets()
        if column.rows != total_cols or column.cols != 1:
            raise ShapeError("solution vector has the wrong length")
        flat = [r[0] for r in column.entries]
        out = {}
        for k, (r, c) in self._unknowns.items():
            off = col_off[k]
            body = flat[off : off + r * c]
            out[k] = Matrix(self.field, r, c, tuple(tuple(body[i * c : (i + 1) * c]) for i in range(r)))
        return out
