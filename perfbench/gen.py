"""Seeded input generator for the benchmark.

Everything here is plain Python integers until the last step, where the
public constructors of `perhom` (`mat`, `complex_from`, `free_module`,
`direct_sum_modules`, `compress`) turn the data into values.  The benchmark
therefore never calls `perhom.samples`, and a change there cannot change the
work.  The same seed always gives the same inputs; a seed changes entries,
never shapes or ranks.

Complexes are sums of split two-term pieces (rank pattern ``heads``) and
one-term pieces (``singles``, the cohomology), disguised by a dense basis
change in every degree.  Over QQ the basis changes are unimodular with
small entries, so coefficient growth comes from elimination, not from the
input.
"""

from __future__ import annotations

from random import Random


def _identity(d):
    return [[1 if i == j else 0 for j in range(d)] for i in range(d)]


def matmul(a, b, p):
    inner = len(b)
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * cols
        for k in range(inner):
            x = row[k]
            if x:
                brow = b[k]
                for j in range(cols):
                    acc[j] += x * brow[j]
        out.append([v % p for v in acc] if p else acc)
    return out


def basis_change(rng: Random, d: int, p: int | None):
    """An invertible d x d matrix A = L U and its inverse U^-1 L^-1, as
    lists of int rows; L and U are unit triangular with off-diagonal
    entries in {-1, 0, 1} over QQ (so A is unimodular) and uniform over
    F_p."""

    def entry():
        return rng.randint(-1, 1) if p is None else rng.randrange(p)

    low = [[entry() if j < i else int(i == j) for j in range(d)] for i in range(d)]
    up = [[entry() if j > i else int(i == j) for j in range(d)] for i in range(d)]
    return matmul(low, up, p), matmul(_unit_upper_inverse(up, p), _unit_lower_inverse(low, p), p)


def _unit_lower_inverse(low, p):
    d = len(low)
    inv = _identity(d)
    for i in range(d):
        for j in range(i):
            v = -sum(low[i][k] * inv[k][j] for k in range(j, i))
            inv[i][j] = v % p if p else v
    return inv


def _unit_upper_inverse(up, p):
    d = len(up)
    transposed = [[up[j][i] for j in range(d)] for i in range(d)]
    inv = _unit_lower_inverse(transposed, p)
    return [[inv[j][i] for j in range(d)] for i in range(d)]


def split_complex(rng: Random, heads, singles, p: int | None):
    """Dimensions and disguised differentials of a complex whose degree k
    holds the tail of piece k-1, the head of piece k and ``singles[k]``
    one-term summands; cohomology is ``singles``."""
    width = len(singles)
    dims = [(heads[k - 1] if k else 0) + (heads[k] if k < width - 1 else 0) + singles[k] for k in range(width)]
    changes = [basis_change(rng, d, p) for d in dims]
    diffs = []
    for k in range(width - 1):
        std = [[0] * dims[k] for _ in range(dims[k + 1])]
        offset = heads[k - 1] if k else 0
        for t in range(heads[k]):
            std[t][offset + t] = 1
        a_next = changes[k + 1][0]
        a_inv = changes[k][1]
        diffs.append(matmul(matmul(a_next, std, p), a_inv, p) if dims[k] and dims[k + 1] else std)
    return dims, diffs


def tensor_data(x, y, p: int | None):
    """Tensor product of two complexes given as (dims, diffs) on windows
    starting at 0, with the Koszul sign on the second factor; bases are
    ordered by increasing first-factor degree, first factor major."""
    (xd, xm), (yd, ym) = x, y
    top = len(xd) + len(yd) - 2
    parts = {l: [i for i in range(len(xd)) if 0 <= l - i < len(yd)] for l in range(top + 1)}
    dims = [sum(xd[i] * yd[l - i] for i in parts[l]) for l in range(top + 1)]
    diffs = []
    for l in range(top):
        out = [[0] * dims[l] for _ in range(dims[l + 1])]
        row_off, r = {}, 0
        for i in parts[l + 1]:
            row_off[i] = r
            r += xd[i] * yd[l + 1 - i]
        c0 = 0
        for i in parts[l]:
            j = l - i
            if i + 1 in row_off and i + 1 < len(xd):
                _place_kron(out, row_off[i + 1], c0, xm[i], _identity(yd[j]), 1)
            if i in row_off and j + 1 < len(yd):
                _place_kron(out, row_off[i], c0, _identity(xd[i]), ym[j], -1 if i % 2 else 1)
            c0 += xd[i] * yd[j]
        diffs.append([[v % p for v in row] for row in out] if p else out)
    return dims, diffs


def _place_kron(out, r0, c0, a, b, sign):
    bc = len(b[0]) if b else 0
    for i, arow in enumerate(a):
        for k, brow in enumerate(b):
            target = out[r0 + i * len(b) + k]
            for j, av in enumerate(arow):
                if av:
                    for l, bv in enumerate(brow):
                        if bv:
                            target[c0 + j * bc + l] += sign * av * bv


class Build:
    """Turns generated integer data into `perhom` values through the
    package's public constructors."""

    def __init__(self, ph, p: int | None):
        self.ph = ph
        self.field = ph.QQ if p is None else ph.GF(p)

    def matrix(self, rows, nrows: int, ncols: int):
        return self.ph.mat(self.field, rows, rows=nrows, cols=ncols)

    def complex(self, lo: int, data):
        dims, diffs = data
        mats = [self.matrix(m, dims[k + 1], dims[k]) for k, m in enumerate(diffs)]
        return self.ph.complex_from(self.field, lo, dims, mats)

    def free_sum(self, c: int, count: int, window):
        """The direct sum of `count` free modules with generators at the
        bottom of the window."""
        free = self.ph.free_module(self.field, self.ph.polynomial_algebra(c), window[0], window)
        return free if count == 1 else self.ph.direct_sum_modules([free] * count)

    def scalar_map(self, module_dims, m):
        """The equivariant map between sums of bottom-generated free modules
        given by the scalar matrix m, one matrix per internal degree."""
        rows, cols = len(m), len(m[0])
        out = []
        for d in module_dims:
            body = [[m[i][j] if a == b else 0 for j in range(cols) for b in range(d)] for i in range(rows) for a in range(d)]
            out.append(self.matrix(body, rows * d, cols * d))
        return tuple(out)
