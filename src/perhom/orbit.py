"""Orbit-category Hom dimensions and the compression embedding certificate.

For bounded complexes X, Y and a period n, the orbit Hom space splits as
the direct sum over i of Hom_K(X, Y[n*i]); folding both sides mod n must
reproduce the same total dimension in the periodic homotopy category.
Over a field Hom_K(X, Y[n*i]) has dimension sum_k h^k(X) h^(k+n*i)(Y), so
the orbit side is read off the cohomology of X and Y, while the periodic
side ranks the differentials of the two folded complexes: the certificate
checks that folding preserves cohomology summed over residues, pair by
pair over a corpus.  That is the assertable, desk-scale form of full
faithfulness: the folded map is split injective by the unit of the
fold/unroll adjunction, so equal dimensions force bijectivity.  A complex
is validated, folded and split once however many pairs it is in, since
`validate`, `compress` and `_splitting` keep their results on it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import BoundedComplex, _splitting
from .linalg import FieldMismatch
from .periodic import compress, periodic_hom_dims

__all__ = ["EmbeddingReport", "OrbitHomReport", "embedding_certificate", "orbit_hom"]


@dataclass(frozen=True)
class OrbitHomReport:
    """Summandwise orbit Hom dimensions against the periodic computation.

    `summands` lists (i, dim Hom_K(X, Y[n*i])) over the finite range where
    the shifted windows overlap, each counted from the cohomology of X and
    Y; `total` is their sum and `periodic_side` the Hom dimension between
    the folded complexes, counted from the ranks of their own
    differentials.  So `matches` checks the summed cohomology of the fold
    against the orbit sum.
    """

    n: int
    summands: tuple[tuple[int, int], ...]
    total: int
    periodic_side: int

    @property
    def matches(self) -> bool:
        return self.total == self.periodic_side


def _shift_range(x: BoundedComplex, y: BoundedComplex, n: int) -> range:
    if not x.dims or not y.dims:
        return range(0)
    lo = -(-(y.lo - x.hi) // n)  # ceil division
    hi = (y.hi - x.lo) // n
    return range(lo, hi + 1)


def orbit_hom(x: BoundedComplex, y: BoundedComplex, n: int) -> OrbitHomReport:
    """Hom dimensions in the orbit of the n-fold shift, both ways."""
    if x.field != y.field:
        raise FieldMismatch("orbit hom across fields")
    # compress guards x, y and n (through PeriodicComplex).
    periodic = periodic_hom_dims(compress(x, n), compress(y, n)).homotopy_classes
    hx, hy = _splitting(x)[0], _splitting(y)[0]
    summands = []
    for i in _shift_range(x, y, n):
        # Y[n*i] has in degree k the cohomology of Y in degree k + n*i.
        summands.append((i, sum(h * hy.get(k + n * i, 0) for k, h in hx.items())))
    total = sum(d for _, d in summands)
    return OrbitHomReport(n, tuple(summands), total, periodic)


@dataclass(frozen=True)
class EmbeddingReport:
    """All ordered corpus pairs with their two Hom-dimension computations."""

    n: int
    pairs: tuple[tuple[int, int, int, int], ...]  # (xi, yi, total, periodic)

    @property
    def violations(self) -> tuple[tuple[int, int, int, int], ...]:
        return tuple(p for p in self.pairs if p[2] != p[3])

    @property
    def all_equal(self) -> bool:
        return not self.violations


def embedding_certificate(corpus: list[BoundedComplex], n: int) -> EmbeddingReport:
    """`orbit_hom` on every ordered pair of the corpus; each complex is
    validated, folded and split once (see the module docstring)."""
    if n < 1:
        raise ValueError("period must be at least 1")
    if any(c.field != corpus[0].field for c in corpus):
        raise FieldMismatch("corpus spans several fields")
    pairs = []
    for xi, x in enumerate(corpus):
        for yi, y in enumerate(corpus):
            report = orbit_hom(x, y, n)
            pairs.append((xi, yi, report.total, report.periodic_side))
    return EmbeddingReport(n, tuple(pairs))
