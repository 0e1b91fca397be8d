"""The derive-once rule (`complexes._once`): a check or a fold runs once per
value and keeps its result on it, and a new value starts empty.  That an
invalid value fails the same way on every call is in `test_guards`."""

import dataclasses

from perhom import QQ, Matrix, compress, mat, validate
from perhom.complexes import BoundedComplex

ONE = mat(QQ, [[1]])


def _valid():
    """A new value, with nothing derived yet: Q -1-> Q -0-> Q, valid, with
    one product among its square checks."""
    return BoundedComplex(QQ, 0, (1, 1, 1), (ONE, mat(QQ, [[0]])))


def test_second_validate_runs_no_product(monkeypatch):
    x = _valid()
    products = []
    matmul = Matrix.__matmul__
    monkeypatch.setattr(Matrix, "__matmul__", lambda a, b: products.append(1) or matmul(a, b))
    assert validate(x) is None
    first = len(products)
    assert validate(x) is None
    assert (first, len(products)) == (1, 1)


def test_replace_of_a_validated_complex_is_checked_again():
    x = _valid()
    assert validate(x) is None
    y = dataclasses.replace(x, diffs=(ONE, ONE))
    assert str(validate(y)) == "square at degree 0: composite of consecutive differentials is nonzero"
    assert validate(x) is None


def test_fold_is_kept_per_period():
    x = _valid()
    assert compress(x, 2) is compress(x, 2)
    assert compress(x, 3) is not compress(x, 2)
    assert (compress(x, 2).n, compress(x, 3).n) == (2, 3)
    # An equal complex is another value, with its own fold.
    assert compress(_valid(), 2) is not compress(x, 2)
    assert compress(_valid(), 2) == compress(x, 2)
