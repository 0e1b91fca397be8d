"""The names the benchmark's tracer wraps resolve in the package.

`perfbench/spans.py` rebinds layer functions, `Matrix` operators and
`BlockSystem.matrix` by name, and a traced run fails when one is missing.
The file is loaded by path, so the benchmark stays outside the package.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from perhom.linalg import BlockSystem, Matrix

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _load_spans()
FUNCTIONS = (
    [entry[:2] for entry in SPANS._LINALG + SPANS._DOCUMENTS] + SPANS.SOLVERS + SPANS.CONSTRUCTIONS + SPANS.CHECKS
)


@pytest.mark.parametrize("module, attr", FUNCTIONS, ids=[f"{m}.{a}" for m, a in FUNCTIONS])
def test_function_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"perhom.{module}"), attr, None))


# The tracer wraps methods through the class dict, so they must be defined
# on the class itself.
@pytest.mark.parametrize(
    "cls, attr",
    [(Matrix, entry[0]) for entry in SPANS._METHODS] + [(BlockSystem, "matrix")],
    ids=[f"Matrix.{entry[0]}" for entry in SPANS._METHODS] + ["BlockSystem.matrix"],
)
def test_method_resolves(cls, attr):
    assert callable(vars(cls).get(attr))
