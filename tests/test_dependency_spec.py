"""The CI workflow installs exactly the dependency specs that
`pyproject.toml` declares: its ``dependencies`` and its ``test`` extra.
Its Python matrix starts at the ``requires-python`` floor, and every
source file of the package, the tests and the benchmark parses as Python
of that version (CI runs it there).  Both files are read with regular
expressions, not `tomllib`, because CI also runs Python 3.10, which has
no `tomllib`."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _specs(text: str) -> list[str]:
    """The double-quoted strings of `text`, sorted."""
    return sorted(re.findall(r'"([^"]+)"', text))


def _toml_list(text: str, key: str) -> str:
    """The body of the one-line TOML array ``key = [...]``."""
    return re.search(rf"^{key} = \[(.*)\]$", text, re.M).group(1)


def test_ci_installs_the_pyproject_specs():
    pyproject = (ROOT / "pyproject.toml").read_text()
    declared = _specs(_toml_list(pyproject, "dependencies") + _toml_list(pyproject, "test"))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    installs = re.findall(r"pip install (.*)$", workflow, re.M)
    assert len(installs) == 1
    assert _specs(installs[0]) == declared
    assert any(spec.startswith("numpy") for spec in declared)


def test_ci_matrix_starts_at_the_python_floor():
    pyproject = (ROOT / "pyproject.toml").read_text()
    floor = tuple(map(int, re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M).groups()))
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    matrix = re.search(r"^\s*python-version: \[(.*)\]$", workflow, re.M).group(1)
    assert min(tuple(map(int, version.split("."))) for version in _specs(matrix)) == floor
    paths = [path for top in ("src", "tests", "perfbench") for path in sorted((ROOT / top).rglob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
