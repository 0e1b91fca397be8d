"""The CI workflow installs exactly the dependency specs that
`pyproject.toml` declares: its ``dependencies`` and its ``test`` extra.
Both files are read with regular expressions, not `tomllib`, because CI
also runs Python 3.10, which has no `tomllib`."""

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
