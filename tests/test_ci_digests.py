"""The CI workflow's two digest loops, untraced and traced, each run every
workload that `BENCHMARK.json` declares, and no other.  The workflow is
read with a regular expression, as in `test_dependency_spec.py`."""

import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_ci_digest_loops_run_the_benchmark_workloads():
    declared = sorted(w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    loops = re.findall(r"^\s*for w in (.*); do$", workflow, re.M)
    assert len(loops) == 2
    for loop in loops:
        assert sorted(loop.split()) == declared
    for trace in ("0", "1"):
        assert f'--workload "$w" --seed 0 --seconds 20 --trace {trace}' in workflow
