"""The benchmark's own tests; they run tiny shapes only.

    python3 -m pytest -q perfbench/tests/bench_selftest.py

The file name keeps them out of the package's default test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNT_UNITS = ("count", "bytes")


def bench(workload: str, trace: int, seed: int = 3, script: Path = BENCH / "run.py", cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 1, proc.stdout
    return out


def units(out: dict) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in out["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_prints_every_end_to_end_metric(workload):
    out = result(bench(workload, 0))
    assert units(out) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = result(bench(workload, 1)), result(bench(workload, 1))
    assert units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in units(first).items() if unit in COUNT_UNITS]
    assert [first["metrics"][c]["value"] for c in counts] == [second["metrics"][c]["value"] for c in counts]
    assert any(first["metrics"][c]["value"] for c in counts)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_default_seed_compares_recorded_digests(workload):
    proc = bench(workload, 0, seed=run.DEFAULT_SEED)
    out = result(proc)
    assert f"{out['attempted']} outputs compared with recorded digests" in proc.stdout


def test_layer_metrics_match_the_spec():
    assert [(n, u, b) for n, u, b in spans.layer_metrics()] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]


def _bindings():
    """Every perhom module attribute, Matrix/BlockSystem method and suite entry."""
    mods = {n: m for n, m in sys.modules.items() if n == "perhom" or n.startswith("perhom.")}
    out = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    linalg = mods["perhom.linalg"]
    out.update({("Matrix", a): v for a, v in vars(linalg.Matrix).items()})
    out.update({("BlockSystem", a): v for a, v in vars(linalg.BlockSystem).items()})
    out.update({("SUITES", a): v for a, v in mods["perhom.suites"].SUITES.items()})
    return out


def test_wrappers_are_removed_after_the_traced_run():
    sys.path.insert(0, str(ROOT / "src"))
    import perhom
    import perhom.cli  # noqa: F401

    before = _bindings()
    tracer = spans.Tracer()
    tracer.install(perhom)
    assert perhom.linalg.Matrix.__matmul__ is not before[("Matrix", "__matmul__")]
    assert perhom.complexes.hom_space_dims is not before[("perhom.complexes", "hom_space_dims")]
    tracer.active = True
    m = perhom.mat(perhom.QQ, [[1, 2], [2, 4]])
    assert perhom.rank(m @ m) == 1
    tracer.active = False
    assert tracer.stats["linalg.rref.qq"]["calls"] == 1
    assert tracer.stats["linalg.matmul.qq"]["macs"] == 8
    tracer.remove()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_tail_has_ten_samples_beyond_it():
    assert run.tail([float(k) for k in range(1, 101)]) == (90, 90.0)
    pct, value = run.tail([float(k) for k in range(1, 36)])
    assert sum(1 for k in range(1, 36) if k > value) >= 10 and pct == 71


def test_fails_without_the_program():
    bare = ROOT / ".perfbench-work" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(WORKLOADS[0], 0, script=bare / "perfbench" / "run.py", cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
