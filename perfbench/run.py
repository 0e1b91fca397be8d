"""Benchmark of the `perhom` toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
One invocation is one workload in one single-threaded process.  It sets up
(import of `perhom`, input generation, warm-up) five times and reports the
median, then makes one timed pass over the workload's fixed operation list
and checks every output.  With ``--trace 0`` it prints the end-to-end
metrics; with ``--trace 1`` it makes a second, traced pass and prints the
per-layer metrics instead.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

``--smoke`` runs one round on tiny shapes (for the benchmark's own tests);
``--record-digests`` stores the output digests of a passing run at the
default seed in ``digests.json``.
"""

from __future__ import annotations

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter, process_time  # noqa: E402

# Dependencies of perhom, loaded before set-up so that set-up times the
# import of perhom itself; anything else it imports is purged and timed.
import fractions  # noqa: E402,F401
import itertools  # noqa: E402,F401

import numpy  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 5
DIGESTS = BENCH / "digests.json"


class SetupError(RuntimeError):
    """The program could not be imported from this checkout."""


def _import_perhom():
    src = ROOT / "src"
    if not (src / "perhom" / "__init__.py").is_file():
        raise SetupError(f"no perhom package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    ph = importlib.import_module("perhom")
    cli = importlib.import_module("perhom.cli")
    if Path(ph.__file__).resolve().parent != (src / "perhom").resolve():
        raise SetupError(f"perhom was imported from {ph.__file__}, not from {src}")
    return ph, cli


def setup(workload: str, seed: int, rounds: int, smoke: bool, workdir: Path, preloaded: set[str]):
    """Import the package afresh, generate the inputs, warm up; returns the
    elapsed seconds, the package and the operation list."""
    for name in [m for m in sys.modules if m not in preloaded]:
        del sys.modules[name]
    shutil.rmtree(workdir / "docs", ignore_errors=True)
    (workdir / "docs").mkdir(parents=True)
    start = perf_counter()
    ph, cli = _import_perhom()
    ctx = workloads.Context(ph, cli.main, workdir / "docs")
    ops = workloads.build_ops(workload, ctx, seed, rounds, smoke)
    workloads.warm_up(ctx)
    return perf_counter() - start, ph, ops


@dataclasses.dataclass
class Outcome:
    latency_s: float
    cpu_s: float
    digest: str | None
    error: str | None


def run_pass(ops, tracer=None, reference=None, recorded=None) -> list[Outcome]:
    """Call every operation once, timing each call alone.

    Without `reference` each output gets its full check and, where a digest
    was recorded, a byte comparison; with it (the traced pass) each output
    must equal the untraced pass's.
    """
    outcomes = []
    gc.collect()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.active = True
        start, cpu = perf_counter(), process_time()
        try:
            result, error = op.run(), None
        except Exception as exc:  # an exception is a failed operation, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        latency, cpu = perf_counter() - start, process_time() - cpu
        if tracer is not None:
            tracer.active = False
        digest = None
        if error is None:
            digest = hashlib.sha256(op.output(result)).hexdigest()
            if reference is not None:
                if digest != reference[k].digest:
                    error = "output differs from the untraced pass"
            else:
                error = op.check(result)
                if error is None and recorded and op.id in recorded and recorded[op.id] != digest:
                    error = "output bytes differ from the recorded digest"
        outcomes.append(Outcome(latency, cpu, digest, error))
    return outcomes


def tail(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples above it, by
    the nearest-rank rule, and its value; (0, max) below 11 samples."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return 0, ordered[-1]
    pct = (100 * (n - 10)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1]


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _commit(),
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def end_to_end(setup_times, outcomes) -> dict:
    latencies = [o.latency_s for o in outcomes]
    pct, tail_s = tail(latencies)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "run_s": (sum(latencies), "s"),
        "cpu_s": (sum(o.cpu_s for o in outcomes), "s"),
        "op_p50_ms": (statistics.median(latencies) * 1000, "ms"),
        "op_tail_ms": (tail_s * 1000, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, f"op_tail_ms is p{pct} of {len(latencies)} operation latencies"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ROUND_S))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)

    mode = "smoke" if args.smoke else "full"
    recorded = {}
    if args.seed == DEFAULT_SEED and DIGESTS.is_file():
        recorded = json.loads(DIGESTS.read_text()).get(args.workload, {}).get(mode, {})
    rounds = workloads.rounds_for(args.workload, args.seconds, args.smoke)
    workdir = ROOT / ".perfbench-work" / str(os.getpid())
    preloaded = set(sys.modules)
    try:
        workdir.mkdir(parents=True)
        # Compiled modules of the program go to a cache of the run's own.
        sys.pycache_prefix = str(workdir / "pycache")
        setups = [setup(args.workload, args.seed, rounds, args.smoke, workdir, preloaded)
                  for _ in range(SETUP_REPEATS)]
        _, ph, ops = setups[-1]
        passes = [run_pass(ops, recorded=recorded)]
        metrics, note = end_to_end([s[0] for s in setups], passes[0])
        if args.trace:
            tracer = spans.Tracer()
            tracer.install(ph)
            try:
                passes.append(run_pass(ops, tracer, reference=passes[0]))
            finally:
                tracer.remove()
            units = {name: unit for name, unit, _ in spans.layer_metrics()}
            layer = tracer.report(sum(o.latency_s for o in passes[1]), metrics["run_s"][0])
            metrics = {name: (value, units[name]) for name, value in layer.items()}
            note = f"traced pass of {len(ops)} operations"
    except SetupError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by another run
            workdir.parent.rmdir()

    outcomes = [o for p in passes for o in p]
    failed = [(op.id, o.error) for op, o in zip(ops * len(passes), outcomes) if o.error is not None]
    if args.record_digests and args.seed == DEFAULT_SEED and not failed:
        table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
        table.setdefault(args.workload, {})[mode] = {op.id: o.digest for op, o in zip(ops, passes[0])}
        DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    print(f"{len(ops)} operations in {rounds} rounds; {note}; "
          f"{sum(1 for op in ops if op.id in recorded)} outputs compared with recorded digests")
    for op_id, error in failed[:20]:
        print(f"FAILED {op_id}: {error}")
    print(f"error_rate {len(failed) / len(outcomes):.6f} ({len(failed)} of {len(outcomes)})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
