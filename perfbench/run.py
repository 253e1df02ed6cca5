"""Benchmark entry point.

    python3 perfbench/run.py --workload kripke-eval --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout.  The library is imported from
``src/`` and the pointwise oracles from ``tests/`` of that checkout; when
they are missing the run stops with exit code 2 and prints no result.
With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics named in ``BENCHMARK.json``; with ``--trace 1`` it has
the per-layer metrics, and the spans are written to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_library() -> None:
    """Import delmc from this checkout's src/, and the oracles from tests/."""
    if not os.path.isfile(os.path.join(SRC, "delmc", "__init__.py")):
        _fail(f"no library sources at {os.path.join(SRC, 'delmc')}")
    for name in ("oracle.py", "fo_oracle.py"):
        if not os.path.isfile(os.path.join(ROOT, "tests", name)):
            _fail(f"no oracle tests/{name} in this checkout")
    sys.path[:0] = [SRC, os.path.join(ROOT, "tests")]
    module = importlib.import_module("delmc")
    if not os.path.abspath(module.__file__).startswith(SRC + os.sep):
        _fail(f"delmc was imported from {module.__file__}, not from {SRC}")


_IMPORT_PROBE = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
start = time.perf_counter()
import delmc
spent = time.perf_counter() - start
sys.path.insert(0, sys.argv[2])
from harness import reference_work
times = []
for _ in range(7):
    start = time.perf_counter()
    reference_work()
    times.append(time.perf_counter() - start)
print(spent / statistics.median(times))
"""


def import_cost() -> float:
    """Reference units a fresh interpreter takes to import delmc from this
    checkout, against reference calls timed in that interpreter right after."""
    child = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, SRC, HERE],
                           capture_output=True, text=True, check=True, timeout=120)
    return float(child.stdout)


def _declared(kind: str) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {m["name"]: m["unit"] for m in spec[kind]}


def _fix_hash_seed() -> None:
    """Run again under PYTHONHASHSEED=0 unless it is already set so.

    CPython salts str hashes per process, and the library iterates sets
    of world and individual names, so the same inputs take other paths
    and other times in another process.  Fixing the salt leaves the seed
    alone to decide the work.  exec replaces this process; no child is left.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *sys.argv[1:]], env)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "BENCHMARK.json")):
        _fail("no BENCHMARK.json at the checkout root")
    if argv is None:
        _fix_hash_seed()
    _import_library()
    import harness
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")

    if args.trace:
        path = os.path.join(ROOT, ".perfbench", f"trace-{workload.name}-seed{args.seed}.json")
        result = harness.trace(workload, args.seed, path)
        declared = _declared("per_layer")
        # a layer the workload never calls reports zero time and zero work
        values = {name: 0 for name in declared}
    else:
        result = harness.measure(workload, args.seed, args.seconds, import_cost)
        declared = _declared("end_to_end")
        values = {}
    unknown = set(result["metrics"]) - set(declared)
    if unknown:
        _fail(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    values.update(result["metrics"])
    missing = set(declared) - set(values)
    if missing:
        _fail(f"declared metrics not measured: {sorted(missing)}")

    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    for name, entry in metrics.items():
        print(f"  {name} {entry['value']} {entry['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
