"""Tests of the benchmark itself, on small inputs.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"), HERE]

import harness  # noqa: E402
import workloads  # noqa: E402
from delmc import Subset  # noqa: E402


def small(name):
    wl = type(workloads.WORKLOADS[name])()
    if name == "kripke-eval":
        wl.sizes, wl.densities, wl.queries_per_model = (6, 9), (0.4, 0.3), 5
    elif name == "kripke-update":
        wl.sizes, wl.densities = (5, 7), (0.4, 0.3)
        wl.queries_per_model, wl.reduces_per_model = 2, 2
    elif name == "sheaf-fo":
        wl.bases, wl.max_fiber, wl.individuals_per_world = (2, 4), 2, 1.5
        wl.queries_per_model, wl.reduces_per_model = 2, 1
    return wl


def test_small_runs_pass_their_checks():
    for name in ("kripke-eval", "kripke-update", "sheaf-fo"):
        result = harness.measure(small(name), seed=3, seconds=0, import_cost=lambda: 0.0)
        assert result["failed"] == 0, name
        assert result["attempted"] > 0
        assert all(v > 0 for v in result["metrics"].values()), name


def test_planted_wrong_result_raises_fail_ratio(monkeypatch):
    real = workloads.extension

    def wrong(model, phi, registry=None):
        ext = real(model, phi, registry)
        return Subset(ext.carrier, ext.carrier.as_set - ext.members)

    monkeypatch.setattr(workloads, "extension", wrong)
    result = harness.measure(small("kripke-eval"), seed=3, seconds=0, import_cost=lambda: 0.0)
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_raising_operation_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("planted")

    monkeypatch.setattr(workloads, "product_update", broken)
    result = harness.measure(small("kripke-update"), seed=3, seconds=0, import_cost=lambda: 0.0)
    assert result["failed"] >= 2


@pytest.mark.parametrize("name", ["kripke-update", "sheaf-fo"])
def test_counts_repeat_for_the_same_seed(tmp_path, name):
    first = harness.trace(small(name), 5, str(tmp_path / "a.json"))["metrics"]
    second = harness.trace(small(name), 5, str(tmp_path / "b.json"))["metrics"]
    counts = [k for k in first if not k.endswith(("_ms", "_s", "_mb"))]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


@pytest.mark.parametrize("name", ["kripke-eval", "kripke-update", "sheaf-fo"])
def test_seed_picks_the_inputs(name):
    wl = small(name)
    docs = lambda inp: [b["doc"] for b in inp["blocks"]]  # noqa: E731
    assert docs(wl.setup(1)) == docs(wl.setup(1))
    assert docs(wl.setup(1)) != docs(wl.setup(2))


def test_self_time_subtracts_child_spans(tmp_path):
    tr = harness.Tracer()
    tr.spans = [
        ["op.query", 0.0, 1.0, None, 0],
        ["parser.parse_formula", 0.1, 0.2, 0, 0],
        ["models.extension", 0.2, 0.9, 0, 0],
    ]
    ms = tr.self_ms()
    assert ms["op.query"] == pytest.approx(200.0)
    assert ms["models.extension"] == pytest.approx(700.0)
    tr.write(str(tmp_path / "t.json"))
    rows = json.loads((tmp_path / "t.json").read_text())
    assert [r["parent"] for r in rows] == [None, 0, 0]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kripke-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
