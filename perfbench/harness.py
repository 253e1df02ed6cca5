"""Run loop, span tracer and statistics shared by every workload.

The load is a closed loop with one client in one thread: each operation
starts when the previous one has returned.  A *pass* is a workload's fixed
list of operations; a measured run repeats whole passes until the measured
time reaches the requested seconds, so the mix of operations never depends
on how fast the program is.
"""

from __future__ import annotations

import bisect
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

_NULL = nullcontext()


class NullTracer:
    """Tracing off: every span is the same no-op context."""

    op_id: Optional[int] = None

    def span(self, name: str):
        return _NULL


class Tracer:
    """Spans kept in memory as [name, start, end, parent index, op id]."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._open: List[int] = []
        self.op_id: Optional[int] = None

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        self._open.append(idx)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[idx][2] = time.perf_counter()

    def self_ms(self) -> Dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: Dict[str, float] = {}
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner) * 1000.0
        return out

    def write(self, path: str) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [
            {"id": i, "name": name, "start_ms": (start - origin) * 1000.0,
             "end_ms": (end - origin) * 1000.0, "parent": parent, "op": op}
            for i, (name, start, end, parent, op) in enumerate(self.spans)
        ]
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(rows, handle)


# Host-speed reference.  A virtual machine that shares its cores runs the
# same code at speeds that drift by a third for seconds to minutes at a
# time.  While a run measures, a timer interrupts it every REFERENCE_PERIOD
# seconds to time one call of a fixed workload of plain set and dict
# operations, which owes nothing to delmc.  An operation's cost is its time
# divided by the median reference time around it; REFERENCE_SECONDS turns
# that cost back into seconds.
REFERENCE_SECONDS = 0.001
REFERENCE_PERIOD = 0.1
REFERENCE_MARGIN = 0.5
_NAMES = tuple(f"w{i}" for i in range(400))
_EVEN, _THIRD = frozenset(_NAMES[::2]), frozenset(_NAMES[::3])


def reference_work() -> int:
    """Fixed interpreter work of the library's kind: unions, intersections,
    dict and frozenset building over a few hundred names (about 1 ms)."""
    acc = 0
    for i in range(40):
        both = _EVEN & _THIRD
        table = {name: (name, i) for name in both}
        acc += len(_EVEN | _THIRD) + len(frozenset(t for t in table.values() if t[0] in _THIRD))
    return acc


class HostSpeed:
    """Reference timings taken from a SIGALRM timer in this one thread.

    The handler runs between bytecodes of whatever is measuring, so the
    samples follow the host's speed through long operations as well as
    short ones, and no thread or process competes for the cores.
    """

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.times: List[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        reference_work()
        self.times.append(time.perf_counter() - start)
        self.starts.append(start)

    def __enter__(self) -> "HostSpeed":
        self._sample(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_PERIOD, REFERENCE_PERIOD)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def reference(self, start: float, end: float) -> float:
        """Median reference time within REFERENCE_MARGIN of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - REFERENCE_MARGIN)
        hi = bisect.bisect_right(self.starts, end + REFERENCE_MARGIN)
        return statistics.median(self.times[lo:hi] or self.times)


@dataclass
class Op:
    kind: str
    key: Any
    start: float
    seconds: float
    output: Any
    error: Optional[str]
    units: int
    checked: bool


class Recorder:
    """Times each operation of a pass and keeps its output for checking.

    `units` is how many operations of ops_per_s the call completes (a law
    suite completes one per case; loading a model, none), as a number or
    as a function of the output.  An unchecked operation, such as a load,
    is judged through the operations that use its output.
    """

    def __init__(self, tracer) -> None:
        self.tr = tracer
        self.ops: List[Op] = []

    def op(self, kind: str, key: Any, fn: Callable[[], Any],
           units: Union[int, Callable[[Any], int]] = 1, checked: bool = True):
        self.tr.op_id = len(self.ops)
        start = time.perf_counter()
        try:
            with self.tr.span("op." + kind):
                out = fn()
            err = None
        except Exception:  # a raising operation is counted as failed; the pass goes on
            out, err = None, traceback.format_exc(limit=4)
        seconds = time.perf_counter() - start
        self.tr.op_id = None
        done = 0 if err else units(out) if callable(units) else units
        self.ops.append(Op(kind, key, start, seconds, out if checked else None, err, done, checked))
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_ops(workload, inputs, ops: List[Op]) -> List[str]:
    """Failure messages for operations that raised or returned a wrong result."""
    failures = []
    for op in ops:
        if op.error is not None:
            failures.append(f"{op.kind} {op.key}: raised\n{op.error}")
            continue
        problem = workload.check(inputs, op) if op.checked else ""
        if problem:
            failures.append(f"{op.kind} {op.key}: {problem}")
    return failures


def percentile(values: List[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _samples(ops: List[Op]) -> List[float]:
    """Per-op latencies; an op made of several units charges each its share."""
    out: List[float] = []
    for op in ops:
        if op.units:
            out.extend([op.seconds / op.units] * op.units)
    return out or [op.seconds for op in ops]


def _report_failures(failures: List[str]) -> None:
    for text in failures[:5]:
        print(f"FAILED {text}", file=sys.stderr)
    if len(failures) > 5:
        print(f"... and {len(failures) - 5} more failures", file=sys.stderr)


def measure(workload, seed: int, seconds: float, import_cost: Callable[[], float]) -> dict:
    """Untraced run: whole passes until `seconds` are measured.

    Every time is taken in reference units (see `HostSpeed`) and turned
    back into seconds with REFERENCE_SECONDS.  ops_per_s is one pass's
    units over the sum, across the pass's operations and loads, of each
    one's median cost over the run's passes.  Set-up runs three times:
    before the first pass, after it and after the last one, each time
    after importing the library afresh in a new interpreter; setup_s is the
    median of the three.  `import_cost` gives the import's cost in
    reference units, timed against reference calls in the fresh interpreter.
    """
    setup_costs: List[float] = []
    costs: Dict[tuple, List[float]] = {}

    def set_up():
        imported = import_cost()
        start = time.perf_counter()
        made = workload.setup(seed)
        end = time.perf_counter()
        setup_costs.append(imported + (end - start) / host.reference(start, end))
        return made

    measured = 0.0
    passes = 0
    rss = None
    units = 0
    history: List[Op] = []
    failures: List[str] = []
    with HostSpeed() as host:
        inputs = set_up()
        while passes == 0 or measured < seconds:
            rec = Recorder(NullTracer())
            start = time.perf_counter()
            workload.run_pass(inputs, rec)
            measured += time.perf_counter() - start
            passes += 1
            if rss is None:
                rss = peak_rss_mb()
            failures += check_ops(workload, inputs, rec.ops)
            for op in rec.ops:
                op.output = None
            units = sum(op.units for op in rec.ops)
            history += rec.ops
            if passes == 1:
                set_up()
        set_up()
    for op in history:
        end = op.start + op.seconds
        costs.setdefault((op.kind, op.key), []).append(op.seconds / host.reference(op.start, end))

    _report_failures(failures)
    total_units = sum(op.units for op in history)
    print(f"workload {workload.name}: seed {seed}, {passes} pass(es), {len(history)} ops "
          f"({total_units} units) in {measured:.3f} s measured, "
          f"{total_units / measured:.3f} units/s by wall time")
    by_kind: Dict[str, List[Op]] = {}
    for op in history:
        by_kind.setdefault(op.kind, []).append(op)
    for kind, ops in sorted(by_kind.items()):
        lat = _samples(ops)
        line = f"  {kind}: {len(ops)} ops, {kind}_p50_ms {1000 * statistics.median(lat):.3f} ms"
        if len(lat) >= 100:
            line += f", {kind}_p90_ms {1000 * percentile(lat, 0.9):.3f} ms"
        print(line)
    print(f"  reference call: {len(host.times)} samples, median {1000 * statistics.median(host.times):.3f} ms "
          f"(nominal {1000 * REFERENCE_SECONDS:g} ms)")
    print(f"  peak_rss_mb {rss:.1f} MB after the first pass")
    print(f"  fail_ratio {len(failures) / len(history):.4f} (1)")
    cost = sum(statistics.median(c) for c in costs.values())
    return {
        "attempted": len(history),
        "failed": len(failures),
        "metrics": {
            "setup_s": statistics.median(setup_costs) * REFERENCE_SECONDS,
            "ops_per_s": units / (cost * REFERENCE_SECONDS),
        },
    }


def trace(workload, seed: int, trace_path: str) -> dict:
    """Traced run: a traced pass between two untraced ones, then the probes.

    bench.trace_overhead_s is the traced pass's wall time minus the mean of
    the untraced passes around it.  bench.peak_rss_mb is the peak resident
    memory after the first untraced pass, before any span is kept.
    """
    inputs = workload.setup(seed)

    def untraced() -> Tuple[Recorder, float]:
        plain = Recorder(NullTracer())
        start = time.perf_counter()
        workload.run_pass(inputs, plain)
        return plain, time.perf_counter() - start

    plain, before_s = untraced()
    rss = peak_rss_mb()
    tracer = Tracer()
    rec = Recorder(tracer)
    start = time.perf_counter()
    with tracer.span("pass"):
        workload.run_pass(inputs, rec)
    traced_s = time.perf_counter() - start
    after, after_s = untraced()
    untraced_s = (before_s + after_s) / 2

    failures = [f for r in (plain, rec, after) for f in check_ops(workload, inputs, r.ops)]
    _report_failures(failures)
    counts = workload.counts(rec.ops)
    with tracer.span("probes"):
        extra = workload.probes(inputs, tracer)
    tracer.write(trace_path)

    metrics: Dict[str, float] = {}
    for name, ms in tracer.self_ms().items():
        if name.startswith("laws."):
            metrics[name + "_s"] = ms / 1000.0
        elif not name.startswith(("op.", "pass", "probes", "ref.")):
            metrics[name + "_ms"] = ms
    metrics.update(counts)
    metrics.update(extra)
    metrics["bench.trace_overhead_s"] = traced_s - untraced_s
    metrics["bench.peak_rss_mb"] = rss
    print(f"workload {workload.name}: seed {seed}, traced pass {traced_s:.3f} s, "
          f"untraced passes {before_s:.3f} s and {after_s:.3f} s, {len(tracer.spans)} spans written to {trace_path}")
    return {
        "attempted": len(plain.ops) + len(rec.ops) + len(after.ops),
        "failed": len(failures),
        "metrics": metrics,
    }
