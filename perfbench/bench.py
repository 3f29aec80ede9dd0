"""Closed-loop measurement of one workload: set-up, timed ops, output checks, metrics.

One client in one process calls ``semimatch.cli.main`` once per op and
sends the next op when the last one has returned and been checked.  Ops
run in whole passes over the workload's op list until the run's time is
used up.  An op fails when it raises, returns non-zero, or its report
fails the workload's check.

Every op and every set-up is timed between two runs of a fixed reference
task that uses no ``semimatch`` code, and reported in nominal seconds: wall
time times ``REFERENCE_S`` over the mean of the two reference times.  That
cancels CPU contention from outside the process.  On a shared 2-core VM,
ten runs of one workload spread the wall-time median by 39% between
quartiles, and the nominal median by about 3%.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

from semimatch import cli

from spans import PER_LAYER_UNITS, Instrumentation, Tracer, layer_medians
from workloads import Op, Workload

SETUP_REPEATS = 5
MIB = 2 ** 20
MAX_PROBLEMS_SHOWN = 5

END_TO_END_UNITS = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "edges_per_s": "1/s",
    "peak_alloc_mib": "MiB",
    "setup_s": "s",
}
# The reference task's time on an uncontended 2-core Xeon VM at 2.1 GHz
# under Python 3.11.7; nominal seconds are seconds on that machine.
REFERENCE_S = 0.003
UNITS = {**END_TO_END_UNITS, **PER_LAYER_UNITS}

_REFERENCE_TEXT = "\n".join(f"{i} {i * 7 % 1000} {i * 0.37 + 1.5!r}" for i in range(2000))


def reference_s() -> float:
    """Wall time of a fixed pure-Python task: parsing, hashing, sorting, arithmetic.

    It must never change, since nominal seconds are measured against it.
    """
    start = time.perf_counter()
    weights = {}
    rows = []
    for line in _REFERENCE_TEXT.split("\n"):
        a, b, w = line.split()
        weights[(int(a), int(b))] = float(w)
        rows.append((float(w), int(a)))
    rows.sort()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    return time.perf_counter() - start


@dataclass
class Timing:
    """Wall time of a piece of work and the mean reference time around it."""

    wall: float
    ref: float

    @property
    def nominal(self) -> float:
        return self.wall * REFERENCE_S / self.ref


def timed(work: Callable[[], object]) -> Timing:
    before = reference_s()
    start = time.perf_counter()
    work()
    wall = time.perf_counter() - start
    return Timing(wall, (before + reference_s()) / 2)


@dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def summary(self) -> dict:
        """The result line: correctness, op counts and metrics with units."""
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": value, "unit": UNITS[name]}
                        for name, value in self.metrics.items()},
        }


class Runner:
    """Runs and checks ops, counting attempts and failures."""

    def __init__(self, workload: Workload, result: Result):
        self.workload = workload
        self.result = result

    def run(self, op: Op, tracer: Optional[Tracer] = None) -> Timing:
        """Time one op between two reference runs, then check its output."""
        op.out.unlink(missing_ok=True)
        gc.collect()
        codes = []
        timing = timed(lambda: codes.append(self.call(op, tracer)))
        self.record(op, codes[0])
        return timing

    def peak_mib(self, op: Op, tracer: Optional[Tracer] = None) -> float:
        """Allocation peak of one op under tracemalloc, then check its output."""
        op.out.unlink(missing_ok=True)
        gc.collect()
        tracemalloc.start()
        try:
            code = self.call(op, tracer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self.record(op, code)
        return peak / MIB

    @staticmethod
    def call(op: Op, tracer: Optional[Tracer]) -> object:
        """``cli.main``'s exit code, or the exception it raised."""
        try:
            if tracer is None:
                return cli.main(op.argv)
            span = tracer.begin("cli.main")
            try:
                return cli.main(op.argv)
            finally:
                tracer.end(span)
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            return exc

    def record(self, op: Op, code: object) -> None:
        self.result.attempted += 1
        if isinstance(code, Exception):
            problems = [f"raised {code!r}"]
        elif code != 0:
            problems = [f"exit code {code}"]
        else:
            try:
                with open(op.out, encoding="utf-8") as handle:
                    problems = self.workload.check(op, json.load(handle))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {exc!r}"]
        if problems:
            self.result.failed += 1
            if len(self.result.problems) < MAX_PROBLEMS_SHOWN:
                self.result.problems.append(f"{' '.join(op.argv[:2])}: {'; '.join(problems)}")


def _whole_passes(seconds: float, run_pass: Callable[[int], None], min_passes: int = 1) -> None:
    """Run passes until the next one would end past ``seconds`` by over half its length."""
    start = time.perf_counter()
    for index in itertools.count():
        began = time.perf_counter()
        run_pass(index)
        now = time.perf_counter()
        if index + 1 >= min_passes and now - start + (now - began) / 2 >= seconds:
            return


def tail(times: list[float]) -> tuple[float, int]:
    """Value and rank of the highest percentile with at least ten ops beyond it.

    Nearest-rank percentiles; with fewer than twenty ops that percentile is
    below the median, so the median is reported instead.
    """
    n = len(times)
    if n < 20:
        return statistics.median(times), 50
    percentile = math.floor(100 * (n - 10) / n)
    return sorted(times)[math.ceil(percentile * n / 100) - 1], percentile


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            workdir: Path) -> Result:
    """Set up, run the timed ops, and compute the run's metrics."""
    result = Result()
    runner = Runner(workload, result)
    setups: list[Timing] = []
    gen_times: list[float] = []
    ops: list[Op] = []

    def set_up() -> None:
        ops[:] = workload.setup(seed, workdir, gen_times)
        runner.run(ops[0])

    for _ in range(SETUP_REPEATS):
        setups.append(timed(set_up))
    result.notes += [f"input {p.name} sha256 {sha256(p)}" for op in ops for p in op.inputs]
    if not any(op.inputs for op in ops):
        result.notes.append("inputs: no stream files; each op is fixed by its argv")

    # Set-up objects are never garbage, so keep the collector from scanning them.
    gc.collect()
    gc.freeze()
    try:
        if trace:
            _traced_run(runner, workload, ops, seconds, gen_times, workdir)
        else:
            _plain_run(runner, ops, seconds)
            result.metrics["setup_s"] = statistics.median(t.nominal for t in setups)
    finally:
        gc.unfreeze()
    result.notes.append(f"ops attempted {result.attempted} (including {SETUP_REPEATS} "
                        f"warm-up and 1 memory op), failed {result.failed}, "
                        f"failed_frac {result.failed / result.attempted}")
    return result


def _plain_run(runner: Runner, ops: list[Op], seconds: float) -> None:
    result = runner.result
    timings: list[Timing] = []
    edges = 0

    def run_pass(_index: int) -> None:
        nonlocal edges
        for op in ops:
            timings.append(runner.run(op))
            edges += op.edges

    _whole_passes(seconds, run_pass)
    peak = runner.peak_mib(ops[0])
    nominal = [t.nominal for t in timings]
    walls = [t.wall for t in timings]
    nominal_tail, percentile = tail(nominal)
    result.metrics.update({
        "op_s.p50": statistics.median(nominal),
        "op_s.tail": nominal_tail,
        "edges_per_s": edges / math.fsum(nominal),
        "peak_alloc_mib": peak,
    })
    wall_tail, _ = tail(walls)
    result.notes += [
        f"op_s.tail is p{percentile} of {len(timings)} timed ops",
        f"wall time: op p50 {statistics.median(walls):.6g} s, tail {wall_tail:.6g} s, "
        f"{edges / math.fsum(walls):.6g} edges/s, reference task "
        f"{statistics.median(t.ref for t in timings):.6g} s (nominal {REFERENCE_S} s)",
    ]


def _traced_run(runner: Runner, workload: Workload, ops: list[Op], seconds: float,
                gen_times: list[float], workdir: Path) -> None:
    """Per-layer medians over traced ops, interleaved with untraced ones.

    Op j of pass p is traced when j + p is odd, so over two passes every
    op runs once each way.
    """
    result = runner.result
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)
    plain: list[Timing] = []
    traced: list[Timing] = []

    def run_pass(index: int) -> None:
        for j, op in enumerate(ops):
            if (j + index) % 2 == 0:
                plain.append(runner.run(op))
                continue
            tracer.op += 1
            with instrumentation:
                traced.append(runner.run(op, tracer))

    _whole_passes(seconds, run_pass, min_passes=2)
    timed_ops = set(range(tracer.op + 1))
    tracer.op += 1
    with instrumentation:
        runner.peak_mib(ops[0], tracer)
    tracer.write(workdir / "spans.jsonl")

    fired = {span.name for span in tracer.spans if span.op in timed_ops}
    missing = sorted(set(workload.spans) - fired)
    if missing:
        raise RuntimeError(f"expected spans never fired: {', '.join(missing)}")
    values, self_time = layer_medians(tracer.spans, timed_ops)
    peaks = [span.counts.get("peak_mib", 0.0) for span in tracer.spans
             if span.op == tracer.op and span.name == "core.load_stream"]
    values["core.load_stream_peak_mib"] = max(peaks, default=0.0)
    values["generators.instance_s"] = statistics.median(gen_times) if gen_times else 0.0
    values["trace.overhead_frac"] = (statistics.median(t.nominal for t in traced)
                                     / statistics.median(t.nominal for t in plain) - 1)
    result.metrics.update({name: values[name] for name in PER_LAYER_UNITS})
    ranked = sorted(self_time.items(), key=lambda item: -item[1])
    result.notes.append("self time per op by layer (median): " + ", ".join(
        f"{layer} {value:.4g} s" for layer, value in ranked))
    result.notes.append(f"{len(traced)} traced ops, {len(plain)} untraced; spans written to "
                        f"{workdir.name}/spans.jsonl")
