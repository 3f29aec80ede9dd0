"""Spans around the public calls the CLI makes, and the per-layer metrics drawn from them.

``Instrumentation`` replaces, while a traced op runs, the functions at the
names ``semimatch.cli`` resolves them by at call time, plus
``BucketState.finalize`` and the victims ``make_victim`` returns.  Spans
(name, start, end, parent, op id, counts) are kept in memory and written
out when the run ends.  A span's layer is the part of its name before the
first dot; its self time is its duration minus that of its child spans.
"""

from __future__ import annotations

import json
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Optional

from semimatch import adversary, cli
from semimatch.bucket import BucketState
from semimatch.preemptive import PreemptiveAlgorithm

MIB = 2 ** 20


@dataclass
class Span:
    name: str
    op: int
    parent: Optional[int]
    start: float
    end: float = 0.0
    counts: dict[str, float] = field(default_factory=dict)


class Tracer:
    """In-memory span recorder; ``op`` tags the spans of the op being run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op = -1
        self._open: list[int] = []

    def begin(self, name: str) -> Span:
        parent = self._open[-1] if self._open else None
        span = Span(name, self.op, parent, time.perf_counter())
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")


def _traced(tracer: Tracer, name: str, fn: Callable,
            counts: Optional[Callable] = None, memory: bool = False) -> Callable:
    """``fn`` recording a span; ``counts(args, result)`` adds counts to it.

    With ``memory`` and tracemalloc running, the span also records the
    allocation peak reached inside the call.
    """
    def wrapper(*args, **kwargs):
        measure = memory and tracemalloc.is_tracing()
        if measure:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if counts is not None:
            span.counts = counts(args, result)
        if measure:
            span.counts["peak_mib"] = (tracemalloc.get_traced_memory()[1] - base) / MIB
        return result
    return wrapper


class TracedVictim(PreemptiveAlgorithm):
    """Forwards to a victim, recording a span per call."""

    def __init__(self, inner: PreemptiveAlgorithm, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def on_edge(self, edge):
        span = self._tracer.begin("preemptive.on_edge")
        try:
            return self._inner.on_edge(edge)
        finally:
            self._tracer.end(span)

    @property
    def current_matching(self):
        span = self._tracer.begin("preemptive.current_matching")
        try:
            return self._inner.current_matching
        finally:
            self._tracer.end(span)


def _pass_counts(states: list[BucketState]) -> dict[str, float]:
    return {"edges_processed": sum(s.edges_processed for s in states),
            "stored_edge_peak": sum(s.stored_edge_peak for s in states)}


class Instrumentation:
    """Context manager that installs the traced functions and restores the originals."""

    def __init__(self, tracer: Tracer):
        make = _traced(tracer, "preemptive.make_victim", cli.make_victim)
        self._patches = {
            (cli, "load_stream"): _traced(
                tracer, "core.load_stream", cli.load_stream, memory=True),
            (cli, "stream_bucket_run"): _traced(
                tracer, "bucket.stream_bucket_run", cli.stream_bucket_run,
                lambda args, state: _pass_counts([state])),
            (cli, "ensemble_states"): _traced(
                tracer, "bucket.ensemble_states", cli.ensemble_states,
                lambda args, states: _pass_counts(states)),
            (BucketState, "finalize"): _traced(
                tracer, "bucket.finalize", BucketState.finalize,
                lambda args, matching: {"matched": len(matching),
                                        "stored": args[0].stored_edge_count}),
            (cli, "filter_to_final_window"): _traced(
                tracer, "certificate.filter_to_final_window", cli.filter_to_final_window),
            (cli, "build_certificate"): _traced(
                tracer, "certificate.build_certificate", cli.build_certificate),
            (cli, "max_weight_matching_exact"): _traced(
                tracer, "oracle.max_weight_matching_exact", cli.max_weight_matching_exact,
                lambda args, result: {"input_edges": len(args[0])}),
            (adversary, "run_adversary"): _traced(
                tracer, "adversary.run_adversary", adversary.run_adversary,
                lambda args, result: {"steps": result.steps_played}),
            (cli, "make_victim"): lambda name: TracedVictim(make(name), tracer),
        }
        self._saved = {target: getattr(*target) for target in self._patches}

    def __enter__(self) -> "Instrumentation":
        for (owner, attr), fn in self._patches.items():
            setattr(owner, attr, fn)
        return self

    def __exit__(self, *exc_info) -> None:
        for (owner, attr), fn in self._saved.items():
            setattr(owner, attr, fn)


# Per-layer metrics and their units, in report order.  core.load_stream_peak_mib,
# generators.instance_s and trace.overhead_frac come from outside the traced ops.
PER_LAYER_UNITS = {
    "core.load_stream_s": "s",
    "core.load_stream_peak_mib": "MiB",
    "bucket.pass_s": "s",
    "bucket.ns_per_edge_copy": "ns",
    "bucket.finalize_s": "s",
    "bucket.edges_processed": "count",
    "bucket.stored_edge_peak": "count",
    "bucket.matched_per_stored": "ratio",
    "certificate.filter_s": "s",
    "certificate.build_s": "s",
    "oracle.exact_s": "s",
    "oracle.input_edges": "count",
    "adversary.game_s": "s",
    "adversary.self_s": "s",
    "adversary.steps": "count",
    "preemptive.on_edge_s": "s",
    "preemptive.current_matching_s": "s",
    "preemptive.calls": "count",
    "cli.self_s": "s",
    "generators.instance_s": "s",
    "trace.overhead_frac": "frac",
}

LAYERS = ("cli", "core", "bucket", "certificate", "oracle", "adversary", "preemptive")


def _op_values(spans: list[Span], child_time: dict[int, float],
               indices: list[int]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metric values and self time by layer for the spans of one op."""
    dur: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    counts: dict[str, float] = defaultdict(float)
    self_time: dict[str, float] = defaultdict(float)
    for i in indices:
        span = spans[i]
        duration = span.end - span.start
        dur[span.name] += duration
        calls[span.name] += 1
        self_time[span.name.split(".", 1)[0]] += duration - child_time[i]
        for key, value in span.counts.items():
            counts[key] += value
    pass_s = dur["bucket.stream_bucket_run"] + dur["bucket.ensemble_states"]
    edges = counts["edges_processed"]
    values = {
        "core.load_stream_s": dur["core.load_stream"],
        "bucket.pass_s": pass_s,
        "bucket.ns_per_edge_copy": 1e9 * pass_s / edges if edges else 0.0,
        "bucket.finalize_s": dur["bucket.finalize"],
        "bucket.edges_processed": edges,
        "bucket.stored_edge_peak": counts["stored_edge_peak"],
        "bucket.matched_per_stored": (counts["matched"] / counts["stored"]
                                      if counts["stored"] else 0.0),
        "certificate.filter_s": dur["certificate.filter_to_final_window"],
        "certificate.build_s": dur["certificate.build_certificate"],
        "oracle.exact_s": dur["oracle.max_weight_matching_exact"],
        "oracle.input_edges": counts["input_edges"],
        "adversary.game_s": dur["adversary.run_adversary"],
        "adversary.self_s": self_time["adversary"],
        "adversary.steps": counts["steps"],
        "preemptive.on_edge_s": dur["preemptive.on_edge"],
        "preemptive.current_matching_s": dur["preemptive.current_matching"],
        "preemptive.calls": calls["preemptive.on_edge"] + calls["preemptive.current_matching"],
        "cli.self_s": self_time["cli"],
    }
    return values, self_time


def layer_medians(spans: list[Span], ops: set[int]) -> tuple[dict[str, float], dict[str, float]]:
    """Medians over the given ops of the per-op metric values and layer self times."""
    child_time: dict[int, float] = defaultdict(float)
    by_op: dict[int, list[int]] = defaultdict(list)
    for i, span in enumerate(spans):
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
        if span.op in ops:
            by_op[span.op].append(i)
    per_op = [_op_values(spans, child_time, indices) for indices in by_op.values()]
    values = {name: statistics.median(v[name] for v, _ in per_op) for name in per_op[0][0]}
    self_time = {layer: statistics.median(s[layer] for _, s in per_op) for layer in LAYERS}
    return values, self_time
