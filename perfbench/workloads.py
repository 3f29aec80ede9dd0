"""The benchmark's workloads: seeded inputs, one CLI call per op, per-op output checks.

Each workload's ``setup`` writes its input files under a work directory and
computes, without going through the CLI, the reference every op's report is
checked against.  ``check`` returns a list of problems; an empty list means
the op's output is correct.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from semimatch import adversary as adv
from semimatch.bucket import choose_q, run_deterministic, run_ensemble
from semimatch.core import StreamSource, format_stream
from semimatch.generators import (
    ExponentialClassWeights,
    RandomInstanceConfig,
    UniformWeights,
    random_instance,
)
from semimatch.preemptive import make_victim


@dataclass
class Op:
    """One call of ``semimatch.cli.main``."""

    argv: list[str]
    out: Path              # where the CLI writes its JSON report
    edges: int             # edges handed to the algorithm
    expect: object         # what ``check`` compares the report against
    inputs: tuple[Path, ...] = ()


@dataclass(frozen=True)
class RunExpect:
    weights: dict[tuple[int, int], float]   # every stream edge, by key
    matching: list[list]                     # [u, v, weight] rows of the in-memory run
    weight: float
    per_copy_weights: Optional[list[float]]
    stored_edge_bound: float


@dataclass(frozen=True)
class GameExpect:
    steps: int
    presented: int
    transcript: Path


def _timed_instance(config: RandomInstanceConfig, gen_times: list[float],
                    ascending: bool = False) -> StreamSource:
    start = time.perf_counter()
    stream = random_instance(config)
    if ascending:
        stream = StreamSource(stream.num_vertices,
                              sorted(stream.edges, key=lambda e: (e.weight, e.key)))
    gen_times.append(time.perf_counter() - start)
    return stream


def _write(stream: StreamSource, path: Path) -> None:
    path.write_text(format_stream(stream), encoding="utf-8")


def _matching_problems(rows: list[list], weights: dict[tuple[int, int], float]) -> list[str]:
    """Rows that are not stream edges, and vertices covered twice."""
    problems = []
    covered: set[int] = set()
    for u, v, w in rows:
        if weights.get((min(u, v), max(u, v))) != w:
            problems.append(f"matched edge {u}-{v} weight {w} is not a stream edge")
        for vertex in (u, v):
            if vertex in covered:
                problems.append(f"vertex {vertex} is matched twice")
            covered.add(vertex)
    return problems


@dataclass(frozen=True)
class StreamRun:
    """``semimatch run <f> <variant>`` on one seeded random stream."""

    variant: str                 # "deterministic" or "ensemble"
    n: int
    m: int
    law: Union[UniformWeights, ExponentialClassWeights]
    ascending: bool              # arrival order: by ascending weight, else generated order
    gamma: float
    epsilon: float
    spans: tuple[str, ...]

    def setup(self, seed: int, workdir: Path, gen_times: list[float]) -> list[Op]:
        stream = _timed_instance(
            RandomInstanceConfig(n=self.n, m=self.m, weight_law=self.law, seed=seed),
            gen_times, self.ascending)
        path = workdir / "stream.txt"
        _write(stream, path)
        if self.variant == "ensemble":
            q = choose_q(self.gamma, self.epsilon)
            best, per_copy = run_ensemble(stream, self.gamma, self.epsilon, q)
            per_copy_weights = [m.weight for m in per_copy]
        else:
            q = 1
            best = run_deterministic(stream, self.gamma, self.epsilon)
            per_copy_weights = None
        n = stream.num_vertices
        expect = RunExpect(
            weights={e.key: e.weight for e in stream.edges},
            matching=[[e.u, e.v, e.weight] for e in best],
            weight=best.weight,
            per_copy_weights=per_copy_weights,
            stored_edge_bound=q * (n / 2) * (
                math.ceil(math.log(n / (2 * self.epsilon), self.gamma)) + 2),
        )
        out = workdir / "report.json"
        argv = ["run", str(path), self.variant, "--gamma", repr(self.gamma),
                "--epsilon", repr(self.epsilon), "--seed", str(seed), "--out", str(out)]
        return [Op(argv, out, len(stream), expect, (path,))]

    def check(self, op: Op, report: dict) -> list[str]:
        expect: RunExpect = op.expect  # type: ignore[assignment]
        result = report["result"]
        rows = result["matching"]
        problems = _matching_problems(rows, expect.weights)
        if result["weight"] != math.fsum(w for _u, _v, w in rows):
            problems.append(f"reported weight {result['weight']} is not the sum of its edges")
        if result["stream_passes"] != 1:
            problems.append(f"stream_passes is {result['stream_passes']}, not 1")
        if rows != expect.matching or result["weight"] != expect.weight:
            problems.append("matching differs from the in-memory run on the same stream")
        if (expect.per_copy_weights is not None
                and result["per_copy_weights"] != expect.per_copy_weights):
            problems.append("per-copy weights differ from the in-memory run")
        if result["stored_edge_peak"] > expect.stored_edge_bound:
            problems.append(f"stored_edge_peak {result['stored_edge_peak']} exceeds the "
                            f"O(n log_gamma(n/eps)) bound {expect.stored_edge_bound}")
        return problems


@dataclass(frozen=True)
class Certify:
    """``semimatch certificate`` over a seeded list of oracle-sized instances."""

    n: int
    m: int
    instances: int
    gamma: float
    epsilon: float
    spans: tuple[str, ...]

    def setup(self, seed: int, workdir: Path, gen_times: list[float]) -> list[Op]:
        import networkx as nx

        rng = random.Random(seed)
        out = workdir / "report.json"
        ops = []
        for i in range(self.instances):
            stream = _timed_instance(RandomInstanceConfig(
                n=self.n, m=self.m, weight_law=UniformWeights(1.0, 100.0),
                seed=rng.getrandbits(32)), gen_times)
            # Every edge must survive to the final window, so that the
            # certificate's OPT is the optimum of the whole stream.
            weights = [e.weight for e in stream.edges]
            if min(weights) < 2 * self.epsilon * max(weights) / stream.num_vertices:
                raise ValueError("certify instance has edges below the final discard "
                                 "threshold; choose a smaller epsilon")
            graph = nx.Graph()
            graph.add_weighted_edges_from((e.u, e.v, e.weight) for e in stream.edges)
            opt = math.fsum(graph[u][v]["weight"] for u, v in nx.max_weight_matching(graph))
            path = workdir / f"instance{i:03d}.txt"
            _write(stream, path)
            argv = ["certificate", str(path), "--gamma", repr(self.gamma),
                    "--epsilon", repr(self.epsilon), "--out", str(out)]
            ops.append(Op(argv, out, len(stream), opt, (path,)))
        return ops

    def check(self, op: Op, report: dict) -> list[str]:
        problems = []
        if report["chain_holds"] is not True:
            problems.append("chain_holds is not true")
        broken = sorted(link for link, ok in report["chain"].items() if ok is not True)
        if broken:
            problems.append(f"chain links fail: {', '.join(broken)}")
        g = self.gamma
        if not report["opt_weight"] <= 2 * g * g / (g - 1) * report["alg_weight"]:
            problems.append(f"OPT/ALG = {report['opt_weight']}/{report['alg_weight']} "
                            f"exceeds 2*gamma^2/(gamma-1)")
        opt = op.expect
        if not abs(report["opt_weight"] - opt) <= 1e-9 * opt:  # type: ignore[operator]
            problems.append(f"opt_weight {report['opt_weight']} != networkx optimum {opt}")
        return problems


@dataclass(frozen=True)
class AdversaryGame:
    """``semimatch adversary`` against each victim, writing the transcript.

    The game is fixed by C and the victim, so the seed changes nothing here.
    """

    victims: tuple[str, ...]
    C: float
    spans: tuple[str, ...]

    def setup(self, seed: int, workdir: Path, gen_times: list[float]) -> list[Op]:
        out = workdir / "report.json"
        ops = []
        for i, victim in enumerate(self.victims):
            result = adv.run_adversary(make_victim(victim), adv.AdversaryConfig(C=self.C))
            transcript = workdir / f"transcript{i}.jsonl"
            argv = ["adversary", "--victim", victim, "--C", repr(self.C),
                    "--transcript", str(transcript), "--out", str(out)]
            presented = len(result.presented_edges)
            ops.append(Op(argv, out, presented,
                          GameExpect(result.steps_played, presented, transcript)))
        return ops

    def check(self, op: Op, report: dict) -> list[str]:
        expect: GameExpect = op.expect  # type: ignore[assignment]
        problems = []
        ratio = report["achieved_ratio"]
        if report["unbounded"] or ratio is None or ratio < self.C * (1 - 1e-12):
            problems.append(f"achieved_ratio {ratio} (unbounded={report['unbounded']}) "
                            f"is below C={self.C}")
        if report["steps_played"] != expect.steps:
            problems.append(f"steps_played {report['steps_played']} != {expect.steps} "
                            f"recorded at set-up")
        with open(expect.transcript, "rb") as handle:
            lines = sum(1 for _ in handle)
        if lines != expect.presented:
            problems.append(f"transcript has {lines} lines for {expect.presented} "
                            f"presented edges")
        return problems


Workload = Union[StreamRun, Certify, AdversaryGame]

_RUN_SPANS = ("cli.main", "core.load_stream", "bucket.finalize")

# Sizes keep one op under about 0.1 s, so that a run of run_seconds holds a
# few hundred ops and the tail percentile (ten ops beyond it) is p95 or
# higher.  For the same reason the game uses C=4.965 (about 190 steps)
# rather than 4.967 (about 490 steps and 0.5 s per op).
WORKLOADS: dict[str, Workload] = {
    "run-deterministic": StreamRun(
        variant="deterministic", n=1000, m=15_000, law=UniformWeights(1.0, 100.0),
        ascending=False, gamma=2.0, epsilon=0.01,
        spans=_RUN_SPANS + ("bucket.stream_bucket_run",)),
    "run-ensemble-ascending": StreamRun(
        variant="ensemble", n=1000, m=2_000, law=ExponentialClassWeights(2.0, 40),
        ascending=True, gamma=3.513, epsilon=0.5,
        spans=_RUN_SPANS + ("bucket.ensemble_states",)),
    "certify": Certify(
        n=20, m=48, instances=200, gamma=2.0, epsilon=0.01,
        spans=_RUN_SPANS + ("bucket.stream_bucket_run",
                            "certificate.filter_to_final_window",
                            "oracle.max_weight_matching_exact",
                            "certificate.build_certificate")),
    "adversary-game": AdversaryGame(
        victims=("threshold:1", "threshold:1.5"), C=4.965,
        spans=("cli.main", "preemptive.make_victim", "adversary.run_adversary",
               "preemptive.on_edge", "preemptive.current_matching")),
}
