"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every workload runs end to end in both modes and prints exactly
the metrics ``BENCHMARK.json`` lists, that each per-op output check fails on
a report corrupted to break it, that failed ops are counted, and that a
traced run fails when an expected span never fires.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import shutil
import sys

from run import ROOT, load_program

load_program()

from bench import Result, Runner, measure, tail  # noqa: E402
from semimatch import cli  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402

TINY = {
    "run-deterministic": {"n": 60, "m": 400},
    "run-ensemble-ascending": {"n": 60, "m": 400},
    "certify": {"n": 10, "m": 20, "instances": 3},
    "adversary-game": {"C": 4.5},
}
WORK = ROOT / ".perfbench_work" / "selftest"


def tiny(name: str):
    return dataclasses.replace(WORKLOADS[name], **TINY[name])


def workdir(name: str):
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def test_end_to_end() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for name in WORKLOADS:
            summary = measure(tiny(name), 3, 0.05, trace, workdir(name)).summary()
            assert summary["correct"] and summary["failed"] == 0, (name, summary)
            assert summary["attempted"] >= 1
            units = {k: v["unit"] for k, v in summary["metrics"].items()}
            assert units == expected, (name, trace, units)


def _run(name: str) -> tuple[object, Op, dict]:
    workload = tiny(name)
    ops = workload.setup(5, workdir(name), [])
    assert cli.main(ops[0].argv) == 0
    with open(ops[0].out, encoding="utf-8") as handle:
        report = json.load(handle)
    assert workload.check(ops[0], report) == [], name
    return workload, ops[0], report


def _expect_flagged(workload, op: Op, report: dict, corrupt, phrase: str) -> None:
    bad = copy.deepcopy(report)
    corrupt(bad)
    problems = workload.check(op, bad)
    assert any(phrase in p for p in problems), (phrase, problems)


def test_run_checks() -> None:
    for name in ("run-deterministic", "run-ensemble-ascending"):
        workload, op, report = _run(name)
        rows = report["result"]["matching"]
        u, v, w = rows[0]
        other = next(key for key in op.expect.weights if u in key and v not in key)

        def shared_vertex(r):
            r["result"]["matching"].append([*other, op.expect.weights[other]])

        def foreign_edge(r):
            r["result"]["matching"][0][2] = w * 2

        def wrong_weight(r):
            r["result"]["weight"] += 1.0

        def two_passes(r):
            r["result"]["stream_passes"] = 2

        def differs(r):
            kept = r["result"]["matching"][:-1]
            r["result"]["matching"] = kept
            r["result"]["weight"] = math.fsum(x[2] for x in kept)

        def over_bound(r):
            r["result"]["stored_edge_peak"] = op.expect.stored_edge_bound + 1

        for corrupt, phrase in ((shared_vertex, "matched twice"),
                                (foreign_edge, "not a stream edge"),
                                (wrong_weight, "not the sum"),
                                (two_passes, "stream_passes"),
                                (differs, "differs from the in-memory run"),
                                (over_bound, "exceeds the")):
            _expect_flagged(workload, op, report, corrupt, phrase)
    workload, op, report = _run("run-ensemble-ascending")
    _expect_flagged(workload, op, report,
                    lambda r: r["result"]["per_copy_weights"].reverse(), "per-copy")


def test_certify_checks() -> None:
    workload, op, report = _run("certify")

    def link(r):
        r["chain"]["opt_rounded_le_tw"] = False

    def ratio(r):
        r["alg_weight"] = r["opt_weight"] / 10

    for corrupt, phrase in ((lambda r: r.update(chain_holds=False), "chain_holds"),
                            (link, "opt_rounded_le_tw"),
                            (lambda r: r.update(opt_weight=r["opt_weight"] * 1.01),
                             "networkx optimum"),
                            (ratio, "exceeds 2*gamma^2")):
        _expect_flagged(workload, op, report, corrupt, phrase)


def test_adversary_checks() -> None:
    workload, op, report = _run("adversary-game")
    for corrupt, phrase in ((lambda r: r.update(achieved_ratio=workload.C * 0.99), "below C"),
                            (lambda r: r.update(unbounded=True), "below C"),
                            (lambda r: r.update(steps_played=r["steps_played"] + 1),
                             "steps_played")):
        _expect_flagged(workload, op, report, corrupt, phrase)
    lines = op.expect.transcript.read_text(encoding="utf-8").splitlines(keepends=True)
    op.expect.transcript.write_text("".join(lines[:-1]), encoding="utf-8")
    assert any("transcript has" in p for p in workload.check(op, report))


def test_failures_are_counted() -> None:
    workload = tiny("run-deterministic")
    op = workload.setup(5, workdir("run-deterministic"), [])[0]
    result = Result()
    runner = Runner(workload, result)
    runner.run(op)
    missing = dataclasses.replace(op, argv=["run", str(op.out.parent / "absent.txt"),
                                            *op.argv[2:]])
    runner.run(missing)
    wrong = dataclasses.replace(op, expect=dataclasses.replace(op.expect, weight=-1.0))
    runner.run(wrong)
    assert (result.attempted, result.failed) == (3, 2), result
    assert result.summary()["correct"] is False


def test_missing_span_fails_the_traced_run() -> None:
    workload = tiny("run-deterministic")
    workload = dataclasses.replace(workload, spans=workload.spans + ("core.renamed",))
    try:
        measure(workload, 3, 0.05, True, workdir("run-deterministic"))
    except RuntimeError as exc:
        assert "core.renamed" in str(exc)
    else:
        raise AssertionError("a traced run with a missing span did not fail")


def test_tail() -> None:
    times = [float(i) for i in range(1, 41)]           # 40 ops: p75 has 10 beyond
    assert tail(times) == (30.0, 75)
    assert tail(times[:15]) == (8.0, 50)                # too few ops: the median


def main() -> int:
    tests = [value for key, value in sorted(globals().items()) if key.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {test.__name__}: {exc!r}")
        else:
            print(f"ok   {test.__name__}")
    shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
