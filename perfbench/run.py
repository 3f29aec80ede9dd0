"""Benchmark of the ``semimatch`` CLI on seeded workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its ``src``.
Prints each metric by name with its unit, the SHA-256 of every generated
input, and as the last line one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Working files
go to ``.perfbench_work/<workload>`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_program() -> None:
    """Make ``import semimatch`` resolve to the checkout's ``src``, or exit."""
    src = ROOT / "src"
    if not (src / "semimatch" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no semimatch sources under {src}")
    sys.path.insert(0, str(src))
    import semimatch

    if Path(semimatch.__file__).resolve().parent != src / "semimatch":
        raise SystemExit(f"perfbench: semimatch was imported from {semimatch.__file__}, "
                         f"not from {src}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_program()
    from bench import measure
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workdir = ROOT / ".perfbench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), workdir)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in result.notes + [f"FAILED {p}" for p in result.problems]:
        print(line)
    summary = result.summary()
    for name, metric in summary["metrics"].items():
        print(f"{name:32} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
