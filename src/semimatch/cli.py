"""Command-line harness tying streams, algorithms, oracle, and the game together.

Exit codes: 0 success, 2 validation or configuration error (including a
weight sum beyond the float range, or a flag the chosen variant does not
read), 3 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import functools
import io
import json
import math
import os
import stat
import sys
import time
from json.encoder import encode_basestring_ascii
from typing import Iterable, Iterator, Optional, Sequence

from . import adversary as adv
from .bucket import (
    best_copy,
    check_parameters,
    choose_q,
    delta_grid,
    deterministic_ratio_bound,
    ensemble_ratio_bound,
    ensemble_states,
    stream_bucket_run,
)
from .certificate import build_certificate, filter_to_final_window
from .core import StreamSource, format_stream, load_stream
from .generators import (
    ExponentialClassWeights,
    RandomInstanceConfig,
    UniformWeights,
    permute_stream,
    random_instance,
    tight_instance,
    tight_instance_opt_weight,
)
from .oracle import max_weight_matching_exact
from .preemptive import make_victim

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3

VARIANTS = ("deterministic", "shifted", "ensemble")

# Every file argument, by destination, with the name a message gives it.
# Each command reads at most one of them, so two that name one file mean
# that something written would be lost.
_FILE_ARGS = {"stream": "stream", "out": "--out", "transcript": "--transcript",
             "csv": "--csv", "jsonl": "--jsonl"}

def _matching_payload(matching) -> list[list[float]]:
    return [[e.u, e.v, e.weight] for e in matching]


def _parse_law(text: str):
    """Parse a weight law: 'uniform:<lo>,<hi>' or 'expclasses:<gamma>,<depth>'."""
    name, _, rest = text.partition(":")
    parts = rest.split(",")
    law = None
    with contextlib.suppress(ValueError):  # a number that does not parse: the message below
        if name == "uniform" and len(parts) == 2:
            law = functools.partial(UniformWeights, float(parts[0]), float(parts[1]))
        elif name == "expclasses" and len(parts) == 2:
            law = functools.partial(ExponentialClassWeights, float(parts[0]), int(parts[1]))
    if law is None:
        raise ValueError(
            f"bad weight law {text!r}; use uniform:<lo>,<hi> or expclasses:<gamma>,<depth>")
    return law()


def _parse_list(text: str, kind: type, flag: str) -> list:
    """The comma-separated values of ``flag``, each read by ``kind``; empty items are skipped."""
    values = []
    for token in filter(None, text.split(",")):
        try:
            values.append(kind(token))
        except ValueError:
            raise ValueError(
                f"{flag} takes comma-separated {kind.__name__}s, got {token!r}") from None
    return values


def _check_paths(args: argparse.Namespace) -> None:
    """Refuse two file arguments that name one file, before any work; a file that
    exists is known by device and inode, which its hard links share."""
    seen: dict[object, str] = {}
    for dest, name in _FILE_ARGS.items():
        path = getattr(args, dest, None)
        if path:
            try:
                st = os.stat(path)
                key: object = (st.st_dev, st.st_ino)
            except FileNotFoundError:
                key = os.path.realpath(path)
            if key in seen:
                raise ValueError(f"{seen[key]} and {name} name the same file {path!r}")
            seen[key] = name


def _check_flags(args: argparse.Namespace) -> None:
    """Refuse a flag that the chosen variant or family would ignore, before any work."""
    for dest, kind, reader in (("delta", "variant", "shifted"), ("q", "variant", "ensemble"),
                               ("n", "family", "random"), ("m", "family", "random"),
                               ("law", "family", "random"), ("k", "family", "tight")):
        chosen = getattr(args, kind, None)
        if getattr(args, dest, None) is not None and chosen not in (None, reader):
            raise ValueError(f"--{dest} is read only by the {reader} {kind}, not by {chosen}")


def _write(chunks: Iterable[str], out: Optional[str]) -> None:
    """Write the chunks, one at a time, to the file ``out`` or else to stdout.

    A plain file at ``out`` is unlinked, not truncated: ext4 flushes a file
    truncated to zero when it is closed, and the next truncation waits for that flush.
    """
    if out:
        with contextlib.suppress(OSError):  # absent or not removable: open() decides
            if (st := os.lstat(out)).st_nlink == 1 and stat.S_ISREG(st.st_mode):
                os.unlink(out)
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


# The compact encoder of sweep's JSON lines and of the report writer's rows, built
# once: json.dumps with these flags builds a new one for every call.  Both encode
# trees that this module builds, so no container is checked for cycles.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False, check_circular=False)


# The report writer's text of each scalar type; the encoder refuses a float that is
# not finite.
_SCALAR_TEXT = {
    str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
    float: lambda x: float.__repr__(x) if math.isfinite(x) else _LINE_ENCODER.encode(x),
    bool: lambda b: "true" if b else "false"}


def _report_text(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True, allow_nan=False)`` of a tree
    whose dicts have ``str`` keys, without the pure-Python encoder that
    ``indent`` selects: a list of rows goes through the C encoder in one call."""
    if (scalar := _SCALAR_TEXT.get(type(value))) is not None:
        return scalar(value)
    inner = indent + "  "
    if isinstance(value, dict):
        parts = [f"{encode_basestring_ascii(k)}: {_report_text(value[k], inner)}"
                 for k in sorted(value)]
        brackets = "{}"
    elif isinstance(value, (list, tuple)):
        if value and type(value[0]) in (list, tuple):
            text = _LINE_ENCODER.encode(value)
            # No string, dict or empty row; len + 1 "[" and len - 1 "], [": every
            # element is a row of numbers, bools and nulls, so ", ", "[" and "]"
            # are all structure.
            if ('"' not in text and "{" not in text and "[]" not in text
                    and text.count("[") == len(value) + 1
                    and text.count("], [") == len(value) - 1):
                row = inner + "  "
                return ("[" + inner + text[1:-1].replace("], [", "]," + inner + "[")
                        .replace(", ", "," + row).replace("[", "[" + row)
                        .replace("]", inner + "]") + indent + "]")
        parts = [_report_text(v, inner) for v in value]
        brackets = "[]"
    else:  # another type: the encoder's text for a subclass, or its TypeError
        return _LINE_ENCODER.encode(value)
    if not parts:
        return brackets
    return f"{brackets[0]}{inner}{(',' + inner).join(parts)}{indent}{brackets[1]}"


def _emit(payload: dict, out: Optional[str], labels: Optional[dict] = None) -> None:
    """Write the report; it is formatted whole first, so a refused one writes nothing."""
    if labels is not None:  # a label file's map from its labels to the reported ids
        payload["vertex_labels"] = labels
    _write([_report_text(payload) + "\n"], out)


def _emit_lines(records: Sequence[dict], out: Optional[str]) -> None:
    """One JSON object per line, each written as it is encoded: ``sweep --jsonl``'s rows."""
    _write((_LINE_ENCODER.encode(r) + "\n" for r in records), out)


def _rows_text(rows: Sequence[tuple]) -> str:
    return ", ".join([f"[{u}, {v}, {w!r}]" for u, v, w in rows])


def _transcript_lines(records: Sequence[dict]) -> Iterator[str]:
    """Yield one line per record, equal to ``json.dumps(record, sort_keys=True,
    allow_nan=False)``, because ``Edge`` weights are finite and the key set is fixed."""
    last = held = None
    for r in records:
        if r["held_after"] != last:  # a declined edge repeats the last record's hold
            last, held = r["held_after"], _rows_text(r["held_after"])
        added, removed = r["opt_added"], r["opt_removed"]  # most often one or both empty
        yield (f'{{"held_after": [{held}], "label": {encode_basestring_ascii(r["label"])}, '
               f'"opt_added": [{_rows_text(added) if added else ""}], '
               f'"opt_removed": [{_rows_text(removed) if removed else ""}], '
               f'"step": {r["step"]}, "u": {r["u"]}, "v": {r["v"]}, "weight": {r["weight"]!r}}}\n')


def _run_variant(stream: StreamSource, variant: str, gamma: float, epsilon: float,
                 delta: float, q: Optional[int]) -> dict:
    """Execute one single-pass run and collect the result record; an ensemble runs q copies."""
    started = time.perf_counter()
    record: dict = {"variant": variant, "gamma": gamma, "epsilon": epsilon}
    if variant == "ensemble":
        record["q"] = q
        states = ensemble_states(stream, gamma, epsilon, q)
    else:
        record["delta"] = delta
        states = [stream_bucket_run(stream, gamma, epsilon, delta)]
    best, per_copy = best_copy(states)
    record["matching"] = _matching_payload(best)
    record["weight"] = best.weight
    if variant == "ensemble":
        record["per_copy_weights"] = [m.weight for m in per_copy]
    record["stored_edge_peak"] = sum(s.stored_edge_peak for s in states)
    record["edges_processed"] = sum(s.edges_processed for s in states)
    record["stream_passes"] = stream.passes
    record["wall_time_s"] = time.perf_counter() - started
    return record


def _run_config(args: argparse.Namespace) -> tuple[Optional[int], dict]:
    """The ensemble's q (None for one copy) and the config block that run and certificate share.

    The caller sets ``stream_sha256`` once the stream is read.  Every
    refusal of a parameter comes before the stream is read, except the
    window limit, which needs n and comes after the header is read.
    """
    delta = 0.0 if args.delta is None else args.delta
    q = None
    if args.variant == "ensemble":
        q = choose_q(args.gamma, args.epsilon) if args.q is None else args.q
    check_parameters(args.gamma, args.epsilon, (delta,) if q is None else delta_grid(q))
    return q, {"stream": args.stream, "stream_sha256": None, "variant": args.variant,
               "gamma": args.gamma, "epsilon": args.epsilon, "delta": delta}


def cmd_run(args: argparse.Namespace) -> int:
    q, config = _run_config(args)
    stream = load_stream(args.stream)  # the module global, which a tracer patches
    if args.with_oracle:  # the oracle reads every edge after the pass
        stream.hold()
    record = _run_variant(stream, args.variant, args.gamma, args.epsilon, config["delta"], q)
    if (ids := stream.ids) is not None:  # the pass named vertices by first appearance
        record["matching"] = [[ids[u], ids[v], w] for u, v, w in record["matching"]]
    config |= {"stream_sha256": stream.sha256,
               "delta": config["delta"] if args.variant == "shifted" else None,
               "q": q, "num_vertices": stream.num_vertices, "num_edges": len(stream)}
    report = {"command": "run", "config": config, "seed": args.seed, "result": record}
    if args.with_oracle:
        opt_weight = max_weight_matching_exact(stream.edges).weight
        report["result"]["oracle_weight"] = opt_weight
        report["result"]["ratio_vs_oracle"] = (
            opt_weight / record["weight"] if record["weight"] > 0 else None)
    _emit(report, args.out, stream.labels)
    return EXIT_OK


def cmd_certificate(args: argparse.Namespace) -> int:
    _, config = _run_config(args)
    stream = load_stream(args.stream)
    stream.hold()  # the certificate reads every edge after the pass
    config["stream_sha256"] = stream.sha256
    state = stream_bucket_run(stream, args.gamma, args.epsilon, config["delta"])
    survivors = filter_to_final_window(state, stream.edges)
    cert = build_certificate(state, max_weight_matching_exact(survivors))
    report = {
        "command": "certificate",
        "config": config,
        "alg_weight": cert.alg_weight,
        "opt_weight": cert.opt_weight,
        "opt_rounded": cert.opt_rounded,
        "total_associated_weight": cert.total_associated_weight,
        "chain_holds": cert.chain_holds(),
        "chain": cert.links(),
        "per_vertex_association": {
            str(v): [i, w] for v, (i, w) in sorted(cert.per_vertex_association.items())},
    }
    _emit(report, args.out, stream.labels)
    return EXIT_OK


def cmd_oracle(args: argparse.Namespace) -> int:
    stream = load_stream(args.stream)
    stream.hold()
    matching = max_weight_matching_exact(stream.edges)
    _emit({
        "command": "oracle",
        "stream": args.stream,
        "stream_sha256": stream.sha256,
        "matching": _matching_payload(matching),
        "weight": matching.weight,
    }, args.out, stream.labels)
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "tight":
        stream = tight_instance(args.gamma, args.k, args.eps)
    else:
        config = RandomInstanceConfig(
            n=args.n, m=args.m, weight_law=_parse_law(args.law), seed=args.seed)
        stream = random_instance(config)
    _write([format_stream(stream)], args.out)
    return EXIT_OK


def cmd_adversary(args: argparse.Namespace) -> int:
    victim = make_victim(args.victim)
    config = adv.AdversaryConfig(C=args.C)
    result = adv.run_adversary(victim, config)
    payload = result.to_json_dict()
    payload["command"] = "adversary"
    payload["victim"] = args.victim
    payload["C"] = args.C
    if args.transcript:
        _write(_transcript_lines(result.transcript), args.transcript)
        payload["transcript"] = f"written to {args.transcript}"
    _emit(payload, args.out)
    return EXIT_OK


def cmd_verify_sequences(args: argparse.Namespace) -> int:
    table = adv.generate_sequences(args.C)
    params = adv.closed_form_params(args.C)
    identities = adv.verify_identities(table)
    cf_errors = [
        abs(adv.closed_form_S(params, j) - table.S[j]) / max(1.0, abs(table.S[j]))
        for j in range(table.n + 1)
    ]
    report = {
        "command": "verify-sequences",
        "C": args.C,
        "n": table.n,
        "R": adv.solve_R(),
        "identities_ok": identities.ok,
        "identities_max_rel_error": identities.max_rel_error,
        "closed_form_max_rel_error": max(cf_errors),
        "closed_form_params": {
            "r": params.r, "theta": params.theta, "A": params.A,
            "x1": [params.x1.real, params.x1.imag],
        },
        "sign_change_recurrence": adv.first_nonpositive_recurrence(args.C),
        "sign_change_closed_form": adv.first_nonpositive_closed_form(params),
    }
    if identities.first_failure is not None:
        report["first_failure"] = list(identities.first_failure)
    _emit(report, args.out)
    return EXIT_OK if identities.ok else EXIT_CONFIG


def cmd_sweep(args: argparse.Namespace) -> int:
    gammas = _parse_list(args.gammas, float, "--gammas")
    seeds = _parse_list(args.seeds, int, "--seeds")
    # Everything no seed changes is built, and so checked, before the first row.
    if args.family == "tight":
        ladder = (2.0, 2 if args.k is None else args.k, 1e-6)
        stream, opt_weight = tight_instance(*ladder), tight_instance_opt_weight(*ladder)
    else:
        config = RandomInstanceConfig(
            n=12 if args.n is None else args.n, m=30 if args.m is None else args.m,
            weight_law=_parse_law("uniform:1,100" if args.law is None else args.law), seed=0)
    # Each gamma's q, and its bound per variant: OPT counts the edges below the
    # final threshold too, hence (1 + epsilon).
    qs, bounds = {}, {}
    for gamma in gammas:
        qs[gamma] = q = choose_q(gamma, args.epsilon)
        with contextlib.suppress(OverflowError):  # beyond the float range: refused below
            bounds[gamma] = {
                "deterministic": (1.0 + args.epsilon) * deterministic_ratio_bound(gamma),
                "ensemble": (1.0 + args.epsilon) * ensemble_ratio_bound(gamma, q)}
        if gamma not in bounds or not all(map(math.isfinite, bounds[gamma].values())):
            raise ValueError(f"the ratio bounds at gamma={gamma} are not finite floats")
    rows: list[dict] = []
    for seed in seeds:
        if args.family == "random":
            stream = random_instance(dataclasses.replace(config, seed=seed))
            opt_weight = max_weight_matching_exact(stream.edges).weight
        permuted = permute_stream(stream, seed)
        for gamma in gammas:
            for variant in ("deterministic", "ensemble"):
                record = _run_variant(permuted, variant, gamma, args.epsilon, 0.0, qs[gamma])
                ratio = opt_weight / record["weight"] if record["weight"] > 0 else None
                rows.append({
                    "variant": variant,
                    "gamma": gamma,
                    "seed": seed,
                    "n": stream.num_vertices,
                    "m": len(stream),
                    "alg_weight": record["weight"],
                    "opt_weight": opt_weight,
                    "ratio": ratio,
                    "bound": bounds[gamma][variant],
                })
    fieldnames = ["variant", "gamma", "seed", "n", "m",
                  "alg_weight", "opt_weight", "ratio", "bound"]
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fieldnames)
    writer.writeheader()
    writer.writerows(rows)
    _write([buffer.getvalue()], args.csv)
    if args.jsonl:
        _emit_lines(rows, args.jsonl)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="semimatch",
        description="Semi-streaming weighted matching toolkit and preemptive-matching adversary.")
    sub = parser.add_subparsers(dest="command", required=True)

    # The stream and the bucket parameters that run and certificate both read.
    bucket_args = argparse.ArgumentParser(add_help=False)
    bucket_args.add_argument("stream")
    bucket_args.add_argument("--gamma", type=float, required=True)
    bucket_args.add_argument("--epsilon", type=float, required=True)
    bucket_args.add_argument("--delta", type=float, help="shifted only; omitted = 0")
    bucket_args.add_argument("--out", default=None)

    p_run = sub.add_parser("run", parents=[bucket_args], help="run one variant over a stream file")
    p_run.add_argument("variant", choices=VARIANTS)
    p_run.add_argument("--q", type=int, default=None,
                       help="ensemble only; omitted = smallest q within the epsilon budget")
    p_run.add_argument("--with-oracle", action="store_true",
                       help="also solve exactly and report the ratio")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.set_defaults(func=cmd_run)

    p_cert = sub.add_parser("certificate", parents=[bucket_args],
                            help="run, oracle the surviving edges, and emit the inequality chain")
    p_cert.add_argument("--variant", choices=("deterministic", "shifted"),
                        default="deterministic")
    p_cert.set_defaults(func=cmd_certificate)

    p_oracle = sub.add_parser("oracle", help="print the exact optimal matching and weight")
    p_oracle.add_argument("stream")
    p_oracle.add_argument("--out", default=None)
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate an instance in the stream format")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    p_tight = gen_sub.add_parser("tight", help="the tight ladder family")
    p_tight.add_argument("--gamma", type=float, required=True)
    p_tight.add_argument("--k", type=int, required=True)
    p_tight.add_argument("--eps", type=float, required=True)
    p_tight.add_argument("-o", "--out", default=None)
    p_tight.set_defaults(func=cmd_gen)
    p_rand = gen_sub.add_parser("random", help="seeded random instance")
    p_rand.add_argument("--n", type=int, required=True)
    p_rand.add_argument("--m", type=int, required=True)
    p_rand.add_argument("--law", default="uniform:1,100")
    p_rand.add_argument("--seed", type=int, default=0)
    p_rand.add_argument("-o", "--out", default=None)
    p_rand.set_defaults(func=cmd_gen)

    p_adv = sub.add_parser("adversary", help="play the lower-bound game against a victim")
    p_adv.add_argument("--victim", required=True,
                       help="'threshold:<c>' or 'hold-first'")
    p_adv.add_argument("--C", type=float, required=True)
    p_adv.add_argument("--transcript", default=None,
                       help="write one JSON record per presented edge to this file")
    p_adv.add_argument("--out", default=None)
    p_adv.set_defaults(func=cmd_adversary)

    p_seq = sub.add_parser("verify-sequences",
                           help="check the weight-sequence identities and closed form")
    p_seq.add_argument("--C", type=float, required=True)
    p_seq.add_argument("--out", default=None)
    p_seq.set_defaults(func=cmd_verify_sequences)

    p_sweep = sub.add_parser("sweep", help="ratio table over a gamma grid and seeds")
    p_sweep.add_argument("--family", choices=("random", "tight"), default="random")
    p_sweep.add_argument("--gammas", default="2,2.5,3,3.513,4")
    p_sweep.add_argument("--seeds", default="")
    p_sweep.add_argument("--n", type=int, help="random only; omitted = 12")
    p_sweep.add_argument("--m", type=int, help="random only; omitted = 30")
    p_sweep.add_argument("--k", type=int, help="tight only; omitted = 2")
    p_sweep.add_argument("--law", help="random only; omitted = uniform:1,100")
    p_sweep.add_argument("--epsilon", type=float, default=0.5)
    p_sweep.add_argument("--csv", default=None)
    p_sweep.add_argument("--jsonl", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _check_paths(args)
        _check_flags(args)
        return args.func(args)
    except OSError as exc:
        print(f"semimatch: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (ValueError, OverflowError, adv.ContractViolationError) as exc:
        print(f"semimatch: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
