import csv
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import semimatch
from semimatch import bucket, cli, core
from semimatch.adversary import AdversaryConfig, run_adversary
from semimatch.bucket import (
    best_copy,
    choose_q,
    delta_grid,
    deterministic_ratio_bound,
    ensemble_ratio_bound,
    ensemble_states,
    stream_bucket_run,
)
from semimatch.cli import EXIT_CONFIG, EXIT_IO, EXIT_OK, main
from semimatch.core import (
    Matching,
    StreamFormatError,
    StreamSource,
    format_stream,
    load_stream,
)
from semimatch.generators import (
    ExponentialClassWeights,
    RandomInstanceConfig,
    UniformWeights,
    random_instance,
    tight_instance_opt_weight,
)
from semimatch.preemptive import DEFAULT_VICTIMS, make_victim

from model import ModelCopy
from test_adversary import C_GRID, opt_after_form, optima
from test_core import held


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def gen_tight(capsys, tmp_path, gamma=2.0, k=2, eps=1e-6):
    path = tmp_path / "tight.txt"
    code, _, _ = run_cli(capsys, "gen", "tight", "--gamma", str(gamma),
                         "--k", str(k), "--eps", str(eps), "-o", str(path))
    assert code == EXIT_OK
    return path


class TestGen:
    def test_tight_file(self, capsys, tmp_path):
        path = gen_tight(capsys, tmp_path, k=3)
        lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
        assert lines[0] == "n=16"
        assert len(lines) - 1 == 15  # 4k+3 edges

    def test_random_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "random", "--n", "8", "--m", "10",
                               "--law", "uniform:1,10", "--seed", "3")
        assert code == EXIT_OK
        assert out.startswith("n=8\n")
        assert len(out.strip().splitlines()) == 11

    def test_same_seed_same_bytes(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "random", "--n", "8", "--m", "10", "--seed", "3")
        _, out2, _ = run_cli(capsys, "gen", "random", "--n", "8", "--m", "10", "--seed", "3")
        assert out1 == out2

    def test_seed_defaults_to_zero(self, capsys):
        _, out1, _ = run_cli(capsys, "gen", "random", "--n", "8", "--m", "10")
        _, out2, _ = run_cli(capsys, "gen", "random", "--n", "8", "--m", "10", "--seed", "0")
        assert out1 == out2

    def test_expclasses_law(self, capsys):
        code, out, _ = run_cli(capsys, "gen", "random", "--n", "8", "--m", "10",
                               "--law", "expclasses:2,5", "--seed", "3")
        assert code == EXIT_OK
        assert out == format_stream(random_instance(RandomInstanceConfig(
            n=8, m=10, weight_law=ExponentialClassWeights(gamma=2.0, depth=5), seed=3)))
        weights = [float(line.split()[2]) for line in out.splitlines()[1:]]
        assert len(weights) == 10 and all(1.0 <= w < 2.0 ** 5 for w in weights)

    def test_law_beyond_the_float_range(self, capsys):
        code, out, err = run_cli(capsys, "gen", "random", "--n", "8", "--m", "5",
                                 "--law", "expclasses:2,2000")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "gamma**depth must be a finite float" in err

    def test_bad_law(self, capsys):
        code, _, err = run_cli(capsys, "gen", "random", "--n", "8", "--m", "5",
                               "--law", "zipf:2")
        assert code == EXIT_CONFIG
        assert "law" in err

    @pytest.mark.parametrize("law", ["expclasses:2,40.5", "uniform:1,x", "expclasses:x,2"])
    def test_law_with_a_number_that_does_not_parse(self, capsys, law):
        code, out, err = run_cli(capsys, "gen", "random", "--n", "8", "--m", "5", "--law", law)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == (f"semimatch: bad weight law {law!r}; "
                       "use uniform:<lo>,<hi> or expclasses:<gamma>,<depth>\n")

    def test_module_entry_point_exits_with_mains_code(self):
        src = str(Path(semimatch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        done = subprocess.run(
            [sys.executable, "-m", "semimatch.cli", "gen", "random", "--n", "4", "--m", "2",
             "--seed", "1"], capture_output=True, text=True, env=env, timeout=60)
        assert (done.returncode, done.stderr) == (EXIT_OK, "")
        assert done.stdout.splitlines()[0] == "n=4"

    @pytest.mark.parametrize("gamma, k, shown", [
        ("2", "2000", "gamma=2.0, k=2000"), ("1e200", "2", "gamma=1e+200, k=2")])
    def test_ladder_beyond_the_float_range(self, capsys, gamma, k, shown):
        code, out, err = run_cli(capsys, "gen", "tight", "--gamma", gamma, "--k", k,
                                 "--eps", "0.5")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"semimatch: gamma**(k+1) must be a finite float, got {shown}\n"


class TestRun:
    def test_tight_deterministic_weight(self, capsys, tmp_path):
        path = gen_tight(capsys, tmp_path, k=2)
        code, out, _ = run_cli(capsys, "run", str(path), "deterministic",
                               "--gamma", "2", "--epsilon", "0.01")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["weight"] == 4.0  # gamma^k
        assert report["result"]["stream_passes"] == 1
        assert report["result"]["edges_processed"] == 11
        assert report["config"]["stream_sha256"]

    def test_report_round_trip_and_reproducibility(self, capsys, tmp_path):
        path = gen_tight(capsys, tmp_path, k=2)
        _, out1, _ = run_cli(capsys, "run", str(path), "deterministic",
                             "--gamma", "2", "--epsilon", "0.01", "--with-oracle")
        _, out2, _ = run_cli(capsys, "run", str(path), "deterministic",
                             "--gamma", "2", "--epsilon", "0.01", "--with-oracle")
        r1, r2 = json.loads(out1), json.loads(out2)
        for r in (r1, r2):
            r["result"].pop("wall_time_s")
        assert r1 == r2
        assert r1["result"]["ratio_vs_oracle"] == pytest.approx(6.9999985, abs=1e-9)

    def test_ensemble_auto_q(self, capsys, tmp_path):
        path = gen_tight(capsys, tmp_path, k=2, gamma=3.513)
        code, out, _ = run_cli(capsys, "run", str(path), "ensemble",
                               "--gamma", "3.513", "--epsilon", "0.5")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["result"]["q"] == 14
        assert len(report["result"]["per_copy_weights"]) == 14
        assert report["result"]["weight"] == max(report["result"]["per_copy_weights"])

    def test_ensemble_epsilon_lost_in_rounding_is_config_error(self, capsys, tmp_path):
        path = gen_tight(capsys, tmp_path)
        code, out, err = run_cli(capsys, "run", str(path), "ensemble",
                                 "--gamma", "2", "--epsilon", "1e-17")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "epsilon" in err

    @pytest.mark.parametrize("flags", [("--epsilon", "1e-9"),
                                       ("--epsilon", "0.5", "--q", str(10 ** 9))])
    def test_ensemble_copy_limit_is_config_error(self, capsys, tmp_path, flags):
        path = gen_tight(capsys, tmp_path)
        code, out, err = run_cli(capsys, "run", str(path), "ensemble", "--gamma", "2", *flags)
        assert (code, out) == (EXIT_CONFIG, "")
        assert "q" in err and "10000" in err

    @pytest.mark.parametrize("command, flag, variant", [
        (("run", "{path}", "deterministic", "--delta", "0.7", "--q", "5"), "--delta", "shifted"),
        (("run", "{path}", "shifted", "--q", "5"), "--q", "ensemble"),
        (("certificate", "{path}", "--delta", "0.7"), "--delta", "shifted"),
    ], ids=["run-deterministic", "run-shifted", "certificate-deterministic"])
    def test_flag_the_variant_does_not_read_is_config_error(
            self, capsys, tmp_path, command, flag, variant):
        path = gen_tight(capsys, tmp_path)
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in command),
                                 "--gamma", "2", "--epsilon", "0.01")
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"{flag} is read only by the {variant} variant" in err

    @pytest.mark.parametrize("command", [("run", "{path}", "shifted"),
                                         ("certificate", "{path}", "--variant", "shifted")])
    def test_shifted_without_delta_runs_at_zero(self, capsys, tmp_path, command):
        path = gen_tight(capsys, tmp_path)
        code, out, _ = run_cli(capsys, *(a.format(path=path) for a in command),
                               "--gamma", "2", "--epsilon", "0.01")
        assert code == EXIT_OK
        assert json.loads(out)["config"]["delta"] == 0.0

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", str(tmp_path / "nope.txt"),
                                 "deterministic", "--gamma", "2", "--epsilon", "0.1")
        assert code == EXIT_IO
        assert out == ""  # no partial report
        assert "i/o error" in err

    def test_bad_gamma_is_config_error(self, capsys, tmp_path):
        path = gen_tight(capsys, tmp_path)
        code, _, err = run_cli(capsys, "run", str(path), "deterministic",
                               "--gamma", "0.5", "--epsilon", "0.1")
        assert code == EXIT_CONFIG
        assert "gamma" in err

    @pytest.mark.parametrize("delta", ["1", "-0.1"])
    @pytest.mark.parametrize("command", [("run", "{path}", "shifted"),
                                         ("certificate", "{path}", "--variant", "shifted")])
    def test_delta_outside_the_unit_interval_is_config_error(
            self, capsys, tmp_path, command, delta):
        path = gen_tight(capsys, tmp_path)
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in command),
                                 "--gamma", "2", "--epsilon", "0.1", "--delta", delta)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"semimatch: delta must lie in [0, 1), got {float(delta)}\n"


class TestNonFiniteParameters:
    @pytest.mark.parametrize("command, name", [
        (("run", "{path}", "deterministic", "--gamma", "inf", "--epsilon", "0.1"), "gamma"),
        (("run", "{path}", "deterministic", "--gamma", "2", "--epsilon", "inf"), "epsilon"),
        (("run", "{path}", "ensemble", "--gamma", "inf", "--epsilon", "0.5"), "gamma"),
        (("certificate", "{path}", "--gamma", "inf", "--epsilon", "0.1"), "gamma"),
        (("sweep", "--seeds", "1", "--gammas", "inf"), "gamma"),
        (("gen", "tight", "--gamma", "inf", "--k", "1", "--eps", "1"), "gamma")])
    def test_non_finite_parameter_is_config_error(self, capsys, tmp_path, command, name):
        path = gen_tight(capsys, tmp_path)
        code, out, err = run_cli(capsys, *(a.format(path=path) for a in command))
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"{name} must be finite" in err


class TestOracle:
    def test_prints_matching_and_weight(self, capsys, tmp_path):
        path = gen_tight(capsys, tmp_path, k=2)
        code, out, _ = run_cli(capsys, "oracle", str(path))
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["weight"] == pytest.approx(27.999994, abs=1e-12)
        assert len(report["matching"]) == 6

    def test_run_with_oracle_on_a_stream_without_edges(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("n=3\n")
        code, out, _ = run_cli(capsys, "run", str(path), "deterministic", "--gamma", "2",
                               "--epsilon", "0.1", "--with-oracle")
        assert code == EXIT_OK
        result = json.loads(out)["result"]
        assert (result["weight"], result["oracle_weight"], result["ratio_vs_oracle"]) \
            == (0.0, 0.0, None)

    def test_k5_tight_ladder_has_the_analytic_optimum(self, capsys, tmp_path):
        path = gen_tight(capsys, tmp_path, k=5)  # 24 vertices
        code, out, _ = run_cli(capsys, "oracle", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["weight"] == tight_instance_opt_weight(2.0, 5, 1e-6)


class TestParser:
    def test_second_call_builds_no_parser(self, capsys, tmp_path):
        # A parser holds reference cycles (actions <-> containers), so one
        # built per call would land in gc.garbage under DEBUG_SAVEALL.
        path = gen_tight(capsys, tmp_path, k=2)
        run_cli(capsys, "oracle", str(path))
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            run_cli(capsys, "oracle", str(path))
            gc.collect()
            leaked = [type(o).__name__ for o in gc.garbage
                      if type(o).__module__ == "argparse"]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []


class TestCertificate:
    def test_chain_reported(self, capsys, tmp_path):
        path = gen_tight(capsys, tmp_path, k=2)
        code, out, _ = run_cli(capsys, "certificate", str(path),
                               "--gamma", "2", "--epsilon", "0.01")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["chain_holds"] is True
        assert set(report["chain"]) == {
            "opt_rounded_le_opt", "opt_le_gamma_opt_rounded",
            "opt_rounded_le_tw", "tw_le_bound_times_alg"}
        assert all(report["chain"].values())
        assert report["opt_rounded"] == 14.0
        assert report["total_associated_weight"] == 14.0


class TestAdversary:
    def test_threshold_one(self, capsys):
        code, out, _ = run_cli(capsys, "adversary", "--victim", "threshold:1",
                               "--C", "4.9")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["achieved_ratio"] >= 4.9 * (1 - 1e-9)

    def test_hold_first_lower_c(self, capsys):
        code, out, _ = run_cli(capsys, "adversary", "--victim", "hold-first",
                               "--C", "4.5")
        assert code == EXIT_OK
        assert json.loads(out)["achieved_ratio"] >= 4.5 * (1 - 1e-9)

    def test_c_at_least_root_rejected(self, capsys):
        code, _, err = run_cli(capsys, "adversary", "--victim", "hold-first",
                               "--C", "5.1")
        assert code == EXIT_CONFIG
        assert "critical" in err

    @pytest.mark.parametrize("command", [("adversary", "--victim", "threshold:1"),
                                         ("verify-sequences",)])
    def test_c_near_root_overflows_and_is_config_error(self, capsys, command):
        # From about C = R - 4.6e-5 the sequence terms leave the float range
        # before they turn down.
        started = time.perf_counter()
        code, out, err = run_cli(capsys, *command, "--C", "4.96735")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "float range" in err
        assert time.perf_counter() - started < 0.5

    def test_unknown_victim(self, capsys):
        code, _, err = run_cli(capsys, "adversary", "--victim", "mystery", "--C", "4.5")
        assert code == EXIT_CONFIG
        assert "unknown victim" in err

    @pytest.mark.parametrize("victim", ["threshold:nan", "threshold:inf"])
    def test_threshold_factor_not_finite(self, capsys, victim):
        code, out, err = run_cli(capsys, "adversary", "--victim", victim, "--C", "4.5")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "finite" in err

    def test_transcript_file(self, capsys, tmp_path):
        out_path = tmp_path / "transcript.jsonl"
        code, out, _ = run_cli(capsys, "adversary", "--victim", "hold-first",
                               "--C", "4.9", "--transcript", str(out_path))
        assert code == EXIT_OK
        records = [json.loads(line) for line in out_path.read_text().splitlines()]
        assert len(records) == 5
        assert {"step", "label", "weight", "held_after"} <= set(records[0])

    def test_report_embeds_deltas_that_rebuild_the_optimum(self, capsys, tmp_path):
        out_path = tmp_path / "r.json"
        code, out, _ = run_cli(capsys, "adversary", "--victim", "threshold:1",
                               "--C", "4.9", "--out", str(out_path))
        assert (code, out) == (EXIT_OK, "")
        report = json.loads(out_path.read_text())
        *_, last = optima(report["transcript"])
        assert math.fsum(w for _u, _v, w in last) == report["tracked_opt_weight"]

    @pytest.mark.parametrize("victim", DEFAULT_VICTIMS)
    def test_report_embeds_the_transcript_file_records(self, capsys, tmp_path, victim):
        # README: the --out report embeds the same records when no --transcript is given.
        report_path, transcript_path = tmp_path / "r.json", tmp_path / "t.jsonl"
        for argv in (("--out", str(report_path)), ("--transcript", str(transcript_path))):
            code, _, _ = run_cli(capsys, "adversary", "--victim", victim, "--C", "4.9", *argv)
            assert code == EXIT_OK
        lines = transcript_path.read_text(encoding="utf-8").splitlines()
        assert json.loads(report_path.read_text())["transcript"] == [json.loads(l) for l in lines]

    @pytest.mark.parametrize("victim", [*DEFAULT_VICTIMS, "threshold:1.7071067811865475"])
    def test_transcript_lines_are_json_dumps_of_each_record(self, victim):
        for C in [*C_GRID, 4.965, 4.9673]:
            transcript = run_adversary(make_victim(victim), AdversaryConfig(C=C)).transcript
            expected = "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n"
                               for r in transcript)
            assert "".join(cli._transcript_lines(transcript)) == expected, C

    _ids = st.integers(0, 2 ** 53)
    _weights = st.floats(5e-324, 1.79e308) | st.integers(1, 2 ** 53)
    _rows = st.lists(st.tuples(_ids, _ids, _weights), max_size=3)
    _record = st.fixed_dictionaries({
        "step": st.integers(1, 2 ** 53),
        "label": st.text(st.sampled_from('"\\\x00\x1f\x7fé \U0001f600') | st.characters()),
        "u": _ids, "v": _ids, "weight": _weights,
        "held_after": _rows, "opt_added": _rows, "opt_removed": _rows})

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(_record, st.booleans()), max_size=6))
    def test_transcript_lines_match_json_dumps_on_any_records(self, draws):
        records = []
        for record, repeat in draws:
            if repeat and records:  # a declined edge: the game copies the last hold
                record["held_after"] = records[-1]["held_after"].copy()
            elif records:
                # The writer reuses an equal hold's text; the CLI's victims hold the
                # presented edges, so their equal holds have the same weights.
                previous = records[-1]["held_after"]
                assume(record["held_after"] != previous or json.dumps(record["held_after"])
                       == json.dumps(previous))
            records.append(record)
        expected = [json.dumps(r, sort_keys=True, allow_nan=False) + "\n" for r in records]
        assert list(cli._transcript_lines(records)) == expected

    def test_transcript_is_written_one_line_per_chunk(self, capsys, tmp_path, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "_write", lambda *args: calls.append(args))
        code, _, _ = run_cli(capsys, "adversary", "--victim", "threshold:1", "--C", "4.965",
                             "--transcript", str(tmp_path / "t.jsonl"))
        assert code == EXIT_OK
        (lines, _path), _report = calls  # the report is written after the transcript
        assert iter(lines) is lines  # an iterator, not one joined string or a list
        lines = list(lines)
        assert len(lines) == 381
        assert all(line.count("\n") == 1 and line.endswith("}\n") for line in lines)


class TestOutputFiles:
    def test_rewrite_replaces_a_plain_file_and_writes_through_links(self, capsys, tmp_path):
        """A plain file is replaced by a new one, never truncated, so a reader
        that opened it still sees the old bytes; a symlink's target and a file
        with a second hard link are written in place."""
        plain, target, hard = (tmp_path / n for n in ("plain.json", "target.json", "hard.json"))
        for path in (plain, target, hard):
            path.write_text("old\n")
        os.symlink("target.json", tmp_path / "link.json")
        os.link(hard, tmp_path / "alias.json")
        readers = [open(path, encoding="utf-8") for path in (plain, target, hard)]
        try:
            for name in ("plain.json", "link.json", "hard.json"):
                code, out, _ = run_cli(capsys, "verify-sequences", "--C", "4.9",
                                       "--out", str(tmp_path / name))
                assert (code, out) == (EXIT_OK, "")
            seen = [reader.read() for reader in readers]
        finally:
            for reader in readers:
                reader.close()
        report = plain.read_text()
        assert json.loads(report)["n"] == 35
        assert seen == ["old\n", report, report]
        assert (tmp_path / "link.json").is_symlink()
        assert (tmp_path / "alias.json").read_text() == report


class TestFileCollisions:
    """Two file arguments naming one file exit 2 before anything is written."""

    @pytest.mark.parametrize("argv, names", [
        (("run", "s.txt", "deterministic", "--gamma", "2", "--epsilon", "0.1",
          "--out", "./s.txt"), ("stream", "--out")),
        (("run", "s.txt", "deterministic", "--gamma", "2", "--epsilon", "0.1",
          "--out", "hard.txt"), ("stream", "--out")),
        (("certificate", "s.txt", "--gamma", "2", "--epsilon", "0.1",
          "--out", "sub/../s.txt"), ("stream", "--out")),
        (("oracle", "s.txt", "--out", "link.txt"), ("stream", "--out")),
        (("adversary", "--victim", "threshold:1", "--C", "4.5",
          "--transcript", "game.jsonl", "--out", "./game.jsonl"), ("--out", "--transcript")),
        (("sweep", "--seeds", "0", "--csv", "table", "--jsonl", "sub/../table"),
         ("--csv", "--jsonl")),
    ], ids=["run", "run-hard-link", "certificate", "oracle", "adversary", "sweep"])
    def test_same_file_twice_is_config_error(self, capsys, tmp_path, monkeypatch, argv, names):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        stream = tmp_path / "s.txt"
        stream.write_text("n=2\n0 1 1.0\n")
        os.symlink("s.txt", tmp_path / "link.txt")
        os.link(stream, tmp_path / "hard.txt")
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"{names[0]} and {names[1]} name the same file" in err
        assert stream.read_text() == "n=2\n0 1 1.0\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hard.txt", "link.txt", "s.txt",
                                                              "sub"]


class TestStreamHandling:
    def test_parse_error_reports_line_and_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2.0\n0 1\n")
        code, out, err = run_cli(capsys, "run", str(path), "deterministic",
                                 "--gamma", "2", "--epsilon", "0.1")
        assert code == EXIT_CONFIG
        assert out == ""
        assert "line 2" in err

    @pytest.mark.parametrize("weight, shown", [("0", "0.0"), ("inf", "inf")])
    def test_weight_outside_the_positive_finite_reals_exits_2_at_its_line(
            self, capsys, tmp_path, weight, shown):
        path = tmp_path / "bad.txt"
        path.write_text(f"n=2\n0 1 {weight}\n")
        code, out, err = run_cli(capsys, "run", str(path), "deterministic",
                                 "--gamma", "2", "--epsilon", "0.1")
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"semimatch: line 2: edge weight must be a positive finite real, got {shown}\n"

    def test_string_labels_emit_mapping(self, capsys, tmp_path):
        path = tmp_path / "labels.txt"
        path.write_text("n=3\nleft right 4.0\nmid left 1.0\n")
        code, out, _ = run_cli(capsys, "run", str(path), "deterministic",
                               "--gamma", "2", "--epsilon", "0.1")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["vertex_labels"] == {"left": 0, "right": 1, "mid": 2}
        assert report["result"]["weight"] == 4.0

    def test_every_report_on_a_label_file_carries_the_mapping(self, capsys, tmp_path):
        for text, labels in (("n=3\nalice bob 2.0\nbob carol 1.0\n",
                              {"alice": 0, "bob": 1, "carol": 2}),
                             ("n=3\n0 1 2.0\n1 2 1.0\n", None)):
            path = tmp_path / "stream.txt"
            path.write_text(text)
            for command in (("run", str(path), "deterministic"), ("certificate", str(path)),
                            ("oracle", str(path))):
                if command[0] != "oracle":
                    command += ("--gamma", "2", "--epsilon", "0.1")
                code, out, _ = run_cli(capsys, *command)
                assert code == EXIT_OK
                assert json.loads(out).get("vertex_labels", None) == labels, command

    @pytest.mark.parametrize("text", ["n=3\n0 1 1.0\n1 2 2.0\n", "0 1 1.0\n1 2 2.0\n",
                                      "n=3\nalice bob 1.0\nbob carol 2.0\n"],
                             ids=["header", "no-header", "labels"])
    def test_leading_byte_order_mark_is_skipped(self, capsys, tmp_path, text):
        # The report equals the one without the mark, apart from the file's
        # name and hash; the hash is of the bytes read, mark included.
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        for command in (("run", "{}", "deterministic", "--gamma", "2", "--epsilon", "0.1"),
                        ("certificate", "{}", "--gamma", "2", "--epsilon", "0.1"),
                        ("oracle", "{}")):
            reports = []
            for path in (plain, marked):
                code, out, err = run_cli(capsys, *(a.format(path) for a in command))
                assert (code, err) == (EXIT_OK, "")
                report = json.loads(out)
                names = report.get("config", report)
                assert names.pop("stream") == str(path)
                reports.append((report, names.pop("stream_sha256")))
                report.get("result", {}).pop("wall_time_s", None)
            (plain_report, _), (marked_report, digest) = reports
            assert marked_report == plain_report
            assert digest == hashlib.sha256(marked.read_bytes()).hexdigest()

    def test_byte_order_mark_elsewhere_is_part_of_a_label(self, capsys, tmp_path):
        path = tmp_path / "stream.txt"
        path.write_bytes("\ufeffn=3\nalice \ufeffbob 1.0\n".encode("utf-8"))
        code, out, _ = run_cli(capsys, "oracle", str(path))
        assert code == EXIT_OK
        assert json.loads(out)["vertex_labels"] == {"alice": 0, "\ufeffbob": 1}
        path.write_bytes("\ufeff\ufeffn=3\n0 1 1.0\n".encode("utf-8"))
        code, out, err = run_cli(capsys, "oracle", str(path))
        assert (code, out) == (EXIT_CONFIG, "")
        assert "line 1: expected '<u> <v> <weight>', got 1 fields" in err

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_stream_runs_as_the_file(self, tmp_path):
        # A pipe is read in the same one forward pass as "< file", by run's lazy
        # pass and by the held read of oracle and certificate alike: the same
        # exit code, fault line and report (wall_time_s is a timing, so it differs).
        path = tmp_path / "stream.txt"
        src = str(Path(semimatch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        texts = {"valid": "n=3\n0 1 1.0\n1 2 2.0\n", "labels": "n=3\n0 1 1.0\nalice 1 2.0\n",
                 "repeat": "n=3\n0 1 1.0\n1 0 2.0\n"}
        for command in (["run", "/dev/stdin", "deterministic", "--gamma", "2", "--epsilon", "0.1"],
                        ["oracle", "/dev/stdin"],
                        ["certificate", "/dev/stdin", "--gamma", "2", "--epsilon", "0.1"]):
            argv = [sys.executable, "-m", "semimatch.cli", *command]
            runs = {}
            for name, text in texts.items():
                path.write_text(text)
                piped = subprocess.run(argv, input=text, capture_output=True, text=True,
                                       env=env, timeout=60)
                with open(path, encoding="utf-8") as handle:
                    redirected = subprocess.run(argv, stdin=handle, capture_output=True,
                                                text=True, env=env, timeout=60)
                assert ((piped.returncode, piped.stderr)
                        == (redirected.returncode, redirected.stderr)), command
                runs[name] = [piped, redirected]
            repeat = runs["repeat"][0]
            assert (repeat.returncode, repeat.stdout) == (EXIT_CONFIG, ""), command
            assert "line 3: duplicate edge between 0 and 1" in repeat.stderr
            for name in ("valid", "labels"):
                reports = [json.loads(run.stdout) for run in runs[name]]
                for report in reports:
                    report.get("result", {}).pop("wall_time_s", None)
                assert reports[0] == reports[1], command
                # oracle reports the hash at the top level, run and certificate in config
                assert (reports[0].get("config", reports[0])["stream_sha256"]
                        == hashlib.sha256(texts[name].encode()).hexdigest())
                assert reports[0].get("vertex_labels") == (
                    {"0": 0, "1": 1, "alice": 2} if name == "labels" else None), command

    @pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="needs /dev/stdin")
    def test_piped_stream_with_a_byte_order_mark_runs(self, capsys, tmp_path):
        data = b"\xef\xbb\xbfn=3\n0 1 1.0\n1 2 2.0\n"
        path = tmp_path / "stream.txt"
        path.write_bytes(data)
        src = str(Path(semimatch.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        piped = subprocess.run([sys.executable, "-m", "semimatch.cli", "run", "/dev/stdin",
                                "deterministic", "--gamma", "2", "--epsilon", "0.1"],
                               input=data, capture_output=True, env=env, timeout=60)
        assert (piped.returncode, piped.stderr) == (EXIT_OK, b"")
        code, out, _ = run_cli(capsys, "run", str(path), "deterministic",
                               "--gamma", "2", "--epsilon", "0.1")
        reports = [json.loads(piped.stdout), json.loads(out)]
        for report in reports:
            del report["config"]["stream"], report["result"]["wall_time_s"]
        assert reports[0] == reports[1]
        assert reports[0]["config"]["stream_sha256"] == hashlib.sha256(data).hexdigest()

    def test_stream_sha256_is_of_the_bytes_parsed(self, capsys, tmp_path, monkeypatch):
        # The file changes after each pass, which run reads its stream inside, and
        # after the oracle's solve; each report hashes what was parsed.
        path = gen_tight(capsys, tmp_path)
        parsed = []

        def then_append(fn):
            def wrapper(*args):
                result = fn(*args)
                parsed.append(path.read_bytes())
                with open(path, "a", encoding="utf-8") as handle:
                    handle.write("# appended after the pass\n")
                return result
            return wrapper

        for name in ("stream_bucket_run", "max_weight_matching_exact"):
            monkeypatch.setattr(cli, name, then_append(getattr(cli, name)))
        for command in (("run", str(path), "deterministic", "--gamma", "2", "--epsilon", "0.1"),
                        ("certificate", str(path), "--gamma", "2", "--epsilon", "0.1"),
                        ("oracle", str(path))):
            first = len(parsed)
            code, out, _ = run_cli(capsys, *command)
            assert code == EXIT_OK
            report = json.loads(out)
            # oracle reports the hash at the top level, run and certificate in config
            digest = report.get("config", report)["stream_sha256"]
            assert digest == hashlib.sha256(parsed[first]).hexdigest()
        assert path.read_bytes() != parsed[0]


def in_memory_result(text, variant, gamma, epsilon, delta=0.0, q=None):
    """The result block and labels of ``run`` on a text, from the stream that holds every edge."""
    stream = held(text)
    if variant == "ensemble":
        states = ensemble_states(stream, gamma, epsilon, q)
    else:
        states = [stream_bucket_run(stream, gamma, epsilon, delta)]
    best, per_copy = best_copy(states)
    result = {"variant": variant, "gamma": gamma, "epsilon": epsilon,
              "matching": [[e.u, e.v, e.weight] for e in best], "weight": best.weight,
              "stored_edge_peak": sum(s.stored_edge_peak for s in states),
              "edges_processed": sum(s.edges_processed for s in states),
              "stream_passes": stream.passes}
    if variant == "ensemble":
        result |= {"q": q, "per_copy_weights": [m.weight for m in per_copy]}
    else:
        result["delta"] = delta
    return stream, stream.labels, result


class TestStreamedRun:
    """``run`` reads a file with a header inside its pass and holds none of its edges."""

    def run_file(self, path, variant="deterministic", *flags, gamma=2.0, epsilon=0.01):
        out = path.with_name("report.json")
        out.unlink(missing_ok=True)
        code = main(["run", str(path), variant, "--gamma", repr(gamma),
                     "--epsilon", repr(epsilon), *flags, "--out", str(out)])
        return code, (json.loads(out.read_text()) if out.exists() else None)

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize("lines", [
        ["n=4", "0 1 1.0", "alice 1 1.0"],
        # Ids 2 and 3 are fed before the switch; their dense ids are 0 and 1,
        # and alice and bob take 2 and 3.
        ["n=5", "# ids first", "2 3 1.0", "", "alice 2 5.0", "bob 0 1.0", "3 alice 0.5"],
    ], ids=["id-then-label", "ids-clash"])
    def test_label_switch_in_the_middle_of_a_file(self, tmp_path, newline, lines):
        text = newline.join(lines + [""])
        path = tmp_path / "stream.txt"
        path.write_bytes(text.encode("utf-8"))
        for variant, flags, q in (("deterministic", (), None), ("ensemble", ("--q", "3"), 3)):
            code, report = self.run_file(path, variant, *flags)
            assert code == EXIT_OK
            stream, labels, expected = in_memory_result(
                text.replace("\r\n", "\n").replace("\r", "\n"), variant, 2.0, 0.01, q=q)
            del report["result"]["wall_time_s"]
            assert report["result"] == expected
            assert report["vertex_labels"] == labels
            assert report["config"]["num_vertices"] == stream.num_vertices
            assert report["config"]["num_edges"] == len(stream)
            assert report["config"]["stream_sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    @pytest.mark.parametrize("text", [
        # A duplicate pair on line 3 is held; the bad weight on line 9 is in-line and wins.
        "n=8\n0 1 1.0\n1 0 2.0\n2 3 1.0\n3 4 1.0\n4 5 1.0\n5 6 1.0\n# c\n6 7 oops\n",
        # An id out of range on line 2 comes before the duplicate on line 4.
        "n=4\n0 9 1.0\n0 1 2.0\n1 0 3.0\n2 3 1.0\n",
        # More labels than n on line 3 come before the duplicate on line 4.
        "n=2\nalice bob 1.0\ncarol alice 1.0\nbob alice 2.0\n",
    ], ids=["in-line-wins", "range-first", "labels-past-n"])
    def test_a_fault_exits_as_the_parse_reports_it(self, capsys, tmp_path, text):
        path = tmp_path / "stream.txt"
        path.write_text(text)
        self.assert_fault_as_parsed(capsys, path)

    def test_a_byte_past_the_first_chunk_that_is_not_utf8(self, capsys, tmp_path):
        lines = ["n=2000"] + [f"{i} {i + 1} 1.5" for i in range(1500)]
        path = tmp_path / "stream.txt"
        path.write_bytes("\n".join(lines + ["1500 1501 2.5\xff", ""]).encode("latin-1"))
        assert path.stat().st_size > 8192
        assert self.assert_fault_as_parsed(capsys, path) == 1502

    @staticmethod
    def assert_fault_as_parsed(capsys, path):
        """Exit 2 with the held read's message and line, and no report written; return the line."""
        with pytest.raises(StreamFormatError) as excinfo:
            load_stream(str(path)).hold()
        out = path.with_name("report.json")
        for variant in ("deterministic", "ensemble"):
            code = main(["run", str(path), variant, "--gamma", "2", "--epsilon", "0.5",
                         "--out", str(out)])
            captured = capsys.readouterr()
            assert (code, captured.out) == (EXIT_CONFIG, "")
            assert captured.err == f"semimatch: {excinfo.value}\n"
            assert not out.exists()
        return excinfo.value.line

    @pytest.mark.parametrize("flags, message", [
        (("ensemble", "--gamma", "2", "--epsilon", "1e-9"), "q=3465733693"),
        (("ensemble", "--gamma", "2", "--epsilon", "0.5", "--q", "0"), "q must lie in"),
        (("deterministic", "--gamma", "0.5", "--epsilon", "0.01"), "gamma must be finite"),
        (("shifted", "--gamma", "2", "--epsilon", "0.01", "--delta", "1"), "delta must lie"),
    ], ids=["copy-limit", "q", "gamma", "delta"])
    def test_parameter_refusals_come_before_the_stream_is_read(self, capsys, tmp_path,
                                                                flags, message):
        # A stream with a fault on its first line, and one that does not exist.
        bad = tmp_path / "bad.txt"
        bad.write_text("0 1 oops\n")
        for path in (bad, tmp_path / "missing.txt"):
            code, out, err = run_cli(capsys, "run", str(path), *flags)
            assert (code, out) == (EXIT_CONFIG, "")
            assert message in err and "line" not in err

    def test_the_window_limit_comes_after_the_header(self, capsys, tmp_path):
        # The window needs n; a header fault is found first, then the limit, before the pass.
        path = tmp_path / "stream.txt"
        for text, message in (("n=x\n0 1 1.0\n", "bad vertex count"),
                              ("n=1000\n0 1 1.0\n1 2 oops\n", "window of up to")):
            path.write_text(text)
            code, out, err = run_cli(capsys, "run", str(path), "deterministic",
                                     "--gamma", "1.00001", "--epsilon", "0.01")
            assert (code, out) == (EXIT_CONFIG, "")
            assert message in err

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 60), m=st.integers(0, 150), seed=st.integers(0, 2**32 - 1),
           law=st.sampled_from(["uniform:1,100", "expclasses:2,40"]),
           ascending=st.booleans())
    def test_agrees_with_the_held_run_and_the_model(self, n, m, seed, law, ascending):
        # Every variant reads its file in the pass; each result equals the run on
        # the edges of the held stream, and each copy equals the model's.
        m = min(m, n * (n - 1) // 2)
        stream = random_instance(RandomInstanceConfig(
            n=n, m=m, weight_law=cli._parse_law(law), seed=seed))
        if ascending:
            stream = StreamSource(n, sorted(stream.edges, key=lambda e: (e.weight, e.key)))
        text = format_stream(stream)
        gamma, epsilon = 3.513, 0.5
        with tempfile.TemporaryDirectory() as work:
            path = Path(work) / "stream.txt"
            path.write_text(text)
            runs = [("deterministic", (), 0.0, None), ("shifted", ("--delta", "0.375"), 0.375, None)]
            runs += [("ensemble", ("--q", str(q)), 0.0, q) for q in (1, 3, 14)]
            for variant, flags, delta, q in runs:
                code, report = self.run_file(path, variant, *flags, gamma=gamma, epsilon=epsilon)
                assert code == EXIT_OK
                del report["result"]["wall_time_s"]
                held, _, expected = in_memory_result(text, variant, gamma, epsilon, delta, q)
                assert report["result"] == expected
                assert report["config"]["num_edges"] == len(held)
                deltas = delta_grid(q) if q is not None else [delta]
                weights = report["result"].get("per_copy_weights", [report["result"]["weight"]])
                for copy_delta, weight in zip(deltas, weights, strict=True):
                    model = ModelCopy(gamma, epsilon, n, copy_delta)
                    for e in held.edges:
                        model.process(e)
                    assert weight == Matching(model.finalize()).weight
                if q is None:
                    assert report["result"]["matching"] == [
                        [e.u, e.v, e.weight] for e in model.finalize()]
                    assert report["result"]["stored_edge_peak"] == model.stored_edge_peak

    @staticmethod
    def opening(monkeypatch):
        """Patch the file a stream reads; return the list of every file opened."""
        opened = []

        class Recorded(core._Sha256File):
            def __init__(self, path):
                super().__init__(path)
                opened.append(self)

        monkeypatch.setattr(core, "_Sha256File", Recorded)
        return opened

    def test_a_lazy_read_closes_its_file_when_dropped_or_when_it_raises(self, monkeypatch,
                                                                         tmp_path):
        opened = self.opening(monkeypatch)
        path = tmp_path / "stream.txt"
        path.write_text("n=4\n0 1 1.0\n2 3 2.0\n")
        stream = load_stream(str(path))
        rows = stream.rows()
        assert next(rows) == (0, 1, 1.0, None)
        assert not opened[0].closed
        del stream, rows  # dropped after its first edge
        assert opened[0].closed
        path.write_text("n=4\n0 1 1.0\n1 2 oops\n2 3 2.0\n")
        stream = load_stream(str(path))
        with pytest.raises(StreamFormatError, match="^line 3: bad weight"):
            list(stream.rows())
        assert opened[1].closed  # closed as the read raised, while the stream is still held

    @pytest.mark.parametrize("text, flags, exit_code", [
        # The window limit refuses the grid, so the pass never starts.
        ("n=1000\n0 1 1.0\n1 2 2.0\n", ("--gamma", "1.00001"), EXIT_CONFIG),
        # The read raises at a bad weight in the middle of the file.
        ("n=1000\n0 1 1.0\n1 2 oops\n2 3 2.0\n", ("--gamma", "2"), EXIT_CONFIG),
        ("n=1000\n0 1 1.0\n1 2 2.0\n", ("--gamma", "2"), EXIT_OK),
    ], ids=["window-limit", "bad-weight", "read-to-its-end"])
    def test_run_closes_the_file_it_reads(self, capsys, monkeypatch, tmp_path, text, flags,
                                          exit_code):
        path = tmp_path / "stream.txt"
        path.write_text(text)
        opened = self.opening(monkeypatch)
        code, _, _ = run_cli(capsys, "run", str(path), "deterministic", *flags,
                             "--epsilon", "0.01")
        assert code == exit_code
        assert len(opened) == 1 and opened[0].closed

    def counting_edges(self, monkeypatch):
        """Patch the pass's Edge maker; return the list of every Edge it makes."""
        made, make = [], bucket._edge

        def making(u, v, weight):
            made.append(make(u, v, weight))
            return made[-1]

        monkeypatch.setattr(bucket, "_edge", making)
        return made

    @staticmethod
    def model_stored(stream, gamma, epsilon, deltas):
        """The keys of the edges the model's copies store over the pass."""
        keys = set()
        for delta in deltas:
            model = ModelCopy(gamma, epsilon, stream.num_vertices, delta)
            for e in stream.edges:
                model.process(e)
                if any(edges[-1] is e for edges, _ in model.classes.values()):
                    keys.add(e.key)
        return keys

    def test_a_lazy_pass_makes_an_edge_only_for_a_row_it_stores(self, monkeypatch, tmp_path):
        # The benchmark-shaped file: 2,250 of its 15,000 rows are ever stored.
        path = tmp_path / "stream.txt"
        text = format_stream(random_instance(RandomInstanceConfig(
            n=1000, m=15_000, weight_law=UniformWeights(1.0, 100.0), seed=1)))
        path.write_text(text)
        made = self.counting_edges(monkeypatch)
        code, report = self.run_file(path)
        assert code == EXIT_OK and report["result"]["stream_passes"] == 1
        assert len(made) == len(self.model_stored(held(text), 2.0, 0.01, [0.0])) == 2_250
        assert len({e.key for e in made}) == len(made)

    def test_every_copy_that_stores_a_row_holds_one_edge(self, monkeypatch, tmp_path):
        # q=14 copies over few classes, so most stored rows are taken by several copies.
        path = tmp_path / "stream.txt"
        text = format_stream(random_instance(RandomInstanceConfig(
            n=200, m=2_000, weight_law=ExponentialClassWeights(2.0, 8), seed=3)))
        path.write_text(text)
        made = self.counting_edges(monkeypatch)
        kept = []

        def keeping(*args):
            kept.extend(ensemble_states(*args))
            return kept

        monkeypatch.setattr(cli, "ensemble_states", keeping)
        code, _ = self.run_file(path, "ensemble", "--q", "14", gamma=3.513, epsilon=0.5)
        assert code == EXIT_OK
        assert len(made) == len(self.model_stored(held(text), 3.513, 0.5, delta_grid(14)))
        ids = {id(e) for e in made}
        by_key = {}
        for state in kept:
            for edges in state.matchings.values():
                for e in edges:
                    assert id(e) in ids
                    assert by_key.setdefault(e.key, e) is e
        assert sum(len(edges) for s in kept for edges in s.matchings.values()) > len(by_key)

    def test_a_held_pass_stores_the_streams_own_edges(self, monkeypatch, tmp_path):
        made = self.counting_edges(monkeypatch)
        stream = random_instance(RandomInstanceConfig(
            n=200, m=2_000, weight_law=ExponentialClassWeights(2.0, 8), seed=3))
        own = {id(e) for e in stream.edges}
        for state in ensemble_states(stream, 3.513, 0.5, 14):
            assert all(id(e) in own for edges in state.matchings.values() for e in edges)
        assert stream.passes == 1
        # A file without the header is held, and run --with-oracle holds its edges.
        path = tmp_path / "stream.txt"
        path.write_text(format_stream(stream).split("\n", 1)[1])
        assert self.run_file(path, "ensemble", "--q", "14")[0] == EXIT_OK
        path.write_text(format_stream(stream))
        assert self.run_file(path, "deterministic", "--with-oracle")[0] == EXIT_OK
        assert made == []

    def test_memory_holds_no_edge_of_the_stream(self, tmp_path):
        # n=1000, m=15,000: 2.44 MiB when every edge was held, 0.48 MiB measured streamed.
        path = tmp_path / "stream.txt"
        path.write_text(format_stream(random_instance(RandomInstanceConfig(
            n=1000, m=15_000, weight_law=UniformWeights(1.0, 100.0), seed=1))))
        assert self.peak_mib(path) < 1.0

    def test_memory_of_a_large_header_with_three_edges(self, tmp_path):
        # The duplicate store is a set until a bitmap of every pair below n is the
        # smaller, so n=10**9 allocates no bitmap (0.03 MiB measured).
        path = tmp_path / "stream.txt"
        path.write_text("n=1000000000\n0 1 1.0\n5 999999999 2.0\n7 8 3.0\n")
        assert self.peak_mib(path) < 1.0

    def peak_mib(self, path):
        gc.collect()
        tracemalloc.start()
        try:
            code, _ = self.run_file(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_OK
        return peak / 2**20


class TestWeightRange:
    def run_file(self, capsys, tmp_path, text, *argv):
        path = tmp_path / "stream.txt"
        path.write_text(text)
        return run_cli(capsys, argv[0], str(path), *argv[1:])

    def test_largest_weight_is_matched(self, capsys, tmp_path):
        code, out, _ = self.run_file(capsys, tmp_path, "n=4\n0 1 1.0e308\n",
                                     "run", "deterministic", "--gamma", "2", "--epsilon", "0.01")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["matching"] == [[0, 1, 1.0e308]]

    def test_threshold_near_float_max(self, capsys, tmp_path):
        # 2*eps*w_max overflows, but the threshold 2*eps*w_max/n = 5e307 keeps both classes
        text = "n=4\n0 1 1e308\n2 3 5e307\n"
        code, out, _ = self.run_file(capsys, tmp_path, text,
                                     "run", "deterministic", "--gamma", "2", "--epsilon", "1")
        assert code == EXIT_OK
        assert json.loads(out)["result"]["matching"] == [[0, 1, 1e308], [2, 3, 5e307]]

    def test_subnormal_weights(self, capsys, tmp_path):
        text = "n=1000\n0 1 1e-320\n2 3 5e-324\n"
        for variant in ("deterministic", "ensemble"):
            code, out, _ = self.run_file(capsys, tmp_path, text, "run", variant,
                                         "--gamma", "3.513", "--epsilon", "0.5")
            assert code == EXIT_OK
            assert [0, 1, 1e-320] in json.loads(out)["result"]["matching"]
        code, out, _ = self.run_file(capsys, tmp_path, text, "certificate",
                                     "--gamma", "2", "--epsilon", "0.01")
        assert code == EXIT_OK
        assert json.loads(out)["chain_holds"] is True

    def test_weight_sum_overflow_is_config_error(self, capsys, tmp_path):
        code, out, err = self.run_file(capsys, tmp_path, "n=4\n0 1 1.7e308\n2 3 1.6e308\n",
                                       "run", "deterministic", "--gamma", "2", "--epsilon", "0.01")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "overflow" in err
        # the total associated weight TW of one edge is twice its class floor
        code, out, err = self.run_file(capsys, tmp_path, "n=2\n0 1 1.7e308\n",
                                       "certificate", "--gamma", "2", "--epsilon", "0.01")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "overflow" in err


class TestVerifySequences:
    def test_c49(self, capsys):
        code, out, _ = run_cli(capsys, "verify-sequences", "--C", "4.9")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["identities_ok"] is True
        assert report["n"] == 35
        assert report["closed_form_max_rel_error"] <= 1e-9
        assert report["sign_change_recurrence"] == report["sign_change_closed_form"]

    def test_closed_form_overflow_is_config_error(self, capsys):
        # The last C whose table stays finite (n=1375): the recurrence leaves
        # the float range at S_1369, before its sign change, so no finite
        # report exists.
        code, out, err = run_cli(capsys, "verify-sequences", "--C", "4.967318719302683")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "float range" in err


    def test_failed_identity_exits_2_with_first_failure(self, capsys, monkeypatch):
        # No slack at all: the first identity with any rounding error fails.
        monkeypatch.setattr(semimatch.adversary, "REL_TOL", 0.0)
        code, out, _ = run_cli(capsys, "verify-sequences", "--C", "4.9")
        assert code == EXIT_CONFIG
        report = json.loads(out)
        assert report["identities_ok"] is False
        name, i, lhs, rhs = report["first_failure"]
        assert name in ("chain", "escape") and lhs != rhs

    def test_sign_change_where_the_closed_form_product_overflows(self, capsys):
        # -2A r^j overflows at S_1367 here, but S_1367 itself is finite.
        code, out, _ = run_cli(capsys, "verify-sequences", "--C", "4.967318027393586")
        assert code == EXIT_OK
        report = json.loads(out)
        assert report["sign_change_recurrence"] == report["sign_change_closed_form"] == 1367


class TestSweep:
    def test_header_only_when_no_seeds(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--seeds", "")
        assert code == EXIT_OK
        assert out.strip().splitlines() == [
            "variant,gamma,seed,n,m,alg_weight,opt_weight,ratio,bound"]

    def test_ratio_is_empty_when_no_edge_is_matched(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--m", "0", "--seeds", "0", "--gammas", "2")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [(row["variant"], row["alg_weight"], row["ratio"]) for row in rows] \
            == [("deterministic", "0.0", ""), ("ensemble", "0.0", "")]

    def test_small_sweep_table(self, capsys, tmp_path):
        csv_path = tmp_path / "sweep.csv"
        jsonl_path = tmp_path / "sweep.jsonl"
        code, _, _ = run_cli(capsys, "sweep", "--family", "random",
                             "--gammas", "2,2.5,3,3.513,4", "--seeds", "0,1,2",
                             "--n", "10", "--m", "20", "--epsilon", "0.5",
                             "--csv", str(csv_path), "--jsonl", str(jsonl_path))
        assert code == EXIT_OK
        with open(csv_path) as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 3 * 5 * 2  # seeds x gammas x variants
        for row in rows:
            gamma = float(row["gamma"])
            # Each row's own guarantee, times (1 + epsilon) for the edges
            # below the final threshold, which OPT also counts.
            bound = (deterministic_ratio_bound(gamma) if row["variant"] == "deterministic"
                     else ensemble_ratio_bound(gamma, choose_q(gamma, 0.5)))
            assert float(row["bound"]) == pytest.approx(1.5 * bound, rel=1e-15)
            assert row["ratio"] != ""
            assert float(row["ratio"]) <= float(row["bound"]) * (1 + 1e-9)
        by_row = {(r["variant"], float(r["gamma"])): float(r["bound"]) for r in rows}
        assert by_row["deterministic", 2.0] == 1.5 * 8.0
        assert by_row["ensemble", 3.513] == pytest.approx(1.5 * 5.372, abs=1e-3)
        assert len(jsonl_path.read_text().splitlines()) == len(rows)

    def test_ratio_filled_at_n30_m40(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--family", "random",
                               "--gammas", "2", "--seeds", "0",
                               "--n", "30", "--m", "40")
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2
        for row in rows:
            assert row["n"] == "30" and row["opt_weight"] != ""
            assert float(row["ratio"]) <= float(row["bound"]) * (1 + 1e-9)

    @pytest.mark.parametrize("flags, k", [((), 2), (("--k", "3"), 3)])
    def test_tight_family(self, capsys, flags, k):
        code, out, _ = run_cli(capsys, "sweep", "--family", "tight", "--gammas", "2,3",
                               "--seeds", "0,1", *flags)
        assert code == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 2 * 2 * 2  # seeds x gammas x variants
        opt = tight_instance_opt_weight(2.0, k, 1e-6)
        for row in rows:
            assert (row["n"], row["m"]) == (str(4 * k + 4), str(4 * k + 3))
            assert float(row["opt_weight"]) == opt
            assert float(row["ratio"]) <= float(row["bound"]) * (1 + 1e-9)

    # Digests of the rows, taken when the OPT came from the exact oracle.
    @pytest.mark.parametrize("k, digest", [
        (1, "91c414446217a0d64b1de8794087938e7e8d5d8d124f1382d860a924c419796f"),
        (4, "3d1401a2cb277c9326c73ceb345f58083dc7cfad910c983e7f2297791c4b06e0"),
        (9, "acf997ce96a50f5d7621cff721c2670c655f3f82ab47a9f9d068aacdf1895883"),
        (13, "8c5375f03a330e62e04fabbc6ba3cc3864bbdc974528adb8d3c1c73acdf503ea")])
    def test_tight_family_takes_opt_in_closed_form(self, capsys, monkeypatch, k, digest):
        def no_oracle(edges):
            raise AssertionError("the oracle ran for the tight family")

        monkeypatch.setattr(cli, "max_weight_matching_exact", no_oracle)
        code, out, _ = run_cli(capsys, "sweep", "--family", "tight",
                               "--gammas", "2,2.5,3,3.513,4,7", "--seeds", "0,1,2",
                               "--k", str(k))
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("seeds", ["", "0"])
    def test_bad_law_is_config_error_with_or_without_seeds(self, capsys, seeds):
        code, out, err = run_cli(capsys, "sweep", "--family", "random", "--seeds", seeds,
                                 "--law", "zipf:2")
        assert (code, out) == (EXIT_CONFIG, "")
        assert "bad weight law" in err

    # Each is refused before the first row, so also when there is no row.
    @pytest.mark.parametrize("seeds", ["", "0"])
    @pytest.mark.parametrize("flags, message", [
        (("--family", "tight", "--k", "0"), "k must be a positive integer"),
        (("--family", "tight", "--k", "2000"),
         "gamma**(k+1) must be a finite float, got gamma=2.0, k=2000"),
        (("--family", "random", "--n", "1"), "need at least 2 vertices"),
        (("--gammas", "0.5"), "gamma must be finite and exceed 1"),
        (("--epsilon", "-1"), "epsilon must lie in (0, 1)")])
    def test_bad_parameter_is_config_error_with_or_without_seeds(
            self, capsys, seeds, flags, message):
        code, out, err = run_cli(capsys, "sweep", "--seeds", seeds, *flags)
        assert (code, out) == (EXIT_CONFIG, "")
        assert message in err

    @pytest.mark.parametrize("seeds", ["", "0"])
    @pytest.mark.parametrize("gamma", ["1e154", "1e200"])
    def test_gamma_without_a_finite_bound_is_refused_before_any_row(
            self, capsys, tmp_path, seeds, gamma):
        table, lines = tmp_path / "o.csv", tmp_path / "o.jsonl"
        code, out, err = run_cli(capsys, "sweep", "--gammas", f"2,{gamma}", "--seeds", seeds,
                                 "--csv", str(table), "--jsonl", str(lines))
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"semimatch: the ratio bounds at gamma={float(gamma)} are not finite floats\n"
        assert not table.exists() and not lines.exists()

    @pytest.mark.parametrize("flags, message", [
        (("--seeds", "1.5"), "--seeds takes comma-separated ints, got '1.5'"),
        (("--seeds", "0,,x"), "--seeds takes comma-separated ints, got 'x'"),
        (("--gammas", "x"), "--gammas takes comma-separated floats, got 'x'"),
        (("--gammas", "2,3.5.1"), "--gammas takes comma-separated floats, got '3.5.1'")])
    def test_token_that_does_not_parse_names_its_flag(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "sweep", *flags)
        assert (code, out) == (EXIT_CONFIG, "")
        assert err == f"semimatch: {message}\n"

    @pytest.mark.parametrize("family, flag, value, reader", [
        ("tight", "--law", "zipf:2", "random"), ("tight", "--n", "5", "random"),
        ("tight", "--m", "3", "random"), ("random", "--k", "7", "tight")])
    def test_flag_the_family_does_not_read_is_config_error(
            self, capsys, family, flag, value, reader):
        code, out, err = run_cli(capsys, "sweep", "--family", family, "--seeds", "0",
                                 flag, value)
        assert (code, out) == (EXIT_CONFIG, "")
        assert f"{flag} is read only by the {reader} family, not by {family}" in err


class TestGoldenOutputs:
    """SHA-256 of every file the commands write, on generated streams.

    The commands run in ``tmp_path`` on relative paths, so each report
    names its files by their basename.  Run reports drop their
    ``wall_time_s`` line; every other byte is pinned, so a change to a
    matching, a number, a key or the JSON layout shows up here.
    """

    COMMANDS = [
        ("gen", "random", "--n", "12", "--m", "30", "--seed", "5", "-o", "rand.txt"),
        ("gen", "tight", "--gamma", "2", "--k", "3", "--eps", "1e-6", "-o", "tight.txt"),
        ("run", "rand.txt", "deterministic", "--gamma", "2", "--epsilon", "0.01",
         "--out", "deterministic.json"),
        ("run", "rand.txt", "shifted", "--gamma", "2", "--epsilon", "0.01", "--delta", "0.37",
         "--with-oracle", "--out", "shifted.json"),
        ("run", "rand.txt", "ensemble", "--gamma", "3.513", "--epsilon", "0.5",
         "--out", "ensemble.json"),
        ("certificate", "rand.txt", "--gamma", "2", "--epsilon", "0.01",
         "--out", "certificate.json"),
        ("certificate", "rand.txt", "--variant", "shifted", "--delta", "0.37", "--gamma", "2",
         "--epsilon", "0.01", "--out", "cert_shifted.json"),
        ("oracle", "tight.txt", "--out", "oracle.json"),
        ("sweep", "--seeds", "0,1", "--csv", "sweep.csv", "--jsonl", "sweep.jsonl"),
        ("adversary", "--victim", "threshold:1", "--C", "4.9",
         "--transcript", "transcript.jsonl", "--out", "adversary.json"),
        ("verify-sequences", "--C", "4.9", "--out", "verify_sequences.json"),
    ]

    DIGESTS = {
        "adversary.json": "52587153fce4eca82cd3c4b82e83b1a87efc540118296c63f3630b344731a242",
        "cert_shifted.json": "a94fb692a41617bb241c0b97735d4773d74bab815c587e8cdfa424eb2eaed009",
        "certificate.json": "66141dfb0888c34fd8448894a1ef20324f1950dc9247ddc27f46a699b21c2b85",
        "oracle.json": "bf95eca34974d26a13dffcdd044626305a0031cfcbb8f0e01f9913698705192f",
        "deterministic.json": "f961c3ea613e1c82a5112d5f6eaa903e66b4968050ec53e4dbe65db980adb981",
        "ensemble.json": "cae9024d03b72e7f99719c86d91b5ec7ee887d4ff69d51b38326698532a09f76",
        "shifted.json": "bbf2bb2e43b4a78cac988aab39e21add3c12c353ade0cce24c6c3e56b73baee0",
        "sweep.csv": "04d5978226127ba6d40ae79dc7ee3addd7082143b0c788fe41a6bdeb5881ea03",
        "sweep.jsonl": "3db44742f626ff07a14c9ca6ae9b5d1e0375033f97742f9e893eb02792981697",
        "transcript.jsonl": "6e89ea72fb20b1ff37eb60d9938ce827d4fc86c2ee39df80a63d5b915c3628e4",
        "verify_sequences.json": "31bbcf7a5fc6b5c0bf78da1879fb07c55bee24dc25467589ad3305ad54fd2d07",
    }
    # The "transcript.jsonl" pin above dates from records that listed the
    # whole tracked optimum as ``opt_after``; it is checked over the file's
    # records rebuilt in that form.  This pins the file's own bytes.
    DELTA_TRANSCRIPT_DIGEST = "e76a8454eadb7e530dc3f4784762a14f1e16e3857307621d6933733c030dbec8"

    def test_report_digests(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        for argv in self.COMMANDS:
            assert main(list(argv)) == EXIT_OK, argv
        assert capsys.readouterr().out == ""
        digests = {}
        for path in sorted(tmp_path.iterdir()):
            if path.suffix in (".json", ".jsonl", ".csv"):
                lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
                text = "".join(l for l in lines if '"wall_time_s":' not in l)
                digests[path.name] = hashlib.sha256(text.encode()).hexdigest()
        assert digests.pop("transcript.jsonl") == self.DELTA_TRANSCRIPT_DIGEST
        lines = (tmp_path / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
        records = [json.loads(line) for line in lines]
        expanded = "".join(json.dumps(r, sort_keys=True, allow_nan=False) + "\n"
                           for r in opt_after_form(records))
        digests["transcript.jsonl"] = hashlib.sha256(expanded.encode()).hexdigest()
        assert digests == self.DIGESTS

    def test_every_report_is_json_dumps_with_indent_2(self, capsys, tmp_path, monkeypatch):
        """Each report reads back to its own bytes: the golden commands' reports,
        an adversary report whose records hold tuples, and a label file's run."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "labels.txt").write_text("n=3\n007 7 1.0\n7 alice 2.0\n")
        extra = [("adversary", "--victim", "threshold:1", "--C", "4.9",
                  "--out", "adversary_records.json"),
                 ("run", "labels.txt", "deterministic", "--gamma", "2", "--epsilon", "0.01",
                  "--out", "labels.json")]
        for argv in [*self.COMMANDS, *extra]:
            assert main(list(argv)) == EXIT_OK, argv
        reports = sorted(tmp_path.glob("*.json"))
        assert len(reports) == 10
        for path in reports:
            text = path.read_text(encoding="utf-8")
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n", path
        records = json.loads((tmp_path / "adversary_records.json").read_text())["transcript"]
        assert any(r["held_after"] for r in records)
        labels = json.loads((tmp_path / "labels.json").read_text())["vertex_labels"]
        assert labels == {"007": 0, "7": 1, "alice": 2}


def _dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True, allow_nan=False)


_NUMBERS = (st.none() | st.booleans() | st.integers(-2 ** 80, 2 ** 80)
            | st.floats(allow_nan=False, allow_infinity=False)
            | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308, 10 ** 30]))
_KEYS = st.text(st.sampled_from(', []"{}\\\n\x00é☃\U0001f600') | st.characters())
# Rows of numbers: empty, ragged, as tuples, or holding a row or a string.
_ROWS = st.lists(st.lists(_NUMBERS, max_size=4) | st.tuples(_NUMBERS, _NUMBERS, _NUMBERS)
                 | st.lists(_NUMBERS | _KEYS | st.lists(_NUMBERS, max_size=2), max_size=3),
                 max_size=5)
_TREES = st.recursive(
    _NUMBERS | _KEYS | _ROWS,
    lambda children: (st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
                      | st.dictionaries(_KEYS, children, max_size=4)),
    max_leaves=25)


def _holding(children):
    """A list, a list of one row or a dict that holds a value of ``children`` among finite ones."""
    return (st.builds(lambda a, x, b: [*a, x, *b], st.lists(_TREES, max_size=2), children,
                      st.lists(_TREES, max_size=2))
            | st.builds(lambda a, x, b: [[*a, x, *b]], st.lists(_NUMBERS, max_size=2), children,
                        st.lists(_NUMBERS, max_size=2))
            | st.builds(lambda d, k, x: {**d, k: x}, st.dictionaries(_KEYS, _TREES, max_size=2),
                        _KEYS, children))


class TestReportWriter:
    """``cli._report_text`` gives the bytes of ``json.dumps(indent=2, sort_keys=True,
    allow_nan=False)``, including rows that its one C-encoder call reflows."""

    @settings(max_examples=300, deadline=None)
    @given(_TREES)
    def test_matches_json_dumps_on_any_tree(self, value):
        assert cli._report_text(value) == _dumps(value)

    @settings(max_examples=200, deadline=None)
    @given(st.recursive(st.sampled_from([math.nan, math.inf, -math.inf]), _holding, max_leaves=4))
    def test_a_float_that_is_not_finite_at_any_depth_is_refused(self, value):
        with pytest.raises(ValueError):
            _dumps(value)
        with pytest.raises(ValueError):
            cli._report_text(value)

    def test_a_refused_report_writes_nothing(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_bytes(b"old report\n")
        with pytest.raises(ValueError):
            cli._emit({"x": [[0, 1, float("nan")]]}, str(path))
        assert path.read_bytes() == b"old report\n"
