"""Mutation checks: each mutant breaks one check of ``src/semimatch``, and
the tests named for its group must fail against it.

Usage, from the root of a checkout::

    python tests/mutants.py certificate
    python tests/mutants.py adversary
    python tests/mutants.py pass
    python tests/mutants.py report
    python tests/mutants.py parse

Each mutant is applied to its own copy of ``src``, which must be the
``semimatch`` that gets imported, and pytest must exit 1 (failed tests, not
an error) on it.  A mutant's old text must occur exactly once in its module.
Exits 1 when any mutant survives or cannot be applied.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# Each group: the test files it runs, and its mutants as (module, old text, new text).
GROUPS = {
    "certificate": (["tests/test_certificate.py"], [
        ("certificate.py", "le(self.opt_weight, g * self.opt_rounded)",
         "le(self.opt_weight, g * g * self.opt_rounded)"),
        ("certificate.py", "(2.0 * g / (g - 1.0))", "(2.0 * g * g / (g - 1.0))"),
        ("certificate.py", "le(self.opt_rounded, self.total_associated_weight)",
         "le(self.opt_rounded, g * self.total_associated_weight)"),
        ("certificate.py", "lo is None or i < lo:", "lo is None or i < lo - 1:"),
        # The slack rule refuses the bound itself.
        ("certificate.py", "return a <= b + REL_TOL", "return a < b + REL_TOL"),
    ]),
    "adversary": (["tests/test_adversary.py", "tests/test_preemptive.py",
                   "tests/test_cli.py::TestAdversary"], [
        ("adversary.py", "if not isinstance(held, Matching):", "if False:"),
        ("adversary.py", "if (given := presented.get(key)) is not e and given != e:",
         "if False:"),
        ("adversary.py", "if key != new and key not in held_keys:", "if False:"),
        ("preemptive.py", "if key in self._presented:", "if False:"),
        # The game takes every hold but the first for the one it checked last.
        ("adversary.py", "if held is previous and transcript:", "if True and transcript:"),
        # Each victim returns the hold it built first, whatever on_edge does.
        ("preemptive.py", "self._cover[edge.v] = edge\n            self._matching = None",
         "self._cover[edge.v] = edge"),
        ("preemptive.py", "if self._held.add(edge):\n            self._matching = None",
         "self._held.add(edge)"),
        # The transcript writer reuses the first hold's text for every record,
        # or writes no evicted row.
        ("cli.py", 'if r["held_after"] != last:', "if last is None:"),
        ("cli.py", '"opt_removed": [{_rows_text(removed) if removed else ""}]',
         '"opt_removed": []'),
        # An offer that changes nothing hands on the previous record's lists when they
        # are empty too: the same text, but two records share list objects.
        ("adversary.py", 'transcript[-1]["opt_added"], transcript[-1]["opt_removed"] = [], []',
         'transcript[-1]["opt_added"], transcript[-1]["opt_removed"] = ('
         'transcript[-2]["opt_added"], transcript[-2]["opt_removed"]) if len(transcript) > 1 '
         'and transcript[-2]["opt_added"] == transcript[-2]["opt_removed"] == [] else ([], [])'),
        # The threshold victim sees a lone blocker only at the offered edge's u end.
        ("preemptive.py", "if at_u is None or at_u is at_v:", "if at_u is at_v:"),
    ]),
    "pass": (["tests/test_bucket.py"], [
        # A w_max or threshold that reaches the floor above its cell moves the window.
        ("bucket.py", "if w >= top_ceil or threshold >= bottom_ceil:",
         "if w > top_ceil or threshold >= bottom_ceil:"),
        ("bucket.py", "if w >= top_ceil or threshold >= bottom_ceil:",
         "if w >= top_ceil or threshold > bottom_ceil:"),
        # The threshold's trigger read one position low, after a move and on entry.
        ("bucket.py", "cover = self.cover\n                    top_ceil, bottom_ceil = "
         "floors[stop], floors[start + q]",
         "cover = self.cover\n                    top_ceil, bottom_ceil = "
         "floors[stop], floors[start + q - 1]"),
        ("bucket.py", "floors[start + q]\n        for u, v, w, edge in rows:",
         "floors[start + q - 1]\n        for u, v, w, edge in rows:"),
        # The rebase keeps each vertex's bits unshifted.
        ("bucket.py", "{x: bits >> shift for x,", "{x: bits for x,"),
        # The prune leaves the top position's edges.
        ("bucket.py", "min(alive, self.top + 1)", "min(alive, self.top)"),
        # The threshold falls by an ulp where 2*epsilon*w_max first overflows.
        ("bucket.py", "max(self.w_max / n * (2.0 * self.epsilon), sys.float_info.max / n)",
         "self.w_max / n * (2.0 * self.epsilon)"),
    ]),
    "report": (["tests/test_cli.py"], [
        # The report writer leaves a dict's keys in insertion order.
        ("cli.py", "for k in sorted(value)]", "for k in value]"),
        # It reflows a list of rows one level out, at the list's own indent.
        ("cli.py", 'row = inner + "  "', "row, inner = inner, indent"),
        # It writes a float that is not finite as Python spells it.
        ("cli.py", "float.__repr__(x) if math.isfinite(x) else _LINE_ENCODER.encode(x)",
         "float.__repr__(x)"),
    ]),
    "parse": (["tests/test_core.py", "tests/test_bucket.py"], [
        # A weight that float() refuses is reported before its line's bad byte.
        ("core.py", "if not raw.isascii():\n                        "
         "_check_utf8(raw, count + other + 1)\n                    raise", "raise"),
        # A new token is taken without a look at its line's bytes.
        ("core.py", "lineno = count + other + 1\n                    if not raw.isascii():\n"
         "                        _check_utf8(raw, lineno)\n                    if values",
         "lineno = count + other + 1\n                    if values"),
        # A blank or comment line is left out of the count of other lines.
        ("core.py", "other += 1\n                    if not parts or parts[0][0] == \"#\":\n"
         "                        continue",
         "if not parts or parts[0][0] == \"#\":\n                        continue\n"
         "                    other += 1"),
        # A repeated pair is held at the line before its own.
        ("core.py", "elif repeated is None:\n                            "
         "repeated = (count + other + 1,",
         "elif repeated is None:\n                            repeated = (count + other,"),
        # A copy's process leaves its edge out of edges_processed.
        ("bucket.py", "self._grid.edges_processed += 1", "pass"),
    ]),
}


def survivors(tests: list[str], mutants: list[tuple[str, str, str]]) -> list[str]:
    """Apply each mutant to a fresh copy of src and run the tests; return the problems."""
    problems = []
    for module, old, new in mutants:
        name = f"{module}: {old!r} -> {new!r}"
        with tempfile.TemporaryDirectory() as work:
            copy = pathlib.Path(work, "src")
            shutil.copytree(ROOT / "src", copy, ignore=shutil.ignore_patterns("__pycache__"))
            target = copy / "semimatch" / module
            text = target.read_text()
            if text.count(old) != 1:
                problems.append(f"{name}: the old text is found {text.count(old)} times, not once")
                continue
            target.write_text(text.replace(old, new))
            env = dict(os.environ, PYTHONPATH=str(copy))
            imported = subprocess.run(
                [sys.executable, "-c", "import semimatch; print(semimatch.__file__)"],
                env=env, capture_output=True, text=True, check=True).stdout.strip()
            if pathlib.Path(imported).resolve().parent != (copy / "semimatch").resolve():
                problems.append(f"{name}: imported {imported}, not the mutated copy")
                continue
            status = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                env=env, cwd=ROOT).returncode
            print(f"{name}: pytest exit {status}", flush=True)
            if status != 1:
                problems.append(f"{name} is not killed (pytest exit {status})")
    return problems


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in GROUPS:
        sys.exit(f"usage: python {sys.argv[0]} {{{'|'.join(GROUPS)}}}")
    problems = survivors(*GROUPS[sys.argv[1]])
    print("\n".join(problems) or "every mutant is killed")
    sys.exit(bool(problems))
