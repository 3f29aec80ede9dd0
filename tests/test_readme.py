"""Every ``semimatch`` command in the README's CLI block runs and exits 0."""

import re
import shlex
from pathlib import Path

from semimatch.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def cli_block_commands() -> list[list[str]]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1]
    block = re.search(r"^```\n(.*?)^```", section, re.DOTALL | re.MULTILINE).group(1)
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("semimatch ")]


def test_cli_block_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = cli_block_commands()
    assert len(commands) >= 9
    for argv in commands:
        assert main(argv) == EXIT_OK, argv
        capsys.readouterr()
