"""Every python code block and command line of README.md runs as written."""

import re
import shlex
from pathlib import Path

import pytest

from manyworlds.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
# first line of each block -> its code, padded so tracebacks name README lines
BLOCKS = {
    TEXT.count("\n", 0, m.start(1)) + 1: "\n" * TEXT.count("\n", 0, m.start(1)) + m.group(1)
    for m in re.finditer(r"^```python\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
}


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("line", BLOCKS, ids=lambda line: f"line-{line}")
def test_block_runs(line, capsys):
    exec(compile(BLOCKS[line], str(README), "exec"), {"__name__": "__readme__"})


# README line -> each `manyworlds ...` line of the "Command line" section's sh block
SH = re.search(r"^## Command line\n.*?^```sh\n(.*?)^```", TEXT, flags=re.MULTILINE | re.DOTALL)
COMMANDS = {
    TEXT.count("\n", 0, SH.start(1)) + 1 + n: line
    for n, line in enumerate(SH.group(1).splitlines()) if line.startswith("manyworlds ")
}


def test_readme_has_command_lines():
    assert COMMANDS


@pytest.mark.parametrize("line", COMMANDS, ids=lambda line: f"line-{line}")
def test_command_line_runs(line, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # where a relative --out lands
    assert main(shlex.split(COMMANDS[line])[1:]) == 0
