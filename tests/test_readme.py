"""Every python code block of README.md runs as written."""

import re
from pathlib import Path

import pytest

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
