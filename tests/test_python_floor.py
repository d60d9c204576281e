"""The oldest Python that pyproject.toml admits can still parse every source file.

`requires-python` names 3.10, so no file may use syntax newer than 3.10's
grammar (an `except*` clause, say). `ast.parse` with `feature_version`
refuses such syntax under any newer interpreter.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)
SOURCES = sorted(path for folder in ("src", "tests", "demos", "bench")
                 for path in (ROOT / folder).rglob("*.py"))


def test_pyproject_names_the_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^requires-python = "(.*)"$', text, re.MULTILINE) == [">=3.10"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_source_parses_at_the_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
