"""Every Python file of the repository parses as the oldest Python that
pyproject.toml declares.

The suite usually runs on a newer interpreter, so this pins the syntax
without the old one: ``ast.parse`` with ``feature_version`` refuses grammar
newer than that release, such as ``except*``.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = tuple(int(part) for part in re.search(
    r'requires-python = ">=(\d+)\.(\d+)"', (ROOT / "pyproject.toml").read_text()).groups())
FILES = sorted(p for d in ("src", "tests", "scripts", "perfbench") for p in (ROOT / d).rglob("*.py"))


def test_the_floor_is_python_3_10():
    assert FLOOR == (3, 10)


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_the_oldest_declared_python(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)


def test_the_check_finds_newer_syntax():
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    if sys.version_info >= (3, 11):  # the release that brought except*
        ast.parse(source)
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=FLOOR)
