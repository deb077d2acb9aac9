"""Every Python file parses as Python 3.10, the oldest version that
``requires-python = ">=3.10"`` in pyproject.toml admits.

``ast.parse(..., feature_version=(3, 10))`` rejects newer grammar, such as
``except*`` or ``type X = ...``, on a newer interpreter. It checks syntax
only: a call to a newer standard-library API (``BaseException.add_note``,
``tomllib``) parses fine and is not caught here.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src/refscore", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def test_every_file_parses_as_python_3_10():
    assert SOURCES
    failures = []
    for path in SOURCES:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failures == []


def test_newer_grammar_is_rejected():
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
