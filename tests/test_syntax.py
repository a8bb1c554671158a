"""The package's sources parse as the oldest Python that pyproject.toml admits."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_parses_as_python_3_10(path):
    # grammar only: library behaviour that differs between versions (such
    # as the syntax ``re`` accepts) is not checked
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
