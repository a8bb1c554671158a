"""The package's sources, its tests and the benchmark harness parse as the
oldest Python that pyproject.toml admits."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# the harness is only read here, never written
TREES = ("src", "tests", "perfbench")


@pytest.mark.parametrize("path", sorted(p for tree in TREES for p in (ROOT / tree).rglob("*.py")),
                         ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    # grammar only: library behaviour that differs between versions (such
    # as the syntax ``re`` accepts) is not checked
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
