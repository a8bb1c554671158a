"""The README's code stays runnable against the package."""

from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_entry_points_import():
    # the import block under "Library entry points": a renamed or removed
    # export fails here instead of leaving the docs stale
    section = README.read_text(encoding="utf-8").split("## Library entry points", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert "import" in block
    exec(compile(block, f"{README.name} (Library entry points)", "exec"), {})
