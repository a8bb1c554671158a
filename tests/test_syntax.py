"""The package's sources, its tests and the benchmark harness parse as the
oldest Python that pyproject.toml admits, and every parameter the package
takes is read."""

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


class TestUnreadParameters:
    """A parameter that its function never reads is a knob that does
    nothing."""

    # both are called by the benchmark harness, which keeps them until it
    # moves to ``MlpTower.item_scores`` and drops ``training=False``
    ALLOWED = {"score_items_for_embedding(cfg)", "ForwardPass.__init__(training)"}

    @staticmethod
    def unread_parameters(source: str) -> list[str]:
        """``function(parameter)`` for each parameter of a ``def`` that its
        body never reads, methods qualified by their class; ``self``,
        ``cls`` and ``_``-prefixed names are skipped.  A nested ``def`` or
        ``lambda`` that reads it counts, as does an augmented assignment."""
        found = []

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
                name = child.name if is_def or isinstance(child, ast.ClassDef) else None
                if is_def:
                    a = child.args
                    params = [p.arg for p in a.posonlyargs + a.args + [a.vararg] + a.kwonlyargs + [a.kwarg] if p]
                    read = {n.id for stmt in child.body for n in ast.walk(stmt)
                            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                    read |= {n.target.id for stmt in child.body for n in ast.walk(stmt)
                             if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
                    found.extend(f"{prefix}{name}({p})" for p in params
                                 if p not in read and p not in ("self", "cls") and not p.startswith("_"))
                visit(child, f"{prefix}{name}." if name else prefix)

        visit(ast.parse(source), "")
        return found

    def test_the_guard_sees_each_kind_of_parameter(self):
        source = ("def f(a, /, b, *c, d, **e):\n    return None\n"
                  "def g(self, cls, _x, y=1):\n    return [lambda: y]\n"
                  "class K:\n    def m(self, z):\n        z += 1\n    def n(self, w):\n        w = 2\n"
                  "try:\n    pass\nexcept E as exc:\n    def h(t):\n        pass\n"
                  "def outer(q):\n    def inner(r):\n        return q\n")
        assert self.unread_parameters(source) == ["f(a)", "f(b)", "f(c)", "f(d)", "f(e)", "K.n(w)", "h(t)",
                                                  "outer.inner(r)"]

    def test_the_package_reads_every_parameter(self):
        found = []
        for path in sorted((ROOT / "src" / "hypergroup").glob("*.py")):
            found += self.unread_parameters(path.read_text(encoding="utf-8"))
        unread, stale = sorted(set(found) - self.ALLOWED), sorted(self.ALLOWED - set(found))
        assert not unread, f"parameters that nothing reads: {unread}"
        assert not stale, f"allowed entries that are read again, to drop from ALLOWED: {stale}"
