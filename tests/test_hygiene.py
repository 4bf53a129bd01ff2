"""Source checks that no unit test would catch.

A second ``def`` or ``class`` of one name in the same module or class body
silently replaces the first, so the first never runs; tests shadowed this
way pass by not existing.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(p for d in ("src/psrank", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
# pyproject's requires-python
FEATURE_VERSION = (3, 10)


def redefined_names(tree: ast.Module) -> list[str]:
    """``scope.name`` for every function or class defined twice in one module or class body."""
    found = []
    scopes = [("<module>", tree)] + [(n.name, n) for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    for scope, node in scopes:
        names = Counter(child.name for child in node.body
                        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)))
        found += [f"{scope}.{name}" for name, count in names.items() if count > 1]
    return found


def test_sources_found():
    assert len(SOURCES) > 20


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_name_defined_twice_in_one_body(path):
    tree = ast.parse(path.read_text(), filename=str(path), feature_version=FEATURE_VERSION)
    assert redefined_names(tree) == []


def test_redefinition_is_caught():
    tree = ast.parse("def f(): pass\nclass A:\n    def g(self): pass\n    def g(self): pass\ndef f(): pass\n")
    assert sorted(redefined_names(tree)) == ["<module>.f", "A.g"]
