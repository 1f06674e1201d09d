"""Every name a module of the package imports is read somewhere in it."""

import ast
from pathlib import Path

import pytest

import sensbn

PACKAGE = Path(sensbn.__file__).resolve().parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def exported(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__`` list or tuple."""
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names.update(
                e.value
                for e in getattr(node.value, "elts", ())
                if isinstance(e, ast.Constant) and isinstance(e.value, str)
            )
    return names


def unused_imports(source: str) -> list[str]:
    """The names bound by imports in ``source`` that nothing reads."""
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    read |= exported(tree)
    return [f"{name} (line {line})" for name, line in sorted(bound.items()) if name not in read]


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nprint(c)\n") == [
        "b (line 2)",
        "os (line 1)",
    ]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(PACKAGE)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
