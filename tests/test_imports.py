"""Every name a module of the package imports is read somewhere in it, and
every private name a module defines at its top level is read somewhere in
the package."""

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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """The private names (``_foo``, not dunders) that the top level of a
    module binds by a def, a class or an assignment, by first line."""
    found: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found.setdefault(name, node.lineno)
    return found


def read_names(tree: ast.Module) -> set[str]:
    """The names a module reads: loaded names, attribute names, names it
    imports from another module and the entries of its ``__all__``."""
    names = exported(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_private_names(sources: dict[str, str]) -> list[str]:
    """The top-level private names of the modules ``sources`` (by module
    name) that none of the modules reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return [
        f"{module}: {name} (line {line})"
        for module, tree in trees.items()
        for name, line in sorted(private_definitions(tree).items())
        if name not in read
    ]


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


def test_the_scan_finds_an_unused_private_name():
    planted = {
        "a.py": (
            "_kept = 1\n_lost: int = 2\n_other = 3\n"
            "def _helper():\n    return _kept\n"
            "class _Unhooked:\n    pass\n"
            "def public():\n    _local = 4\n"
        ),
        "b.py": "from a import _helper\nimport a\nprint(a._other)\n",
    }
    assert unused_private_names(planted) == ["a.py: _Unhooked (line 6)", "a.py: _lost (line 2)"]
    planted["b.py"] += "x = a._Unhooked\n"
    assert unused_private_names(planted) == ["a.py: _lost (line 2)"]


def test_no_unused_private_names():
    sources = {str(p.relative_to(PACKAGE)): p.read_text() for p in MODULES}
    assert unused_private_names(sources) == []
