"""Source hygiene: no package module imports a name it never uses, and
no function assigns a local it never reads.

No linter is among the test dependencies, so this reads each module's
syntax tree with the standard library.  ``__init__.py`` is skipped for
imports: its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "oblishuffle"
SOURCES = sorted(PACKAGE.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_finder_flags_only_unread_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Iterable, Sequence\n"
        "def f(x: Sequence) -> None:\n"
        "    np.zeros(os.sep)\n"
    )
    assert unused_imports(source) == ["Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _own_scope(fn):
    """The nodes of function ``fn``'s body outside any nested function,
    lambda or class."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)
        ):
            todo.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """``function:name`` for each name a function binds in its own body
    (assignment, loop or ``with`` target, ``except ... as``) and never
    reads, there or in a nested scope.  ``_`` and names declared
    ``global`` or ``nonlocal`` are not locals."""
    found = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        bound, declared = set(), {"_"}
        for node in _own_scope(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                bound.add(node.id)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                declared.update(node.names)
        read = {
            node.id
            for node in ast.walk(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found += [f"{fn.name}:{name}" for name in sorted(bound - read - declared)]
    return found


def test_local_finder_flags_only_unread_locals():
    source = (
        "total = 0\n"
        "def f(xs):\n"
        "    global total\n"
        "    total = 1\n"
        "    shift, k = 3, 4\n"
        "    for i, _ in xs:\n"
        "        k += 1\n"
        "    try:\n"
        "        pass\n"
        "    except ValueError as exc:\n"
        "        pass\n"
        "    kept = [y for y in xs]\n"
        "    def g():\n"
        "        inner = kept\n"
        "        return k\n"
        "    return g\n"
    )
    assert unused_locals(source) == ["f:exc", "f:i", "f:shift", "g:inner"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_locals(path):
    assert unused_locals(path.read_text()) == []
