"""Source hygiene: no package module imports a name it never uses, no
function assigns a local it never reads, and every function and method
is named somewhere in the package, so the package carries no helper
that only the tests call.

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


def _named(root):
    """Every name ``root`` reads or writes as a ``Name`` or an attribute."""
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def unnamed_definitions(sources: list[str]) -> list[str]:
    """``function`` or ``Class.method`` (``outer.inner`` when nested) for
    each function and non-dunder method defined in ``sources`` whose name
    no ``Name`` or ``Attribute`` outside its own definition carries.
    Top-level names listed in an ``__all__`` are exported, so they are
    not reported.

    A definition is matched by its name alone, not by its owner, so one
    that shares its name with another in use is not reported.  So
    ``LayoutPlan.export_csv``, which only the tests called, was never
    reported while it was in the package: ``cli`` calls
    ``Trace.export_csv``.
    """
    trees = [ast.parse(source) for source in sources]
    exported = {
        name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for name in ast.literal_eval(node.value)
    }
    uses: dict[str, int] = {}
    for tree in trees:
        for name in _named(tree):
            uses[name] = uses.get(name, 0) + 1
    found = []

    def visit(body, prefix: str) -> None:
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{prefix}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                own = sum(1 for n in _named(node) if n == name)
                if not (
                    name.startswith("__") and name.endswith("__")
                    or not prefix and name in exported
                    or uses.get(name, 0) > own
                ):
                    found.append(prefix + name)
                visit(node.body, f"{prefix}{name}.")

    for tree in trees:
        visit(tree.body, "")
    return sorted(found)


def test_definition_finder_flags_only_unnamed_definitions():
    package = (
        "__all__ = ['public']\n"
        "def public():\n"
        "    return helper() + other.lookup\n"
        "def helper():\n"
        "    return 1\n"
        "def orphan(n):\n"
        "    return orphan(n - 1)\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.used()\n"
        "    def used(self):\n"
        "        def inner():\n"
        "            pass\n"
        "        return C\n"
        "    def unused(self):\n"
        "        pass\n"
        "    def public(self):\n"
        "        pass\n"
    )
    other = (
        "class D:\n"
        "    @property\n"
        "    def lookup(self):\n"
        "        return self.unused\n"
        "    def helper(self):\n"
        "        pass\n"
    )
    assert unnamed_definitions([package, other]) == [
        "C.public", "C.used.inner", "orphan"]
    assert unnamed_definitions([package]) == [
        "C.public", "C.unused", "C.used.inner", "orphan"]


# named by no module of the package, each kept on purpose
UNNAMED = [
    # wrapped by name in perfbench/tracing.py; leaves with ROADMAP item 1
    "CacheSim.access",
    # wrapped by name in perfbench/tracing.py; leaves with ROADMAP item 1
    "CacheSim.unpin_lines",
    # wrapped by name in perfbench/tracing.py; leaves with ROADMAP item 1
    "CacheSim.writeback_line",
]


def test_every_definition_is_named_in_the_package():
    sources = [path.read_text() for path in SOURCES]
    assert unnamed_definitions(sources) == UNNAMED
