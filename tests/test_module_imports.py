"""Deleted code leaves no trace in the package's imports and exports.

A module that imports a name it never uses keeps a deleted caller's
dependency alive, and a name in virodecor.__all__ that no longer exists
breaks `from virodecor import *`.  These tests read each module's source
to find the first and import the package to find the second.
"""

import ast
import types
from pathlib import Path

import virodecor

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "virodecor"


def imported_names(tree):
    """(bound name, line) of every import, at any depth, but __future__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    """Every name the module reads in its code or lists in __all__."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            yield from (e.value for e in node.value.elts)


def unused_imports(tree):
    used = set(used_names(tree))
    return [(name, line) for name, line in imported_names(tree)
            if name not in used]


def unresolved_exports(module):
    return [name for name in module.__all__ if not hasattr(module, name)]


def test_no_module_imports_a_name_it_never_uses():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5, "no modules found: the glob read the wrong path"
    for path in sources:
        assert unused_imports(ast.parse(path.read_text())) == [], path.name


def test_every_exported_name_resolves():
    assert virodecor.__all__
    assert unresolved_exports(virodecor) == []


def test_the_readers_flag_a_stale_import_and_a_stale_export():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from .exactlinalg import prefix_trie, solve as s\n"
              "__all__ = ['Fraction']\n"
              "def f(x: Fraction) -> None:\n"
              "    return s(x)\n"
              "from fractions import Fraction\n")
    assert unused_imports(ast.parse(source)) == [("os", 2),
                                                 ("prefix_trie", 3)]
    stale = types.ModuleType("stale")
    stale.__all__ = ["solve", "truncated_solution"]
    stale.solve = print
    assert unresolved_exports(stale) == ["truncated_solution"]
