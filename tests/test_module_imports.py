"""Deleted code leaves no trace in the package's imports and exports.

A module that imports a name it never uses keeps a deleted caller's
dependency alive, and a name in virodecor.__all__ that no longer exists
breaks `from virodecor import *`.  These tests read each module's source
to find the first and import the package to find the second.  The
package resolves some exports on first access, through its lazy table:
an entry of the table that is not exported, or an export that is
neither imported nor in the table, is stale too.
"""

import ast
import json
import os
import subprocess
import sys
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


def stale_lazy_entries(bound, lazy, exported):
    """The lazy table's entries that are not exported or are bound at
    import anyway, and the exports that neither is bound nor in the
    table, given the names a fresh import binds."""
    bound, lazy, exported = set(bound), set(lazy), set(exported)
    return sorted((lazy - exported) | (lazy & bound)
                  | (exported - bound - lazy))


# a fresh import's bound names, lazy table, exports and dir(), and whether
# `from virodecor import *` binds every export
FRESH = r"""
import json
import virodecor
bound = sorted(vars(virodecor))
namespace = {}
exec("from virodecor import *", namespace)
print(json.dumps({"bound": bound, "lazy": sorted(virodecor._LAZY),
                  "all": virodecor.__all__, "dir": dir(virodecor),
                  "star": sorted(set(namespace) - {"__builtins__"})}))
"""


def fresh_import():
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run([sys.executable, "-c", FRESH], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_no_module_imports_a_name_it_never_uses():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) > 5, "no modules found: the glob read the wrong path"
    for path in sources:
        assert unused_imports(ast.parse(path.read_text())) == [], path.name


def test_every_exported_name_resolves():
    assert virodecor.__all__
    assert unresolved_exports(virodecor) == []


def test_the_lazy_table_names_the_lazy_exports():
    fresh = fresh_import()
    assert fresh["lazy"]
    assert stale_lazy_entries(fresh["bound"], fresh["lazy"],
                              fresh["all"]) == []
    assert set(fresh["all"]) <= set(fresh["dir"])
    assert fresh["star"] == sorted(fresh["all"])


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
    # a table entry no longer exported, one also imported eagerly, and an
    # export that lost its table entry
    assert stale_lazy_entries(
        bound=["solve", "decorate"], lazy=["decorate", "render_system"],
        exported=["solve", "decorate", "regularity_check"]) == [
            "decorate", "regularity_check", "render_system"]
