"""The benchmark's reference answers share no code with the package.

perfbench/oracles.py checks every answer the benchmark gets from
virodecor, so it must compute them without virodecor: its own docstring
says so, and this test reads its imports to hold it to that.
"""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parents[1] / "perfbench" / "oracles.py"


def imported_modules(tree):
    """Every module named by an import statement, with its relative level,
    and every name that a call to __import__ or import_module passes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield 0, alias.name
        elif isinstance(node, ast.ImportFrom):
            # "from . import x" names no module: report what it imports
            yield node.level, node.module or ", ".join(
                alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            func = node.func
            name = getattr(func, "id", getattr(func, "attr", None))
            if name in ("__import__", "import_module"):
                yield 0, ast.unparse(node.args[0]) if node.args else ""


def test_oracles_import_nothing_from_virodecor():
    modules = list(imported_modules(ast.parse(ORACLES.read_text())))
    assert modules, "no imports found: the parse read the wrong file"
    for level, name in modules:
        assert level == 0, f"relative import of {name!r}"
        assert "virodecor" not in name, name


def test_the_import_reader_sees_every_form():
    source = ("import virodecor.cli\n"
              "from virodecor import families\n"
              "from . import workloads\n"
              "importlib.import_module('virodecor')\n")
    assert list(imported_modules(ast.parse(source))) == [
        (0, "virodecor.cli"), (0, "virodecor"), (1, "workloads"),
        (0, "'virodecor'")]
