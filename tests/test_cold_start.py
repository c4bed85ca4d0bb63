"""numpy is loaded only by the sign search of `decorate`, and mpmath only by
the commands that need floating point.

Each check runs in a fresh interpreter, so that no module imported by
the rest of the suite can hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import virodecor

SRC = str(Path(virodecor.__file__).resolve().parents[1])

# the floating-point side: what an exact command must not load
FLOATING = ["mpmath", "virodecor.completion", "virodecor.numerics",
            "virodecor.precision", "virodecor.viro"]

# Drives the CLI through CliRunner in a scratch directory given as argv[2],
# after importing the modules named in argv[3:].  "commands" runs every
# command that needs no sign search, exact ones first, and reports after
# each which of numpy, mpmath and the package's modules are loaded;
# "decorate" runs the sign-search decorate of snd(6, 3).
DRIVER = r"""
import importlib, json, os, sys
for name in sys.argv[3:]:
    importlib.import_module(name)
from click.testing import CliRunner
from virodecor.cli import main

os.chdir(sys.argv[2])
runner = CliRunner()


def loaded():
    return sorted(m for m in sys.modules if m in ("mpmath", "numpy")
                  or m.startswith("virodecor."))


def run(*args):
    result = runner.invoke(main, list(args))
    return {"args": list(args), "exit": result.exit_code,
            "stdout": result.stdout, "loaded": loaded()}


def coloring_decoration(directory):
    # the decoration of the complex's balanced coloring, by exact code only
    from virodecor.complexes import (
        SimplicialComplex, balanced_coloring, decoration_from_coloring)
    with open(f"{directory}/complex.json") as f:
        K = SimplicialComplex.from_json(f.read())
    C = decoration_from_coloring(balanced_coloring(K), K.n_vertices,
                                 K.dimension)
    with open(f"{directory}/C0.json", "w") as f:
        f.write(C.to_json())


if sys.argv[1] == "commands":
    steps = [run("family", "cross", "--d", "3", "--out", "cross"),
             run("family", "snd", "--n", "6", "--d", "3", "--out", "snd")]
    coloring_decoration("cross")
    steps += [
        run("check", "--complex", "cross/complex.json", "--bipartite",
            "--balanced"),
        run("check", "--complex", "cross/complex.json",
            "--matrix", "cross/C0.json", "--points", "cross/points.json",
            "--bipartite", "--balanced", "--decorated", "--unimodular"),
        run("decorate", "--complex", "cross/complex.json",
            "--out", "cross/C.json"),
        run("check", "--complex", "cross/complex.json",
            "--points", "cross/points.json",
            "--heights", "cross/heights.json", "--regular", "--unimodular"),
        run("viro", "--points", "cross/points.json",
            "--matrix", "cross/C.json", "--heights", "cross/heights.json",
            "--out", "cross/S.json"),
        run("count", "--system", "cross/S.json",
            "--complex", "cross/complex.json", "--t", "1/1000"),
        run("verify-paper", "ex3.6"),
    ]
else:
    steps = [run("family", "snd", "--n", "6", "--d", "3", "--out", "snd"),
             run("decorate", "--complex", "snd/complex.json", "--seed", "0")]
print(json.dumps(steps))
"""

# the steps of "commands" that are exact, and those after the decorate
EXACT_STEPS, FLOATING_STEPS = slice(0, 4), slice(5, None)


def _python(*args, cwd):
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


def _drive(tmp_path, *args):
    work = tmp_path / "_".join(args)
    work.mkdir()
    return json.loads(_python("-c", DRIVER, args[0], str(work), *args[1:],
                              cwd=tmp_path))


def _floating(step):
    return [m for m in FLOATING if m in step["loaded"]]


@pytest.fixture(scope="module")
def commands(tmp_path_factory):
    """The "commands" steps of one fresh interpreter."""
    return _drive(tmp_path_factory.mktemp("cold"), "commands")


def test_importing_the_package_and_cli_loads_no_numpy(tmp_path):
    out = _python("-c", "import sys, virodecor, virodecor.cli; "
                  "print('numpy' in sys.modules)", cwd=tmp_path)
    assert out == "False\n"


def test_importing_the_package_and_cli_loads_no_floating_point(tmp_path):
    out = _python("-c", "import json, sys, virodecor, virodecor.cli; "
                  f"print(json.dumps([m for m in {FLOATING!r} "
                  "if m in sys.modules]))", cwd=tmp_path)
    assert json.loads(out) == []


def test_only_the_completion_search_loads_numpy(tmp_path, commands):
    for step in commands:
        assert step["exit"] == 0, step
        assert "numpy" not in step["loaded"], step["args"]
    lazy = _drive(tmp_path, "decorate")
    eager = _drive(tmp_path, "decorate", "numpy")
    assert [s["exit"] for s in lazy] == [0, 0]
    assert "numpy" not in lazy[0]["loaded"]
    assert "numpy" in lazy[1]["loaded"]
    assert "decoration found via sign search" in lazy[1]["stdout"]
    assert lazy[1]["stdout"] == eager[1]["stdout"]


def test_exact_commands_load_no_floating_point(commands):
    """family and the exact checks load neither mpmath nor the numerics;
    decorate on the coloring path loads completion and nothing else."""
    for step in commands[EXACT_STEPS]:
        assert step["exit"] == 0, step
        assert _floating(step) == [], step["args"]
    decorate = commands[EXACT_STEPS.stop]
    assert decorate["args"][0] == "decorate"
    assert "decoration found via coloring" in decorate["stdout"]
    assert _floating(decorate) == ["virodecor.completion"]


def test_the_floating_point_commands_print_what_an_eager_import_prints(
        tmp_path, commands):
    lazy = commands
    eager = _drive(tmp_path, "commands", "virodecor.numerics")
    assert [s["args"][0] for s in lazy[FLOATING_STEPS]] == [
        "check", "viro", "count", "verify-paper"]
    for step, first in zip(lazy[FLOATING_STEPS], eager[FLOATING_STEPS]):
        assert step["exit"] == 0, step
        assert step["stdout"] == first["stdout"], step["args"]
    assert [s["stdout"] for s in lazy] == [s["stdout"] for s in eager]
    # check --regular loads viro, and only a count loads the numerics
    regular, *_, last = lazy[FLOATING_STEPS]
    assert _floating(regular) == [m for m in FLOATING
                                  if m != "virodecor.numerics"]
    assert _floating(last) == FLOATING


# decorate of a 6-triangle Moebius band, from the library and the CLI: its
# dual graph is bipartite, but its ridge signs conflict
OBSTRUCTED = r"""
import json, sys
from click.testing import CliRunner
from virodecor import SimplicialComplex, decorate
from virodecor.cli import main

K = SimplicialComplex.from_facets(2, 6, [
    (1, 2, 4), (2, 4, 5), (2, 3, 5), (3, 5, 6), (3, 4, 6), (1, 4, 6)])
with open("K.json", "w") as f:
    f.write(K.to_json())
outcome = decorate(K)
result = CliRunner().invoke(main, ["decorate", "--complex", "K.json"])
print(json.dumps({"method": outcome.method,
                  "diagnostics": outcome.diagnostics,
                  "exit": result.exit_code, "stdout": result.stdout,
                  "numpy": "numpy" in sys.modules}))
"""


def test_a_ridge_sign_conflict_is_reported_without_numpy(tmp_path):
    out = json.loads(_python("-c", OBSTRUCTED, cwd=tmp_path))
    diagnostics = {"reason": "ridge signs conflict between adjacent facets",
                   "facets": [[2, 3, 5], [3, 5, 6]]}
    assert out["method"] == "none"
    assert out["diagnostics"] == diagnostics
    assert out["exit"] == 1
    assert json.loads(out["stdout"]) == {"found": False,
                                         "diagnostics": diagnostics}
    assert not out["numpy"]
