"""numpy is loaded only by the sign search of `decorate`.

Each check runs in a fresh interpreter, so that no module imported by
the rest of the suite can hide an eager import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import virodecor

SRC = str(Path(virodecor.__file__).resolve().parents[1])

# Drives the CLI through CliRunner in a scratch directory given as argv[2].
# "commands" runs every command that needs no sign search and reports
# whether numpy was loaded after each; "decorate" runs the sign-search
# decorate of snd(6, 3) and reports its stdout, with numpy imported first
# when argv[3] is "numpy-first".
DRIVER = r"""
import json, os, sys
if sys.argv[3:] == ["numpy-first"]:
    import numpy
from click.testing import CliRunner
from virodecor.cli import main

os.chdir(sys.argv[2])
runner = CliRunner()


def run(*args):
    result = runner.invoke(main, list(args))
    return {"args": list(args), "exit": result.exit_code,
            "stdout": result.stdout, "numpy": "numpy" in sys.modules}


if sys.argv[1] == "commands":
    steps = [
        run("family", "cross", "--d", "3", "--out", "cross"),
        run("family", "snd", "--n", "6", "--d", "3", "--out", "snd"),
        run("check", "--complex", "cross/complex.json", "--bipartite",
            "--balanced"),
        run("check", "--complex", "cross/complex.json",
            "--points", "cross/points.json",
            "--heights", "cross/heights.json", "--regular", "--unimodular"),
        run("decorate", "--complex", "cross/complex.json",
            "--out", "cross/C.json"),
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


def test_importing_the_package_and_cli_loads_no_numpy(tmp_path):
    out = _python("-c", "import sys, virodecor, virodecor.cli; "
                  "print('numpy' in sys.modules)", cwd=tmp_path)
    assert out == "False\n"


def test_only_the_completion_search_loads_numpy(tmp_path):
    for step in _drive(tmp_path, "commands"):
        assert step["exit"] == 0, step
        assert not step["numpy"], step["args"]
    lazy = _drive(tmp_path, "decorate")
    eager = _drive(tmp_path, "decorate", "numpy-first")
    assert [s["exit"] for s in lazy] == [0, 0]
    assert not lazy[0]["numpy"] and lazy[1]["numpy"]
    assert "decoration found via sign search" in lazy[1]["stdout"]
    assert lazy[1]["stdout"] == eager[1]["stdout"]


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
