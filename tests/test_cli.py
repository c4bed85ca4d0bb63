"""CLI adapters: JSON parity with the library and the exit-code contract."""

import gc
import json
import tracemalloc
from fractions import Fraction

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from virodecor import catalog
from virodecor.cli import main
from virodecor.exactlinalg import RationalMatrix
from virodecor.families import snd_subcomplex
from virodecor.numerics import certified_positive_count
from virodecor.viro import build_viro_system


@pytest.fixture()
def runner():
    return CliRunner()


def test_family_snd_outputs_match_library(runner, tmp_path):
    result = runner.invoke(main, ["family", "snd", "--n", "6", "--d", "3",
                                  "--out", str(tmp_path)])
    assert result.exit_code == 0
    written = (tmp_path / "complex.json").read_text()
    assert written == snd_subcomplex(6, 3).to_json() + "\n"


def test_family_order_requires_poset(runner):
    result = runner.invoke(main, ["family", "order"])
    assert result.exit_code == 2


def test_family_cyclic_missing_params(runner):
    result = runner.invoke(main, ["family", "cyclic", "--n", "6"])
    assert result.exit_code == 2


@pytest.mark.parametrize("d", ["0", "-1"])
def test_family_cross_bad_dimension_is_a_usage_error(runner, tmp_path, d):
    result = runner.invoke(main, ["family", "cross", "--d", d,
                                  "--out", str(tmp_path)])
    assert result.exit_code == 2
    assert result.output == "error: d >= 1 required\n"


def test_check_exit_code_on_failed_check(runner, tmp_path):
    p = tmp_path / "K.json"
    p.write_text(snd_subcomplex(6, 3).to_json())
    result = runner.invoke(main, ["check", "--complex", str(p),
                                  "--bipartite", "--balanced"])
    assert result.exit_code == 1
    assert "bipartite: pass" in result.output
    assert "balanced: FAIL" in result.output


def test_check_requires_some_flag(runner, tmp_path):
    p = tmp_path / "K.json"
    p.write_text(snd_subcomplex(6, 3).to_json())
    result = runner.invoke(main, ["check", "--complex", str(p)])
    assert result.exit_code == 2


def test_check_decorated_json_report(runner, tmp_path):
    f = catalog.snd63_fixture()
    kp = tmp_path / "K.json"
    mp_ = tmp_path / "C.json"
    kp.write_text(f.complex.to_json())
    mp_.write_text(f.coefficients.to_json())
    result = runner.invoke(main, ["check", "--complex", str(kp),
                                  "--matrix", str(mp_), "--decorated",
                                  "--format", "json"])
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "decorated": {"ok": True, "failing_facets": []}
    }


def test_decorate_non_bipartite_reports_obstruction(runner, tmp_path):
    from virodecor.families import cyclic_minimal_triangulation

    p = tmp_path / "K.json"
    p.write_text(cyclic_minimal_triangulation(6, 3).to_json())
    result = runner.invoke(main, ["decorate", "--complex", str(p)])
    assert result.exit_code == 1
    body = json.loads(result.output)
    assert body["found"] is False
    assert body["diagnostics"] == {
        "reason": "ridge signs conflict between adjacent facets",
        "facets": [[1, 2, 4, 5], [2, 3, 4, 5]],
    }


@pytest.mark.parametrize("option, value", [("--seed", "-1"),
                                           ("--restarts", "-1")])
def test_decorate_bad_search_setting_is_a_usage_error(runner, tmp_path,
                                                      option, value):
    # snd(6, 3) has no balanced coloring, so these settings would reach
    # the sign search
    p = tmp_path / "K.json"
    p.write_text(snd_subcomplex(6, 3).to_json())
    result = runner.invoke(main, ["decorate", "--complex", str(p),
                                  option, value])
    assert result.exit_code == 2, result.output
    assert result.output.startswith("error: ")
    assert "Traceback" not in result.output


def test_decorate_refuses_a_zero_dimensional_complex(runner, tmp_path):
    """No matrix has the d = 0 rows a decoration of this complex needs."""
    p = tmp_path / "K.json"
    p.write_text('{"dimension": 0, "n_vertices": 3, "facets": [[1], [2]]}')
    result = runner.invoke(main, ["decorate", "--complex", str(p)])
    assert result.exit_code == 2, result.output
    assert result.output == ("error: a decoration matrix has one row per "
                             "dimension; the complex has dimension 0\n")


def test_decorate_writes_a_matrix_with_no_columns(runner, tmp_path):
    """A complex with no vertices is decorated by a d x 0 matrix, which
    check --decorated accepts."""
    kp = tmp_path / "K.json"
    cp = tmp_path / "C.json"
    kp.write_text('{"dimension": 2, "n_vertices": 0, "facets": []}')
    result = runner.invoke(main, ["decorate", "--complex", str(kp),
                                  "--out", str(cp)])
    assert result.exit_code == 0, result.output
    assert json.loads(cp.read_text()) == {"rows": 2, "cols": 0,
                                          "entries": []}
    result = runner.invoke(main, ["check", "--complex", str(kp), "--matrix",
                                  str(cp), "--decorated"])
    assert result.exit_code == 0, result.output
    assert result.output == "decorated: pass\n"


def test_count_json_parity_with_library(runner, tmp_path):
    f = catalog.snd63_fixture()
    S = build_viro_system(f.configuration, f.coefficients, f.heights)
    sp = tmp_path / "S.json"
    kp = tmp_path / "K.json"
    sp.write_text(S.to_json())
    kp.write_text(f.complex.to_json())
    result = runner.invoke(main, ["count", "--system", str(sp),
                                  "--complex", str(kp), "--t", "1/100",
                                  "--expect", "5"])
    assert result.exit_code == 0
    expected = certified_positive_count(S, f.complex, Fraction(1, 100))
    assert result.output.strip() == json.dumps(
        expected.to_json_dict(Fraction(1, 100)))


def test_count_reports_its_precision(runner, tmp_path):
    f = catalog.snd63_fixture()
    S = build_viro_system(f.configuration, f.coefficients, f.heights)
    sp = tmp_path / "S.json"
    kp = tmp_path / "K.json"
    sp.write_text(S.to_json())
    kp.write_text(f.complex.to_json())
    args = ["count", "--system", str(sp), "--complex", str(kp), "--t", "1/100"]
    env = {"VIRODECOR_PRECISION_BITS": "53"}
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 0
    body = json.loads(result.output)
    assert (body["precision"], body["count"]) == (53, 5)
    result = runner.invoke(main, args + ["--format", "text"], env=env)
    assert result.exit_code == 0
    assert result.output.splitlines()[0].startswith("count: 5 at 53 bits ")


@pytest.mark.parametrize("bits", ["abc", "", "10"])
@pytest.mark.parametrize("command", ["count", "verify-paper"])
def test_bad_precision_is_a_usage_error(runner, tmp_path, command, bits):
    """Read before any work; the message names the variable, not a file."""
    if command == "count":
        f = catalog.snd63_fixture()
        S = build_viro_system(f.configuration, f.coefficients, f.heights)
        (tmp_path / "S.json").write_text(S.to_json())
        (tmp_path / "K.json").write_text(f.complex.to_json())
        args = ["count", "--system", str(tmp_path / "S.json"),
                "--complex", str(tmp_path / "K.json"), "--t", "1/100"]
    else:
        args = ["verify-paper", "ex3.6"]
    result = runner.invoke(main, args,
                           env={"VIRODECOR_PRECISION_BITS": bits})
    assert result.exit_code == 2
    assert isinstance(result.exception, SystemExit)
    assert result.stdout == ""
    assert result.stderr == (
        f"error: VIRODECOR_PRECISION_BITS must be a whole number of bits, "
        f"at least 53; got {bits!r}\n")


def test_count_expect_failure_exit_code(runner, tmp_path):
    f = catalog.snd63_fixture()
    S = build_viro_system(f.configuration, f.coefficients, f.heights)
    sp = tmp_path / "S.json"
    kp = tmp_path / "K.json"
    sp.write_text(S.to_json())
    kp.write_text(f.complex.to_json())
    result = runner.invoke(main, ["count", "--system", str(sp),
                                  "--complex", str(kp), "--t", "1/100",
                                  "--expect", "6"])
    assert result.exit_code == 1


def test_count_refuses_a_negative_expect_before_counting(runner, tmp_path,
                                                         monkeypatch):
    f = catalog.snd63_fixture()
    S = build_viro_system(f.configuration, f.coefficients, f.heights)
    sp = tmp_path / "S.json"
    kp = tmp_path / "K.json"
    sp.write_text(S.to_json())
    kp.write_text(f.complex.to_json())
    monkeypatch.setattr("virodecor.cli.certified_positive_count",
                        lambda *a, **k: pytest.fail("counted"))
    result = runner.invoke(main, ["count", "--system", str(sp),
                                  "--complex", str(kp), "--expect", "-1"])
    assert result.exit_code == 2, result.output
    assert result.output == "error: expect must be >= 0, got -1\n"


def test_count_invalid_t(runner, tmp_path):
    f = catalog.snd63_fixture()
    S = build_viro_system(f.configuration, f.coefficients, f.heights)
    sp = tmp_path / "S.json"
    kp = tmp_path / "K.json"
    sp.write_text(S.to_json())
    kp.write_text(f.complex.to_json())
    result = runner.invoke(main, ["count", "--system", str(sp),
                                  "--complex", str(kp), "--t", "-1"])
    assert result.exit_code == 2


# literals with a run of more than 4300 digits, which Python itself refuses
# to convert: in the exponent, the numerator and the denominator
LONG_RUNS = ("1e" + "9" * 5000, "1" + "0" * 5000, "1/" + "7" * 5000,
             "-" + "3" * 4301)
# a bare JSON integer longer than Python will convert to or from a string
BARE_LONG = "1" * 5000


def test_count_refuses_an_unprintable_t_before_any_work(runner, tmp_path,
                                                        monkeypatch):
    """10^9999 has more digits than Python writes out: the JSON report
    could never print t, so the count is not started."""
    f = catalog.snd63_fixture()
    S = build_viro_system(f.configuration, f.coefficients, f.heights)
    sp = tmp_path / "S.json"
    kp = tmp_path / "K.json"
    sp.write_text(S.to_json())
    kp.write_text(f.complex.to_json())
    monkeypatch.setattr("virodecor.cli.certified_positive_count",
                        lambda *a, **k: pytest.fail("counted"))
    for t in ("1e-9999", "1e9999", "1e-99999999", *LONG_RUNS):
        result = runner.invoke(main, ["count", "--system", str(sp),
                                      "--complex", str(kp), "--t", t,
                                      "--format", "json"])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        shown = repr(t) if len(t) <= 40 else \
            f"{t[:40]!r}… ({len(t)} characters)"
        assert f"error: invalid t: {shown}: rational {shown} has more than " \
            f"4300 digits" in result.output
        assert "set_int_max_str_digits" not in result.output
        assert len(result.output.encode()) < 300


@pytest.mark.parametrize("t, reason", [
    ("x" * 5000, "Invalid literal for Fraction: "),
    ("1" * 4000 + "/0", "zero denominator in "),
    ("-" + "1" * 4000, None),
], ids=["malformed", "zero-denominator", "negative"])
def test_count_cuts_a_long_t_short_in_its_error(runner, tmp_path, t, reason):
    """A malformed, zero-denominator or negative t of thousands of
    characters is echoed as its first 40 characters and its length."""
    (tmp_path / "S.json").touch()
    (tmp_path / "K.json").touch()
    result = runner.invoke(main, ["count", "--system",
                                  str(tmp_path / "S.json"), "--complex",
                                  str(tmp_path / "K.json"), "--t", t])
    assert result.exit_code == 2, result.output
    shown = f"{t[:40]!r}… ({len(t)} characters)"
    detail = "" if reason is None else f": {reason}{shown}"
    assert result.output == f"error: invalid t: {shown}{detail}\n"


def test_viro_roundtrip(runner, tmp_path):
    f = catalog.snd63_fixture()
    (tmp_path / "A.json").write_text(
        json.dumps(f.configuration.to_json_dict()))
    (tmp_path / "C.json").write_text(f.coefficients.to_json())
    (tmp_path / "h.json").write_text(json.dumps(
        {"heights": [str(h) for h in f.heights]}))
    out = tmp_path / "S.json"
    result = runner.invoke(main, [
        "viro", "--points", str(tmp_path / "A.json"),
        "--matrix", str(tmp_path / "C.json"),
        "--heights", str(tmp_path / "h.json"), "--out", str(out)])
    assert result.exit_code == 0
    S = build_viro_system(f.configuration, f.coefficients, f.heights)
    assert out.read_text() == S.to_json() + "\n"


TABLE1 = [2, 8, 38, 192, 1002, 5336, 28814, 157184, 864146, 4780008,
          26572086]
VERIFY_LINES = {
    "table1": [f"pass d={d}: expected {n}, recurrence={n}, series={n}, "
               f"diagonal={n}" for d, n in zip(range(1, 22, 2), TABLE1)],
    "appendixA": ["pass snd-11-5: 38/38 facets exactly decorated"],
    "prism": [
        "pass prism: 3 facets (need 3)",
        "pass prism: unimodular",
        "pass prism: regular under squared-coordinate-sum heights",
        "pass prism: deformation exponents (0, 1, 1, 4, 4, 9)",
        "pass prism: coordinate-sum coloring decorates the triangulation",
        "pass prism: 3 distinct positive roots at t=100, 256 bits "
        "(need >= 3)",
    ],
    "ex3.6": [
        "pass planar-hexagon: coloring decoration exactly verified",
        "pass planar-hexagon: heights induce the triangulation",
        "pass planar-hexagon: 6 distinct positive roots at t=1/1000, "
        "256 bits (need >= 6)",
    ],
    "ex5.8": [
        "pass snd-6-3: 5/5 facets exactly decorated",
        "pass snd-6-3: heights induce the triangulation",
        "pass snd-6-3: 5 distinct positive roots at t=1/100, 256 bits "
        "(need >= 5)",
    ],
}


@pytest.mark.parametrize("case", list(VERIFY_LINES))
def test_verify_reference_cases_pass(runner, monkeypatch, case):
    """Each case prints exactly its reference lines at the default
    precision."""
    monkeypatch.delenv("VIRODECOR_PRECISION_BITS", raising=False)
    result = runner.invoke(main, ["verify-paper", case])
    assert result.exit_code == 0, result.output
    assert result.output.splitlines() == VERIFY_LINES[case]


def test_verify_unknown_case(runner):
    result = runner.invoke(main, ["verify-paper", "nonsense"])
    assert result.exit_code == 2


def _valid_inputs():
    """Valid snd(6, 3) inputs for every loader, and a poset file."""
    f = catalog.snd63_fixture()
    S = build_viro_system(f.configuration, f.coefficients, f.heights)
    return {
        "complex": f.complex.to_json(),
        "matrix": f.coefficients.to_json(),
        "points": json.dumps(f.configuration.to_json_dict()),
        "heights": json.dumps({"heights": [str(h) for h in f.heights]}),
        "system": S.to_json(),
        "poset": json.dumps({"size": 2, "relations": []}),
    }


def _write_inputs(tmp_path, broken):
    """The valid inputs with one file overwritten."""
    files = _valid_inputs()
    name, text = broken
    files[name] = text
    for key, body in files.items():
        (tmp_path / f"{key}.json").write_text(body)
    return {key: str(tmp_path / f"{key}.json") for key in files}


COMMANDS = {
    "complex": ("complex", ["check", "--complex", "{complex}",
                            "--bipartite"]),
    "matrix": ("matrix", ["check", "--complex", "{complex}", "--matrix",
                          "{matrix}", "--decorated"]),
    "points": ("points", ["check", "--complex", "{complex}", "--points",
                          "{points}", "--unimodular"]),
    "heights": ("heights", ["viro", "--points", "{points}", "--matrix",
                            "{matrix}", "--heights", "{heights}"]),
    "system": ("system", ["count", "--system", "{system}", "--complex",
                          "{complex}"]),
    "poset": ("poset", ["family", "order", "--poset", "{poset}", "--out",
                        "{out}"]),
    # the heights file read by a check instead of by viro
    "regular": ("heights", ["check", "--complex", "{complex}", "--points",
                            "{points}", "--heights", "{heights}",
                            "--regular"]),
    # the complex file read by the coloring check and by decorate
    "balanced": ("complex", ["check", "--complex", "{complex}",
                             "--bipartite", "--balanced"]),
    "decorate": ("complex", ["decorate", "--complex", "{complex}"]),
    # the points file read by the regularity check
    "degenerate": ("points", ["check", "--complex", "{complex}", "--points",
                              "{points}", "--heights", "{heights}",
                              "--regular"]),
    # the complex file read by the decoration check
    "decorated": ("complex", ["check", "--complex", "{complex}", "--matrix",
                              "{matrix}", "--decorated"]),
}


def _matrix(rows, cols):
    return {"rows": rows, "cols": cols, "entries": ["1"] * (rows * cols)}


def _points(d, n):
    return {"dimension": d,
            "points": [[str(int(i == k)) for k in range(d)] for i in range(n)]}


# snd(6, 3) points whose first four lie in the plane z = 0, so the facet
# (1, 2, 3, 4) has no affine support
FLAT_FACET = json.dumps({"dimension": 3, "points": [
    ["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"], ["1/2", "1/3", "0"],
    ["0", "0", "1"], ["1", "1", "1"]]})

FLOAT_VERTEX = ('{"dimension": 2, "n_vertices": 4, '
                '"facets": [[1, 2, 3.5], [2, 3, 4]]}')

# inputs that parse but do not fit the snd(6, 3) complex (d = 3, 6 vertices)
MISFITS = [
    ("matrix", json.dumps(_matrix(3, 5))),
    ("matrix", json.dumps(_matrix(2, 6))),
    ("points", json.dumps(_points(3, 5))),
    ("points", json.dumps(_points(2, 6))),
    ("regular", json.dumps({"heights": ["0"] * 5})),
    ("system", json.dumps({"points": _points(3, 5)["points"],
                           "coefficients": _matrix(3, 5),
                           "heights": ["0"] * 5})),
    ("system", json.dumps({"points": _points(2, 6)["points"],
                           "coefficients": _matrix(2, 6),
                           "heights": ["0"] * 6})),
    # an all-ones matrix decorates no facet
    ("system", json.dumps({"points": _points(3, 6)["points"],
                           "coefficients": _matrix(3, 6),
                           "heights": ["0"] * 6})),
]


@pytest.mark.parametrize("name,text", [
    ("complex", '{"dimension": 3, "facets": []}'),
    ("complex", "not json"),
    ("complex", "[1, 2]"),
    ("complex", '{"dimension": "x", "n_vertices": 6, "facets": []}'),
    ("complex", '{"dimension": 3, "n_vertices": "y", "facets": []}'),
    ("complex", '{"dimension": -1, "n_vertices": 6, "facets": []}'),
    ("balanced", FLOAT_VERTEX),
    ("decorate", FLOAT_VERTEX),
    ("balanced", '{"dimension": 2, "n_vertices": 4, '
                 '"facets": [[true, 2, 3], [2, 3, 4]]}'),
    # no matrix has the d = 0 rows a decoration of this complex needs
    ("decorated", '{"dimension": 0, "n_vertices": 6, "facets": [[1], [2]]}'),
    ("matrix", '{"rows": 3, "cols": 6, "entries": ["1"]}'),
    ("matrix", '{"rows": 1, "cols": 1, "entries": ["1/0"]}'),
    ("points", '{"dimension": 3}'),
    ("heights", '{"heights": ["x"]}'),
    ("heights", '{"heights": ["0", Infinity]}'),
    # malformed, not too long, though their tails look like huge exponents
    ("heights", '{"heights": ["xe99999"]}'),
    ("matrix", '{"rows": 1, "cols": 1, "entries": ["1/2e99999"]}'),
    pytest.param("heights", json.dumps({"heights": ["x" + "9" * 5000]}),
                 id="heights-malformed-long-run"),
    ("degenerate", FLAT_FACET),
    ("system", '{"points": []}'),
    ("poset", '{"size": 2, "relations": [[1, 2], [2, 1]]}'),
    ("poset", '{"size": true, "relations": []}'),
    ("poset", '{"size": 3, "relations": [[1.5, 2]]}'),
    ("poset", "{"),
] + MISFITS)
def test_malformed_input_is_usage_error(runner, tmp_path, name, text):
    file, command = COMMANDS[name]
    paths = _write_inputs(tmp_path, (file, text))
    paths["out"] = str(tmp_path / "out")
    args = [a.format(**paths) for a in command]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output
    assert f"error: malformed {file} file" in result.output
    assert "digits" not in result.output


# the path 1 - 2 - 3: with true read as 1, each of these files passes its
# check (or, for a misshapen matrix, fails with the wrong message)
PATH_INPUTS = {
    "complex": '{"dimension": 1, "n_vertices": 3, "facets": [[1, 2], [2, 3]]}',
    "points": '{"dimension": 1, "points": [["0"], ["1"], ["2"]]}',
    "heights": '{"heights": [0, 0, 1]}',
    "matrix": '{"rows": 1, "cols": 3, "entries": [-1, 1, -1]}',
}
PATH_CHECKS = {
    "matrix": ["--matrix", "{matrix}", "--decorated"],
    "heights": ["--points", "{points}", "--heights", "{heights}",
                "--regular"],
    "points": ["--points", "{points}", "--unimodular"],
}


@pytest.mark.parametrize("file,text,detail", [
    ("matrix", '{"rows": 1, "cols": 3, "entries": [-1, true, -1]}',
     "TypeError: a boolean is not a rational: True"),
    ("heights", '{"heights": [0, 0, true]}',
     "TypeError: a boolean is not a rational: True"),
    ("points", '{"dimension": true, "points": [["0"], ["1"], ["2"]]}',
     "ValueError: dimension must be a non-negative integer, got True"),
    ("points", '{"dimension": -1, "points": []}',
     "ValueError: dimension must be a non-negative integer, got -1"),
    ("matrix", '{"rows": true, "cols": 3, "entries": [-1, 1, -1]}',
     "ValueError: rows must be an integer >= 1, got True"),
    ("matrix", '{"rows": 2.5, "cols": 2, "entries": [-1, 1, -1, 1, 1]}',
     "ValueError: rows must be an integer >= 1, got Fraction(5, 2)"),
    ("matrix", '{"rows": -2, "cols": 3, "entries": []}',
     "ValueError: rows must be an integer >= 1, got -2"),
    ("matrix", '{"rows": 1, "cols": -3, "entries": []}',
     "ValueError: cols must be an integer >= 0, got -3"),
], ids=["matrix-true-entry", "heights-true", "points-true-dimension",
        "points-negative-dimension", "matrix-true-rows",
        "matrix-fractional-rows", "matrix-negative-rows",
        "matrix-negative-cols"])
def test_json_booleans_and_misshapen_matrices_are_usage_errors(
        runner, tmp_path, file, text, detail):
    """JSON true is no number and a matrix's shape is a count: each file
    fails its loader with exit 2 and names what is wrong."""
    files = dict(PATH_INPUTS, **{file: text})
    paths = {}
    for key, body in files.items():
        paths[key] = str(tmp_path / f"{key}.json")
        (tmp_path / f"{key}.json").write_text(body)
    args = ["check", "--complex", paths["complex"]]
    args += [a.format(**paths) for a in PATH_CHECKS[file]]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert result.output == (
        f"error: malformed {file} file {paths[file]}: {detail}\n")
    # the well-formed files pass the same check
    for key, body in PATH_INPUTS.items():
        (tmp_path / f"{key}.json").write_text(body)
    assert runner.invoke(main, args).exit_code == 0


# with no columns, no entries check bounds the rows a header asks for
TALL_MATRIX = {"rows": 1_000_000, "cols": 0, "entries": []}


@pytest.mark.parametrize("command,file,message", [
    (["check", "--complex", "{complex}", "--matrix", "{matrix}",
      "--decorated"], "matrix",
     "error: malformed matrix file {matrix}: 1000000 rows and 0 columns; "
     "the complex has dimension 3 and 6 vertices\n"),
    (["viro", "--points", "{points}", "--matrix", "{matrix}", "--heights",
      "{heights}"], "matrix",
     "error: coefficient matrix must have d rows\n"),
    (["count", "--system", "{system}", "--complex", "{complex}"], "system",
     "error: malformed system file {system}: ValueError: coefficient "
     "matrix must have d rows\n"),
], ids=["check", "viro", "system"])
def test_a_matrix_header_that_does_not_fit_is_refused_before_any_row(
        runner, tmp_path, monkeypatch, command, file, message):
    """A matrix whose header asks for rows that its reader cannot use is
    refused with today's message, and RationalMatrix is never built: its
    constructor fails loudly here, and a fitting header reaches it."""
    valid = _valid_inputs()[file]
    text = json.dumps(TALL_MATRIX)
    if file == "system":
        text = json.dumps(dict(json.loads(valid), coefficients=TALL_MATRIX))
    paths = _write_inputs(tmp_path, (file, text))
    args = [a.format(**paths) for a in command]

    def built(*_):
        raise AssertionError("a RationalMatrix was built")

    monkeypatch.setattr(RationalMatrix, "__init__", built)
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert result.output == message.format(**paths)
    (tmp_path / f"{file}.json").write_text(valid)
    result = runner.invoke(main, args)
    assert isinstance(result.exception, AssertionError), result.output


@pytest.mark.parametrize("name,text,detail", [
    ("regular", "[0, 1, 4, 9, 16, 25]",
     'expected a JSON object with the key "heights"'),
    ("points", '{"points": [["0", "0", "0"]]}',
     'expected a JSON object with the keys "dimension" and "points"; '
     '"dimension" is missing'),
    ("complex", '"snd"',
     'expected a JSON object with the keys "dimension", "n_vertices" and '
     '"facets"'),
    ("system", '{"points": []}',
     'expected a JSON object with the keys "points", "coefficients" and '
     '"heights"; "coefficients" and "heights" are missing'),
])
def test_a_file_that_is_no_such_object_is_told_what_it_should_hold(
        runner, tmp_path, name, text, detail):
    """A file that is no JSON object, or lacks a key, is a usage error
    that names the object and keys the file should hold."""
    file, command = COMMANDS[name]
    paths = _write_inputs(tmp_path, (file, text))
    result = runner.invoke(main, [a.format(**paths) for a in command])
    assert result.exit_code == 2, result.output
    assert result.output == (
        f"error: malformed {file} file {paths[file]}: {detail}\n")


@pytest.mark.parametrize("name,text", [
    ("heights", json.dumps({"heights": ["0", "1", "2", "1e-5000", "4",
                                        "5"]})),
    ("regular", json.dumps({"heights": ["1e5000"] * 6})),
    ("matrix", json.dumps({"rows": 3, "cols": 6,
                           "entries": ["1e-5000"] * 18})),
    ("points", json.dumps({"dimension": 3, "points": [
        ["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"],
        ["0", "0", "1"], ["1", "1", "1"], ["2", "1e-5000", "1"]]})),
    ("system", json.dumps({"points": _points(3, 6)["points"],
                           "coefficients": _matrix(3, 6),
                           "heights": ["0"] * 5 + ["1e-5000"]})),
    pytest.param("heights", json.dumps(
        {"heights": ["0", "1", "2", LONG_RUNS[0], "4", "5"]}),
        id="heights-long-exponent"),
    pytest.param("matrix", json.dumps(
        {"rows": 3, "cols": 6, "entries": [LONG_RUNS[1]] * 18}),
        id="matrix-long-numerator"),
    pytest.param("points", json.dumps({"dimension": 3, "points": [
        ["0", "0", "0"], ["1", "0", "0"], ["0", "1", "0"],
        ["0", "0", "1"], ["1", "1", "1"], ["2", LONG_RUNS[2], "1"]]}),
        id="points-long-denominator"),
    pytest.param("system", json.dumps(
        {"points": _points(3, 6)["points"], "coefficients": _matrix(3, 6),
         "heights": ["0"] * 5 + [LONG_RUNS[3]]}),
        id="system-long-negative-numerator"),
    pytest.param("heights", json.dumps(
        {"heights": ["0", "1", "2", "0." + "0" * 4300 + "1", "4", "5"]}),
        id="heights-long-decimal"),
    # a bare JSON integer of 5000 digits, in each loader
    pytest.param("heights", '{"heights": [%s, 1, 2, 3, 4, 5]}' % BARE_LONG,
                 id="heights-bare-integer"),
    pytest.param("regular", '{"heights": [%s, 1, 2, 3, 4, 5]}' % BARE_LONG,
                 id="regular-bare-integer"),
    pytest.param("matrix", '{"rows": 1, "cols": %s, "entries": []}'
                 % BARE_LONG, id="matrix-bare-integer"),
    pytest.param("points", '{"dimension": %s, "points": []}' % BARE_LONG,
                 id="points-bare-integer"),
    pytest.param("system", '{"points": [[-%s]]}' % BARE_LONG,
                 id="system-bare-integer"),
    pytest.param("complex", '{"dimension": 3, "n_vertices": %s, '
                 '"facets": []}' % BARE_LONG, id="complex-bare-integer"),
    pytest.param("poset", '{"size": %s, "relations": []}' % BARE_LONG,
                 id="poset-bare-integer"),
])
def test_unprintable_rationals_are_usage_errors(runner, tmp_path, name,
                                                 text):
    """A rational too long to write out fails in its loader with exit 2;
    viro writes no S.json."""
    file, command = COMMANDS[name]
    paths = _write_inputs(tmp_path, (file, text))
    paths["out"] = str(tmp_path / "out")
    args = [a.format(**paths) for a in command]
    if name == "heights":
        args += ["--out", str(tmp_path / "S.json")]
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert isinstance(result.exception, SystemExit)
    assert f"error: malformed {file} file" in result.output
    assert "has more than 4300 digits" in result.output
    assert "set_int_max_str_digits" not in result.output
    assert not (tmp_path / "S.json").exists()


def test_bare_json_decimals_are_read_exactly(runner, tmp_path):
    """0.1, 0.2 and 0.3 lie on a line, so the lift of 1, 2, 3 ties at 3 on
    (1, 2) and at 1 on (2, 3), whether the heights are JSON numbers or
    strings; as binary doubles they would not tie."""
    (tmp_path / "K.json").write_text(
        '{"dimension": 1, "n_vertices": 3, "facets": [[1, 2], [2, 3]]}')
    (tmp_path / "P.json").write_text(
        '{"dimension": 1, "points": [["1"], ["2"], ["3"]]}')
    outputs = []
    for name, heights in (("bare", "[0.1, 0.2, 0.3]"),
                          ("strings", '["0.1", "0.2", "0.3"]'),
                          ("exponents", "[1e-1, 2E-1, 0.3e0]")):
        (tmp_path / f"{name}.json").write_text(f'{{"heights": {heights}}}')
        result = runner.invoke(main, [
            "check", "--complex", str(tmp_path / "K.json"), "--points",
            str(tmp_path / "P.json"), "--heights", str(tmp_path / f"{name}.json"),
            "--regular", "--format", "json"])
        assert result.exit_code == 1, result.output
        outputs.append(result.output)
    assert json.loads(outputs[0]) == {"regular": {
        "ok": False, "violations": [{"facet": [1, 2], "point": 3},
                                    {"facet": [2, 3], "point": 1}]}}
    assert outputs[1:] == outputs[:1] * 2


def test_a_matrix_of_bare_decimals_reads_as_those_decimals(runner, tmp_path):
    text = '{"rows": 1, "cols": 3, "entries": [0.1, -2.5e-1, 3]}'
    expected = RationalMatrix([[Fraction(1, 10), Fraction(-1, 4), 3]])
    assert RationalMatrix.from_json(text) == expected
    (tmp_path / "C.json").write_text(text)
    (tmp_path / "P.json").write_text('{"dimension": 1, "points": [[0], [1], '
                                     '[2]]}')
    (tmp_path / "H.json").write_text('{"heights": [0.5, 0, 0.5]}')
    result = runner.invoke(main, [
        "viro", "--points", str(tmp_path / "P.json"), "--matrix",
        str(tmp_path / "C.json"), "--heights", str(tmp_path / "H.json"),
        "--render"])
    assert result.exit_code == 0, result.output
    system, render = result.output.splitlines()
    assert json.loads(system) == {
        "points": [["0"], ["1"], ["2"]],
        "coefficients": {"rows": 1, "cols": 3,
                         "entries": ["1/10", "-1/4", "3"]},
        "heights": ["1/2", "0", "1/2"]}
    assert render == "f1 = 1/10*t^1/2 - 1/4*X + 3*t^1/2*X^2"


def test_regular_check_names_an_affinely_degenerate_facet(runner, tmp_path):
    (tmp_path / "complex.json").write_text(json.dumps(
        {"dimension": 2, "n_vertices": 4, "facets": [[1, 2, 3], [2, 3, 4]]}))
    (tmp_path / "points.json").write_text(json.dumps(
        {"dimension": 2, "points": [["0", "0"], ["1", "0"], ["2", "0"],
                                    ["0", "1"]]}))
    (tmp_path / "heights.json").write_text('{"heights": ["0", "1", "4", "1"]}')
    base = ["check", "--complex", str(tmp_path / "complex.json"),
            "--points", str(tmp_path / "points.json")]
    result = runner.invoke(main, base + ["--heights",
                                         str(tmp_path / "heights.json"),
                                         "--regular"])
    assert result.exit_code == 2, result.output
    assert result.output.strip() == (
        f"error: malformed points file {tmp_path / 'points.json'}: "
        "facet (1, 2, 3) is affinely degenerate")
    # a flat facet has volume 0: a failed check, not malformed input
    result = runner.invoke(main, base + ["--unimodular"])
    assert result.exit_code == 1
    assert result.output == "unimodular: FAIL\n"


def test_verify_paper_at_double_precision(runner, monkeypatch):
    """The count line names the working precision, as `count` does."""
    monkeypatch.setenv("VIRODECOR_PRECISION_BITS", "53")
    result = runner.invoke(main, ["verify-paper", "ex5.8"])
    assert result.exit_code == 0, result.output
    name = catalog.snd63_fixture().name
    assert (f"pass {name}: 5 distinct positive roots at t=1/100, 53 bits "
            f"(need >= 5)") in result.output.splitlines()


SCALARS = st.one_of(st.integers(-2, 9), st.floats(), st.booleans(),
                    st.text(max_size=2), st.none())
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=4),
                           max_leaves=12)


def _small_count(value):
    return isinstance(value, int) and not isinstance(value, bool) \
        and 0 <= value <= 8


@st.composite
def fuzzed_complex_and_matrix(draw):
    """Complex JSON with each field drawn from every JSON type, plus a matrix
    that fits it whenever its dimension (at least 1, since a matrix has a
    row) and vertex count are small counts.

    Each field is well formed three times in four: the dimension and the
    vertex count small ints, the facets distinct vertex lists of the right
    size, half of them with one vertex swapped for another JSON value (often
    a float in the vertex range).  So the checks behind the loader run
    too."""
    def well_formed():
        return draw(st.integers(0, 3)) > 0

    d = draw(st.integers(0, 4)) if well_formed() else draw(JSON_VALUES)
    n = draw(st.integers(0, 8)) if well_formed() else draw(JSON_VALUES)
    k = d + 1 if _small_count(d) else draw(st.integers(1, 5))
    top = max(n, k) if _small_count(n) else max(8, k)
    if well_formed():
        facets = draw(st.lists(
            st.lists(st.integers(1, top), min_size=k, max_size=k, unique=True),
            max_size=8, unique_by=tuple))
        if facets and draw(st.booleans()):
            i = draw(st.integers(0, len(facets) - 1))
            facets[i][draw(st.integers(0, k - 1))] = draw(
                st.one_of(st.floats(1, top), SCALARS))
    else:
        facets = draw(JSON_VALUES)
    fits = _small_count(d) and d >= 1 and _small_count(n)
    rows, cols = (d, n) if fits else (1, 1)
    entries = draw(st.lists(st.integers(-3, 3).map(str),
                            min_size=rows * cols, max_size=rows * cols))
    return ({"dimension": d, "n_vertices": n, "facets": facets},
            {"rows": rows, "cols": cols, "entries": entries})


@settings(max_examples=300, deadline=None)
@given(fuzzed_complex_and_matrix())
def test_complex_loader_fuzz_never_crashes(tmp_path_factory, inputs):
    body, matrix = inputs
    folder = tmp_path_factory.mktemp("fuzz")
    kp, cp = folder / "K.json", folder / "C.json"
    kp.write_text(json.dumps(body))
    cp.write_text(json.dumps(matrix))
    result = CliRunner().invoke(main, [
        "check", "--complex", str(kp), "--bipartite", "--balanced",
        "--decorated", "--matrix", str(cp)])
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert result.exit_code in (0, 1, 2)


NUMBERS = st.sampled_from(["0", "-1", "2/3", "1/0", "x", "", "1e3", "-7/2",
                           1.5, float("inf"), float("nan"), True])


def _edit(draw, node):
    """node with one value replaced by any JSON value or a number written
    in some form, or, inside a list or an object, one entry dropped."""
    if isinstance(node, (dict, list)) and node and draw(st.integers(0, 3)):
        copy = dict(node) if isinstance(node, dict) else list(node)
        key = draw(st.sampled_from(list(copy) if isinstance(copy, dict)
                                   else range(len(copy))))
        if draw(st.integers(0, 4)) == 0:
            del copy[key]
        else:
            copy[key] = _edit(draw, copy[key])
        return copy
    return draw(st.one_of(JSON_VALUES, NUMBERS))


# The order polytope of a poset on n elements has up to n! facets, so the
# fuzzed poset file keeps at most 5 elements.
FUZZED_LOADERS = ["matrix", "points", "heights", "system", "poset"]


@pytest.mark.parametrize("name", FUZZED_LOADERS)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_loader_fuzz_never_crashes(tmp_path_factory, name, data):
    """One to three random edits of a valid input file end in a message and
    an exit code, never in a traceback."""
    file, command = COMMANDS[name]
    doc = json.loads(_valid_inputs()[file])
    for _ in range(data.draw(st.integers(1, 3))):
        doc = _edit(data.draw, doc)
    if file == "poset" and isinstance(doc, dict) \
            and isinstance(doc.get("size"), int) and doc["size"] > 5:
        doc["size"] = 5
    folder = tmp_path_factory.mktemp("fuzz")
    paths = _write_inputs(folder, (file, json.dumps(doc)))
    paths["out"] = str(folder / "out")
    result = CliRunner().invoke(main, [a.format(**paths) for a in command])
    assert result.exception is None \
        or isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.output
    assert result.exit_code in (0, 1, 2), result.output


def test_in_process_runs_keep_no_output(runner):
    """Every line is echoed to a named stream: click caches each stream it
    wraps for itself, so 300 in-process runs retain none of their output
    (about 700 KB when they did)."""
    for _ in range(20):
        runner.invoke(main, ["verify-paper", "table1"])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.take_snapshot()
        for _ in range(300):
            assert runner.invoke(main, ["verify-paper", "table1"]).exit_code \
                == 0
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(d.size_diff for d in after.compare_to(before, "filename"))
    assert retained < 100_000
