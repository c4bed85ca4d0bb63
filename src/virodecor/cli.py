"""Command-line interface: generation, checking, decoration, counting.

Every subcommand is a thin adapter over the library API; JSON written here
is byte-identical to the corresponding ``to_json`` output.  Exit codes:
0 success/pass, 1 check failed, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import catalog
from .complexes import (
    PointConfiguration,
    SimplicialComplex,
    balanced_coloring,
    coloring_to_json_dict,
    decoration_from_coloring,
    dual_graph,
    is_bipartite,
    is_positively_decorated,
    is_unimodular,
)
from .completion import decorate as decorate_complex
from .exactlinalg import (
    RankDeficiencyError,
    RationalMatrix,
    format_rational,
    loads_exact,
    parse_rational,
    quote_literal,
)
from .families import (
    Fixture,
    Poset,
    count_snd,
    count_snd_series,
    cross_polytope_triangulation,
    cyclic_heights,
    cyclic_minimal_triangulation,
    cyclic_points,
    diagonal_coefficients,
    order_polytope_triangulation,
    snd_subcomplex,
)
from .numerics import certified_positive_count
from .precision import default_precision
from .viro import ViroSystem, build_viro_system, regularity_check, render_system

EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fail_usage(msg: str):
    click.echo(f"error: {msg}", err=True)
    sys.exit(EXIT_USAGE)


def _write(path: Path, text: str):
    path.write_text(text if text.endswith("\n") else text + "\n")
    click.echo(f"wrote {path}")


def _precision() -> int:
    """The working precision, read once before any work: a bad
    VIRODECOR_PRECISION_BITS is a usage error, not a fault of an input file."""
    try:
        return default_precision()
    except ValueError as exc:
        _fail_usage(str(exc))


def _heights_json(heights) -> str:
    return json.dumps({"heights": [format_rational(h) for h in heights]})


def _load(path: str, from_dict, what: str, keys: tuple[str, ...]):
    """from_dict of an input file's JSON, its numbers read exactly
    (loads_exact); malformed content is a usage error.  A file that is not
    a JSON object with every one of keys is told what it should hold."""
    try:
        data = loads_exact(Path(path).read_text())
        detail = _lacking(data, keys)
        if detail is None:
            return from_dict(data)
    except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
        detail = " ".join(f"{type(exc).__name__}: {exc}".split())
    _fail_usage(f"malformed {what} file {path}: {detail}")


def _lacking(data, keys: tuple[str, ...]) -> str | None:
    """What data lacks of a JSON object with every one of keys, or None."""
    def listed(names):
        return " and ".join(filter(None, [", ".join(names[:-1]), names[-1]]))

    names = list(map(json.dumps, keys))
    want = (f"expected a JSON object with the key{'s' * (len(keys) > 1)} "
            f"{listed(names)}")
    if not isinstance(data, dict):
        return want
    missing = [name for key, name in zip(keys, names) if key not in data]
    if missing:
        verb = "is" if len(missing) == 1 else "are"
        return f"{want}; {listed(missing)} {verb} missing"
    return None


def _load_heights(path: str) -> tuple[Fraction, ...]:
    return _load(path, lambda d: tuple(map(parse_rational, d["heights"])),
                 "heights", ("heights",))


def _load_complex(path: str) -> SimplicialComplex:
    return _load(path, SimplicialComplex.from_json_dict, "complex",
                 ("dimension", "n_vertices", "facets"))


def _load_matrix(path: str) -> RationalMatrix:
    return _load(path, RationalMatrix.from_json_dict, "matrix",
                 ("rows", "cols", "entries"))


def _load_points(path: str) -> PointConfiguration:
    return _load(path, PointConfiguration.from_json_dict, "points",
                 ("dimension", "points"))


def _require_fit(K: SimplicialComplex, what: str, path: str, fits: bool,
                 found: str):
    """An input file that parses but does not fit the complex is a usage
    error too."""
    if not fits:
        _fail_usage(f"malformed {what} file {path}: {found}; the complex has "
                    f"dimension {K.dimension} and {K.n_vertices} vertices")


def _require_points_fit(K: SimplicialComplex, A: PointConfiguration,
                        what: str, path: str):
    _require_fit(K, what, path,
                 A.dimension == K.dimension and A.n_points >= K.n_vertices,
                 f"{A.n_points} points of dimension {A.dimension}")


@click.group()
def main():
    """Exact and numerical tools for positively decorated triangulations."""


@main.command()
@click.argument("kind", type=click.Choice(["cyclic", "snd", "order", "cross"]))
@click.option("--n", type=int, help="number of points (cyclic/snd)")
@click.option("--d", type=int, help="dimension")
@click.option("--poset", "poset_path", type=click.Path(exists=True),
              help="poset JSON file (order)")
@click.option("--out", "out_dir", type=click.Path(file_okay=False),
              default=".", show_default=True, help="output directory")
def family(kind, n, d, poset_path, out_dir):
    """Generate a named family instance as JSON files."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if kind in ("cyclic", "snd"):
        if n is None or d is None:
            _fail_usage(f"{kind} requires --n and --d")
        try:
            K = (cyclic_minimal_triangulation(n, d) if kind == "cyclic"
                 else snd_subcomplex(n, d))
        except ValueError as exc:
            _fail_usage(str(exc))
        fam = Fixture(f"{kind}-{n}-{d}", cyclic_points(n, d), K,
                      cyclic_heights(n, d), None, None)
    elif kind == "order":
        if poset_path is None:
            _fail_usage("order requires --poset")
        fam = order_polytope_triangulation(
            _load(poset_path, Poset.from_json_dict, "poset",
                  ("size", "relations")))
    else:
        if d is None:
            _fail_usage("cross requires --d")
        try:
            fam = cross_polytope_triangulation(d)
        except ValueError as exc:
            _fail_usage(str(exc))
    K = fam.complex
    _write(out / "complex.json", K.to_json())
    _write(out / "points.json", json.dumps(fam.configuration.to_json_dict()))
    _write(out / "heights.json", _heights_json(fam.heights))
    if fam.coloring is not None:
        _write(out / "coloring.json",
               json.dumps(coloring_to_json_dict(fam.coloring, K.n_vertices)))
    click.echo(f"{kind}: {len(K.facets)} facets on {K.n_vertices} vertices")


@main.command()
@click.option("--complex", "complex_path", required=True,
              type=click.Path(exists=True))
@click.option("--matrix", "matrix_path", type=click.Path(exists=True))
@click.option("--points", "points_path", type=click.Path(exists=True))
@click.option("--heights", "heights_path", type=click.Path(exists=True))
@click.option("--bipartite", is_flag=True)
@click.option("--balanced", is_flag=True)
@click.option("--decorated", is_flag=True)
@click.option("--regular", is_flag=True)
@click.option("--unimodular", is_flag=True)
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="text", show_default=True)
def check(complex_path, matrix_path, points_path, heights_path,
          bipartite, balanced, decorated, regular, unimodular, fmt):
    """Run the requested structural checks; exit 1 when any fails."""
    K = _load_complex(complex_path)
    if not any([bipartite, balanced, decorated, regular, unimodular]):
        _fail_usage("no checks requested")
    if decorated and matrix_path is None:
        _fail_usage("--decorated requires --matrix")
    if regular and (points_path is None or heights_path is None):
        _fail_usage("--regular requires --points and --heights")
    if unimodular and points_path is None:
        _fail_usage("--unimodular requires --points")
    if decorated:
        _require_fit(K, "complex", complex_path, K.dimension > 0,
                     "--decorated needs a matrix with one row per dimension")
        C = _load_matrix(matrix_path)
        _require_fit(K, "matrix", matrix_path,
                     C.rows == K.dimension and C.cols >= K.n_vertices,
                     f"{C.rows} rows and {C.cols} columns")
    if regular or unimodular:
        A = _load_points(points_path)
        _require_points_fit(K, A, "points", points_path)
    if regular:
        heights = _load_heights(heights_path)
        _require_fit(K, "heights", heights_path, len(heights) == A.n_points,
                     f"{len(heights)} heights for {A.n_points} points")
    report = {}
    if bipartite:
        result = is_bipartite(dual_graph(K))
        report["bipartite"] = {"ok": bool(result)}
        if not result:
            report["bipartite"]["odd_cycle"] = result.odd_cycle
    if balanced:
        coloring = balanced_coloring(K)
        report["balanced"] = {"ok": coloring is not None}
        if coloring is not None:
            report["balanced"]["coloring"] = coloring_to_json_dict(
                coloring, K.n_vertices)
    if decorated:
        ok, failing = is_positively_decorated(K, C)
        report["decorated"] = {"ok": ok,
                               "failing_facets": [list(f) for f in failing]}
    if regular:
        try:
            r = regularity_check(A, heights, K)
        except RankDeficiencyError as exc:
            _fail_usage(f"malformed points file {points_path}: {exc}")
        report["regular"] = {
            "ok": r.ok,
            "violations": [{"facet": list(f), "point": p}
                           for f, p in r.violations],
        }
    if unimodular:
        report["unimodular"] = {"ok": is_unimodular(K, A)}
    if fmt == "json":
        click.echo(json.dumps(report))
    else:
        for name, body in report.items():
            click.echo(f"{name}: {'pass' if body['ok'] else 'FAIL'}")
    sys.exit(0 if all(body["ok"] for body in report.values())
             else EXIT_CHECK_FAILED)


@main.command()
@click.option("--complex", "complex_path", required=True,
              type=click.Path(exists=True))
@click.option("--restarts", type=int, default=100, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              help="write the decoration matrix JSON here")
def decorate(complex_path, restarts, seed, out_path):
    """Search for an exactly verified decoration of a complex."""
    K = _load_complex(complex_path)
    try:
        outcome = decorate_complex(K, restarts=restarts, seed=seed)
    except ValueError as exc:
        _fail_usage(str(exc))
    if outcome.decoration is None:
        click.echo(json.dumps({"found": False,
                               "diagnostics": outcome.diagnostics}))
        sys.exit(EXIT_CHECK_FAILED)
    if out_path is not None:
        _write(Path(out_path), outcome.decoration.to_json())
    else:
        click.echo(outcome.decoration.to_json())
    click.echo(f"decoration found via {outcome.method}, exactly verified")


@main.command()
@click.option("--points", "points_path", required=True,
              type=click.Path(exists=True))
@click.option("--matrix", "matrix_path", required=True,
              type=click.Path(exists=True))
@click.option("--heights", "heights_path", required=True,
              type=click.Path(exists=True))
@click.option("--out", "out_path", type=click.Path(dir_okay=False),
              help="write the system JSON here")
@click.option("--render", is_flag=True, help="print the equations")
def viro(points_path, matrix_path, heights_path, out_path, render):
    """Assemble a deformed system from points, coefficients and heights."""
    try:
        S = build_viro_system(_load_points(points_path),
                              _load_matrix(matrix_path),
                              _load_heights(heights_path))
    except ValueError as exc:
        _fail_usage(str(exc))
    if out_path is not None:
        _write(Path(out_path), S.to_json())
    else:
        click.echo(S.to_json())
    if render:
        click.echo(render_system(S))


@main.command()
@click.option("--system", "system_path", required=True,
              type=click.Path(exists=True))
@click.option("--complex", "complex_path", required=True,
              type=click.Path(exists=True))
@click.option("--t", "t_str", default="1/1000", show_default=True,
              help="deformation parameter, a positive rational p/q")
@click.option("--expect", type=int, help="minimum acceptable count")
@click.option("--format", "fmt", type=click.Choice(["json", "text"]),
              default="json", show_default=True)
def count(system_path, complex_path, t_str, expect, fmt):
    """Count distinct positive roots reachable from the per-facet starts."""
    bits = _precision()
    if expect is not None and expect < 0:
        _fail_usage(f"expect must be >= 0, got {expect}")
    try:
        t = parse_rational(t_str)
    except (ValueError, ZeroDivisionError) as exc:
        _fail_usage(f"invalid t: {quote_literal(t_str)}: {exc}")
    if t <= 0:
        _fail_usage(f"invalid t: {quote_literal(t_str)}")
    S = _load(system_path, ViroSystem.from_json_dict, "system",
              ("points", "coefficients", "heights"))
    K = _load_complex(complex_path)
    _require_points_fit(K, S.configuration, "system", system_path)
    try:
        result = certified_positive_count(S, K, t, prec=bits)
    except ValueError as exc:
        # an undecorated or degenerate facet: the system does not fit K
        _fail_usage(f"malformed system file {system_path}: {exc}")
    except ArithmeticError as exc:
        click.echo(f"numeric failure: {exc}", err=True)
        sys.exit(EXIT_NUMERIC)
    if fmt == "json":
        click.echo(json.dumps(result.to_json_dict(t)))
    else:
        click.echo(f"count: {result.count} at {result.precision} bits "
                   f"(heuristic floating-point certificate)")
        for f, reason in result.failures:
            click.echo(f"  facet {f}: {reason}")
    if expect is not None and result.count < expect:
        sys.exit(EXIT_CHECK_FAILED)


def _verify_table1() -> list[str]:
    lines = []
    diag = diagonal_coefficients(11)
    for d, expected in sorted(catalog.DIAGONAL_COUNTS.items()):
        k = (d + 1) // 2
        values = {
            "recurrence": count_snd(2 * d + 1, d),
            "series": count_snd_series(2 * d + 1, d),
            "diagonal": diag[k],
        }
        ok = all(v == expected for v in values.values())
        lines.append(f"{'pass' if ok else 'FAIL'} d={d}: expected {expected}, "
                     + ", ".join(f"{k2}={v}" for k2, v in values.items()))
    return lines


def _verify_decoration(fixture) -> list[str]:
    ok, failing = is_positively_decorated(fixture.complex, fixture.coefficients)
    total = len(fixture.complex.facets)
    status = "pass" if ok else "FAIL"
    return [f"{status} {fixture.name}: {total - len(failing)}/{total} "
            f"facets exactly decorated"]


def _count_line(name: str, fixture, C, t: Fraction, minimum: int,
                bits: int) -> str:
    S = build_viro_system(fixture.configuration, C, fixture.heights)
    result = certified_positive_count(S, fixture.complex, t, prec=bits)
    return (f"{'pass' if result.count >= minimum else 'FAIL'} {name}: "
            f"{result.count} distinct positive roots at t={t}, "
            f"{result.precision} bits (need >= {minimum})")


def _verify_count(fixture, C, t: Fraction, minimum: int,
                  bits: int) -> list[str]:
    reg = regularity_check(fixture.configuration, fixture.heights,
                           fixture.complex)
    return [f"{'pass' if reg.ok else 'FAIL'} {fixture.name}: heights induce "
            f"the triangulation",
            _count_line(fixture.name, fixture, C, t, minimum, bits)]


def _verify_prism(bits: int) -> list[str]:
    fam = order_polytope_triangulation(Poset.from_relations(3, [(1, 2)]))
    lines = []
    ok = len(fam.complex.facets) == 3
    lines.append(f"{'pass' if ok else 'FAIL'} prism: "
                 f"{len(fam.complex.facets)} facets (need 3)")
    ok = is_unimodular(fam.complex, fam.configuration)
    lines.append(f"{'pass' if ok else 'FAIL'} prism: unimodular")
    reg = regularity_check(fam.configuration, fam.heights, fam.complex)
    lines.append(f"{'pass' if reg.ok else 'FAIL'} prism: regular under "
                 f"squared-coordinate-sum heights")
    expected_heights = tuple(Fraction(x) for x in (0, 1, 1, 4, 4, 9))
    ok = fam.heights == expected_heights
    lines.append(f"{'pass' if ok else 'FAIL'} prism: deformation exponents "
                 f"(0, 1, 1, 4, 4, 9)")
    C = decoration_from_coloring(fam.coloring, fam.complex.n_vertices, 3)
    ok, _ = is_positively_decorated(fam.complex, C)
    lines.append(f"{'pass' if ok else 'FAIL'} prism: coordinate-sum coloring "
                 f"decorates the triangulation")
    # concave lift: the asymptotic regime is large t
    lines.append(_count_line("prism", fam, C, Fraction(100), 3, bits))
    return lines


@main.command("verify-paper")
@click.argument("case", type=click.Choice(
    ["ex3.6", "ex5.8", "appendixA", "table1", "prism"]))
def verify_paper(case):
    """Reproduce one of the built-in reference computations."""
    bits = _precision()
    if case == "table1":
        lines = _verify_table1()
    elif case == "ex3.6":
        f = catalog.planar_hexagon_fixture()
        C = decoration_from_coloring(f.coloring, f.complex.n_vertices, 2)
        ok, _ = is_positively_decorated(f.complex, C)
        lines = [f"{'pass' if ok else 'FAIL'} {f.name}: coloring decoration "
                 f"exactly verified"]
        lines += _verify_count(f, C, Fraction(1, 1000), 6, bits)
    elif case == "ex5.8":
        f = catalog.snd63_fixture()
        lines = _verify_decoration(f)
        lines += _verify_count(f, f.coefficients, Fraction(1, 100), 5,
                                bits)
    elif case == "appendixA":
        lines = _verify_decoration(catalog.snd115_fixture())
    else:
        lines = _verify_prism(bits)
    for line in lines:
        click.echo(line)
    sys.exit(0 if all(line.startswith("pass") for line in lines)
             else EXIT_CHECK_FAILED)


if __name__ == "__main__":
    main()
