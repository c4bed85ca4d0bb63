"""Deformed systems: container, regularity certificates, truncated roots."""

from dataclasses import fields
from fractions import Fraction

import mpmath as mp
import pytest

from virodecor import catalog
from virodecor.complexes import (
    PointConfiguration,
    SimplicialComplex,
    decoration_from_coloring,
)
from virodecor.exactlinalg import RationalMatrix
from virodecor.families import Poset, order_polytope_triangulation
from virodecor.viro import (
    ViroSystem,
    build_viro_system,
    facet_affine_support,
    mpf_fraction,
    predicted_solutions,
    regularity_check,
    render_system,
    truncated_solution,
)


def planar_system():
    f = catalog.planar_hexagon_fixture()
    C = decoration_from_coloring(f.coloring, 7, 2)
    return f, build_viro_system(f.configuration, C, f.heights)


def test_build_validates_shapes():
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    C = RationalMatrix([[1, 0, -1], [0, 1, -1]])
    build_viro_system(A, C, [0, 1, 1])
    with pytest.raises(ValueError):
        build_viro_system(A, C, [0, 1])
    with pytest.raises(ValueError):
        build_viro_system(A, RationalMatrix([[1, 0], [0, 1]]), [0, 1, 1])


def test_system_json_roundtrip():
    _, S = planar_system()
    assert ViroSystem.from_json(S.to_json()).to_json() == S.to_json()


def test_render_prism_system():
    fam = order_polytope_triangulation(Poset.from_relations(3, [(1, 2)]))
    C = decoration_from_coloring(fam.coloring, 6, 3)
    S = build_viro_system(fam.configuration, C, fam.heights)
    text = render_system(S)
    lines = text.splitlines()
    assert len(lines) == 3
    # row for the sum-1 vertices: t*(x2 + x3) minus the top monomial
    assert "t*Z" in lines[1] and "t*Y" in lines[1]
    assert "t^4*Y*Z" in lines[2] and "t^4*X*Y" in lines[2]
    for line in lines:
        assert "t^9*X*Y*Z" in line


# -- regularity ------------------------------------------------------------


def test_regularity_single_simplex_trivial():
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    K = SimplicialComplex.from_facets(2, 3, [(1, 2, 3)])
    assert regularity_check(A, [5, -3, Fraction(1, 7)], K).ok


def test_regularity_planar_fixture():
    f = catalog.planar_hexagon_fixture()
    r = regularity_check(f.configuration, f.heights, f.complex)
    assert r.ok and r.sense == "convex" and r.violations == []


def test_regularity_rejects_flat_heights():
    f = catalog.planar_hexagon_fixture()
    r = regularity_check(f.configuration, [0] * 7, f.complex)
    assert not r.ok and r.violations


def test_regularity_monotone_under_subcomplex():
    f = catalog.snd63_fixture()
    full = regularity_check(f.configuration, f.heights,
                            SimplicialComplex.from_facets(
                                3, 6, f.complex.facets[:3]))
    assert full.ok


def test_affine_support_interpolates_exactly():
    f = catalog.snd63_fixture()
    for facet in f.complex.facets:
        b, a = facet_affine_support(f.configuration, f.heights, facet)
        for v in facet:
            point = f.configuration.points[v - 1]
            assert f.heights[v - 1] == b + sum(
                g * x for g, x in zip(a, point))


# -- truncated solutions ---------------------------------------------------


def test_truncated_solution_univariate():
    # 1 - 2x truncated on its own support: root x = 1/2
    A = PointConfiguration.from_rows([(0,), (1,)])
    C = RationalMatrix([[1, -2]])
    sol = truncated_solution(A, C, (1, 2))
    assert abs(mp.e ** sol.log_point[0] - mp.mpf(1) / 2) < mp.mpf("1e-40")


def test_truncated_solution_unit_simplex():
    # support 0, e1, e2: solution X_i = v_{i+1} / v_1 for the kernel v
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    C = RationalMatrix([[2, -1, -1], [1, 1, -3]])
    from virodecor.exactlinalg import positive_kernel_vector

    v = positive_kernel_vector(C)
    assert v is not None
    sol = truncated_solution(A, C, (1, 2, 3))
    for k in range(2):
        expected = mp.mpf(v[k + 1].numerator) / mp.mpf(v[k + 1].denominator)
        assert abs(mp.e ** sol.log_point[k] - expected) < mp.mpf("1e-40")


def _truncated_residual(A, C, facet, u):
    """Largest row residual of the facet-truncated system at log-point u,
    each row divided by its largest term."""
    worst = mp.mpf(0)
    for i in range(A.dimension):
        total = mp.mpf(0)
        scale = mp.mpf(0)
        for vtx in facet:
            c = C[i, vtx - 1]
            if c == 0:
                continue
            term = mpf_fraction(c) * mp.exp(sum(
                mpf_fraction(a) * uk for a, uk in zip(A.points[vtx - 1], u)))
            total += term
            scale = max(scale, abs(term))
        if scale > 0:
            worst = max(worst, abs(total) / scale)
    return worst


def test_truncated_residuals_small_on_snd63():
    f = catalog.snd63_fixture()
    for facet in f.complex.facets:
        sol = truncated_solution(f.configuration, f.coefficients, facet)
        # the solve returns the point only; the residual is this oracle's
        assert [x.name for x in fields(sol)] == ["facet", "log_point"]
        with mp.workprec(256):
            assert _truncated_residual(f.configuration, f.coefficients,
                                       facet, sol.log_point) < mp.mpf("1e-60")


def test_truncated_solution_rejects_undecorated_facet():
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    C = RationalMatrix([[1, 1, 1], [0, 1, -1]])  # all-positive row: no kernel
    with pytest.raises(ValueError):
        truncated_solution(A, C, (1, 2, 3))


def test_predicted_solutions_count_and_shift():
    f, S = planar_system()
    starts = predicted_solutions(S, f.complex, Fraction(1, 1000))
    assert len(starts) == 6
    # the shift is linear in log t with slope given by the affine gradient
    other = predicted_solutions(S, f.complex, Fraction(1, 100))
    with mp.workprec(256):
        dlnt = mp.log(mp.mpf(1) / 1000) - mp.log(mp.mpf(1) / 100)
        for s1, s2 in zip(starts, other):
            for k in range(2):
                g = (mp.mpf(s1.shift[k].numerator)
                     / mp.mpf(s1.shift[k].denominator))
                assert abs((s1.log_point[k] - s2.log_point[k]) + dlnt * g) \
                    < mp.mpf("1e-60")
