"""Acceptance suite: one test per release criterion, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py`` (add ``-s`` to see the
printed verdict lines).  Criterion 10 is split in two: the ratio to the
closed-form estimate, and the per-dimension growth rate against sqrt(2) + 1.
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations

import mpmath as mp

from virodecor import catalog
from virodecor.complexes import (
    PointConfiguration,
    SimplicialComplex,
    balanced_coloring,
    decoration_from_coloring,
    dual_graph,
    is_bipartite,
    is_positively_decorated,
    is_unimodular,
    simplex_signs,
    total_normalized_volume,
)
from virodecor.completion import decorate
from virodecor.exactlinalg import (
    RationalMatrix,
    is_oriented,
    positive_kernel_vector,
    rank,
)
from virodecor.families import (
    Poset,
    asymptotic_estimate,
    count_snd,
    count_snd_series,
    cross_polytope_triangulation,
    cyclic_facet_count,
    cyclic_minimal_triangulation,
    diagonal_coefficients,
    multilinear_tp_system,
    order_polytope_triangulation,
    snd_subcomplex,
)
from virodecor.numerics import certified_positive_count
from virodecor.viro import build_viro_system, regularity_check, render_system

from exact_oracles import lifted_matrix, matvec, maximal_minors


def verdict(n, text):
    print(f"CRITERION {n:>2}: PASS - {text}")


def test_criterion_01_diagonal_count_table():
    start = time.perf_counter()
    diag = diagonal_coefficients(11)
    for d, expected in catalog.DIAGONAL_COUNTS.items():
        assert count_snd(2 * d + 1, d) == expected
        assert count_snd_series(2 * d + 1, d) == expected
        assert diag[(d + 1) // 2] == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    verdict(1, f"11 table values via 3 independent routes in {elapsed:.3f}s")


def test_criterion_02_minimal_cyclic_63_not_bipartite():
    K = cyclic_minimal_triangulation(6, 3)
    assert set(K.facets) == {(1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6),
                             (2, 3, 4, 5), (2, 3, 5, 6), (3, 4, 5, 6)}
    G = dual_graph(K)
    a, b, c, d, e, f = range(6)
    assert G.edges == sorted([(a, b), (a, d), (b, c), (b, d),
                              (c, e), (d, e), (d, f), (e, f)])
    check = is_bipartite(G)
    assert not check and len(check.odd_cycle) % 2 == 1
    verdict(2, "facet list, dual graph, and odd-cycle witness confirmed")


def test_criterion_03_bipartite_subcomplex_63_not_balanced():
    K = snd_subcomplex(6, 3)
    full = set(cyclic_minimal_triangulation(6, 3).facets)
    assert set(K.facets) == full - {(2, 3, 4, 5)}
    assert is_bipartite(dual_graph(K))
    assert balanced_coloring(K) is None
    verdict(3, "5 facets, bipartite dual graph, no balanced coloring")


def test_criterion_04_exact_decoration_checks():
    start = time.perf_counter()
    f63 = catalog.snd63_fixture()
    ok, failing = is_positively_decorated(f63.complex, f63.coefficients)
    assert ok and len(f63.complex.facets) == 5
    f115 = catalog.snd115_fixture()
    ok, failing = is_positively_decorated(f115.complex, f115.coefficients)
    assert ok and len(f115.complex.facets) == 38
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    verdict(4, f"5/5 and 38/38 facets exactly decorated in {elapsed:.3f}s")


def brute_force_cyclic_facets(n, d):
    out = []
    for subset in combinations(range(1, n + 1), d + 1):
        inside = set(subset)
        if all(sum(1 for j in subset if j > i) % 2 == 0
               for i in range(1, n + 1) if i not in inside):
            out.append(subset)
    return sorted(out)


def test_criterion_05_cyclic_facet_counts():
    for n in range(2, 13):
        for d in range(1, n):
            K = cyclic_minimal_triangulation(n, d)
            if d % 2 == 1:
                expected = math.comb(n - (d + 1) // 2, (d + 1) // 2)
            else:
                expected = math.comb(n - 1 - d // 2, d // 2)
            assert len(K.facets) == expected == cyclic_facet_count(n, d)
            if n <= 10:
                assert list(K.facets) == brute_force_cyclic_facets(n, d)
    verdict(5, "closed-form counts to n=12, brute-force parity to n=10")


def test_criterion_06_planar_fixture_end_to_end():
    start = time.perf_counter()
    f = catalog.planar_hexagon_fixture()
    r = regularity_check(f.configuration, f.heights, f.complex)
    assert r.ok
    C = decoration_from_coloring(f.coloring, 7, 2)
    ok, _ = is_positively_decorated(f.complex, C)
    assert ok
    S = build_viro_system(f.configuration, C, f.heights)
    result = certified_positive_count(S, f.complex, Fraction(1, 1000))
    assert result.count >= 6
    assert all(w.residual < mp.mpf("1e-10") for w in result.witnesses)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    verdict(6, f"{result.count} distinct positive roots at t=1/1000 "
               f"in {elapsed:.2f}s")


def test_criterion_07_snd63_system_five_roots():
    start = time.perf_counter()
    f = catalog.snd63_fixture()
    S = build_viro_system(f.configuration, f.coefficients, f.heights)
    result = certified_positive_count(S, f.complex, Fraction(1, 100))
    assert result.count >= 5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    verdict(7, f"{result.count} distinct positive roots at t=1/100 "
               f"in {elapsed:.2f}s")


def prism_display_matrix(fam):
    """Coefficient matrix of the displayed prism system: each equation
    collects the coordinate-sum-s monomials against the constant 1."""
    rows = [[0] * 6 for _ in range(3)]
    for j, p in enumerate(fam.configuration.points):
        s = int(sum(p))
        if s == 0:
            for i in range(3):
                rows[i][j] = -1
        else:
            rows[s - 1][j] = 1
    return RationalMatrix(rows)


def random_poset(rnd, d):
    rels = [(a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)
            if rnd.random() < 0.4]
    return Poset.from_relations(d, rels)


def test_criterion_08_order_polytopes():
    assert len(order_polytope_triangulation(Poset.chain(4)).complex.facets) == 1
    for d in range(2, 7):
        fam = order_polytope_triangulation(Poset.antichain(d))
        assert len(fam.complex.facets) == math.factorial(d)
    prism = order_polytope_triangulation(Poset.from_relations(3, [(1, 2)]))
    assert len(prism.complex.facets) == 3
    C = prism_display_matrix(prism)
    S = build_viro_system(prism.configuration, C, prism.heights)
    assert render_system(S).splitlines() == [
        "f1 = - 1 + t*Z + t*Y",
        "f2 = - 1 + t^4*Y*Z + t^4*X*Y",
        "f3 = - 1 + t^9*X*Y*Z",
    ]
    ok, _ = is_positively_decorated(prism.complex, C)
    assert ok
    rnd = random.Random(3)
    for _ in range(20):
        d = rnd.randint(2, 6)
        fam = order_polytope_triangulation(random_poset(rnd, d))
        assert is_unimodular(fam.complex, fam.configuration)
        assert regularity_check(fam.configuration, fam.heights,
                                fam.complex).ok
        C = decoration_from_coloring(fam.coloring, fam.complex.n_vertices, d)
        ok, _ = is_positively_decorated(fam.complex, C)
        assert ok
    verdict(8, "chain/antichain/prism shapes and 20 random posets verified")


def test_criterion_09_cross_polytopes():
    for d in range(1, 11):
        fam = cross_polytope_triangulation(d)
        assert len(fam.complex.facets) == 2 ** d
        assert total_normalized_volume(fam.complex, fam.configuration) \
            == 2 ** d
        C = decoration_from_coloring(fam.coloring, 2 * d + 1, d)
        ok, _ = is_positively_decorated(fam.complex, C)
        assert ok
        assert regularity_check(fam.configuration, fam.heights,
                                fam.complex).ok
    verdict(9, "2^d facets, volume 2^d, decoration and regularity to d=10")


def test_criterion_10_asymptotic_ratio():
    previous = 0.0
    for d in range(9, 22, 2):
        ratio = count_snd(2 * d + 1, d) / asymptotic_estimate(d)
        assert ratio > previous  # monotonically approaching 1 from below
        previous = ratio
    assert abs(previous - 1) < 0.15
    verdict(10, f"estimate ratio {previous:.5f} at d=21, monotone over 9..21")


def test_criterion_10_growth_rate_gap():
    """Per-dimension growth rate against the limit sqrt(2) + 1.

    The count behaves like c_d ~ K * (sqrt(2)+1)^d / sqrt(d), so the plain
    d-th root c_d^(1/d) carries a (K/sqrt(d))^(1/d) factor that is still
    about 0.935 at d=21 (a 6.5% gap, below 2% only from d=111 on).  Dividing
    out the polynomial factor leaves (c_d * sqrt(d))^(1/d) ~ K^(1/d) *
    (sqrt(2)+1), whose gap to the limit is what 2% bounds at d=21; K itself
    is not used.  The plain root's gap must still shrink with d.
    """
    limit = math.sqrt(2) + 1
    previous = math.inf
    for d in range(9, 22, 2):
        c = count_snd(2 * d + 1, d)
        plain_gap = abs(c ** (1 / d) - limit) / limit
        assert plain_gap < previous, (
            f"plain gap {plain_gap:.4f} at d={d} does not shrink "
            f"(previous {previous:.4f})"
        )
        previous = plain_gap
    d = 21
    root = (count_snd(2 * d + 1, d) * math.sqrt(d)) ** (1 / d)
    gap = abs(root - limit) / limit
    assert gap < 0.02, (
        f"(c_d*sqrt(d))^(1/d) = {root:.5f} at d=21 vs limit {limit:.5f}: "
        f"relative gap {gap:.4f} exceeds 2%; with c_d ~ K*(sqrt(2)+1)^d/"
        f"sqrt(d) only the constant K^(1/d) should remain"
    )
    verdict(10, f"(c_d*sqrt(d))^(1/d) within {gap:.2%} of sqrt(2)+1 at d=21; "
                f"plain gap {previous:.2%}, shrinking over 9..21")


def test_criterion_11_completion_pipeline():
    start = time.perf_counter()
    outcome = decorate(snd_subcomplex(6, 3), restarts=100, seed=0)
    elapsed = time.perf_counter() - start
    assert outcome.decoration is not None
    ok, _ = is_positively_decorated(snd_subcomplex(6, 3), outcome.decoration)
    assert ok
    assert elapsed < 60.0
    # Appendix A from scratch: a short search on the (11, 5) subcomplex
    # must find a decoration that verifies exactly
    stretch = decorate(snd_subcomplex(11, 5), restarts=3, seed=0)
    assert stretch.method == "sign search"
    ok, _ = is_positively_decorated(snd_subcomplex(11, 5), stretch.decoration)
    assert ok
    verdict(11, f"(6,3) decorated via sign search in {elapsed:.1f}s; "
                f"(11,5) decorated from scratch")


def test_criterion_12_multilinear_solution_counts():
    for parts in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        system = multilinear_tp_system(parts)
        d = sum(parts)
        expected = math.factorial(d)
        for p in parts:
            expected //= math.factorial(p)
        assert len(system.solutions) == expected
        assert len(set(system.solutions)) == expected
        assert all(x > 0 for sol in system.solutions for x in sol)
    verdict(12, "multinomial-many distinct positive solutions per partition")


def random_matrix(rnd, d):
    return RationalMatrix(
        [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
          for _ in range(d + 1)] for _ in range(d)])


def test_criterion_13a_orientation_equivalences():
    rnd = random.Random(1)
    oriented_seen = 0
    for _ in range(1000):
        d = rnd.randint(1, 5)
        M = random_matrix(rnd, d)
        minors = maximal_minors(M)
        char_minors = (all(m != 0 for m in minors) and len(
            {1 if (-1) ** i * m > 0 else -1
             for i, m in enumerate(minors, start=1)}) == 1)
        assert is_oriented(M) == char_minors
        if any(m != 0 for m in minors) and rank(M) == d:
            v = positive_kernel_vector(M)
            assert char_minors == (v is not None)
            if v is not None:
                oriented_seen += 1
                assert all(x > 0 for x in v)
                assert all(s == 0 for s in matvec(M, v))
    assert oriented_seen > 0
    verdict(13, "orientation equivalences on 1000 random matrices")


def test_criterion_13b_adjacent_signs_opposite():
    from virodecor.exactlinalg import determinant

    rnd = random.Random(5)
    found = 0
    while found < 20:
        d = rnd.randint(2, 3)
        A = PointConfiguration.from_rows(
            [[rnd.randint(-4, 4) for _ in range(d)] for _ in range(d + 2)])
        shared = tuple(range(2, d + 2))
        # the two simplices must lie on opposite sides of the shared face,
        # otherwise they do not form a simplicial complex
        try:
            det1 = determinant(lifted_matrix(A, shared + (1,)))
            det2 = determinant(lifted_matrix(A, shared + (d + 2,)))
        except ValueError:
            continue
        if det1 == 0 or det2 == 0 or (det1 > 0) == (det2 > 0):
            continue
        K = SimplicialComplex.from_facets(
            d, d + 2, [tuple(range(1, d + 2)), tuple(range(2, d + 3))])
        C = RationalMatrix(
            [[Fraction(rnd.randint(-9, 9), rnd.randint(1, 4))
              for _ in range(d + 2)] for _ in range(d)])
        ok, _ = is_positively_decorated(K, C)
        if not ok:
            continue
        signs = simplex_signs(K, A, C)
        assert signs[K.facets[0]] == -signs[K.facets[1]]
        found += 1
    verdict(13, "opposite signs on 20 random adjacent decorated pairs")


def test_criterion_13c_jacobian_finite_differences():
    from test_numerics import test_jacobian_matches_finite_differences

    test_jacobian_matches_finite_differences()
    verdict(13, "Jacobian vs central differences on 100 random systems")
