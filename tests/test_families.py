"""Families: cyclic triangulations, counting routes, order/cross polytopes,
multilinear totally positive systems."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from virodecor import families
from virodecor.catalog import DIAGONAL_COUNTS
from virodecor.complexes import (
    SimplicialComplex,
    decoration_from_coloring,
    dual_graph,
    is_bipartite,
    is_positively_decorated,
    is_unimodular,
    total_normalized_volume,
)
from virodecor.exactlinalg import RationalMatrix, determinant
from virodecor.families import (
    Poset,
    _count_snd_direct,
    _pair_facets,
    asymptotic_estimate,
    count_snd,
    count_snd_series,
    cross_polytope_triangulation,
    cyclic_facet_count,
    cyclic_heights,
    cyclic_minimal_triangulation,
    cyclic_points,
    diagonal_coefficients,
    linear_extensions,
    multilinear_tp_system,
    order_polytope_triangulation,
    snd_subcomplex,
)
from virodecor.viro import regularity_check


# -- cyclic polytopes ------------------------------------------------------


def brute_force_cyclic_facets(n, d):
    """Independent oracle: a (d+1)-subset is a facet of the minimal
    triangulation iff every outside index is followed by an even number of
    inside indices."""
    out = []
    for subset in combinations(range(1, n + 1), d + 1):
        inside = set(subset)
        if all(sum(1 for j in subset if j > i) % 2 == 0
               for i in range(1, n + 1) if i not in inside):
            out.append(subset)
    return sorted(out)


def brute_force_gap_tuples(lo, hi, k):
    """Every combination of [lo, hi], filtered to consecutive gaps >= 2."""
    return [c for c in combinations(range(lo, hi + 1), k)
            if all(b - a >= 2 for a, b in zip(c, c[1:]))]


def survives(starts):
    """The bipartite subcomplex's rule: i_j odd or i_{j+1} - i_j > 2."""
    return all(a % 2 == 1 or b - a > 2 for a, b in zip(starts, starts[1:]))


def pairs(starts):
    return tuple(v for i in starts for v in (i, i + 1))


def brute_force_snd_facets(n, d):
    """Gale-evenness facets whose pair starts meet the survival rule.

    An odd-d facet of the minimal triangulation is a union of adjacent
    pairs, so its pair starts are its entries at even positions."""
    return [f for f in brute_force_cyclic_facets(n, d) if survives(f[::2])]


def test_cyclic_63_facets():
    K = cyclic_minimal_triangulation(6, 3)
    assert list(K.facets) == [(1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6),
                              (2, 3, 4, 5), (2, 3, 5, 6), (3, 4, 5, 6)]


@pytest.mark.parametrize("n", range(3, 13))
def test_cyclic_facet_counts_closed_form(n):
    for d in range(1, n):
        K = cyclic_minimal_triangulation(n, d)
        assert len(K.facets) == cyclic_facet_count(n, d)


@pytest.mark.parametrize("n", range(3, 11))
def test_cyclic_facets_match_brute_force(n):
    for d in range(1, n):
        K = cyclic_minimal_triangulation(n, d)
        assert list(K.facets) == brute_force_cyclic_facets(n, d)
    # the pair-start recursion, up to hi = 15, with and without the
    # bipartite subcomplex's survival rule
    for lo in (1, 2):
        for hi in (n - 1, n + 5):
            for k in range(7):
                starts = brute_force_gap_tuples(lo, hi, k)
                assert (list(_pair_facets(lo, hi, k))
                        == list(map(pairs, starts)))
                assert (list(_pair_facets(lo, hi, k, snd=True))
                        == [pairs(s) for s in starts if survives(s)])


def test_cyclic_triangulation_is_regular_under_power_heights():
    for n, d in [(6, 3), (7, 4), (8, 5)]:
        A = cyclic_points(n, d)
        r = regularity_check(A, cyclic_heights(n, d),
                             cyclic_minimal_triangulation(n, d))
        assert r.ok and r.sense == "convex"


def test_cyclic_triangulation_not_bipartite():
    for n, d in [(6, 3), (7, 3), (8, 5), (10, 3)]:
        assert not is_bipartite(dual_graph(cyclic_minimal_triangulation(n, d)))


def test_snd_subcomplex_is_bipartite():
    for n, d in [(6, 3), (8, 3), (9, 5), (11, 5)]:
        assert is_bipartite(dual_graph(snd_subcomplex(n, d)))


def test_family_complexes_equal_their_sorted_builds():
    # the constructors skip from_facets: their facets come out sorted
    for n, d in [(4, 3), (6, 3), (9, 4), (11, 5), (13, 6), (14, 7), (20, 9)]:
        complexes = [cyclic_minimal_triangulation(n, d)]
        if d % 2:
            complexes.append(snd_subcomplex(n, d))
        for K in complexes:
            shuffled = [tuple(random.Random(n).sample(f, len(f)))
                        for f in reversed(K.facets)]
            assert K == SimplicialComplex.from_facets(d, n, shuffled)


def test_snd_facet_counts():
    assert len(snd_subcomplex(6, 3).facets) == 5
    assert len(snd_subcomplex(11, 5).facets) == 38


@pytest.mark.parametrize("d", [1, 3, 5, 7, 9, 11, 13])
def test_snd_facets_match_brute_force(d):
    for n in range(d + 1, 15):
        assert list(snd_subcomplex(n, d).facets) == brute_force_snd_facets(n, d)


@pytest.mark.parametrize("d", [7, 9, 11, 13])
def test_table1_counts_from_built_complexes(d):
    """Table 1 from the complexes themselves, not only the formulas."""
    K = snd_subcomplex(2 * d + 1, d)
    assert len(K.facets) == DIAGONAL_COUNTS[d]
    assert is_bipartite(dual_graph(K))


# -- counting routes -------------------------------------------------------


def test_count_routes_agree_with_enumeration():
    for d in (1, 3, 5, 7, 9, 11, 13):
        for n in range(d + 1, 15):
            direct = _count_snd_direct(n, d)
            assert count_snd(n, d) == direct
            assert count_snd_series(n, d) == direct


def test_diagonal_counts():
    diag = diagonal_coefficients(11)
    for d, expected in DIAGONAL_COUNTS.items():
        assert count_snd(2 * d + 1, d) == expected
        assert diag[(d + 1) // 2] == expected


def test_asymptotic_estimate_in_right_ballpark():
    for d in (9, 13, 17, 21):
        ratio = count_snd(2 * d + 1, d) / asymptotic_estimate(d)
        assert 0.8 < ratio < 1.2


# -- order polytopes -------------------------------------------------------


def test_poset_validation():
    with pytest.raises(ValueError):
        Poset.from_relations(2, [(1, 2), (2, 1)])
    with pytest.raises(ValueError):
        Poset.from_relations(2, [(1, 3)])
    P = Poset.from_relations(3, [(1, 2), (2, 3)])
    assert P.less(1, 3)  # transitive closure


def test_linear_extension_counts():
    assert len(list(linear_extensions(Poset.chain(5)))) == 1
    assert len(list(linear_extensions(Poset.antichain(4)))) == 24
    prism = Poset.from_relations(3, [(1, 2)])
    assert len(list(linear_extensions(prism))) == 3


def test_order_polytope_chain_is_one_simplex():
    fam = order_polytope_triangulation(Poset.chain(4))
    assert len(fam.complex.facets) == 1
    assert fam.complex.n_vertices == 5


def test_order_polytope_antichain_has_factorial_facets():
    for d in range(2, 6):
        fam = order_polytope_triangulation(Poset.antichain(d))
        assert len(fam.complex.facets) == math.factorial(d)
        assert fam.complex.n_vertices == 2 ** d


def test_order_polytope_prism():
    fam = order_polytope_triangulation(Poset.from_relations(3, [(1, 2)]))
    assert len(fam.complex.facets) == 3
    assert fam.heights == tuple(Fraction(x) for x in (0, 1, 1, 4, 4, 9))
    points = set(fam.configuration.points)
    assert points == {
        (0, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1),
    }


def random_poset(rnd, d):
    """Random DAG on 1..d: only relations a < b on labels, hence acyclic."""
    rels = [(a, b) for a in range(1, d + 1) for b in range(a + 1, d + 1)
            if rnd.random() < 0.4]
    return Poset.from_relations(d, rels)


def test_order_polytope_triangulations_random_posets():
    rnd = random.Random(7)
    for _ in range(20):
        d = rnd.randint(2, 6)
        fam = order_polytope_triangulation(random_poset(rnd, d))
        assert is_unimodular(fam.complex, fam.configuration)
        r = regularity_check(fam.configuration, fam.heights, fam.complex)
        assert r.ok
        # the coordinate-sum coloring is proper and decorates
        for a, b in fam.complex.skeleton_edges():
            assert fam.coloring[a] != fam.coloring[b]
        C = decoration_from_coloring(fam.coloring, fam.complex.n_vertices, d)
        ok, _ = is_positively_decorated(fam.complex, C)
        assert ok


# -- cross polytopes -------------------------------------------------------


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_cross_polytope_structure(d):
    fam = cross_polytope_triangulation(d)
    assert len(fam.complex.facets) == 2 ** d
    assert fam.complex.n_vertices == 2 * d + 1
    assert is_unimodular(fam.complex, fam.configuration)
    assert total_normalized_volume(fam.complex, fam.configuration) == 2 ** d
    r = regularity_check(fam.configuration, fam.heights, fam.complex)
    assert r.ok
    C = decoration_from_coloring(fam.coloring, 2 * d + 1, d)
    ok, _ = is_positively_decorated(fam.complex, C)
    assert ok


# -- multilinear totally positive systems ----------------------------------


def all_minors_positive(M):
    """Exhaustive strict total positivity check (small matrices only)."""
    for size in range(1, min(M.rows, M.cols) + 1):
        for rows in combinations(range(M.rows), size):
            for cols in combinations(range(M.cols), size):
                sub = RationalMatrix([[M[i, j] for j in cols] for i in rows])
                if determinant(sub) <= 0:
                    return False
    return True


def multinomial(parts):
    d = sum(parts)
    out = math.factorial(d)
    for p in parts:
        out //= math.factorial(p)
    return out


def compositions(d):
    """Every ordered tuple of positive parts summing to d."""
    if d == 0:
        yield ()
    for first in range(1, d + 1):
        for rest in compositions(d - first):
            yield (first,) + rest


def product_equations(system, sol):
    """Equation i at sol: the product over u of the block-u alternating
    form (-1)^1 T_u[0, i] x_1 + ... + (-1)^du T_u[du-1, i] x_du
    + (-1)^(du+1) T_u[du, i], each block reading its own du variables."""
    values = []
    for i in range(sum(system.parts)):
        value = Fraction(1)
        offset = 0
        for du, T in zip(system.parts, system.matrices):
            X = sol[offset:offset + du]
            value *= (sum((-1) ** (j + 1) * T[j, i] * x
                          for j, x in enumerate(X))
                      + (-1) ** (du + 1) * T[du, i])
            offset += du
        values.append(value)
    return values


@pytest.mark.parametrize("parts", [p for d in range(1, 6)
                                   for p in compositions(d)])
def test_multilinear_solution_counts(parts):
    """Every composition of d <= 5: multinomially many distinct positive
    branch solutions, each solving the product equations exactly."""
    system = multilinear_tp_system(parts)
    assert system.parts == parts
    assert len(system.solutions) == multinomial(parts)
    assert len(set(system.solutions)) == len(system.solutions)
    for sol in system.solutions:
        assert len(sol) == sum(parts)
        assert all(x > 0 for x in sol)
        assert product_equations(system, sol) == [0] * sum(parts)


def test_multilinear_solutions_satisfy_block_equations():
    system = multilinear_tp_system((2, 1))
    for blocks, sol in zip(system.block_partitions, system.solutions):
        offset = 0
        for u, block in enumerate(blocks):
            du = system.parts[u]
            T = system.matrices[u]
            X = sol[offset:offset + du]
            for i in block:
                total = sum((-1) ** (j + 1) * T[j, i - 1] * x
                            for j, x in enumerate(X))
                total += (-1) ** (du + 1) * T[du, i - 1]
                assert total == 0
            offset += du


def test_generated_matrices_are_strictly_totally_positive():
    for parts in [(1, 1), (2, 1), (2, 2)]:
        system = multilinear_tp_system(parts)
        for T in system.matrices:
            assert all_minors_positive(
                RationalMatrix([[T[i, j] for j in range(min(T.cols, 4))]
                                for i in range(T.rows)]))


@pytest.mark.parametrize("kernel, message", [
    (lambda M: None, "no positive kernel vector"),
    # every branch at x = 1
    (lambda M: (Fraction(1),) * M.cols, "share a solution"),
])
def test_multilinear_failed_exact_check_raises(monkeypatch, kernel, message):
    monkeypatch.setattr(families, "positive_kernel_vector", kernel)
    with pytest.raises(ArithmeticError, match=message):
        multilinear_tp_system((1, 1))
