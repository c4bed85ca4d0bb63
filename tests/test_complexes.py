"""Complexes: dual graphs, bipartiteness, colorings, decorations, signs."""

import dataclasses
import pickle
import random
from collections import Counter, deque
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virodecor import catalog, completion, complexes, exactlinalg
from virodecor.cli import main
from virodecor.complexes import (
    DualGraph,
    SimplicialComplex,
    balanced_coloring,
    coloring_to_json_dict,
    decoration_from_coloring,
    dual_graph,
    is_bipartite,
    is_positively_decorated,
    is_unimodular,
    normalized_volume,
    simplex_signs,
    total_normalized_volume,
)
from virodecor.exactlinalg import (
    RationalMatrix,
    _oriented,
    determinant,
    eliminate_prefixes,
    integer_rows,
    prefix_trie,
)
from virodecor.families import (
    Poset,
    cross_polytope_triangulation,
    cyclic_minimal_triangulation,
    cyclic_points,
    order_polytope_triangulation,
    snd_subcomplex,
)

from exact_oracles import column


O63 = cyclic_minimal_triangulation(6, 3)
O63_FACETS = [(1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6),
              (2, 3, 4, 5), (2, 3, 5, 6), (3, 4, 5, 6)]


def dual_graph_pairwise(K):
    """Intersect every pair of facets; independent of the ridge index."""
    d = K.dimension
    adjacency = {i: set() for i in range(len(K.facets))}
    sets = [frozenset(f) for f in K.facets]
    for i, j in combinations(range(len(sets)), 2):
        if len(sets[i] & sets[j]) == d:
            adjacency[i].add(j)
            adjacency[j].add(i)
    return DualGraph(len(sets), adjacency)


def _component_coloring_with_recheck(K, G, component):
    d = K.dimension
    start = min(component)
    coloring = {v: c for c, v in enumerate(K.facets[start])}
    queue = deque([start])
    visited = {start}
    while queue:
        i = queue.popleft()
        for j in sorted(G.adjacency[i]):
            if j in visited:
                continue
            facet = K.facets[j]
            known = {v: coloring[v] for v in facet if v in coloring}
            used = list(known.values())
            if len(set(used)) != len(used):
                return None
            missing = set(range(d + 1)) - set(used)
            for v in facet:
                if v not in known:
                    if len(missing) != 1:
                        return None
                    coloring[v] = missing.pop()
            visited.add(j)
            queue.append(j)
    for i in component:
        if len({coloring[v] for v in K.facets[i]}) != d + 1:
            return None
    return coloring


def balanced_coloring_with_skeleton_pass(K):
    """Reference coloring on the pairwise graph: components found apart,
    each component's coloring re-checked rainbow, the components reconciled,
    then a final check of the whole 1-skeleton."""
    if not K.facets:
        return {}
    d = K.dimension
    G = dual_graph_pairwise(K)
    components, seen = [], set()
    for i in range(G.n_nodes):
        if i in seen:
            continue
        comp, queue = [], deque([i])
        seen.add(i)
        while queue:
            v = queue.popleft()
            comp.append(v)
            for w in G.adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        components.append(sorted(comp))
    partials = []
    for comp in components:
        coloring = _component_coloring_with_recheck(K, G, comp)
        if coloring is None:
            return None
        partials.append(coloring)
    edges = K.skeleton_edges()

    def consistent(assigned):
        return not any(assigned.get(a) is not None
                       and assigned.get(a) == assigned.get(b)
                       for a, b in edges)

    def backtrack(idx, assigned):
        if idx == len(partials):
            return dict(assigned)
        for perm in permutations(range(d + 1)):
            candidate = {v: perm[c] for v, c in partials[idx].items()}
            if any(v in assigned and assigned[v] != c
                   for v, c in candidate.items()):
                continue
            merged = {**assigned, **candidate}
            if not consistent(merged):
                continue
            result = backtrack(idx + 1, merged)
            if result is not None:
                return result
        return None

    result = backtrack(0, {})
    if result is None:
        return None
    for a, b in edges:
        if result[a] == result[b]:
            return None
    return result


@st.composite
def complexes_up_to_dim_4(draw):
    """Random facet subsets of all (d+1)-subsets of a few vertices, so some
    ridges lie in three or more facets."""
    d = draw(st.integers(0, 4))
    n = draw(st.integers(d + 1, d + 4))
    candidates = list(combinations(range(1, n + 1), d + 1))
    facets = draw(st.lists(st.sampled_from(candidates), unique=True,
                           max_size=25))
    return SimplicialComplex.from_facets(d, n, facets)


# a ridge in three facets; d = 0 (every pair joined); the empty complex
RIDGE_IN_THREE = SimplicialComplex.from_facets(1, 4, [(1, 2), (1, 3), (1, 4)])
POINTS = SimplicialComplex.from_facets(0, 3, [(1,), (2,), (3,)])
EMPTY = SimplicialComplex.from_facets(2, 5, [])
# isolated triangles: six whose skeleton holds K4 on 1..4, which no three
# colors can color; three that reconcile to one coloring
K4_IN_SIX = SimplicialComplex.from_facets(2, 10, [
    (1, 2, 5), (1, 3, 6), (1, 4, 7), (2, 3, 8), (2, 4, 9), (3, 4, 10)])
THREE_TRIANGLES = SimplicialComplex.from_facets(2, 6, [
    (1, 2, 4), (2, 3, 5), (1, 3, 6)])


def complete_graph_in_lone_facets(d, k):
    """One d-facet {a, b, ...} for each pair a < b of 1..k, its other d - 1
    vertices its own: the skeleton holds K_k, and no facets are adjacent."""
    facets = []
    for a, b in combinations(range(1, k + 1), 2):
        first = k + 1 + len(facets) * (d - 1)
        facets.append((a, b, *range(first, first + d - 1)))
    return SimplicialComplex.from_facets(d, k + len(facets) * (d - 1), facets)


def test_complex_validation():
    with pytest.raises(ValueError):
        SimplicialComplex(1, 3, ((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        SimplicialComplex(1, 2, ((1, 3),))
    with pytest.raises(ValueError):
        SimplicialComplex(1, 3, ((1, 2), (1, 2)))
    for vertex in (3.5, 3.0, True, "3"):
        with pytest.raises(ValueError, match="not an integer"):
            SimplicialComplex(2, 4, ((1, 2, vertex),))


@pytest.mark.parametrize("facets, message", [
    (((1, 2),), "facet (1, 2) does not have 3 vertices"),
    (((1, 1, 2),), "facet (1, 1, 2) is not strictly increasing"),
    (((1, 3, 2),), "facet (1, 3, 2) is not strictly increasing"),
    (((0, 1, 2),), "facet (0, 1, 2) out of vertex range 1..4"),
    (((1, 2, 5),), "facet (1, 2, 5) out of vertex range 1..4"),
    (((1, 2, 3), (2, 3, 4), (1, 2, 3)), "duplicate facet (1, 2, 3)"),
    (((1, 2, 3.0),), "facet vertex 3.0 is not an integer"),
])
def test_complex_validation_messages(facets, message):
    with pytest.raises(ValueError) as info:
        SimplicialComplex(2, 4, facets)
    assert str(info.value) == message


def test_complex_json_roundtrip():
    K = SimplicialComplex.from_facets(2, 4, [(1, 2, 3), (2, 3, 4)])
    assert SimplicialComplex.from_json(K.to_json()) == K


def test_dual_graph_of_minimal_cyclic_triangulation():
    # facet indices follow the sorted facet list
    assert list(O63.facets) == O63_FACETS
    G = dual_graph(O63)
    a, b, c, d, e, f = range(6)  # 1234, 1245, 1256, 2345, 2356, 3456
    assert G.edges == sorted([
        (a, b), (a, d), (b, c), (b, d), (c, e), (d, e), (d, f), (e, f),
    ])


@settings(max_examples=300, deadline=None)
@given(complexes_up_to_dim_4())
@example(RIDGE_IN_THREE)
@example(POINTS)
@example(EMPTY)
def test_dual_graph_matches_pairwise_oracle(K):
    G, oracle = dual_graph(K), dual_graph_pairwise(K)
    assert G.n_nodes == oracle.n_nodes == len(K.facets)
    assert G.adjacency == oracle.adjacency


def test_dual_graph_joins_every_facet_through_a_ridge():
    assert dual_graph(RIDGE_IN_THREE).edges == [(0, 1), (0, 2), (1, 2)]
    assert dual_graph(POINTS).edges == [(0, 1), (0, 2), (1, 2)]
    assert dual_graph(EMPTY).adjacency == {}


@pytest.mark.parametrize("K", [snd_subcomplex(13, 5),
                               cyclic_minimal_triangulation(12, 5)],
                         ids=["snd-13-5", "cyclic-12-5"])
def test_dual_graph_matches_pairwise_oracle_on_families(K):
    assert dual_graph(K).adjacency == dual_graph_pairwise(K).adjacency


@settings(max_examples=150, deadline=None)
@given(complexes_up_to_dim_4())
@example(snd_subcomplex(13, 5))
@example(cyclic_minimal_triangulation(12, 5))
@example(RIDGE_IN_THREE)
def test_colorings_match_those_on_the_oracle_graph(K):
    check = is_bipartite(dual_graph(K))
    expected = is_bipartite(dual_graph_pairwise(K))
    assert check.colors == expected.colors
    assert check.odd_cycle == expected.odd_cycle
    coloring = balanced_coloring(K)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "dual_graph", dual_graph_pairwise)
        assert balanced_coloring(K) == coloring


@settings(max_examples=300, deadline=None)
@given(complexes_up_to_dim_4())
@example(K4_IN_SIX)
@example(THREE_TRIANGLES)
@example(RIDGE_IN_THREE)
@example(POINTS)
@example(EMPTY)
@example(complete_graph_in_lone_facets(3, 5))
@example(complete_graph_in_lone_facets(4, 5))
def test_balanced_coloring_matches_the_skeleton_pass_algorithm(K):
    coloring = balanced_coloring(K)
    expected = balanced_coloring_with_skeleton_pass(K)
    assert coloring == expected
    if coloring is not None:
        assert list(coloring.items()) == list(expected.items())


def test_balanced_coloring_reconciles_isolated_facets():
    for K in (K4_IN_SIX, THREE_TRIANGLES):
        assert not any(dual_graph(K).adjacency.values())
    assert balanced_coloring(K4_IN_SIX) is None
    assert balanced_coloring(THREE_TRIANGLES) == {
        1: 0, 2: 1, 4: 2, 3: 2, 6: 1, 5: 0}


def count_drawn(monkeypatch):
    """The candidates drawn from complexes.permutations, listed as drawn."""
    drawn = []
    permutations_ = complexes.permutations

    def counted(*args):
        for perm in permutations_(*args):
            drawn.append(perm)
            if len(drawn) > 100_000:
                raise AssertionError("more than 100,000 permutations drawn")
            yield perm

    monkeypatch.setattr(complexes, "permutations", counted)
    return drawn


def test_balanced_coloring_tries_each_coloring_of_the_shared_vertices_once(
        monkeypatch):
    """K6 in 15 lone 4-facets: five colors cannot color K6.  Two of the
    120 permutations of a facet's colors that agree on its vertices in
    1..6 fare alike, since its other vertices lie in no other facet, so
    the search tries one of them: at most the 5 * 4 colorings of those two
    vertices per search node.  Trying every permutation of each facet in
    turn did not end within 100 s, and drawing all 120 per node and
    skipping the repeats drew 38,520."""
    K = complete_graph_in_lone_facets(4, 6)
    assert (len(K.facets), K.n_vertices) == (15, 51)
    assert not any(dual_graph(K).adjacency.values())
    drawn = count_drawn(monkeypatch)
    assert balanced_coloring(K) is None
    assert len(drawn) == 1_300


def test_balanced_coloring_of_k7_in_lone_facets_draws_only_shared_colorings(
        monkeypatch):
    """K7 in 21 lone 5-facets: six colors cannot color K7.  Each search
    node draws at most the 6 * 5 colorings of its facet's two vertices in
    1..7; drawing all 720 permutations per node drew 1,404,720."""
    K = complete_graph_in_lone_facets(5, 7)
    assert (len(K.facets), K.n_vertices) == (21, 91)
    drawn = count_drawn(monkeypatch)
    assert balanced_coloring(K) is None
    assert len(drawn) == 9_780
    assert all(len(image) <= 2 for image in drawn)


def test_dual_graph_is_built_once_and_read_only(monkeypatch, tmp_path):
    builds = []

    def counted(K):
        builds.append(K)
        return ridge_graph(K)

    ridge_graph = complexes._ridge_graph
    monkeypatch.setattr(complexes, "_ridge_graph", counted)
    path = tmp_path / "K.json"
    path.write_text(snd_subcomplex(13, 5).to_json())
    result = CliRunner().invoke(main, ["check", "--complex", str(path),
                                       "--bipartite", "--balanced"])
    assert result.exit_code == 1 and "balanced: FAIL" in result.output
    assert len(builds) == 1

    K = snd_subcomplex(13, 5)
    outcome = completion.decorate(K, restarts=1)
    assert outcome.method == "sign search"
    assert len(builds) == 2 and builds[1] is K

    G = dual_graph(K)
    assert G is dual_graph(K) and len(builds) == 2
    with pytest.raises(AttributeError):
        G.adjacency[0].add(G.n_nodes - 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        G.adjacency = {}
    assert pickle.loads(pickle.dumps(K)) == K


def test_minimal_cyclic_triangulation_not_bipartite():
    check = is_bipartite(dual_graph(O63))
    assert not check
    cycle = check.odd_cycle
    assert len(cycle) % 2 == 1 and len(cycle) >= 3
    # witness must be a genuine cycle in the dual graph
    G = dual_graph(O63)
    for u, v in zip(cycle, cycle[1:] + cycle[:1]):
        assert v in G.adjacency[u]


def test_snd_subcomplex_bipartite_but_not_balanced():
    K = snd_subcomplex(6, 3)
    assert set(K.facets) == set(O63_FACETS) - {(2, 3, 4, 5)}
    assert is_bipartite(dual_graph(K))
    assert balanced_coloring(K) is None


def test_balanced_coloring_of_path_complex():
    K = SimplicialComplex.from_facets(1, 4, [(1, 2), (2, 3), (3, 4)])
    coloring = balanced_coloring(K)
    assert coloring is not None
    for a, b in K.facets:
        assert coloring[a] != coloring[b]


def test_balanced_coloring_across_components():
    # two disjoint triangles must still get consistent colors
    K = SimplicialComplex.from_facets(2, 6, [(1, 2, 3), (4, 5, 6)])
    coloring = balanced_coloring(K)
    assert coloring is not None
    for f in K.facets:
        assert len({coloring[v] for v in f}) == 3


def test_decoration_from_coloring_columns():
    C = decoration_from_coloring({1: 0, 2: 1, 3: 2}, 3, 2)
    assert column(C, 0) == (1, 0)
    assert column(C, 1) == (0, 1)
    assert column(C, 2) == (-1, -1)


def test_coloring_decorations_of_reference_fixtures():
    f = catalog.planar_hexagon_fixture()
    C = decoration_from_coloring(f.coloring, 7, 2)
    ok, failing = is_positively_decorated(f.complex, C)
    assert ok and failing == []


def test_exact_decoration_snd63():
    f = catalog.snd63_fixture()
    ok, failing = is_positively_decorated(f.complex, f.coefficients)
    assert ok and failing == []


def test_exact_decoration_snd115():
    f = catalog.snd115_fixture()
    assert len(f.complex.facets) == 38
    ok, failing = is_positively_decorated(f.complex, f.coefficients)
    assert ok and failing == []


def ridge_signs_match(K, C):
    """chi_tau * sign det C_tau is one nonzero sign on every facet and
    across every dual edge: the propagated targets are the signs of C's
    ridge minors up to one sign per component."""
    targets, conflict = completion.ridge_signs(K)
    assert conflict is None

    def ratio(tau):
        det = determinant(C.submatrix_columns([v - 1 for v in tau]))
        return targets[tau] * ((det > 0) - (det < 0))

    ratios = [{ratio(tau) for tau in combinations(f, K.dimension)}
              for f in K.facets]
    return (all(r in ({1}, {-1}) for r in ratios)
            and all(ratios[a] == ratios[b] for a, b in dual_graph(K).edges))


def _stored(fixture):
    f = fixture()
    return f.complex, f.coefficients


def _family_coloring(fam):
    K = fam.complex
    return K, decoration_from_coloring(fam.coloring, K.n_vertices,
                                       K.dimension)


def _sign_search(K):
    return K, completion.decorate(K, restarts=3, seed=0).decoration


@pytest.mark.parametrize("case", [
    lambda: _stored(catalog.snd63_fixture),
    lambda: _stored(catalog.snd115_fixture),
    *(lambda d=d: _family_coloring(cross_polytope_triangulation(d))
      for d in range(2, 6)),
    lambda: _family_coloring(order_polytope_triangulation(
        Poset.from_relations(3, [(1, 2)]))),
    lambda: _sign_search(snd_subcomplex(8, 5)),
], ids=["snd-6-3", "snd-11-5", "cross-2", "cross-3", "cross-4", "cross-5",
        "prism", "snd-8-5-sign-search"])
def test_ridge_signs_agree_with_decorations(case):
    assert ridge_signs_match(*case())


@settings(max_examples=150, deadline=None)
@given(complexes_up_to_dim_4())
@example(RIDGE_IN_THREE)
@example(THREE_TRIANGLES)
def test_ridge_signs_agree_with_balanced_colorings(K):
    coloring = balanced_coloring(K)
    if K.dimension == 0 or coloring is None:    # no d x n matrix for d = 0
        return
    assert ridge_signs_match(
        K, decoration_from_coloring(coloring, K.n_vertices, K.dimension))


def test_decoration_failure_reports_all_facets():
    f = catalog.snd63_fixture()
    # zeroing one column breaks every facet through vertex 3
    rows = f.coefficients.to_lists()
    for r in rows:
        r[2] = Fraction(0)
    from virodecor.exactlinalg import RationalMatrix

    ok, failing = is_positively_decorated(f.complex, RationalMatrix(rows))
    assert not ok
    assert set(failing) == {t for t in f.complex.facets if 3 in t}


def test_simplex_signs_alternate_on_adjacent_facets():
    f = catalog.planar_hexagon_fixture()
    C = decoration_from_coloring(f.coloring, 7, 2)
    signs = simplex_signs(f.complex, f.configuration, C)
    G = dual_graph(f.complex)
    for i, j in G.edges:
        assert signs[f.complex.facets[i]] == -signs[f.complex.facets[j]]


# Expected per-facet sign pattern of the planar fixture, up to a global flip.
PLANAR_HEXAGON_SIGNS = {
    (1, 2, 3): 1, (1, 3, 4): -1, (3, 4, 5): 1,
    (4, 5, 6): -1, (1, 2, 7): -1, (1, 4, 7): 1,
}


def test_simplex_signs_match_reference_pattern():
    f = catalog.planar_hexagon_fixture()
    C = decoration_from_coloring(f.coloring, 7, 2)
    signs = simplex_signs(f.complex, f.configuration, C)
    flips = {signs[k] * v for k, v in PLANAR_HEXAGON_SIGNS.items()}
    assert flips in ({1}, {-1})  # equal up to one global flip


def test_normalized_volume_unit_simplex():
    from virodecor.complexes import PointConfiguration

    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    assert normalized_volume(A, (1, 2, 3)) == 1
    assert is_unimodular(SimplicialComplex.from_facets(2, 3, [(1, 2, 3)]), A)


def test_lifted_determinants_refuse_a_matrix_that_is_not_square():
    """simplex_signs and normalized_volume read one walk each; a lifted C
    of the wrong height or a facet of the wrong length is refused before
    it, and an empty C or configuration by the walk's vertex range."""
    from virodecor.complexes import PointConfiguration

    K = SimplicialComplex.from_facets(1, 2, [(1, 2)])
    A = PointConfiguration.from_rows([(0,), (1,)])
    for call in (lambda: simplex_signs(K, A, RationalMatrix([[1, 2]] * 2)),
                 lambda: normalized_volume(A, (1, 2, 1))):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == "determinant requires a square matrix"
    empty = SimplicialComplex.from_facets(1, 2, [])
    assert simplex_signs(empty, A, RationalMatrix([[]])) == {}
    for call in (lambda: simplex_signs(K, A, RationalMatrix([[]])),
                 lambda: normalized_volume(PointConfiguration(1, ()), (1, 2))):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == ("vertex 1 of facet (1, 2) out of "
                                      "range 1..0")


def test_total_normalized_volume_of_cyclic_triangulation():
    A = cyclic_points(6, 3)
    # a full triangulation's simplices tile the polytope: volumes add up
    total = total_normalized_volume(O63, A)
    assert total == sum(normalized_volume(A, f) for f in O63.facets)
    assert total > 0


def coloring_from_json_dict(d):
    """Inverse of coloring_to_json_dict on colorings of 1..n."""
    return {v + 1: c for v, c in enumerate(d["colors"])}


def test_coloring_json_roundtrip():
    coloring = {1: 0, 2: 1, 3: 2, 4: 1}
    d = coloring_to_json_dict(coloring, 4)
    assert coloring_from_json_dict(d) == coloring


# -- the shared order of a complex's walks ---------------------------------


def shared_order_by_recount(facets):
    """The greedy shared-prefix listing, recounted from scratch at every
    branch: below a prefix, the vertex in most of the facets left comes
    next (the smaller label on ties), until every facet is listed."""
    listed = {}

    def branch(group, head):
        while group:
            counts = {}
            for f in group:
                for v in f:
                    if v not in head:
                        counts[v] = counts.get(v, 0) + 1
            if not counts:
                (f,) = group
                listed[f] = head
                return
            v = min(counts, key=lambda w: (-counts[w], w))
            branch([f for f in group if v in f], head + (v,))
            group = [f for f in group if v not in f]

    branch(list(facets), ())
    return [listed[f] for f in facets]


def relabelled(K, order):
    """K with vertex v renamed order[v - 1]."""
    return SimplicialComplex.from_facets(
        K.dimension, K.n_vertices,
        [[order[v - 1] for v in f] for f in K.facets])


@st.composite
def relabelled_complexes(draw):
    """Random complexes, and cross(3) and cross(4) under a random renaming
    of their vertices."""
    if draw(st.booleans()):
        return draw(complexes_up_to_dim_4())
    K = cross_polytope_triangulation(draw(st.sampled_from([3, 4]))).complex
    return relabelled(K, draw(st.permutations(range(1, K.n_vertices + 1))))


@settings(max_examples=200, deadline=None)
@given(relabelled_complexes())
@example(cross_polytope_triangulation(4).complex)
@example(RIDGE_IN_THREE)
@example(POINTS)
@example(EMPTY)
def test_shared_order_lists_each_facet_with_its_permutation_sign(K):
    listing = complexes._shared_order(K.facets)
    assert list(listing.facets) == shared_order_by_recount(K.facets)
    assert len(listing.parities) == len(K.facets)
    for facet, listed, parity in zip(K.facets, listing.facets,
                                     listing.parities):
        assert tuple(sorted(listed)) == facet
        # the permutation matrix taking the sorted facet to its listing
        moved = RationalMatrix([[int(v == w) for w in facet] for v in listed])
        assert determinant(moved) == parity


@settings(max_examples=200, deadline=None)
@given(relabelled_complexes())
@example(cross_polytope_triangulation(4).complex)
@example(RIDGE_IN_THREE)
def test_shared_order_branches_on_the_most_common_vertex(K):
    """Read off the listing itself: at every node, the prefix p that some
    listed facets share, the facets left branch in turn on the vertex
    that most of them contain beyond p, the smaller label on ties, and
    those that contain it are exactly the ones that list it next."""
    listed = complexes._shared_order(K.facets).facets
    for p in {f[:k] for f in listed for k in range(len(f))}:
        left = [f for f in listed if f[:len(p)] == p]
        while left:
            counts = Counter(v for f in left for v in f if v not in p)
            v = min(counts, key=lambda w: (-counts[w], w))
            assert ([f for f in left if v in f]
                    == [f for f in left if f[len(p)] == v])
            left = [f for f in left if v not in f]


def test_shared_order_differs_from_the_sorted_one_on_cross_polytopes():
    """cross(d) lists the origin first, then each +e_i or -e_i as the
    facets split; so the listing leaves the sorted order, with odd
    permutations among them."""
    K = cross_polytope_triangulation(3).complex
    assert K._listing.facets == (
        (1, 2, 3, 4), (1, 2, 3, 7), (1, 2, 6, 4), (1, 2, 6, 7),
        (1, 5, 3, 4), (1, 5, 3, 7), (1, 5, 6, 4), (1, 5, 6, 7))
    assert K._listing.parities == (1, 1, -1, 1, 1, -1, 1, 1)


def _counting_bareiss_steps(monkeypatch):
    steps = []
    step = exactlinalg._bareiss_step

    def counted(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(exactlinalg, "_bareiss_step", counted)
    return steps


def _generic_decoration(K, seed):
    rng = random.Random(seed)
    return RationalMatrix([[rng.choice([-1, 1]) * rng.randint(1, 9)
                            for _ in range(K.n_vertices)]
                           for _ in range(K.dimension)])


@pytest.mark.parametrize("K, sorted_steps, shared_steps", [
    (cross_polytope_triangulation(3).complex, 12, 7),
    (cross_polytope_triangulation(4).complex, 32, 15),
    (cross_polytope_triangulation(5).complex, 80, 31),
    (cross_polytope_triangulation(6).complex, 192, 63),
    (cross_polytope_triangulation(7).complex, 448, 127),
    (cross_polytope_triangulation(8).complex, 1024, 255),
    (snd_subcomplex(11, 5), 74, 49),
    (snd_subcomplex(15, 7), 382, 255),
    (cyclic_minimal_triangulation(12, 5), 154, 101),
], ids=["cross3", "cross4", "cross5", "cross6", "cross7", "cross8",
        "snd11-5", "snd15-7", "cyclic12-5"])
def test_decoration_walk_takes_no_more_pivot_steps_than_sorted_facets(
        monkeypatch, K, sorted_steps, shared_steps):
    """One Bareiss step per trie node: the shared order's trie is never
    larger than the sorted facets' one."""
    C = _generic_decoration(K, 0)
    steps = _counting_bareiss_steps(monkeypatch)
    columns, _ = integer_rows(zip(*C.to_lists()))
    by_sorted = eliminate_prefixes(columns, prefix_trie(K.facets), _oriented)
    assert len(steps) == sorted_steps
    steps.clear()
    ok, failing = is_positively_decorated(K, C)
    assert len(steps) == shared_steps <= sorted_steps
    assert failing == [f for f, good in zip(K.facets, by_sorted) if not good]


def test_cross8_decoration_takes_255_pivot_steps(monkeypatch):
    """2^k trie nodes at depth k + 1 for k < 8: the origin, then each
    +e_i or -e_i in turn; the sorted facets take 1,024 steps."""
    f = cross_polytope_triangulation(8)
    C = decoration_from_coloring(f.coloring, f.complex.n_vertices, 8)
    f.complex._listing    # the order is built once, with no pivot
    steps = _counting_bareiss_steps(monkeypatch)
    assert is_positively_decorated(f.complex, C) == (True, [])
    assert len(steps) == 255


def test_shared_order_is_built_by_the_first_walk_and_kept(monkeypatch):
    """Constructing a complex, its dual graph and its colorings build no
    order; the first decoration check builds it, and every later walk
    of the complex reads the same one."""
    builds = []
    shared_order = complexes._shared_order

    def counted(facets):
        builds.append(facets)
        return shared_order(facets)

    monkeypatch.setattr(complexes, "_shared_order", counted)
    fam = cross_polytope_triangulation(4)
    K, A = fam.complex, fam.configuration
    is_bipartite(dual_graph(K))
    balanced_coloring(K)
    snd_subcomplex(15, 7)
    assert builds == []
    C = decoration_from_coloring(fam.coloring, K.n_vertices, 4)
    assert is_positively_decorated(K, C) == (True, [])
    assert builds == [K.facets]
    complexes._lifted_table.cache_clear()
    simplex_signs(K, A, C)
    is_unimodular(K, A)
    total_normalized_volume(K, A)
    normalized_volume(A, K.facets[0])
    is_positively_decorated(K, C)
    assert builds == [K.facets]


def test_returned_colorings_are_copies():
    """Changing a returned 2-coloring, odd cycle or balanced coloring
    leaves the next call's answer as it was."""
    K = cross_polytope_triangulation(3).complex
    G = dual_graph(K)
    check = is_bipartite(G)
    colors = dict(check.colors)
    check.colors[0] = -check.colors[0]
    check.colors[len(K.facets)] = 1
    assert is_bipartite(G).colors == colors
    assert is_bipartite(G).colors is not is_bipartite(G).colors

    odd = is_bipartite(dual_graph(O63))
    cycle = list(odd.odd_cycle)
    odd.odd_cycle[0] = -1
    odd.odd_cycle.append(0)
    again = is_bipartite(dual_graph(O63))
    assert again.colors is None and again.odd_cycle == cycle

    coloring = balanced_coloring(K)
    expected = dict(coloring)
    coloring[1] = 99
    del coloring[2]
    assert balanced_coloring(K) == expected
    twin = SimplicialComplex(K.dimension, K.n_vertices, K.facets)
    assert balanced_coloring(twin) == expected
    assert is_bipartite(dual_graph(twin)).colors == colors


def test_decoration_checks_of_one_complex_build_its_trie_once(monkeypatch):
    """The complex's first decoration check builds the prefix trie of its
    listed facets; every later check, under any coefficient matrix, walks
    that same trie."""
    builds, walked = [], []
    trie = complexes.prefix_trie
    walk = complexes.eliminate_prefixes

    def counted(facets):
        builds.append(tuple(facets))
        return trie(facets)

    def walking(vectors, facet_trie, read):
        walked.append(facet_trie)
        return walk(vectors, facet_trie, read)

    monkeypatch.setattr(complexes, "prefix_trie", counted)
    monkeypatch.setattr(complexes, "eliminate_prefixes", walking)
    fam = cross_polytope_triangulation(5)
    K = fam.complex
    C = decoration_from_coloring(fam.coloring, K.n_vertices, 5)
    for seed in range(3):
        assert is_positively_decorated(K, C) == (True, [])
        is_positively_decorated(K, _generic_decoration(K, seed))
    assert builds == [K._listing.facets]
    assert len(walked) == 6 and all(t is walked[0] for t in walked)


@pytest.mark.parametrize("K", [
    cross_polytope_triangulation(4).complex,
    relabelled(cross_polytope_triangulation(5).complex,
               [3, 11, 1, 7, 5, 9, 2, 10, 4, 8, 6]),
    snd_subcomplex(11, 5),
    cyclic_minimal_triangulation(12, 5),
    O63,
], ids=["cross4", "cross5-relabelled", "snd11-5", "cyclic12-5", "cyclic6-3"])
def test_equal_complexes_give_equal_verdicts(K):
    """Two equal but distinct complexes, checked in turn under several
    matrices, each walk their own kept trie to the same verdicts and
    failing facets, which are those of the sorted facets' walk."""
    twin = SimplicialComplex(K.dimension, K.n_vertices, K.facets)
    assert twin == K and twin is not K
    matrices = [_generic_decoration(K, seed) for seed in range(4)]
    coloring = balanced_coloring(K)
    if coloring is not None:
        C = decoration_from_coloring(coloring, K.n_vertices, K.dimension)
        rows = C.to_lists()
        for row in rows:
            row[1] = -row[1]
        matrices += [C, RationalMatrix(rows)]
    for C in matrices:
        columns, _ = integer_rows(zip(*C.to_lists()))
        oriented = eliminate_prefixes(columns, prefix_trie(K.facets),
                                      _oriented)
        failing = [f for f, ok in zip(K.facets, oriented) if not ok]
        for L in (K, twin, K):
            assert is_positively_decorated(L, C) == (not failing, failing)
    assert K._listing.trie == twin._listing.trie
    assert K._listing.trie is not twin._listing.trie
