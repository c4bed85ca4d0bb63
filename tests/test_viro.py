"""Deformed systems: container, regularity certificates, truncated roots."""

from dataclasses import fields
from fractions import Fraction
from itertools import combinations

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virodecor import catalog, complexes, exactlinalg, viro
from virodecor.complexes import (
    PointConfiguration,
    SimplicialComplex,
    _lifted_table,
    decoration_from_coloring,
    is_positively_decorated,
    is_unimodular,
    normalized_volume,
    simplex_signs,
    total_normalized_volume,
)
from virodecor.exactlinalg import (
    RankDeficiencyError,
    RationalMatrix,
    determinant,
    eliminate_prefixes,
    positive_kernel_vector,
    prefix_trie,
    solve,
)
from virodecor.families import (
    Poset,
    cross_polytope_triangulation,
    cyclic_points,
    order_polytope_triangulation,
    snd_subcomplex,
)
from virodecor.precision import Arithmetic
from virodecor.viro import (
    RegularityReport,
    ViroSystem,
    _lu_factor,
    _lu_solve,
    build_viro_system,
    facet_affine_support,
    log_fraction,
    mpf_fraction,
    predicted_solutions,
    regularity_check,
    render_system,
    truncated_solution,
)

from exact_oracles import lifted_matrix, maximal_minors, transpose


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


def test_affine_support_needs_d_plus_one_vertices():
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    with pytest.raises(ValueError):
        facet_affine_support(A, [0, 1, 1], (1, 2))
    with pytest.raises(ValueError):
        regularity_check(A, [0, 1, 1],
                         SimplicialComplex.from_facets(1, 3, [(1, 2)]))


def test_affine_support_interpolates_exactly():
    f = catalog.snd63_fixture()
    for facet in f.complex.facets:
        b, a = facet_affine_support(f.configuration, f.heights, facet)
        for v in facet:
            point = f.configuration.points[v - 1]
            assert f.heights[v - 1] == b + sum(
                g * x for g, x in zip(a, point))


# -- the integer path against per-facet Fraction oracles -------------------


def facet_affine_support_by_solve(A, heights, facet):
    """Solve the transposed lifted system of one facet over Fractions."""
    sol = solve(transpose(lifted_matrix(A, facet)),
                [Fraction(heights[v - 1]) for v in facet])
    return sol[0], sol[1:]


def regularity_by_fraction_gaps(A, heights, K):
    """The hull test with every gap h_p - (offset + grad . a_p) a Fraction."""
    heights = [Fraction(h) for h in heights]
    above, below, ties = [], [], []
    for facet in K.facets:
        offset, grad = facet_affine_support_by_solve(A, heights, facet)
        for p in range(1, A.n_points + 1):
            if p in facet:
                continue
            gap = heights[p - 1] - offset - sum(
                g * x for g, x in zip(grad, A.points[p - 1]))
            (above if gap > 0 else below if gap < 0 else ties).append(
                (facet, p))
    if ties:
        return RegularityReport(False, None, ties)
    if above and below:
        return RegularityReport(False, None,
                                below if len(below) <= len(above) else above)
    return RegularityReport(True, "concave" if below else "convex", [])


def volume_by_determinant(A, facet):
    return abs(determinant(lifted_matrix(A, facet)))


def oriented_by_minors(M):
    """Every signed maximal minor (-1)^i * minor(M, i) nonzero, of one sign."""
    signed = [(-1) ** i * m for i, m in enumerate(maximal_minors(M))]
    return all(x > 0 for x in signed) or all(x < 0 for x in signed)


def simplex_signs_by_determinant(K, A, C):
    signs = {}
    for facet in K.facets:
        det_a = determinant(lifted_matrix(A, facet))
        if det_a == 0:
            raise ValueError(f"degenerate facet {facet}: lifted matrix singular")
        sub = C.submatrix_columns([v - 1 for v in facet]).to_lists()
        det_c = determinant(RationalMatrix([[1] * len(facet)] + sub))
        if det_c == 0:
            raise ValueError(f"facet {facet} is not decorated (singular lift)")
        signs[facet] = 1 if (det_a > 0) == (det_c > 0) else -1
    return signs


def outcome(fn, *args):
    """The result, or the type and message of the error raised."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


# mixed, non-unit denominators and negative entries; small integers make
# repeated, collinear and coplanar points, so degenerate facets and ties
coords = st.one_of(st.integers(-2, 2).map(Fraction),
                   st.fractions(-3, 3, max_denominator=12))
zero_heavy = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                       st.integers(-2, 2).map(Fraction),
                       st.fractions(-5, 5, max_denominator=9))


HEIGHT_KINDS = ("random", "two-valued", "convex", "concave")


def heights_over(points, kind):
    """Heights over the points: random, two-valued (ties), or a convex or
    concave quadratic plus an affine function (often one sense)."""
    n, d = len(points), len(points[0])
    if kind == "random":
        return st.lists(coords, min_size=n, max_size=n)
    if kind == "two-valued":
        return st.lists(st.sampled_from([Fraction(0), Fraction(1, 3)]),
                        min_size=n, max_size=n)
    a = Fraction(5, 7) if kind == "convex" else Fraction(-2, 3)
    return st.lists(coords, min_size=d + 1, max_size=d + 1).map(
        lambda b: [a * sum(x * x for x in p) + b[0]
                   + sum(bk * x for bk, x in zip(b[1:], p)) for p in points])


@st.composite
def lifted_complexes(draw):
    """(A, heights, K, C): random facets over a few rational points, heights
    of one of HEIGHT_KINDS, and a zero-heavy or a scaled coloring C."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, d + 4))
    points = draw(st.lists(st.tuples(*[coords] * d), min_size=n, max_size=n))
    heights = draw(heights_over(points, draw(st.sampled_from(HEIGHT_KINDS))))
    facets = draw(st.lists(st.sampled_from(
        list(combinations(range(1, n + 1), d + 1))), min_size=1, max_size=6,
        unique=True))
    if draw(st.booleans()):
        C = RationalMatrix(draw(st.lists(st.lists(
            zero_heavy, min_size=n, max_size=n), min_size=d, max_size=d)))
    else:
        # a coloring decoration with positive column scales: exactly the
        # facets whose vertices have distinct colours are decorated
        colors = draw(st.lists(st.integers(0, d), min_size=n, max_size=n))
        scales = draw(st.lists(st.fractions(Fraction(1, 9), 5), min_size=n,
                               max_size=n).filter(lambda xs: all(xs)))
        C = RationalMatrix([[s * (-1 if c == d else int(c == i))
                             for c, s in zip(colors, scales)]
                            for i in range(d)])
    return (PointConfiguration.from_rows(points), heights,
            SimplicialComplex.from_facets(d, n, facets), C)


@st.composite
def shared_prefix_complexes(draw):
    """(A, heights, K, C) with d up to 5 and up to 16 facets over at most
    d + 3 vertices, so that facets share long vertex prefixes, and small
    integer points and zero-heavy columns, so that some shared prefixes
    are dependent.  K.facets keeps the drawn order, not the
    lexicographic one."""
    d = draw(st.integers(1, 5))
    n = draw(st.integers(d + 1, d + 3))
    small = st.integers(-1, 1).map(Fraction)
    points = draw(st.lists(st.tuples(*[st.one_of(small, coords)] * d),
                           min_size=n, max_size=n))
    if draw(st.booleans()):
        heights = draw(st.lists(zero_heavy, min_size=n, max_size=n))
    else:
        a = draw(st.sampled_from([Fraction(-2, 3), Fraction(5, 7)]))
        heights = [a * sum(x * x for x in p) for p in points]
    facets = draw(st.lists(st.sampled_from(
        list(combinations(range(1, n + 1), d + 1))), min_size=1, max_size=16,
        unique=True))
    C = RationalMatrix(draw(st.lists(st.lists(
        st.one_of(small, zero_heavy), min_size=n, max_size=n),
        min_size=d, max_size=d)))
    return (PointConfiguration.from_rows(points), heights,
            SimplicialComplex(d, n, tuple(facets)), C)


def assert_regularity_matches(A, heights, K):
    ours, oracle = (outcome(regularity_check, A, heights, K),
                    outcome(regularity_by_fraction_gaps, A, heights, K))
    if isinstance(oracle, tuple):
        # the oracle's solve cannot name the facet: ours names the first
        # degenerate facet of K
        first = next(f for f in K.facets if volume_by_determinant(A, f) == 0)
        assert ours == (RankDeficiencyError,
                        f"facet {first} is affinely degenerate")
    else:
        assert ours == oracle


def assert_matches_fraction_oracles(A, heights, K, C):
    """Every per-facet check against its per-facet Fraction oracle, with
    reports and errors in the order of K.facets."""
    assert_regularity_matches(A, heights, K)
    for facet in K.facets:
        ours = outcome(facet_affine_support, A, heights, facet)
        oracle = outcome(facet_affine_support_by_solve, A, heights, facet)
        assert ours == oracle or ours[0] is oracle[0] is RankDeficiencyError
        assert normalized_volume(A, facet) == volume_by_determinant(A, facet)
    volumes = [volume_by_determinant(A, f) for f in K.facets]
    assert is_unimodular(K, A) == all(v == 1 for v in volumes)
    assert total_normalized_volume(K, A) == sum(volumes)
    failing = [f for f in K.facets
               if not oriented_by_minors(C.submatrix_columns(
                   [v - 1 for v in f]))]
    assert is_positively_decorated(K, C) == (not failing, failing)
    ours = outcome(simplex_signs, K, A, C)
    oracle = outcome(simplex_signs_by_determinant, K, A, C)
    assert ours == oracle
    if isinstance(ours, dict):
        assert list(ours) == list(oracle)


@given(lifted_complexes())
@settings(max_examples=300, deadline=None)
def test_integer_path_matches_fraction_oracles(inputs):
    assert_matches_fraction_oracles(*inputs)


@given(shared_prefix_complexes())
@settings(max_examples=200, deadline=None)
def test_shared_prefixes_match_fraction_oracles(inputs):
    assert_matches_fraction_oracles(*inputs)


@st.composite
def relabelled_cross_polytopes(draw):
    """(A, heights, K, C) for cross(3) or cross(4) with its vertices renamed
    at random, so that the walks list most facets out of sorted order and
    some by odd permutations.  The points are scaled by 1, 2/3 or -1/2;
    the heights are the squared norms or of one of HEIGHT_KINDS; C is the
    coloring decoration with positive column scales and perhaps one column
    negated (every facet through it fails), or zero-heavy."""
    fam = cross_polytope_triangulation(draw(st.sampled_from([3, 4])))
    d, n = fam.complex.dimension, fam.complex.n_vertices
    order = draw(st.permutations(range(1, n + 1)))  # v is renamed order[v-1]
    at = {w: v for v, w in enumerate(order, 1)}   # the old name of w
    scale = draw(st.sampled_from([Fraction(1), Fraction(2, 3),
                                  Fraction(-1, 2)]))
    points = [tuple(scale * x for x in fam.configuration.points[at[w] - 1])
              for w in range(1, n + 1)]
    kind = draw(st.sampled_from(("squared norms",) + HEIGHT_KINDS))
    heights = ([fam.heights[at[w] - 1] for w in range(1, n + 1)]
               if kind == "squared norms"
               else draw(heights_over(points, kind)))
    K = SimplicialComplex.from_facets(
        d, n, [[order[v - 1] for v in f] for f in fam.complex.facets])
    if draw(st.booleans()):
        colors = [fam.coloring[at[w]] for w in range(1, n + 1)]
        scales = draw(st.lists(st.fractions(Fraction(1, 9), 5), min_size=n,
                               max_size=n).filter(all))
        negated = draw(st.sampled_from([None, *range(n)]))
        scales = [-x if k == negated else x for k, x in enumerate(scales)]
        C = RationalMatrix([[s * (-1 if c == d else int(c == i))
                             for c, s in zip(colors, scales)]
                            for i in range(d)])
    else:
        C = RationalMatrix(draw(st.lists(st.lists(
            zero_heavy, min_size=n, max_size=n), min_size=d, max_size=d)))
    return PointConfiguration.from_rows(points), heights, K, C


@given(st.one_of(relabelled_cross_polytopes(), shared_prefix_complexes()))
@settings(max_examples=150, deadline=None)
def test_shared_order_matches_fraction_oracles(inputs):
    """Walks in the complex's shared order keep every report, in the order
    of K.facets, and every signed determinant: the lifted table's is
    P^d times the facet's own, with the parity of its listing."""
    assert_matches_fraction_oracles(*inputs)
    A, _, K, _ = inputs
    table = _lifted_table(A, K)
    assert table.dets == tuple(table.scale * determinant(lifted_matrix(A, f))
                               for f in K.facets)


# -- a count's per-facet data against per-facet oracles --------------------


def facet_solutions_by_facet(S, K, bits):
    """A count's per-facet data built one facet at a time, in the order
    of K.facets: positive_kernel_vector of the facet's columns, the lifted
    LU solve against its logs, then the affine support by an exact solve.
    The first error raised is the count's.  Raw mpf tuples."""
    A, C = S.configuration, S.coefficients
    ops = Arithmetic(bits)
    out = []
    for facet in K.facets:
        v = positive_kernel_vector(C.submatrix_columns([u - 1 for u in facet]))
        if v is None:
            raise ValueError(f"facet {facet} is not positively decorated")
        with mp.workprec(bits):
            rows = [[mpf_fraction(Fraction(x))._mpf_
                     for x in (1, *A.points[u - 1])] for u in facet]
            try:
                sol = _lu_solve(_lu_factor(rows, ops),
                                [log_fraction(x)._mpf_ for x in v], ops)
            except ZeroDivisionError:
                raise RankDeficiencyError(
                    f"degenerate facet {facet}: lifted matrix singular")
            try:
                _, grad = facet_affine_support_by_solve(A, S.heights, facet)
            except RankDeficiencyError:
                raise RankDeficiencyError(
                    f"facet {facet} is affinely degenerate") from None
            out.append((facet, tuple(sol[1:]),
                        tuple(mpf_fraction(g)._mpf_ for g in grad)))
    return out


def raw_facet_solutions(S, K, bits):
    return [(facet, tuple(x._mpf_ for x in u), tuple(g._mpf_ for g in grad))
            for facet, u, grad in viro._facet_solutions(S, K, bits)]


@st.composite
def decorated_complexes(draw):
    """(A, heights, K, C) with every facet of K decorated, so that a
    count reaches each facet's lifted solve and affine support: a random
    colouring of the vertices, facets drawn from the rainbow ones, and the
    coloring decoration with positive column scales.  Small integer points
    make some facets affinely degenerate."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(d + 1, d + 4))
    colors = draw(st.lists(st.integers(0, d), min_size=n, max_size=n)
                  .filter(lambda cs: len(set(cs)) == d + 1))
    rainbow = [f for f in combinations(range(1, n + 1), d + 1)
               if len({colors[v - 1] for v in f}) == d + 1]
    facets = draw(st.lists(st.sampled_from(rainbow), min_size=1,
                           max_size=6, unique=True))
    small = st.integers(-1, 2).map(Fraction)
    points = draw(st.lists(st.tuples(*[st.one_of(small, coords)] * d),
                           min_size=n, max_size=n))
    heights = draw(heights_over(points, draw(st.sampled_from(HEIGHT_KINDS))))
    scales = draw(st.lists(st.fractions(Fraction(1, 9), 5), min_size=n,
                           max_size=n).filter(all))
    C = RationalMatrix([[x * (-1 if c == d else int(c == i))
                         for c, x in zip(colors, scales)] for i in range(d)])
    return (PointConfiguration.from_rows(points), heights,
            SimplicialComplex.from_facets(d, n, facets), C)


@given(st.one_of(lifted_complexes(), shared_prefix_complexes(),
                 relabelled_cross_polytopes(), decorated_complexes()),
       st.sampled_from([53, 113, 256]))
@settings(max_examples=200, deadline=None)
def test_count_data_match_per_facet_oracles(inputs, bits):
    """Each facet's kernel vector, from the walk over the complex's
    listing, is positive_kernel_vector's, and its affine support, from the
    lifted table, is the exact solve's; an undecorated or degenerate
    facet gets the error a count raises for it.  A count then raises the
    first facet's error, in the order of K.facets, or builds every
    facet's data bit for bit as the per-facet build does."""
    A, heights, K, C = inputs
    kernels = complexes._positive_kernel_vectors(C, K.facets,
                                                 K._listing.trie)
    table = _lifted_table(A, K)
    lift, Q = viro._integer_heights(heights)
    for facet, kernel, coords in zip(K.facets, kernels, table.coords):
        oracle = outcome(positive_kernel_vector,
                         C.submatrix_columns([v - 1 for v in facet]))
        if oracle is None:
            oracle = (ValueError, f"facet {facet} is not positively decorated")
        if isinstance(kernel, ValueError):
            kernel = type(kernel), str(kernel)
        assert kernel == oracle
        ours = outcome(viro._support, facet, coords, table.denominator,
                       lift, Q)
        oracle = outcome(facet_affine_support_by_solve, A, heights, facet)
        if oracle[0] is RankDeficiencyError:
            oracle = (RankDeficiencyError,
                      f"facet {facet} is affinely degenerate")
        assert ours == oracle
    S = build_viro_system(A, C, heights)
    viro._facet_solutions.cache_clear()
    assert outcome(raw_facet_solutions, S, K, bits) \
        == outcome(facet_solutions_by_facet, S, K, bits)


def test_cold_lifted_table_takes_fewer_pivot_steps_than_sorted_facets(
        monkeypatch):
    """cross(8): the table pivots on each of the 511 nodes of the shared
    order's trie, where the sorted facets, each followed by the points
    outside it, take 1,280 steps."""
    fam = cross_polytope_triangulation(8)
    A, K = fam.configuration, fam.complex
    steps = []
    step = exactlinalg._bareiss_step

    def counted(*args):
        steps.append(1)
        return step(*args)

    monkeypatch.setattr(exactlinalg, "_bareiss_step", counted)
    every = range(1, A.n_points + 1)
    eliminate_prefixes([(1, *p) for p in A.points],
                       prefix_trie((*f, *(p for p in every if p not in f))
                                   for f in K.facets), lambda facet, e: None)
    assert len(steps) == 1280
    steps.clear()
    _lifted_table.cache_clear()
    assert is_unimodular(K, A)
    assert len(steps) == 511


def _nodes(node):
    return 1 + sum(map(_nodes, node[4]))


@pytest.mark.parametrize("A, K, nodes", [
    (cross_polytope_triangulation(8).configuration,
     cross_polytope_triangulation(8).complex, 511),
    # no vertex lies in every facet, so the root's run is empty
    (cyclic_points(15, 7), snd_subcomplex(15, 7), 363),
])
def test_lifted_trie_has_the_nodes_of_the_listing_trie(monkeypatch, A, K,
                                                       nodes):
    """Each facet, followed by the points outside it, parts from every
    other within its own d+1 vertices, and the rest of it is one run: so
    the lifted table's trie has one node where the listing trie has one."""
    assert _nodes(K._listing.trie.root) == nodes
    built = []
    trie = complexes.prefix_trie

    def recorded(facets):
        built.append(trie(facets))
        return built[-1]

    monkeypatch.setattr(complexes, "prefix_trie", recorded)
    _lifted_table.cache_clear()
    _lifted_table(A, K)
    (lifted,) = built
    assert _nodes(lifted.root) == nodes


@st.composite
def two_complexes_under_many_heights(draw):
    """Two (A, K) of one strategy, each with heights of every kind."""
    complexes_ = draw(st.sampled_from([lifted_complexes(),
                                       shared_prefix_complexes()]))
    out = []
    for _ in range(2):
        A, _, K, _ = draw(complexes_)
        out.append((A, K, [draw(heights_over(A.points, kind))
                           for kind in HEIGHT_KINDS]))
    return out


@given(two_complexes_under_many_heights())
@settings(max_examples=100, deadline=None)
def test_checks_of_two_complexes_interleaved_match_the_oracles(inputs):
    """Regularity under every height kind and the volumes, of two complexes
    in turn and with single-facet volumes in between, read the cached
    table of the complex at hand, never a stale or evicted one."""
    (A, K, lifts), (A2, K2, lifts2) = inputs
    for h, h2 in zip(lifts, lifts2):
        for B, L, heights in ((A, K, h), (A2, K2, h2)):
            assert_regularity_matches(B, heights, L)
            volumes = [volume_by_determinant(B, f) for f in L.facets]
            assert normalized_volume(B, L.facets[-1]) == volumes[-1]
            assert normalized_volume(A, K.facets[0]) \
                == volume_by_determinant(A, K.facets[0])
            assert is_unimodular(L, B) == all(v == 1 for v in volumes)
            assert total_normalized_volume(L, B) == sum(volumes)


def test_one_walk_of_the_lifted_points_serves_every_check(monkeypatch):
    """Repeated regularity checks under several heights, volumes and simplex
    signs of one (A, K), with single-facet volumes in between, eliminate
    the lifted points of K's facets once."""
    f = catalog.snd63_fixture()
    A, K, C = f.configuration, f.complex, f.coefficients
    walks = []

    def counting(vectors, trie, *args, **kwargs):
        # a facet's vertex set, without the outside points listed after
        # them: the walk lists the vertices in the complex's shared order
        walks.append(([tuple(v) for v in vectors],
                      [tuple(sorted(facet[:K.dimension + 1]))
                       for facet in trie.facets]))
        return eliminate_prefixes(vectors, trie, *args, **kwargs)

    for module in (complexes, exactlinalg):
        monkeypatch.setattr(module, "eliminate_prefixes", counting)
    _lifted_table.cache_clear()
    heights = [f.heights, [2 * h + 1 for h in f.heights], [0] * A.n_points,
               [-h for h in f.heights]]
    senses = []
    for lift in heights * 2:
        senses.append(regularity_check(A, lift, K).sense)
        is_unimodular(K, A)
        total_normalized_volume(K, A)
        simplex_signs(K, A, C)
        normalized_volume(A, K.facets[0])
    assert senses == ["convex", "convex", None, "concave"] * 2
    # the table's walk carries the d+1 unit vectors after the points
    lifted = [(1, *p) for p in A.points]
    assert [facets for vectors, facets in walks
            if vectors[:len(lifted)] == lifted] \
        == [list(K.facets)] + [[K.facets[0]]] * len(heights) * 2


# (1, 2, 3) and (1, 4, 5) are collinear; K lists (1, 4, 5) first and is not
# in lexicographic order
LINE_POINTS = PointConfiguration.from_rows(
    [(0, 0), (1, 0), (2, 0), (0, 1), (0, 2)])
UNSORTED = SimplicialComplex(2, 5, ((2, 3, 4), (1, 4, 5), (1, 2, 4),
                                    (1, 2, 3)))
# colours 0, 1, 0, 2, 0: only (2, 3, 4) and (1, 2, 4) are rainbow
RAINBOW_TWO = decoration_from_coloring({1: 0, 2: 1, 3: 0, 4: 2, 5: 0}, 5, 2)


def test_degenerate_facets_are_reported_in_complex_order():
    with pytest.raises(RankDeficiencyError,
                       match=r"^facet \(1, 4, 5\) is affinely degenerate$"):
        regularity_check(LINE_POINTS, [0, 1, 4, 1, 4], UNSORTED)
    assert not is_unimodular(UNSORTED, LINE_POINTS)
    assert [normalized_volume(LINE_POINTS, f) for f in UNSORTED.facets] \
        == [1, 0, 1, 0]
    with pytest.raises(ValueError, match=r"degenerate facet \(1, 4, 5\)"):
        simplex_signs(UNSORTED, LINE_POINTS, RAINBOW_TWO)


def test_failing_facets_follow_complex_order():
    assert is_positively_decorated(UNSORTED, RAINBOW_TWO) == (
        False, [(1, 4, 5), (1, 2, 3)])


def test_violations_follow_complex_order():
    K = SimplicialComplex(2, 5, ((2, 3, 4), (1, 2, 4)))
    report = regularity_check(LINE_POINTS, [0] * 5, K)
    assert report == RegularityReport(False, None, [
        ((2, 3, 4), 1), ((2, 3, 4), 5), ((1, 2, 4), 3), ((1, 2, 4), 5)])
    assert report == regularity_by_fraction_gaps(LINE_POINTS, [0] * 5, K)


@pytest.mark.parametrize("facet", [(0, 1, 2), (1, 2, 5), (-1, 2, 3)])
def test_vertex_labels_out_of_range_are_refused(facet):
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1), (5, 5)])
    with pytest.raises(ValueError, match=r"out of range 1\.\.4"):
        normalized_volume(A, facet)
    with pytest.raises(ValueError, match=r"out of range 1\.\.4"):
        facet_affine_support(A, [0, 1, 1, 3], facet)


def test_complex_with_more_vertices_than_points_is_refused():
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    K = SimplicialComplex.from_facets(2, 4, [(1, 2, 3), (2, 3, 4)])
    message = "the complex has 4 vertices but the configuration has 3 points"
    for check in (is_unimodular, total_normalized_volume):
        with pytest.raises(ValueError, match=message):
            check(K, A)
    with pytest.raises(ValueError, match=message):
        regularity_check(A, [0, 1, 1], K)


@pytest.mark.parametrize("heights", [[0, 1], [0, 1, 1, 2]])
def test_a_height_count_other_than_the_points_is_refused(heights):
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    K = SimplicialComplex.from_facets(2, 3, [(1, 2, 3)])
    message = f"^{len(heights)} heights for 3 points$"
    with pytest.raises(ValueError, match=message):
        regularity_check(A, heights, K)
    with pytest.raises(ValueError, match=message):
        facet_affine_support(A, heights, (1, 2, 3))


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
            _, grad = facet_affine_support(S.configuration, S.heights,
                                           s1.facet)
            for k in range(2):
                g = mp.mpf(grad[k].numerator) / mp.mpf(grad[k].denominator)
                assert abs((s1.log_point[k] - s2.log_point[k]) + dlnt * g) \
                    < mp.mpf("1e-60")
