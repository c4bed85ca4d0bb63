"""Exact linear algebra: determinants, kernels, orientation."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virodecor.exactlinalg import (
    RankDeficiencyError,
    RationalMatrix,
    _bareiss_step,
    _kernel_line,
    determinant,
    eliminate_prefixes,
    format_rational,
    is_oriented,
    parse_rational,
    positive_kernel_vector,
    prefix_trie,
    rank,
    solve,
)

from exact_oracles import (
    delete_column,
    left_kernel_basis,
    matvec,
    maximal_minors,
    transpose,
)

rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=7
)
# mostly zeros and small integers, so that rank-deficient inputs occur
sparse_rationals = st.one_of(st.just(Fraction(0)), st.just(Fraction(0)),
                             st.integers(-2, 2).map(Fraction), rationals)


def matrices(rows, cols, entries=rationals):
    return st.lists(
        st.lists(entries, min_size=cols, max_size=cols),
        min_size=rows, max_size=rows,
    ).map(RationalMatrix)


def square_matrices(max_n=5, entries=rationals):
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: matrices(n, n, entries))


@st.composite
def degenerate_matrices(draw, rows, cols):
    """rows x cols matrices in which any column, the leading ones included,
    may be zero, repeat an earlier column or combine two earlier ones, so
    that the elimination finds no pivot in it and passes over it."""
    columns = [list(c) for c in
               zip(*draw(matrices(rows, cols, sparse_rationals)).to_lists())]
    for j in range(cols):
        kind = draw(st.sampled_from(["keep", "zero", "repeat", "combine"]))
        if kind == "zero":
            columns[j] = [Fraction(0)] * rows
        elif kind != "keep" and j:
            a, b = draw(st.integers(0, j - 1)), draw(st.integers(0, j - 1))
            c = Fraction(0) if kind == "repeat" else draw(rationals)
            columns[j] = [x + c * y for x, y in zip(columns[a], columns[b])]
    return RationalMatrix(list(zip(*columns)))


def degenerate_square(max_n=4):
    return st.integers(1, max_n).flatmap(lambda n: degenerate_matrices(n, n))


def degenerate_oriented_shape(max_d=4):
    """d x (d+1) inputs of degenerate_matrices."""
    return st.integers(1, max_d).flatmap(
        lambda d: degenerate_matrices(d, d + 1))


def determinant_cofactor(M):
    """Cofactor expansion along the first row; independent of elimination."""
    if M.rows == 1:
        return M[0, 0]
    rest = RationalMatrix(M.to_lists()[1:])
    return sum((-1) ** j * M[0, j] * determinant_cofactor(delete_column(rest, j))
               for j in range(M.cols) if M[0, j] != 0)


def matmul(A, B):
    return RationalMatrix([[sum(a * b for a, b in zip(row, col))
                            for col in zip(*B.to_lists())]
                           for row in A.to_lists()])


def test_vandermonde_determinant():
    # nodes 1..4: prod of pairwise differences = 12
    M = RationalMatrix([[a ** j for j in range(4)] for a in range(1, 5)])
    assert determinant(M) == 12


def test_determinant_singular():
    M = RationalMatrix([[1, 2], [2, 4]])
    assert determinant(M) == 0
    assert rank(M) == 1


def test_determinant_fractional_entries():
    M = RationalMatrix([[Fraction(1, 2), Fraction(1, 3)],
                        [Fraction(1, 5), Fraction(1, 7)]])
    assert determinant(M) == Fraction(1, 14) - Fraction(1, 15)


@given(st.one_of(square_matrices(), square_matrices(entries=sparse_rationals),
                 degenerate_square()))
@settings(max_examples=300, deadline=None)
def test_determinant_matches_cofactor_expansion(M):
    assert determinant(M) == determinant_cofactor(M)


@given(square_matrices(4))
@settings(max_examples=100, deadline=None)
def test_determinant_transpose_invariant(M):
    assert determinant(M) == determinant(transpose(M))


@given(square_matrices(4), rationals.filter(lambda x: x != 0))
@settings(max_examples=100, deadline=None)
def test_determinant_row_scaling(M, c):
    rows = M.to_lists()
    rows[0] = [c * x for x in rows[0]]
    assert determinant(RationalMatrix(rows)) == c * determinant(M)


@given(st.one_of(square_matrices(4), st.tuples(
    st.integers(1, 4), st.integers(1, 6)).flatmap(
        lambda shape: degenerate_matrices(*shape))))
@settings(max_examples=200, deadline=None)
def test_rank_nullity(M):
    r = rank(M)
    kern = left_kernel_basis(transpose(M))
    nullity = 0 if kern is None else kern.rows
    assert r + nullity == M.cols
    assert r == rank(transpose(M))
    if M.rows == M.cols:
        assert (r == M.rows) == (determinant_cofactor(M) != 0)
    if kern is not None:
        # independent rows x with x . M^T = 0
        assert rank(kern) == kern.rows
        assert all(x == 0 for row in matmul(kern, transpose(M)).to_lists()
                   for x in row)


@given(st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.tuples(st.one_of(matrices(n, n, sparse_rationals),
                                  degenerate_matrices(n, n)),
                        st.lists(rationals, min_size=n, max_size=n))))
@settings(max_examples=300, deadline=None)
def test_solve_roundtrip(Mb):
    M, b = Mb
    if determinant(M) != 0:
        assert matvec(M, solve(M, b)) == tuple(b)
    else:
        with pytest.raises(RankDeficiencyError):
            solve(M, b)


def test_solve_singular_raises():
    with pytest.raises(RankDeficiencyError):
        solve(RationalMatrix([[1, 2], [2, 4]]), [1, 1])


@pytest.mark.parametrize("rhs", [[1, 2, 3], [1]])
def test_solve_rejects_rhs_of_wrong_length(rhs):
    with pytest.raises(ValueError, match="shape mismatch in solve") as info:
        solve(RationalMatrix([[1, 0], [0, 1]]), rhs)
    assert not isinstance(info.value, RankDeficiencyError)


@st.composite
def with_shared_runs(draw, facets, n):
    """The facets, then copies of some of them, each keeping its first k
    labels, k >= 2 or all of them, and drawing the rest from 1..n anew:
    facets that share a run of two or more labels, and facets listed
    more than once."""
    out = list(facets)
    for facet in draw(st.lists(st.sampled_from(facets), max_size=4)):
        k = draw(st.integers(min(2, len(facet)), len(facet)))
        rest = draw(st.lists(st.integers(1, n), min_size=len(facet) - k,
                             max_size=len(facet) - k))
        out.append(facet[:k] + tuple(rest))
    return out


@st.composite
def vectors_and_facets(draw):
    """n integer vectors of length m and up to 16 facets of m labels each,
    in any order and with repeats, over so few labels that they share
    prefixes."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, m + 2))
    vectors = draw(st.lists(st.lists(st.integers(-2, 2), min_size=m,
                                     max_size=m), min_size=n, max_size=n))
    facets = draw(st.lists(st.lists(st.integers(1, n), min_size=m,
                                    max_size=m).map(tuple),
                           min_size=1, max_size=12))
    return vectors, draw(with_shared_runs(facets, n))


@given(vectors_and_facets())
@example(([[1, 0, 2], [0, 1, 1], [2, 1, 0], [1, 1, 1]],
          [(1, 2, 3), (1, 2, 4), (1, 2, 3), (2, 1, 4), (1, 2, 3)]))
@settings(max_examples=200, deadline=None)
def test_prefix_walk_determinants_match_cofactor_expansion(inputs):
    """sign * D of the walk is each facet's determinant, and the rank
    falls short exactly where it is zero; facets that share a prefix share
    its pivots."""
    vectors, facets = inputs
    m = len(vectors[0])
    dets = eliminate_prefixes(
        vectors, prefix_trie(facets),
        lambda _, e: e.sign * e.D if len(e.rows) == m else None)
    for facet, det in zip(facets, dets):
        M = RationalMatrix([[vectors[v - 1][i] for v in facet]
                            for i in range(m)])
        expected = determinant_cofactor(M)
        assert (det is None) == (expected == 0)
        assert det is None or det == expected


@st.composite
def wide_facets(draw):
    """m x (m+1) or m x (m+2) facets of n columns of length m, among them
    zero and repeated columns, so that pivots are passed over and the free
    rows can run out before the facet does."""
    m = draw(st.integers(1, 4))
    extra = draw(st.integers(1, 2))
    n = draw(st.integers(1, m + 3))
    vectors = []
    for _ in range(n):
        kind = draw(st.sampled_from(["draw", "zero", "repeat"]))
        if kind == "zero":
            vectors.append([0] * m)
        elif kind == "repeat" and vectors:
            vectors.append(list(draw(st.sampled_from(vectors))))
        else:
            vectors.append(draw(st.lists(st.integers(-2, 2), min_size=m,
                                         max_size=m)))
    facets = draw(st.lists(st.lists(st.integers(1, n), min_size=m + extra,
                                    max_size=m + extra).map(tuple),
                           min_size=1, max_size=10))
    return vectors, draw(with_shared_runs(facets, n))


@given(wide_facets())
@example(([[1, 0], [0, 1], [1, 1], [0, 0]],
          [(1, 2, 3), (1, 2, 4), (1, 2, 3), (1, 3, 2), (4, 1, 3)]))
@settings(max_examples=200, deadline=None)
def test_prefix_walk_on_wide_facets_finds_the_rank_and_the_kernel(inputs):
    """Facets with more columns than rows: the rank is len(rows), and an
    m x (m+1) facet whose first m columns are independent has the kernel
    line of its signed maximal minors."""
    vectors, facets = inputs
    m = len(vectors[0])
    states = eliminate_prefixes(vectors, prefix_trie(facets),
                                lambda facet, e: (e, _kernel_line(facet, e)))
    for facet, (e, line) in zip(facets, states):
        M = RationalMatrix([[vectors[v - 1][i] for v in facet]
                            for i in range(m)])
        assert len(e.rows) == rank(M)
        if len(facet) != m + 1:
            continue
        signed = [(-1) ** i * minor
                  for i, minor in enumerate(maximal_minors(M), start=1)]
        if line is None:
            # the first m columns are dependent
            assert signed[-1] == 0 and e.pivots != tuple(facet[:-1])
            continue
        # proportional, with nonzero last entries D and the last minor
        assert line[-1] != 0 and signed[-1] != 0
        assert all(a * signed[-1] == b * line[-1]
                   for a, b in zip(line, signed))


@st.composite
def bareiss_steps(draw):
    """Columns of the form prev * (small integers), a pivot entry r, and a
    pivot column x whose entry pv = x[r] is prev, -prev or another
    nonzero multiple of prev, with many zeros at r: every branch of one
    step, each division exact."""
    m = draw(st.integers(1, 4))
    prev = draw(st.sampled_from([1, -1, 2, -3, 6]))
    r = draw(st.integers(0, m - 1))
    entries = st.lists(st.sampled_from([0, 0, 1, -1, 2, -3]),
                       min_size=m, max_size=m)
    x = draw(entries)
    x[r] = draw(st.sampled_from([1, -1, 1, -1, 2, -5]))
    columns = draw(st.lists(entries, max_size=5))
    return ([[prev * a for a in y] for y in columns], r,
            [prev * a for a in x], prev)


@given(bareiss_steps())
@example(([[0, 5, -2], [3, 1, 0], [0, 0, 0]], 0, [-1, 2, 4], 1))
@example(([[0, -4, 6], [2, 2, 2]], 1, [1, -2, 0], -2))
@settings(max_examples=300, deadline=None)
def test_bareiss_step_is_exact_and_leaves_its_inputs(inputs):
    """z[r] = f and prev * z[i] = pv * y[i] - f * x[i] elsewhere, for
    each column y with f = y[r]; a column with f = 0 under pv = -prev is
    negated, and no input column changes."""
    columns, r, x, prev = inputs
    before = [list(y) for y in columns], list(x)
    pv = x[r]
    out = _bareiss_step(columns, r, x, prev)
    assert ([list(y) for y in columns], list(x)) == before
    assert len(out) == len(columns)
    for y, z in zip(columns, out):
        f = y[r]
        assert z[r] == f
        assert all(prev * c == pv * a - f * b
                   for i, (a, b, c) in enumerate(zip(y, x, z)) if i != r)
        if not f and pv == -prev:
            assert list(z) == [-a for a in y] and z is not y


def test_trie_has_one_node_per_shared_run():
    """A lone facet is one node; facets that agree on a run share one
    node, which parts where they do."""
    assert prefix_trie([(3, 1, 2)]).root == ((3, 1, 2), (), 0, 1, ())
    trie = prefix_trie([(1, 2, 5, 7), (1, 2, 3, 4), (1, 2, 5, 6)])
    assert trie.order == (1, 2, 0)
    assert trie.root == ((1, 2), (3, 4, 5, 6, 7), 0, 3, (
        ((3, 4), (), 0, 1, ()),
        ((5,), (6, 7), 1, 3, (((6,), (), 1, 2, ()), ((7,), (), 2, 3, ()))),
    ))
    # no common first vertex: an empty root run; a repeat is one node
    assert prefix_trie([(2, 1), (1, 2), (2, 1)]).root == ((), (1, 2), 0, 3, (
        ((1, 2), (), 0, 1, ()), ((2, 1), (), 1, 3, ())))


def test_prefix_walk_refuses_facets_of_unequal_length():
    with pytest.raises(ValueError, match="differ in length"):
        eliminate_prefixes([[1, 0], [0, 1], [1, 1]],
                           prefix_trie([(1, 2), (1, 2, 3)]), lambda _, e: e)


@pytest.mark.parametrize("facets, message", [
    ([(0, 1), (1, 2, 3)], "vertex 0 of facet (0, 1) out of range 1..3"),
    ([(1, 2), (1, 2, 9)], "vertex 9 of facet (1, 2, 9) out of range 1..3"),
    ([(1, 2), (2, 3, 1), (1, 7)],
     "facets (1, 2) and (2, 3, 1) differ in length"),
    ([(2, 3), (1, 4)], "vertex 4 of facet (1, 4) out of range 1..3"),
])
def test_prefix_walk_names_the_first_bad_facet(facets, message):
    """Facets are checked in their order, each for its vertex range and
    then its length, whatever order the trie keeps them in."""
    with pytest.raises(ValueError) as refused:
        eliminate_prefixes([[1, 0], [0, 1], [1, 1]], prefix_trie(facets),
                           lambda _, e: e)
    assert str(refused.value) == message


# -- orientation -----------------------------------------------------------


def test_oriented_example():
    # kernel (1, 1, 1): minors alternate in magnitude-sign pattern
    M = RationalMatrix([[1, -2, 1], [1, 0, -1]])
    assert is_oriented(M)
    assert positive_kernel_vector(M) == (1, 1, 1)


def test_not_oriented_zero_minor():
    M = RationalMatrix([[1, -1, 0], [0, 0, 1]])
    assert not is_oriented(M)


def test_positive_kernel_none_when_sign_mixed():
    M = RationalMatrix([[1, 1, 1], [1, 0, -1]])
    assert positive_kernel_vector(M) is None


def test_positive_kernel_rank_deficient_raises():
    M = RationalMatrix([[1, 2, 3], [2, 4, 6]])
    with pytest.raises(RankDeficiencyError):
        positive_kernel_vector(M)


@given(st.one_of(st.integers(min_value=1, max_value=5).flatmap(
    lambda d: st.one_of(matrices(d, d + 1),
                        matrices(d, d + 1, sparse_rationals))),
    degenerate_oriented_shape()))
@settings(max_examples=400, deadline=None)
def test_orientation_equivalences(M):
    """The three characterizations of an oriented matrix must agree:

    (1) signed maximal minors nonzero of one sign;
    (2) kernel contains a strictly positive vector (full rank case);
    (3) no row combination is a nonzero nonnegative vector -- checked here
        through the contrapositive on the kernel line.
    """
    minors = maximal_minors(M)
    signed = [(-1) ** i * m for i, m in enumerate(minors, start=1)]
    oriented = is_oriented(M)
    assert oriented == (all(s > 0 for s in signed)
                        or all(s < 0 for s in signed))
    full_rank = any(m != 0 for m in minors)
    assert full_rank == (rank(M) == M.rows)
    if not full_rank:
        with pytest.raises(RankDeficiencyError):
            positive_kernel_vector(M)
        return
    v = positive_kernel_vector(M)
    assert oriented == (v is not None)
    if v is not None:
        assert all(x > 0 for x in v)
        assert all(s == 0 for s in matvec(M, v))


@given(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: matrices(d, d + 1)), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_orientation_invariant_under_row_operations(M, rnd):
    """Adding a multiple of one row to another preserves the kernel,
    hence orientation."""
    if M.rows < 2:
        return
    i, j = rnd.sample(range(M.rows), 2)
    c = Fraction(rnd.randint(-3, 3))
    rows = M.to_lists()
    rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
    assert is_oriented(RationalMatrix(rows)) == is_oriented(M)


def chirotope(C):
    """Signs of all maximal (d x d) minors, keyed by 1-based column subsets
    in lexicographic order; independent of maximal_minors."""
    d, n = C.rows, C.cols
    out = {}
    for cols in combinations(range(n), d):
        det = determinant_cofactor(C.submatrix_columns(cols))
        out[tuple(c + 1 for c in cols)] = (det > 0) - (det < 0)
    return out


def test_chirotope_keys_and_signs():
    C = RationalMatrix([[1, 0, 1], [0, 1, 1]])
    chi = chirotope(C)
    assert set(chi) == {(1, 2), (1, 3), (2, 3)}
    assert chi[(1, 2)] == 1
    assert chi[(2, 3)] == -1


@given(st.one_of(st.integers(min_value=1, max_value=4).flatmap(
    lambda d: st.one_of(matrices(d, d + 1),
                        matrices(d, d + 1, sparse_rationals))),
    degenerate_oriented_shape()))
@settings(max_examples=200, deadline=None)
def test_maximal_minor_signs_match_chirotope(M):
    """Minor i deletes column i: its sign is the chirotope's on the rest."""
    chi = chirotope(M)
    for i, m in enumerate(maximal_minors(M), start=1):
        rest = tuple(c for c in range(1, M.cols + 1) if c != i)
        assert (m > 0) - (m < 0) == chi[rest]


def test_left_kernel_exactness():
    M = RationalMatrix([[1, 2], [2, 4], [3, 6]])
    kern = left_kernel_basis(M)
    assert kern is not None and kern.rows == 2
    for i in range(kern.rows):
        prod = matmul(RationalMatrix([kern.row(i)]), M)
        assert all(prod[0, j] == 0 for j in range(prod.cols))


def test_rational_formatting_roundtrip():
    for s in ("3", "-5/7", "0"):
        assert format_rational(parse_rational(s)) == s


def test_parse_rational_reads_every_form_of_a_literal():
    assert parse_rational(" -1_000.5e-3 ") == Fraction(-2001, 2000)
    assert parse_rational(".5E+1") == 5
    assert parse_rational("3" * 4300) == int("3" * 4300)


def test_parse_rational_names_an_unprintable_number_by_its_size():
    for x, what in ((10 ** 5000, "<int of 16610 bits>"),
                    (Fraction(-1, 10 ** 5000), "<Fraction of 16610 bits>")):
        with pytest.raises(ValueError) as info:
            parse_rational(x)
        assert str(info.value) == (f"rational {what} has more than 4300 "
                                   f"digits in its numerator or denominator")


def test_matrix_json_roundtrip():
    M = RationalMatrix([[Fraction(1, 3), -2], [0, Fraction(7, 2)]])
    assert RationalMatrix.from_json(M.to_json()) == M
