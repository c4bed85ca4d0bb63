"""Exact helpers that only the tests need: the independent answers that the
package's exact layer is checked against.

Matrices are `RationalMatrix` values; the helpers are plain functions of
them and use only Fraction arithmetic and `determinant`.  The one graph
helper, `two_coloring`, reads a dual graph's adjacency only.
"""

from collections import deque
from fractions import Fraction

from virodecor.exactlinalg import RationalMatrix, determinant


def column(M, j):
    return tuple(M.row(i)[j] for i in range(M.rows))


def transpose(M):
    return RationalMatrix(list(zip(*M.to_lists())))


def delete_column(M, j):
    return M.submatrix_columns([c for c in range(M.cols) if c != j])


def matvec(M, v):
    v = [Fraction(x) for x in v]
    if len(v) != M.cols:
        raise ValueError("shape mismatch in matvec")
    return tuple(sum(a * b for a, b in zip(M.row(i), v)) for i in range(M.rows))


def maximal_minors(M):
    """The d+1 maximal minors of a d x (d+1) matrix, i-th = det without
    column i."""
    if M.cols != M.rows + 1:
        raise ValueError("expected shape d x (d+1)")
    return tuple(determinant(delete_column(M, j)) for j in range(M.cols))


def left_kernel_basis(M):
    """Exact basis of {x : x . M = 0}, one row per basis vector, or None
    when the left kernel is trivial (full row rank).

    Plain Gauss-Jordan over Fractions on M^T, independent of the package's
    fraction-free elimination; the basis is read off the free columns.
    """
    a = transpose(M).to_lists()
    pivots = []                       # (row, column) of each pivot
    for c in range(M.rows):
        r = len(pivots)
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append((r, c))
    pivot_columns = {c for _, c in pivots}
    free = [c for c in range(M.rows) if c not in pivot_columns]
    if not free:
        return None
    basis = []
    for fc in free:
        vec = [Fraction(0)] * M.rows
        vec[fc] = Fraction(1)
        for r, c in pivots:
            vec[c] = -a[r][fc]
        basis.append(vec)
    return RationalMatrix(basis)


def lifted_matrix(A, facet):
    """(d+1) x (d+1) matrix with a top row of ones over the facet's points."""
    cols = [A.points[v - 1] for v in facet]
    rows = [[Fraction(1)] * len(cols)]
    rows += [[c[i] for c in cols] for i in range(A.dimension)]
    return RationalMatrix(rows)


def rounded(x, prec):
    """The Fraction x rounded to the nearest number with a prec-bit
    significand, ties to even, by integer division alone."""
    if x == 0:
        return Fraction(0)
    p, q = abs(x.numerator), x.denominator
    e = p.bit_length() - q.bit_length() - prec
    while True:
        num, den = (p, q << e) if e >= 0 else (p << -e, q)
        m, r = divmod(num, den)
        if m >> prec:
            e += 1
        elif not m >> (prec - 1):
            e -= 1
        else:
            break
    if 2 * r > den or (2 * r == den and m & 1):
        m += 1
    return (1 if x > 0 else -1) * m * Fraction(2) ** e


def inverse(M):
    """M^-1 of a nonsingular square M of size at least 2, by its
    adjugate: entry (i, j) is (-1)^(i+j) times the minor of M without row
    j and column i, over det M."""
    rows = M.to_lists()
    det = determinant(M)

    def minor(r, c):
        return determinant(RationalMatrix([row[:c] + row[c + 1:]
                                           for k, row in enumerate(rows)
                                           if k != r]))

    return RationalMatrix([[(-1) ** (i + j) * minor(j, i) / det
                            for j in range(M.rows)] for i in range(M.rows)])


def two_coloring(G):
    """(colors, odd_cycle) of the dual graph G by a breadth-first search
    from each uncolored node in turn, each node's neighbours taken in
    increasing order from a deque: colors maps each node to +1 or -1 in
    the order the search reaches them, or is None once the search meets a
    neighbour w of v with v's color; odd_cycle then runs from v up the
    search tree to where w's path to the root joins it, and back down to
    w."""
    colors, parent = {}, {}
    for start in range(G.n_nodes):
        if start in colors:
            continue
        colors[start], parent[start] = 1, None
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in sorted(G.adjacency[v]):
                if w not in colors:
                    colors[w], parent[w] = -colors[v], v
                    queue.append(w)
                elif colors[w] == colors[v]:
                    return None, _tree_cycle(parent, v, w)
    return colors, None


def _tree_cycle(parent, v, w):
    """The cycle that the edge (v, w) closes in the search tree."""
    up_v = [v]
    while parent[up_v[-1]] is not None:
        up_v.append(parent[up_v[-1]])
    depth = {u: k for k, u in enumerate(up_v)}
    up_w = [w]
    while up_w[-1] not in depth:
        up_w.append(parent[up_w[-1]])
    return up_v[:depth[up_w[-1]] + 1] + up_w[-2::-1]
