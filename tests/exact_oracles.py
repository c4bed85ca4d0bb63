"""Exact helpers that only the tests need: the independent answers that the
package's exact layer is checked against.

Matrices are `RationalMatrix` values; the helpers are plain functions of
them and use only Fraction arithmetic and `determinant`.
"""

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
