"""Exact rational linear algebra: determinants, minors, kernels, orientation.

Everything in this module is exact: rationals are ``fractions.Fraction``,
scaled to integer rows for one fraction-free elimination, and there is no
floating point anywhere.  Sign decisions made here (orientation of
coefficient submatrices) are the trust anchor for every decoration claim in
the rest of the package.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence


class RankDeficiencyError(ValueError):
    """Raised when an operation requires full row rank and the input lacks it."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RationalMatrix:
    """Dense matrix of exact rationals, row-major, immutable."""

    __slots__ = ("rows", "cols", "_data", "_hash")

    def __init__(self, entries: Sequence[Sequence]):
        data = tuple(tuple(_frac(x) for x in row) for row in entries)
        if not data:
            raise ValueError("matrix must have at least one row")
        ncols = len(data[0])
        if any(len(row) != ncols for row in data):
            raise ValueError("ragged rows")
        self.rows = len(data)
        self.cols = ncols
        self._data = data

    def __getitem__(self, ij):
        i, j = ij
        return self._data[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._data[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(row[j] for row in self._data)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self._data]

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self._data)))

    def submatrix_columns(self, cols: Iterable[int]) -> "RationalMatrix":
        cols = list(cols)
        return RationalMatrix([[row[j] for j in cols] for row in self._data])

    def delete_column(self, j: int) -> "RationalMatrix":
        return self.submatrix_columns([c for c in range(self.cols) if c != j])

    def matvec(self, v: Sequence) -> tuple[Fraction, ...]:
        v = [_frac(x) for x in v]
        if len(v) != self.cols:
            raise ValueError("shape mismatch in matvec")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self._data)

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix) and self._data == other._data
        )

    def __hash__(self):
        # kept after the first call: caches keyed on a matrix would
        # otherwise rehash every entry on each lookup
        try:
            return self._hash
        except AttributeError:
            self._hash = hash(self._data)
            return self._hash

    def __repr__(self):
        return f"RationalMatrix({[list(map(str, r)) for r in self._data]})"

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [format_rational(x) for row in self._data for x in row],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "RationalMatrix":
        r, c = d["rows"], d["cols"]
        flat = [parse_rational(s) for s in d["entries"]]
        if len(flat) != r * c:
            raise ValueError("entries length does not match rows*cols")
        return cls([flat[i * c:(i + 1) * c] for i in range(r)])

    @classmethod
    def from_json(cls, s: str) -> "RationalMatrix":
        return cls.from_json_dict(json.loads(s))


def format_rational(x: Fraction) -> str:
    x = _frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def parse_rational(s: str) -> Fraction:
    return Fraction(s)


# -- core elimination ------------------------------------------------------
#
# Callers that test many facets scale their rational input to integers once
# per call, by positive factors that leave the sign of every minor unchanged,
# and run one elimination per facet on integer slices.


def integer_rows(rows: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """Scale each row to integers by its own positive lcm; return the rows
    and the product of the scalings."""
    out = []
    scale = 1
    for row in rows:
        mult = lcm(*(x.denominator for x in row))
        out.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    return out, scale


def common_integer_rows(
    rows: Sequence[Sequence[Fraction]],
) -> tuple[list[list[int]], int]:
    """Scale all rows to integers by one common denominator P; return them
    and P."""
    P = lcm(*(x.denominator for row in rows for x in row))
    return [[x.numerator * (P // x.denominator) for x in row]
            for row in rows], P


def eliminate(
    a: list[Sequence[int]],
) -> tuple[list[Sequence[int]], list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows.

    Returns (rows, pivot columns, D, sign).  The first len(pivots) rows are
    D times the reduced row echelon form, the rest are zero.  D is the last
    pivot: for a square matrix of full rank it is sign * det(a), where sign
    is that of the row permutation.  Every division is exact because each
    entry stays a minor of the input.  The list a is reordered and its rows
    replaced in place, but no row is mutated, so callers may pass rows
    (tuples included) that they share between calls.
    """
    pivots: list[int] = []
    prev, sign = 1, 1
    for c in range(len(a[0])):
        r = len(pivots)
        if r == len(a):
            break
        p = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if p is None:
            continue
        if p != r:
            a[r], a[p] = a[p], a[r]
            sign = -sign
        pr, pv = a[r], a[r][c]
        for i in range(len(a)):
            if i == r:
                continue
            f = a[i][c]
            if f:
                a[i] = [(pv * x - f * y) // prev for x, y in zip(a[i], pr)]
            elif pv != prev:
                a[i] = [pv * x // prev for x in a[i]]
        pivots.append(c)
        prev = pv
    return a, pivots, prev, sign


def determinant_of_rows(a: list[Sequence[int]]) -> int:
    """Determinant of a square matrix of integer rows."""
    if len(a[0]) != len(a):
        raise ValueError("determinant requires a square matrix")
    _, pivots, D, sign = eliminate(a)
    return sign * D if len(pivots) == len(a) else 0


def determinant(M: RationalMatrix) -> Fraction:
    """Exact determinant by fraction-free elimination."""
    a, scale = integer_rows(M.to_lists())
    return Fraction(determinant_of_rows(a), scale)


def rank(M: RationalMatrix) -> int:
    return len(eliminate(integer_rows(M.to_lists())[0])[1])


def solve(M: RationalMatrix, rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve M x = rhs exactly; M must be square and invertible."""
    if M.rows != M.cols:
        raise ValueError("solve requires a square matrix")
    n = M.rows
    if len(rhs) != n:
        raise ValueError("shape mismatch in solve")
    a, _ = integer_rows(
        [list(row) + [_frac(b)] for row, b in zip(M.to_lists(), rhs)])
    a, pivots, D, _ = eliminate(a)
    if pivots[:n] != list(range(n)):
        raise RankDeficiencyError("singular matrix in solve")
    return tuple(Fraction(a[i][n], D) for i in range(n))


# -- oriented-matrix operations -------------------------------------------


def maximal_minors(M: RationalMatrix) -> tuple[Fraction, ...]:
    """The d+1 maximal minors of a d x (d+1) matrix, i-th = det without column i."""
    if M.cols != M.rows + 1:
        raise ValueError("expected shape d x (d+1)")
    return tuple(determinant(M.delete_column(j)) for j in range(M.cols))


def _kernel_line(a: list[Sequence[int]]) -> list[int] | None:
    """Integer vector spanning the kernel of d integer rows of length d+1.

    It is proportional to the signed maximal minors (-1)^i * minor(a, i).
    None when the rank is below d.
    """
    d = len(a)
    if len(a[0]) != d + 1:
        raise ValueError("expected shape d x (d+1)")
    a, pivots, D, _ = eliminate(a)
    if len(pivots) < d:
        return None
    free = next(c for c in range(d + 1) if c not in pivots)
    v = [0] * (d + 1)
    v[free] = D
    for row, pc in zip(a, pivots):
        v[pc] = -row[free]
    return v


def _one_signed(v: list[int]) -> bool:
    return all(x * v[0] > 0 for x in v)


def is_oriented_rows(a: list[Sequence[int]]) -> bool:
    """is_oriented for d integer rows of length d+1.

    Scaling a row or a column by a positive number keeps the answer: a row
    scale multiplies every maximal minor by it, and a column scale divides
    one coordinate of the kernel line by it.  So a rational matrix scaled
    to integers either way may be passed here.
    """
    v = _kernel_line(a)
    return v is not None and _one_signed(v)


def is_oriented(M: RationalMatrix) -> bool:
    """True iff all signed minors (-1)^i * minor(M, i) are nonzero of one sign."""
    return is_oriented_rows(integer_rows(M.to_lists())[0])


def positive_kernel_vector(M: RationalMatrix) -> tuple[Fraction, ...] | None:
    """Strictly positive kernel vector of an oriented d x (d+1) matrix.

    Returns the unique kernel vector normalized to first coordinate 1, or
    None when M is full rank but not oriented.  Rank-deficient input raises
    RankDeficiencyError so callers can tell the two failure modes apart.
    """
    v = _kernel_line(integer_rows(M.to_lists())[0])
    if v is None:
        raise RankDeficiencyError("matrix has rank < d; kernel is not a line")
    if not _one_signed(v):
        return None
    return tuple(Fraction(x, v[0]) for x in v)


def left_kernel_basis(M: RationalMatrix) -> RationalMatrix | None:
    """Exact basis of {x : x . M = 0}, one row per basis vector.

    Returns None when the left kernel is trivial (full row rank).
    """
    # kernel of M^T: reduce M^T, read the free-variable basis
    a, pivots, D, _ = eliminate(integer_rows(M.transpose().to_lists())[0])
    free = [c for c in range(M.rows) if c not in pivots]
    if not free:
        return None
    basis = []
    for fc in free:
        vec = [Fraction(0)] * M.rows
        vec[fc] = Fraction(1)
        for row, pc in zip(a, pivots):
            vec[pc] = Fraction(-row[fc], D)
        basis.append(vec)
    return RationalMatrix(basis)
