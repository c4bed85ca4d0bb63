"""Exact rational linear algebra: determinants, ranks, solves, orientation.

Everything in this module is exact: rationals are ``fractions.Fraction``,
scaled to integer rows for one fraction-free elimination, and there is no
floating point anywhere.  Sign decisions made here (orientation of
coefficient submatrices) are the trust anchor for every decoration claim in
the rest of the package.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TypeVar


T = TypeVar("T")


class RankDeficiencyError(ValueError):
    """Raised when an operation requires full row rank and the input lacks it."""


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class RationalMatrix:
    """Dense matrix of exact rationals, row-major, immutable."""

    __slots__ = ("rows", "cols", "_data")

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

    def to_lists(self) -> list[list[Fraction]]:
        return [list(row) for row in self._data]

    def submatrix_columns(self, cols: Iterable[int]) -> "RationalMatrix":
        cols = list(cols)
        return RationalMatrix([[row[j] for j in cols] for row in self._data])

    def __eq__(self, other):
        return (
            isinstance(other, RationalMatrix) and self._data == other._data
        )

    def __hash__(self):
        return hash(self._data)

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
        # bool, a subclass of int, is refused; decorate writes 0 columns
        for name, value, least in (("rows", r, 1), ("cols", c, 0)):
            if type(value) is not int or value < least:
                raise ValueError(
                    f"{name} must be an integer >= {least}, got {value!r}")
        flat = [parse_rational(s) for s in d["entries"]]
        if len(flat) != r * c:
            raise ValueError("entries length does not match rows*cols")
        return cls([flat[i * c:(i + 1) * c] for i in range(r)])

    @classmethod
    def from_json(cls, s: str) -> "RationalMatrix":
        return cls.from_json_dict(loads_exact(s))


def format_rational(x: Fraction) -> str:
    x = _frac(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


# a literal as Fraction reads it, with its numerator, denominator, decimal
# and exponent digit runs as groups
_RUN = r"\d+(?:_\d+)*"
_LITERAL = re.compile(
    rf"\s*[-+]?(?=\d|\.\d)(\d*|{_RUN})"
    rf"(?:\s*/\s*({_RUN})|(?:\.(\d*|{_RUN}))?(?:[eE][-+]?({_RUN}))?)\s*")


def parse_rational(s: str) -> Fraction:
    """Fraction(s), refused when its numerator or denominator has more
    digits than Python will write back out (sys.get_int_max_str_digits(),
    where 0 means no limit): such a value could be read but never
    printed, so it fails here, before any work.  An error quotes a long
    literal by its first characters and its length (quote_literal)."""
    if isinstance(s, bool):
        # Fraction(True) is 1: a JSON true is no number
        raise TypeError(f"a boolean is not a rational: {s!r}")
    limit = sys.get_int_max_str_digits()
    if limit and isinstance(s, str) and (len(s) > limit or "e" in s
                                         or "E" in s):
        # A run of more than limit digits is one Python will not convert,
        # and a decimal exponent e moves the value at least |e| - len(s)
        # digits away from 1.  Both are checked first, so that 10^|e| is
        # never built, and only on a well-formed literal: Fraction names a
        # malformed one.
        literal = _LITERAL.fullmatch(s)
        if literal and (any(len(run.replace("_", "")) > limit
                            for run in literal.groups() if run)
                        or literal[4] and int(literal[4]) > limit + len(s)):
            raise _too_long(s, limit)
    try:
        x = Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        # Fraction's message repeats the literal, or its numerator, whole
        if not isinstance(s, str) or len(s) <= _SHOWN:
            raise
        what = ("Invalid literal for Fraction:" if isinstance(exc, ValueError)
                else "zero denominator in")
        raise type(exc)(f"{what} {quote_literal(s)}") from None
    big = max(abs(x.numerator), x.denominator)
    # 2^(3 * limit) < 10^limit, so a shorter value needs no exact test
    if limit and big.bit_length() > 3 * limit and big >= 10 ** limit:
        raise _too_long(s, limit)
    return x


def _too_long(s, limit: int) -> ValueError:
    return ValueError(f"rational {quote_literal(s)} has more than {limit} "
                      f"digits in its numerator or denominator")


# an error message repeats at most this many characters of a literal
_SHOWN = 40


def quote_literal(s) -> str:
    """repr(s) for an error message; a longer string is cut to its first
    _SHOWN characters, followed by its length, and a number too long for
    Python to print is named by its size."""
    if isinstance(s, str) and len(s) > _SHOWN:
        return f"{s[:_SHOWN]!r}… ({len(s)} characters)"
    try:
        return repr(s)
    except ValueError:  # an int or a Fraction of more digits than allowed
        x = Fraction(s)
        bits = max(abs(x.numerator), x.denominator).bit_length()
        return f"<{type(s).__name__} of {bits} bits>"


def loads_exact(text: str):
    """json.loads with every number read exactly: a JSON number with a
    fraction or an exponent as its Fraction (parse_rational), never as a
    binary double, and an integer as an int.  A number with more digits
    than Python will write back out fails as parse_rational's do."""
    return json.loads(text, parse_float=parse_rational, parse_int=_json_int)


def _json_int(s: str) -> int:
    """int(s); a literal too long for int() gets parse_rational's error."""
    try:
        return int(s)
    except ValueError:
        return parse_rational(s).numerator


# -- core elimination ------------------------------------------------------
#
# Callers that test many facets scale their rational input to integers once
# per call, by positive factors that leave the sign of every minor unchanged.
# Then one walk over the prefix trie of the facets as listed
# (eliminate_prefixes) pivots on each shared vertex prefix once, not once
# per facet.  The trie (prefix_trie) has one node per run of vertices that
# the facets below it share, and depends on the facet list alone, so it is
# built once per list: a complex keeps its dual graph, its listing with the
# listing's trie, its 2-coloring and its balanced coloring, and each
# decoration check or simplex-sign check of it only pivots.  A complex
# lists each facet's vertices in its shared order, which makes those
# prefixes long; a listed facet's determinant is its sorted one's times the
# permutation's parity, and its kernel line is the sorted one's, permuted.
# A single matrix is the walk over the trie of one facet, a single node
# (eliminate), so every pivot is taken by that one loop, through the one
# fraction-free step below, on columns kept as their exact integers.


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


def _bareiss_step(columns: Iterable[Sequence[int]], r: int, x: Sequence[int],
                  prev: int) -> list[list[int]]:
    """One fraction-free (Bareiss) pivot on entry r of the column x.

    prev is the last pivot so far (1 before the first) and pv = x[r] the
    new one.  Each column y, with f = y[r], becomes z with
    z[i] = (pv * y[i] - f * x[i]) // prev for i != r and z[r] = f: D times
    its coordinates on the pivoted columns, now at D = pv.  With f = 0,
    as for most columns of sparse input, z is y * pv // prev: y itself
    when pv = prev, and -y when pv = -prev, as on every other pivot of
    cross(d).  Every division is exact because each result is a minor of
    the input.  Columns are replaced, never mutated, so callers may share
    them.
    """
    pv = x[r]
    out = []
    for y in columns:
        f = y[r]
        if f:
            z = [(pv * a - f * b) // prev for a, b in zip(y, x)]
            z[r] = f
        elif pv == prev:
            z = y
        elif pv == -prev:
            z = [-a for a in y]
        else:
            z = [pv * a // prev for a in y]
        out.append(z)
    return out


class Elimination(NamedTuple):
    """A fraction-free Gauss-Jordan elimination after some pivots.

    Read in the pivot rows, each column is D times its coordinates on the
    pivoted columns: the reduced row echelon form times D.  The rank is
    len(rows), and a square matrix of full rank has determinant sign * D.
    """

    D: int                    # the last pivot
    sign: int                 # of the order of the pivot rows
    rows: tuple[int, ...]     # the pivot row of each pivot, in turn
    pivots: tuple[int, ...]   # the pivoted column labels, in turn
    columns: Mapping[int, Sequence[int]]


class PrefixTrie(NamedTuple):
    """The prefix trie of a list of facets of one length, one node per
    shared run.

    order holds the facet indices in sorted facet order, so the facets
    below each node are one slice order[lo:hi] of it.  A node is a tuple
    (run, keep, lo, hi, children): run is the vertices that every facet
    below it lists next, keep the vertices that they list after the run,
    in increasing order, and children the nodes where they part, by
    increasing first vertex; a node whose run reaches full length has
    none.  The root's run is the prefix that every facet lists, often
    empty, and a lone facet, or one listed more than once, is one node.
    Facets of unequal lengths get a root without children and uniform
    False, and eliminate_prefixes refuses them.  Nodes are plain tuples,
    since a single solve and the lifted table build a trie for one walk.
    """

    facets: tuple[tuple[int, ...], ...]
    order: tuple[int, ...]
    root: tuple
    uniform: bool


def prefix_trie(facets: Iterable[Sequence[int]]) -> PrefixTrie:
    """The prefix trie of the facets as listed, one node per run that the
    facets below it share.  It depends on nothing else, so a caller that
    walks one facet list under many inputs builds it once."""
    facets = tuple(map(tuple, facets))
    length = len(facets[0]) if facets else 0
    order = tuple(sorted(range(len(facets)), key=facets.__getitem__))
    uniform = all(len(facet) == length for facet in facets)

    def node(lo: int, hi: int, k: int) -> tuple:
        """The node of the facets order[lo:hi], which agree before k.

        They are sorted, so they agree at a position iff the first and
        the last do: the run goes on while those two agree."""
        first, last = facets[order[lo]], facets[order[hi - 1]]
        end = k
        while end < length and first[end] == last[end]:
            end += 1
        children, keep, start = [], set(), lo
        while end < length and start < hi:
            v = facets[order[start]][end]
            mid = start + 1
            while mid < hi and facets[order[mid]][end] == v:
                mid += 1
            child = node(start, mid, end)
            children.append(child)
            keep.update(child[0], child[1])
            start = mid
        return first[k:end], tuple(sorted(keep)), lo, hi, tuple(children)

    root = (node(0, len(facets), 0) if uniform and facets
            else ((), (), 0, len(facets), ()))
    return PrefixTrie(facets, order, root, uniform)


def eliminate(a: Sequence[Sequence[int]]) -> Elimination:
    """Fraction-free Gauss-Jordan elimination (Bareiss) of integer rows:
    the walk below over the one facet (1, ..., m) of their m columns.  The
    input is not changed.
    """
    (e,) = eliminate_prefixes(list(zip(*a)),
                              prefix_trie([range(1, len(a[0]) + 1)]),
                              lambda _, e: e)
    return e


def eliminate_prefixes(
    vectors: Sequence[Sequence[int]],
    trie: PrefixTrie,
    read: Callable[[Sequence[int], Elimination], T],
) -> list[T]:
    """Eliminate each facet's matrix of columns [vectors[v - 1] for v in
    facet], all facets of the trie in one walk; read(facet, state) for
    each facet, in the order of trie.facets.  The facets must have one
    length.

    A facet's columns are pivoted on in turn, in the order the facet
    lists them, each in the first row not yet pivoted on where it is
    nonzero, until the facet or the free rows run out.  Facets that list
    a common prefix share its pivots: a depth-first walk over the prefix
    trie (prefix_trie, built once per facet list) pivots on a node's run
    in turn and hands the reduced columns to its children, so the order
    in which a caller lists each facet's vertices sets the number of
    steps.  By Bareiss (1968), after k pivots every entry is a minor of
    the first k columns and one more, so the shared state is each
    facet's own.  A pivot on run[j] carries the columns run[j+1:] + keep:
    those that some facet below still lists.  No row moves; the pivot
    rows are listed instead, and sign is the sign of that order, so for a
    square matrix the determinant of the columns as listed is sign * D.
    A column with no pivot is passed over and changes nothing; the
    facet's rank, len(rows), then falls short.  When the free rows run
    out, mid-run or not, the facets below are read.  Each state is read
    when the walk reaches it and not kept.
    """
    n = len(vectors)
    facets, order, root = trie.facets, trie.order, trie.root
    every = (*root[0], *root[1])
    if not trie.uniform or every and not 1 <= min(every) <= max(every) <= n:
        _refuse(facets, n)
    out: list = [None] * len(facets)

    def visit(node, columns, prev, sign, free, rows, pivots):
        run, keep, lo, hi, children = node
        for j, v in enumerate(run):
            if not free:
                break
            x = columns[v]
            for p, r in enumerate(free):
                if x[r]:
                    break
            else:   # no free row where x is nonzero: x is passed over
                continue
            carried = run[j + 1:] + keep
            columns = dict(zip(carried, _bareiss_step(
                [columns[w] for w in carried], r, x, prev)))
            prev, sign = x[r], -sign if p % 2 else sign
            free = free[:p] + free[p + 1:]
            rows, pivots = rows + (r,), pivots + (v,)
        if children and free:
            for child in children:
                visit(child, columns, prev, sign, free, rows, pivots)
            return
        state = Elimination(prev, sign, rows, pivots, columns)
        for i in order[lo:hi]:
            out[i] = read(facets[i], state)

    visit(root, {v: vectors[v - 1] for v in every}, 1, 1,
          list(range(len(vectors[0]) if vectors else 0)), (), ())
    return out


def _refuse(facets: Sequence[tuple[int, ...]], n: int) -> None:
    """Raise for the first facet, in order, with a vertex outside 1..n or
    a length other than the first facet's."""
    for facet in facets:
        for v in facet:
            if not 1 <= v <= n:
                raise ValueError(f"vertex {v} of facet {facet} out of "
                                 f"range 1..{n}")
        if len(facet) != len(facets[0]):
            raise ValueError(f"facets {facets[0]} and {facet} "
                             f"differ in length")


def _determinant(facet: Sequence[int], e: Elimination) -> int:
    """det of the facet's square matrix: sign * D, or 0 below full rank."""
    return e.sign * e.D if len(e.rows) == len(facet) else 0


def determinant(M: RationalMatrix) -> Fraction:
    """Exact determinant by fraction-free elimination."""
    if M.rows != M.cols:
        raise ValueError("determinant requires a square matrix")
    a, scale = integer_rows(M.to_lists())
    return Fraction(_determinant(range(1, M.cols + 1), eliminate(a)), scale)


def rank(M: RationalMatrix) -> int:
    return len(eliminate(integer_rows(M.to_lists())[0]).rows)


def solve(M: RationalMatrix, rhs: Sequence) -> tuple[Fraction, ...]:
    """Solve M x = rhs exactly; M must be square and invertible."""
    if M.rows != M.cols:
        raise ValueError("solve requires a square matrix")
    n = M.rows
    if len(rhs) != n:
        raise ValueError("shape mismatch in solve")
    a, _ = integer_rows(
        [list(row) + [_frac(b)] for row, b in zip(M.to_lists(), rhs)])
    e = eliminate(a)
    if e.pivots != tuple(range(1, n + 1)):
        raise RankDeficiencyError("singular matrix in solve")
    x = e.columns[n + 1]
    return tuple(Fraction(x[r], e.D) for r in e.rows)


# -- oriented-matrix operations -------------------------------------------


def _kernel_line(facet: Sequence[int], e: Elimination) -> list[int] | None:
    """Kernel line of the facet's d x (d+1) matrix, from an elimination of
    its first d columns: v[pivot_i] = -x_i and v[last] = D for the last
    column x read in the pivot rows, proportional to the signed maximal
    minors (-1)^i * minor(i).  None when the first d columns are dependent.
    """
    if e.pivots != tuple(facet[:-1]):
        return None
    x = e.columns[facet[-1]]
    return [-x[r] for r in e.rows] + [e.D]


def _one_signed(v: list[int] | None) -> bool:
    return v is not None and (min(v) > 0 or max(v) < 0)


def _oriented(facet: Sequence[int], e: Elimination) -> bool:
    """True iff the facet's signed minors are nonzero of one sign."""
    return _one_signed(_kernel_line(facet, e))


def _whole(M: RationalMatrix) -> tuple[range, Elimination]:
    """The one facet of a d x (d+1) matrix, and its elimination."""
    if M.cols != M.rows + 1:
        raise ValueError("expected shape d x (d+1)")
    return range(1, M.cols + 1), eliminate(integer_rows(M.to_lists())[0])


def is_oriented(M: RationalMatrix) -> bool:
    """True iff all signed minors (-1)^i * minor(M, i) are nonzero of one sign."""
    return _oriented(*_whole(M))


def positive_kernel_vector(M: RationalMatrix) -> tuple[Fraction, ...] | None:
    """Strictly positive kernel vector of an oriented d x (d+1) matrix.

    Returns the unique kernel vector normalized to first coordinate 1, or
    None when M is full rank but not oriented.  Rank-deficient input raises
    RankDeficiencyError so callers can tell the two failure modes apart.
    """
    facet, e = _whole(M)
    if len(e.rows) < M.rows:
        raise RankDeficiencyError("matrix has rank < d; kernel is not a line")
    v = _kernel_line(facet, e)
    if not _one_signed(v):
        return None
    return tuple(Fraction(x, v[0]) for x in v)

