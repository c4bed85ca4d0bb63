"""Constructors for the named families of complexes and configurations.

Moment-curve (cyclic polytope) minimal triangulations and their bipartite
subcomplexes with exact counting and asymptotics, order-polytope canonical
triangulations, cross-polytope slicings, and the multilinear totally
positive construction.  The order-polytope and cross-polytope
constructors return a Fixture, the one record of a named instance
(configuration, triangulation, lift, coefficients, coloring), which
catalog's reference fixtures are too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from typing import Iterator, Sequence

from .complexes import PointConfiguration, SimplicialComplex
from .exactlinalg import RationalMatrix, positive_kernel_vector


# -- cyclic polytopes ------------------------------------------------------


def cyclic_points(n: int, d: int,
                  nodes: Sequence[Fraction] | None = None) -> PointConfiguration:
    """Moment-curve points (a, a^2, ..., a^d) for strictly increasing nodes."""
    if nodes is None:
        nodes = [Fraction(i) for i in range(1, n + 1)]
    nodes = [Fraction(a) for a in nodes]
    if len(nodes) != n:
        raise ValueError("need exactly n nodes")
    if any(b <= a for a, b in zip(nodes, nodes[1:])):
        raise ValueError("nodes must be strictly increasing")
    return PointConfiguration(
        d, tuple(tuple(a ** k for k in range(1, d + 1)) for a in nodes)
    )


def cyclic_heights(n: int, d: int,
                   nodes: Sequence[Fraction] | None = None) -> tuple[Fraction, ...]:
    """Height a^(d+1) per node; certifies regularity of the minimal triangulation."""
    if nodes is None:
        nodes = [Fraction(i) for i in range(1, n + 1)]
    return tuple(Fraction(a) ** (d + 1) for a in nodes)


def _pair_facets(lo: int, hi: int, k: int, snd: bool = False,
                 head: tuple[int, ...] = ()) -> Iterator[tuple[int, ...]]:
    """Facets (*head, i_1, i_1 + 1, ..., i_k, i_k + 1), lo <= i_1 < ... < i_k
    <= hi, in lexicographic order.

    Each pair start is picked from the one before: the next start is at
    least s + 2, so the pairs are disjoint and the tuple increases, and a
    start leaves room for the pairs after it.  With ``snd``, the next
    start after an even s is at least s + 3 (the bipartite subcomplex's
    survival rule).  Starts are tried in increasing order, so the facets
    come out in the order SimplicialComplex.from_facets would sort them.
    """
    if k == 0:
        yield head
    elif k == 1:
        # the last pair in place: no generator frame per facet
        for s in range(lo, hi + 1):
            yield head + (s, s + 1)
    else:
        for s in range(lo, hi - 2 * k + 3):
            yield from _pair_facets(s + 3 if snd and s % 2 == 0 else s + 2,
                                    hi, k - 1, snd, head + (s, s + 1))


def cyclic_minimal_triangulation(n: int, d: int) -> SimplicialComplex:
    """Lower-hull triangulation of the cyclic polytope under the a^(d+1) lift.

    Odd d: facets are unions of (d+1)/2 adjacent index pairs.  Even d:
    vertex 1 plus d/2 adjacent pairs starting at index >= 2.
    """
    if n < d + 1:
        raise ValueError("need n >= d+1")
    if d % 2 == 1:
        facets = _pair_facets(1, n - 1, (d + 1) // 2)
    else:
        facets = _pair_facets(2, n - 1, d // 2, head=(1,))
    return SimplicialComplex(d, n, tuple(facets))


def cyclic_facet_count(n: int, d: int) -> int:
    """Closed-form facet count of the minimal triangulation."""
    if d % 2 == 1:
        return math.comb(n - (d + 1) // 2, (d + 1) // 2)
    return math.comb(n - 1 - d // 2, d // 2)


def snd_subcomplex(n: int, d: int) -> SimplicialComplex:
    """Bipartite subcomplex of the minimal cyclic triangulation (d odd).

    A facet with pair starts i_1 < ... < i_k survives when every
    consecutive pair satisfies: i_j odd, or i_{j+1} - i_j > 2.  The last
    start is unconstrained.
    """
    if d % 2 == 0:
        raise ValueError("the bipartite subcomplex is defined for odd d only")
    if n < d + 1:
        raise ValueError("need n >= d+1")
    return SimplicialComplex(
        d, n, tuple(_pair_facets(1, n - 1, (d + 1) // 2, snd=True)))


def _count_snd_direct(n: int, d: int) -> int:
    if d % 2 == 0:
        raise ValueError("odd d only")
    if n < d + 1:
        return 0
    return sum(1 for _ in _pair_facets(1, n - 1, (d + 1) // 2, snd=True))


@lru_cache(maxsize=None)
def count_snd(n: int, d: int) -> int:
    """Facet count of the bipartite subcomplex via the three-term recurrence.

    c(n, d) = c(n-2, d) + c(n-2, d-2) + c(n-4, d-2), with small cases
    anchored by direct index enumeration.
    """
    if d % 2 == 0:
        raise ValueError("odd d only")
    if d <= 3 or n <= 6:
        return _count_snd_direct(n, d)
    return count_snd(n - 2, d) + count_snd(n - 2, d - 2) + count_snd(n - 4, d - 2)


def count_snd_series(n: int, d: int) -> int:
    """Same count read off a bivariate rational series coefficient.

    Coefficient of X^n Y^((d+1)/2) in (1 + X + X^3 Y) / (1 - X^2 - X^2 Y - X^4 Y),
    expanded as a geometric series in the denominator's tail.
    """
    if d % 2 == 0:
        raise ValueError("odd d only")
    k = (d + 1) // 2
    # tail B = X^2 + X^2 Y + X^4 Y; coefficients kept as {(i, j): c}
    tail = {(2, 0): 1, (2, 1): 1, (4, 1): 1}
    numer = {(0, 0): 1, (1, 0): 1, (3, 1): 1}
    series: dict[tuple[int, int], int] = {(0, 0): 1}
    power = {(0, 0): 1}
    # B^m has X-degree >= 2m, so m <= n // 2 suffices
    for _ in range(n // 2):
        nxt: dict[tuple[int, int], int] = {}
        for (i, j), c in power.items():
            for (a, b), e in tail.items():
                if i + a > n or j + b > k:
                    continue
                key = (i + a, j + b)
                nxt[key] = nxt.get(key, 0) + c * e
        if not nxt:
            break
        power = nxt
        for key, c in power.items():
            series[key] = series.get(key, 0) + c
    total = 0
    for (i, j), c in numer.items():
        total += c * series.get((n - i, k - j), 0)
    return total


def diagonal_coefficients(k_max: int) -> list[int]:
    """Coefficients of the diagonal series (1/2)((1+X)/sqrt(X^2-6X+1) - 1).

    Uses the three-term recurrence for p_k = [X^k] 1/sqrt(1-6X+X^2):
    k p_k = 3(2k-1) p_{k-1} - (k-1) p_{k-2}; the diagonal coefficient is
    (p_k + p_{k-1}) / 2 for k >= 1 and 0 at k = 0.
    """
    if k_max < 0:
        raise ValueError("k_max must be >= 0")
    p = [1, 3]
    for k in range(2, k_max + 1):
        num = 3 * (2 * k - 1) * p[k - 1] - (k - 1) * p[k - 2]
        if num % k:
            raise ArithmeticError("central coefficient recurrence broke integrality")
        p.append(num // k)
    out = [0]
    for k in range(1, k_max + 1):
        s = p[k] + p[k - 1]
        if s % 2:
            raise ArithmeticError("diagonal coefficient is not an integer")
        out.append(s // 2)
    return out


def asymptotic_estimate(d: int) -> float:
    """Closed-form growth estimate of the maximal bipartite facet count."""
    if d % 2 == 0:
        raise ValueError("odd d only")
    alpha = 3 - 2 * math.sqrt(2)
    return ((math.sqrt(2) + 1) ** d / math.sqrt(d)
            * (2 ** 0.25 * (1 + alpha)) / (4 * alpha * math.sqrt(math.pi)))


# -- order polytopes -------------------------------------------------------


@dataclass(frozen=True)
class Poset:
    """Partial order on elements 1..size, given by (a < b) relation pairs."""

    size: int
    relations: frozenset[tuple[int, int]]

    @classmethod
    def from_relations(cls, size: int,
                       relations: Sequence[tuple[int, int]]) -> "Poset":
        # bool, a subclass of int, is refused
        if type(size) is not int or size < 0:
            raise ValueError(
                f"size must be a non-negative integer, got {size!r}")
        rels = set()
        for a, b in relations:
            if type(a) is not int or type(b) is not int \
                    or not (1 <= a <= size and 1 <= b <= size) or a == b:
                raise ValueError(f"bad relation ({a}, {b})")
            rels.add((a, b))
        closed = cls._transitive_closure(size, rels)
        if any((a, a) in closed for a in range(1, size + 1)):
            raise ValueError("relations contain a cycle")
        return cls(size, frozenset(closed))

    @staticmethod
    def _transitive_closure(size, rels):
        # Warshall: after the pass for k, a reaches b through elements <= k
        closed = set(rels)
        for k in range(1, size + 1):
            into = [a for a, b in closed if b == k]
            out = [b for a, b in closed if a == k]
            closed.update((a, b) for a in into for b in out)
        return closed

    def less(self, a: int, b: int) -> bool:
        return (a, b) in self.relations

    def predecessors(self, b: int) -> set[int]:
        return {a for a, bb in self.relations if bb == b}

    def to_json_dict(self) -> dict:
        return {"size": self.size, "relations": sorted(map(list, self.relations))}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Poset":
        return cls.from_relations(d["size"], [tuple(r) for r in d["relations"]])

    @classmethod
    def chain(cls, size: int) -> "Poset":
        return cls.from_relations(size, [(i, i + 1) for i in range(1, size)])

    @classmethod
    def antichain(cls, size: int) -> "Poset":
        return cls.from_relations(size, [])


def linear_extensions(P: Poset) -> Iterator[tuple[int, ...]]:
    """All order-preserving bijections, as tuples (element at rank 1, 2, ...).

    Lexicographic backtracking over the currently minimal elements.
    """
    preds = {b: P.predecessors(b) for b in range(1, P.size + 1)}

    def extend(placed: list[int], remaining: set[int]) -> Iterator[tuple[int, ...]]:
        if not remaining:
            yield tuple(placed)
            return
        placed_set = set(placed)
        for x in sorted(remaining):
            if preds[x] <= placed_set:
                placed.append(x)
                remaining.remove(x)
                yield from extend(placed, remaining)
                remaining.add(x)
                placed.pop()

    yield from extend([], set(range(1, P.size + 1)))


@dataclass(frozen=True)
class Fixture:
    """A named configuration with a triangulation, a lift, and a
    decorating coefficient matrix or a balanced coloring."""

    name: str
    configuration: PointConfiguration
    complex: SimplicialComplex
    heights: tuple[Fraction, ...]
    coefficients: RationalMatrix | None
    coloring: dict[int, int] | None


def order_polytope_triangulation(P: Poset) -> Fixture:
    """Canonical triangulation of the order polytope of P.

    One facet per linear extension; facet vertices are the zero vector and
    the suffix indicator vectors of the extension.  Heights are squared
    coordinate sums, the coloring is the coordinate sum.
    """
    d = P.size
    vertex_set: set[tuple[int, ...]] = set()
    facet_vertex_lists: list[list[tuple[int, ...]]] = []
    for lam in linear_extensions(P):
        verts = [tuple([0] * d)]
        for k in range(1, d + 1):
            v = [0] * d
            for i in range(k, d + 1):
                v[lam[i - 1] - 1] = 1
            verts.append(tuple(v))
        vertex_set.update(verts)
        facet_vertex_lists.append(verts)
    ordered = sorted(vertex_set, key=lambda v: (sum(v), v))
    index = {v: i + 1 for i, v in enumerate(ordered)}
    config = PointConfiguration.from_rows(ordered)
    facets = [tuple(sorted(index[v] for v in verts))
              for verts in facet_vertex_lists]
    heights = tuple(Fraction(sum(v)) ** 2 for v in ordered)
    coloring = {index[v]: sum(v) % (d + 1) for v in ordered}
    return Fixture(f"order-{d}", config,
                   SimplicialComplex.from_facets(d, len(ordered), facets),
                   heights, None, coloring)


def cross_polytope_triangulation(d: int) -> Fixture:
    """Slicing of the cross polytope along the coordinate hyperplanes.

    Vertices: origin then +-e_i (2d+1 points); one facet per orthant
    (2^d facets); heights are squared norms; color of +-e_i is i-1 and the
    origin gets color d.
    """
    if d < 1:
        raise ValueError("d >= 1 required")
    points = [tuple([Fraction(0)] * d)]
    for i in range(d):
        points.append(tuple(Fraction(1) if k == i else Fraction(0)
                            for k in range(d)))
    for i in range(d):
        points.append(tuple(Fraction(-1) if k == i else Fraction(0)
                            for k in range(d)))
    facets = []
    for bits in range(2 ** d):
        facet = [1]
        for i in range(d):
            neg = (bits >> i) & 1
            facet.append(2 + i + (d if neg else 0))
        facets.append(tuple(sorted(facet)))
    heights = tuple(sum(x * x for x in p) for p in points)
    coloring = {1: d}
    for i in range(d):
        coloring[2 + i] = i
        coloring[2 + d + i] = i
    return Fixture(f"cross-{d}", PointConfiguration(d, tuple(points)),
                   SimplicialComplex.from_facets(d, 2 * d + 1, facets),
                   heights, None, coloring)


# -- multilinear totally positive systems ----------------------------------


@dataclass(frozen=True)
class MultilinearSystem:
    """Product-of-linear-forms system built from totally positive matrices.

    ``matrices[u]`` has shape (parts[u]+1) x d; equation i is the product
    over u of the alternating-sign linear form in the block-u variables.
    ``solutions`` holds one exact positive solution per set partition of
    {1..d} into blocks of the prescribed sizes, flattened block by block.
    """

    parts: tuple[int, ...]
    matrices: tuple[RationalMatrix, ...]
    block_partitions: tuple[tuple[tuple[int, ...], ...], ...]
    solutions: tuple[tuple[Fraction, ...], ...]


def _set_partitions(universe: tuple[int, ...],
                    sizes: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    if not sizes:
        yield ()
        return
    first, rest = sizes[0], sizes[1:]
    for block in combinations(universe, first):
        remaining = tuple(x for x in universe if x not in block)
        for tail in _set_partitions(remaining, rest):
            yield (block,) + tail


def multilinear_tp_system(parts: Sequence[int]) -> MultilinearSystem:
    """Build the system for a partition of d and solve all its branches exactly.

    Block u's matrix is the Vandermonde matrix on the next parts[u] + 1 of
    the nodes 1, 2, ...: totally positive (Karlin, Total Positivity, 1968),
    so each block's kernel is positive, and two distinct blocks span a
    nonsingular generalized Vandermonde matrix, so no two branches share a
    solution.  Each set partition yields one block-decoupled linear system
    solved by exact kernel computation; both facts are checked exactly and
    raise ArithmeticError if they fail.
    """
    parts = tuple(int(p) for p in parts)
    if not parts or any(p < 1 for p in parts):
        raise ValueError("partition parts must be positive")
    d = sum(parts)
    partitions = tuple(_set_partitions(tuple(range(1, d + 1)), parts))
    starts = accumulate((du + 1 for du in parts), initial=1)
    matrices = tuple(RationalMatrix([[Fraction(x) ** j for j in range(d)]
                                     for x in range(s, s + du + 1)])
                     for s, du in zip(starts, parts))
    solutions = []
    for blocks in partitions:
        flat: list[Fraction] = []
        for block, du, T in zip(blocks, parts, matrices):
            # rows: equations i in the block; columns j=1..du are the
            # variable coefficients (-1)^j T_{j,i}, column du+1 the
            # constant (-1)^(du+1) T_{du+1,i}
            M = RationalMatrix(
                [[(-1) ** (j + 1) * T[j, i - 1] for j in range(du + 1)]
                 for i in block]
            )
            v = positive_kernel_vector(M)
            if v is None:
                raise ArithmeticError(
                    f"block {block} of parts {parts} has no positive kernel "
                    f"vector")
            flat.extend(x / v[du] for x in v[:du])
        solutions.append(tuple(flat))
    if len(set(solutions)) != len(solutions):
        raise ArithmeticError(f"two branches of parts {parts} share a solution")
    return MultilinearSystem(parts, matrices, partitions, tuple(solutions))
