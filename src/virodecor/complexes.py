"""Pure simplicial complexes over indexed vertex sets.

Facet-adjacency (dual) graphs, bipartiteness with odd-cycle witnesses,
balanced colorings, decoration checks against exact coefficient matrices,
per-simplex signs and normalized volumes.

Vertices are 1-based indices into an ambient configuration of n points;
only the vertices actually used by some facet participate in balancedness
and decoration checks.
"""

from __future__ import annotations

import functools
import json
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, permutations
from operator import lt, mul
from typing import Mapping, NamedTuple, Sequence

from .exactlinalg import (
    Elimination,
    PrefixTrie,
    RankDeficiencyError,
    RationalMatrix,
    _determinant,
    _kernel_line,
    _one_signed,
    _oriented,
    common_integer_rows,
    eliminate_prefixes,
    format_rational,
    integer_rows,
    loads_exact,
    parse_rational,
    prefix_trie,
)


@dataclass(frozen=True)
class SimplicialComplex:
    """Pure d-dimensional complex given by its facet list."""

    dimension: int
    n_vertices: int
    facets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        # tuples throughout: the complex is hashed, compared with others and
        # carries its dual graph, so it must not change underneath them
        object.__setattr__(self, "facets", tuple(map(tuple, self.facets)))
        d, n = self.dimension, self.n_vertices
        for name, value in (("dimension", d), ("n_vertices", n)):
            if not isinstance(value, int) or isinstance(value, bool) \
                    or value < 0:
                raise ValueError(
                    f"{name} must be a non-negative integer, got {value!r}")
        # one pass over every vertex; bool, a subclass of int, is refused
        if not set(map(type, chain.from_iterable(self.facets))) <= {int}:
            bad = next(v for f in self.facets for v in f if type(v) is not int)
            raise ValueError(f"facet vertex {bad!r} is not an integer")
        for f in self.facets:
            if len(f) != d + 1:
                raise ValueError(f"facet {f} does not have {d + 1} vertices")
            if not all(map(lt, f, f[1:])):
                raise ValueError(f"facet {f} is not strictly increasing")
            if f[0] < 1 or f[-1] > n:
                raise ValueError(f"facet {f} out of vertex range 1..{n}")
        if len(set(self.facets)) != len(self.facets):
            seen = set()
            for f in self.facets:
                if f in seen:
                    raise ValueError(f"duplicate facet {f}")
                seen.add(f)

    @classmethod
    def from_facets(cls, dimension: int, n_vertices: int,
                    facets: Sequence[Sequence[int]]) -> "SimplicialComplex":
        return cls(dimension, n_vertices,
                   tuple(sorted(tuple(sorted(f)) for f in facets)))

    @functools.cached_property
    def _dual_graph(self) -> DualGraph:
        # built on first use and kept as long as the complex
        return _ridge_graph(self)

    @functools.cached_property
    def _listing(self) -> _Listing:
        # built on the first walk over the facets and kept, like the graph
        return _shared_order(self.facets)

    @functools.cached_property
    def _balanced_coloring(self) -> dict[int, int] | None:
        # built on first use and kept; balanced_coloring hands out copies
        return _balance(self)

    def skeleton_edges(self) -> set[tuple[int, int]]:
        """Edges of the 1-skeleton (unordered pairs, stored sorted)."""
        edges = set()
        for f in self.facets:
            edges.update(combinations(f, 2))
        return edges

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "n_vertices": self.n_vertices,
            "facets": [list(f) for f in self.facets],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "SimplicialComplex":
        return cls.from_facets(d["dimension"], d["n_vertices"], d["facets"])

    @classmethod
    def from_json(cls, s: str) -> "SimplicialComplex":
        return cls.from_json_dict(loads_exact(s))


@dataclass(frozen=True)
class PointConfiguration:
    """Ordered exponent vectors a_1..a_n in Q^d."""

    dimension: int
    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        # tuples, so that the configuration hashes and compares by value
        object.__setattr__(self, "points", tuple(map(tuple, self.points)))
        for p in self.points:
            if len(p) != self.dimension:
                raise ValueError("point dimension mismatch")

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.dimension, self.points))

    def __hash__(self):
        # kept after the first call: caches keyed on a configuration
        # would otherwise rehash every Fraction on each lookup
        return self._hash

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "PointConfiguration":
        pts = tuple(tuple(Fraction(x) for x in row) for row in rows)
        if not pts:
            raise ValueError("empty configuration")
        return cls(len(pts[0]), pts)

    @property
    def n_points(self) -> int:
        return len(self.points)

    def require_vertices(self, K: SimplicialComplex) -> None:
        """Raise ValueError unless every vertex of K has a point."""
        if K.n_vertices > self.n_points:
            raise ValueError(f"the complex has {K.n_vertices} vertices but "
                             f"the configuration has {self.n_points} points")

    def to_json_dict(self) -> dict:
        return {
            "dimension": self.dimension,
            "points": [[format_rational(x) for x in p] for p in self.points],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "PointConfiguration":
        dim = d["dimension"]
        # bool, a subclass of int, is refused
        if type(dim) is not int or dim < 0:
            raise ValueError(
                f"dimension must be a non-negative integer, got {dim!r}")
        return cls(dim,
                   tuple(tuple(parse_rational(x) for x in p) for p in d["points"]))


@dataclass(frozen=True)
class DualGraph:
    """Facet-adjacency graph: nodes are facet indices into the complex.

    Shared: a complex builds its graph once and hands the same one to every
    caller, so the graph is frozen and its neighbour sets are frozensets.
    """

    n_nodes: int
    adjacency: Mapping[int, frozenset[int]]

    @functools.cached_property
    def _two_coloring(self) -> BipartitenessCheck:
        # built on first use and kept; is_bipartite hands out copies
        return _two_color(self)

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(
            (a, b) for a, nbrs in self.adjacency.items() for b in nbrs if a < b
        )


@dataclass
class BipartitenessCheck:
    colors: dict[int, int] | None        # facet index -> +1/-1
    odd_cycle: list[int] | None          # facet indices of a witness cycle

    def __bool__(self):
        return self.colors is not None


def dual_graph(K: SimplicialComplex) -> DualGraph:
    """Adjacency graph of facets; edge iff they share a ridge (d vertices).

    Built on the first call and kept by the complex; later calls return the
    same graph.
    """
    return K._dual_graph


@dataclass(frozen=True)
class _Listing:
    """The facets of a complex, each with its vertices in the shared
    order, and the sign of the permutation that takes each sorted facet to
    its listing: a listed facet's determinant is parity times the sorted
    one's."""

    facets: tuple[tuple[int, ...], ...]
    parities: tuple[int, ...]

    @functools.cached_property
    def trie(self) -> PrefixTrie:
        # the prefix trie of the listed facets, which every decoration
        # check and simplex_signs of the complex walk: built by the first
        # one and kept
        return prefix_trie(self.facets)


def _shared_order(facets: Sequence[tuple[int, ...]]) -> _Listing:
    """List each facet's vertices so that the facets share long prefixes.

    At each node of the prefix trie, the facets below it branch first on
    the vertex that most of them contain beyond the node's prefix, the
    smaller label on ties; the facets left branch on their most common
    vertex in turn, and so on.  A facet alone below a node lists the rest
    of its vertices in increasing order, as the rule would.  On cross(8)
    the decoration walk over the listed facets takes 255 pivot steps,
    where the sorted facets take 1,024.

    A group of facets is a bitmask of their indices, and the facets
    through a vertex are one too, so the group's count of a vertex is a
    popcount.  A node's counts are taken once, by its parent, and those
    of the facets that branch off are subtracted from what is left.
    """
    listed: list = [None] * len(facets)
    holding: dict[int, int] = {}   # vertex -> the facets through it
    for i, f in enumerate(facets):
        for v in f:
            holding[v] = holding.get(v, 0) | 1 << i

    def branch(group: int, head: tuple[int, ...], counts: dict[int, int]):
        """List the facets of group below head; counts holds each vertex
        beyond head that a facet of the group contains, with the number
        of those facets."""
        if not group & (group - 1):
            i = group.bit_length() - 1
            listed[i] = head + tuple(v for v in facets[i] if v not in head)
            return
        while group:
            v = min(counts, key=lambda w: (-counts[w], w))
            below = group & holding[v]
            group ^= below
            del counts[v]
            inner = {w: c for w in counts
                     if (c := (below & holding[w]).bit_count())}
            for w, c in inner.items():
                if counts[w] == c:
                    del counts[w]
                else:
                    counts[w] -= c
            branch(below, head + (v,), inner)

    if facets:
        branch((1 << len(facets)) - 1, (),
               {v: m.bit_count() for v, m in holding.items()})
    return _Listing(tuple(listed), tuple(map(_parity, facets, listed)))


def _parity(facet: tuple[int, ...], listed: tuple[int, ...]) -> int:
    """Sign of the permutation that takes the sorted facet to listed: each
    vertex passes over the vertices before it in the sorted rest."""
    rest = list(facet)
    passed = 0
    for v in listed:
        i = rest.index(v)
        passed += i
        del rest[i]
    return -1 if passed % 2 else 1


def _ridge_graph(K: SimplicialComplex) -> DualGraph:
    """Join the facets through each ridge that lies in more than one facet.

    Each ridge is keyed by an int: its facet's vertex bitmask, the sum of
    1 << v over the facet's vertices v, with the bit of the vertex it
    leaves out cleared.  The index holds the first and the second facet
    through each ridge, and a list only for a ridge in three or more
    facets.

    A key is n_vertices bits wide, so its cost grows with the vertex
    count: every complex the benchmark builds has at most 22 vertices,
    but cyclic(200, 3) takes about twice as long as with vertex-tuple
    keys, and cyclic(20000, 2) about 15 times as long and 6 times the
    memory.
    """
    first: dict = {}    # ridge -> the first facet through it
    second: dict = {}   # ridge -> the second
    more: dict = {}     # ridge -> every facet through it, if three or more
    # two facets share at most one ridge, so no neighbour is listed twice
    neighbours: list[list[int]] = [[] for _ in K.facets]
    for i, f in enumerate(K.facets):
        bits = [1 << v for v in f]
        mask = sum(bits)
        mine = neighbours[i]
        for ridge in bits:
            ridge ^= mask   # the facet's mask less that vertex's bit
            j = first.setdefault(ridge, i)
            if j == i:
                continue
            k = second.setdefault(ridge, i)
            if k == i:
                neighbours[j].append(i)
                mine.append(j)
                continue
            through = more.get(ridge)
            if through is None:
                through = more[ridge] = [j, k]
            for h in through:
                neighbours[h].append(i)
                mine.append(h)
            through.append(i)
    return DualGraph(len(K.facets), dict(enumerate(map(frozenset, neighbours))))


def is_bipartite(G: DualGraph) -> BipartitenessCheck:
    """Two-color the dual graph, or return an odd cycle as witness.

    Built on the first call and kept by the graph; each call returns a
    copy, which the caller may change.
    """
    check = G._two_coloring
    return BipartitenessCheck(
        None if check.colors is None else dict(check.colors),
        None if check.odd_cycle is None else list(check.odd_cycle))


def _two_color(G: DualGraph) -> BipartitenessCheck:
    """Breadth-first 2-coloring from each uncolored facet in turn.

    Each search's queue is a list that the loop walks as it grows, and
    each neighbour's colour is looked up once.
    """
    colors: dict[int, int] = {}
    parent: dict[int, int | None] = {}
    for start in range(G.n_nodes):
        if start in colors:
            continue
        colors[start] = 1
        parent[start] = None
        queue = [start]
        for v in queue:
            other = -colors[v]
            for w in sorted(G.adjacency[v]):
                color = colors.get(w)
                if color is None:
                    colors[w] = other
                    parent[w] = v
                    queue.append(w)
                elif color != other:
                    return BipartitenessCheck(None, _odd_cycle(parent, v, w))
    return BipartitenessCheck(colors, None)


def _odd_cycle(parent: Mapping[int, int | None], v: int, w: int) -> list[int]:
    """Reconstruct the cycle through the conflicting edge (v, w)."""
    path_v, path_w = [v], [w]
    av, aw = v, w
    seen = {v: 0}
    while parent[av] is not None:
        av = parent[av]
        seen[av] = len(path_v)
        path_v.append(av)
    while aw not in seen:
        aw = parent[aw]
        path_w.append(aw)
    k = seen[aw]
    return path_v[:k + 1] + list(reversed(path_w[:-1]))


def _component_coloring(K: SimplicialComplex, G: DualGraph, start: int,
                        visited: set[int]) -> dict[int, int] | None:
    """Propagate the coloring of facet ``start`` across its dual-graph
    component, adding the component's facets to ``visited``.

    Every facet is a clique, so a proper (d+1)-coloring is rainbow on each
    facet and adjacency forces the new vertex's color.  A facet is reached
    through a ridge whose d vertices are colored, and it is rainbow when
    reached or the propagation fails; colors are never changed afterwards,
    so the result is rainbow on every facet of the component.  Within a
    component the coloring is unique up to a global color permutation.
    """
    d = K.dimension
    coloring: dict[int, int] = {
        v: c for c, v in enumerate(K.facets[start])
    }
    queue = deque([start])
    visited.add(start)
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
    return coloring


def balanced_coloring(K: SimplicialComplex) -> dict[int, int] | None:
    """Proper (d+1)-coloring of the 1-skeleton, or None if none exists.

    Built on the first call and kept by the complex; each call returns a
    copy, which the caller may change.
    """
    coloring = K._balanced_coloring
    return None if coloring is None else dict(coloring)


def _balance(K: SimplicialComplex) -> dict[int, int] | None:
    """The balanced coloring of K, or None.

    Each dual-graph component has an essentially unique candidate coloring,
    rainbow on each of its facets, so a connected complex's coloring is
    proper on the 1-skeleton as it stands.  Several components are
    reconciled by backtracking over color permutations, pruned on the
    skeleton edges; the merged coloring agrees on shared vertices, and every
    skeleton edge lies in a facet, so it is proper on every edge.  Each
    search node draws only the colorings of its component's shared
    vertices, not all (d+1)! permutations, and tests only the edges at
    the component's vertices.
    """
    if not K.facets:
        return {}
    d = K.dimension
    G = dual_graph(K)
    partials = []
    visited: set[int] = set()
    for start in range(G.n_nodes):   # the least facet of each component
        if start in visited:
            continue
        coloring = _component_coloring(K, G, start, visited)
        if coloring is None:
            return None
        partials.append(coloring)
    if len(partials) == 1:
        return partials[0]

    edges = K.skeleton_edges()
    # A vertex in one component only decides no conflict: its edges lie in
    # facets of that component, on which every candidate is rainbow.  So
    # candidates that agree on the shared vertices fare alike, and only the
    # first of them is tried.
    holders: dict[int, list[int]] = {}   # vertex -> its components
    for i, base in enumerate(partials):
        for v in base:
            holders.setdefault(v, []).append(i)
    shared = [[(v, c) for v, c in base.items() if len(holders[v]) > 1]
              for base in partials]
    colors = range(d + 1)
    # The vertices assigned before a component are properly colored, and
    # its candidate gives each shared one its color again, so only the
    # edges at its own vertices can clash.
    touching: list[list[tuple[int, int]]] = [[] for _ in partials]
    for a, b in edges:
        for i in {*holders[a], *holders[b]}:
            touching[i].append((a, b))

    def consistent(assigned: dict[int, int], idx: int) -> bool:
        for a, b in touching[idx]:
            ca, cb = assigned.get(a), assigned.get(b)
            if ca is not None and ca == cb:
                return False
        return True

    def candidates(idx: int, assigned: dict[int, int]) -> list[tuple]:
        """The lexicographically first permutation of the colors for each
        injective coloring of the shared base colors that agrees with the
        vertices assigned so far, in the order of those permutations: the
        first of each class in a walk of every permutation."""
        fixed: dict[int, int] = {}
        for v, c in shared[idx]:
            if v in assigned and fixed.setdefault(c, assigned[v]) != \
                    assigned[v]:
                return []
        if len(set(fixed.values())) != len(fixed):
            return []
        free = sorted({c for _, c in shared[idx]} - fixed.keys())
        perms = []
        for image in permutations(
                [x for x in colors if x not in fixed.values()], len(free)):
            chosen = {**fixed, **dict(zip(free, image))}
            rest = iter([x for x in colors if x not in chosen.values()])
            perms.append(tuple([chosen[c] if c in chosen else next(rest)
                                for c in colors]))
        return sorted(perms)

    def backtrack(idx: int, assigned: dict[int, int]) -> dict[int, int] | None:
        if idx == len(partials):
            return dict(assigned)
        for perm in candidates(idx, assigned):
            merged = dict(assigned)
            merged.update({v: perm[c] for v, c in partials[idx].items()})
            # 7.9 s on 4,000 seeded random complexes, and 48 s without it
            if not consistent(merged, idx):
                continue
            result = backtrack(idx + 1, merged)
            if result is not None:
                return result
        return None

    return backtrack(0, {})


def decoration_from_coloring(coloring: Mapping[int, int], n: int,
                             d: int) -> RationalMatrix:
    """d x n coefficient matrix with column e_{c+1} per vertex of color c.

    Color d maps to the all-minus-ones column.  Vertices absent from the
    coloring (unused by any facet) get the e_1 column; they never enter a
    facet submatrix.
    """
    colors = [coloring.get(v, 0) for v in range(1, n + 1)]
    for c in colors:
        if not 0 <= c <= d:
            raise ValueError(f"color {c} out of range 0..{d}")
    # row by row, so that n = 0 gives a d x 0 matrix
    return RationalMatrix([[-1 if c == d else 1 if c == i else 0
                            for c in colors] for i in range(d)])


def is_positively_decorated(
    K: SimplicialComplex, C: RationalMatrix
) -> tuple[bool, list[tuple[int, ...]]]:
    """Check every facet submatrix of C for orientation.

    Returns (verdict, failing facets in the order of K.facets); the report
    lists all failures, not just the first one.

    Each column of C is scaled to integers once, by its own lcm.  A facet
    slice C_tau with columns scaled by a positive diagonal L has the kernel
    L^-1 v for each kernel vector v of C_tau, so its orientation is kept.
    One walk over the prefix trie of the facets, each listed in the
    complex's shared order (_shared_order), pivots on each facet's first
    d listed columns, sharing the pivots of common prefixes.  The trie is
    the complex's own, built by its first check and kept, so a check
    under another C only pivots.  The last listed column x, read in the
    pivot rows, then spans the kernel as v[last] = D and v[pivot_i] =
    -x_i, so the facet is oriented iff every x_i * D < 0.  Listing a
    facet's columns in another order permutes its kernel line and keeps
    this verdict.  A facet whose first d listed columns are dependent has
    a zero minor and fails.
    """
    if C.cols < K.n_vertices:
        raise ValueError("coefficient matrix has fewer columns than vertices")
    if C.rows != K.dimension:
        raise ValueError("coefficient matrix row count must equal dimension")
    columns, _ = integer_rows(zip(*C.to_lists()))
    oriented = eliminate_prefixes(columns, K._listing.trie, _oriented)
    failing = [facet for facet, ok in zip(K.facets, oriented) if not ok]
    return (not failing, failing)


def _positive_kernel_vectors(
    C: RationalMatrix, facets: Sequence[tuple[int, ...]], trie: PrefixTrie,
) -> list[tuple[Fraction, ...] | ValueError]:
    """positive_kernel_vector of each facet's columns of C, in the order
    of facets, from one walk over the trie of the same facets as listed
    (for a complex, K._listing.trie, which the decoration check walks).

    The walk is is_positively_decorated's: each column of C scaled to
    integers by its own lcm L_v, and a facet's kernel line w read in its
    listed order.  The kernel of the unscaled columns is then
    v_u = L_u * w_u, taken back to the facet's own order and divided by
    its first entry, which gives exactly positive_kernel_vector's
    Fractions.  Where positive_kernel_vector raises or finds no positive
    vector, the entry is the error that truncated_solution raises for the
    facet: RankDeficiencyError below rank d, or ValueError naming it.
    """
    d = C.rows
    if facets and len(facets[0]) != d + 1:
        raise ValueError("expected shape d x (d+1)")
    columns, scales = integer_rows(zip(*C.to_lists()))

    def line(listed: Sequence[int], e: Elimination):
        if len(e.rows) < d:
            return RankDeficiencyError(
                "matrix has rank < d; kernel is not a line")
        w = _kernel_line(listed, e)
        return w if _one_signed(w) else None

    out: list = []
    for facet, listed, w in zip(facets, trie.facets,
                                eliminate_prefixes(columns, trie, line)):
        if w is None:
            w = ValueError(f"facet {facet} is not positively decorated")
        elif not isinstance(w, ValueError):
            at = dict(zip(listed, w))
            v = [scales[u - 1] * at[u] for u in facet]
            w = tuple(Fraction(x, v[0]) for x in v)
        out.append(w)
    return out


_Coordinates = tuple[int, tuple[int, ...],
                     tuple[tuple[int, Sequence[int]], ...],
                     tuple[Sequence[int], ...]]


class _LiftedTable(NamedTuple):
    """The lifted configuration eliminated once per facet of a complex.

    denominator is the common denominator P of the points, and scale is
    P^d.  dets holds P^d times each facet's lifted determinant, 0 where
    the facet's points are affinely dependent.  coords holds, per facet,
    (D, vertices, pairs, units), from the lifted columns (1, P * a_p):
    - D is the last pivot, and vertices[r] is the vertex whose column was
      pivoted in row r;
    - pairs lists (p, x) for each point p outside the facet, in
      increasing order, with D * (1, a_p) = sum_r x[r] * (1, a_v) over
      the rows r and their vertices v = vertices[r].  So x / D are p's
      barycentric coordinates on the facet, kept as integers;
    - units lists y_j for each unit vector e_j, j = 0..d, with
      D * e_j = sum_r y_j[r] * (1, P * a_v): y_j[r] / D is the entry of
      the inverse of the facet's lifted matrix at (v, j).
    coords is None for a dependent facet.  None of it depends on heights.
    """

    scale: int
    dets: tuple[int, ...]
    coords: tuple[_Coordinates | None, ...]
    denominator: int


def _facet_entry(facet: Sequence[int], e: Elimination,
                 n: int) -> tuple[int, _Coordinates | None]:
    """(lifted determinant, coordinates) of one facet, read off the
    elimination of its d+1 lifted columns: if they took every pivot, each
    other column, of the n points and then of the unit vectors, is D
    times its coordinates on them in the pivot rows, here every row; if
    not, the facet is affinely dependent."""
    if e.pivots != tuple(facet):
        return 0, None
    vertices = [0] * len(facet)
    for r, v in zip(e.rows, e.pivots):
        vertices[r] = v
    columns = e.columns
    return e.sign * e.D, (
        e.D, tuple(vertices),
        tuple((p, x) for p, x in columns.items() if p <= n),
        tuple(columns[n + j] for j in range(1, len(facet) + 1)))


def _lifted_walk(points: Sequence[Sequence[Fraction]], d: int,
                 listed: Sequence[Sequence[int]]
                 ) -> tuple[int, list[tuple[int, _Coordinates | None]]]:
    """The common denominator P of the points in R^d, and _facet_entry of
    each facet as listed: one walk of the lifted columns (1, P * a_p) and
    the d+1 unit vectors after them.

    Each facet is followed by the points outside it, in increasing order,
    and then by the unit vectors, so one walk over the prefix trie of
    these lists, built here, pivots on the facet's d+1 lifted columns and
    carries every other column.  Facets that part within their own
    vertices are each one run from there on.
    """
    m = d + 1
    points, P = common_integer_rows(points)
    n = len(points)
    every = range(1, n + 1)
    units = range(n + 1, n + m + 1)
    return P, eliminate_prefixes(
        [(1, *p) for p in points]
        + [tuple(int(i == j) for i in range(m)) for j in range(m)],
        prefix_trie((*f, *(p for p in every if p not in f), *units)
                    for f in listed),
        lambda facet, e: _facet_entry(facet[:m], e, n))


@functools.lru_cache(maxsize=1)
def _lifted_table(A: PointConfiguration, K: SimplicialComplex) -> _LiftedTable:
    """Eliminate the lifted columns (1, a_p) of every facet, in one walk.

    The points are scaled to integers by one common denominator P, which
    multiplies every lifted determinant by P^d > 0 and leaves every
    barycentric coordinate unchanged.  Each facet is listed with its
    vertices in the complex's shared order (_shared_order) for the walk
    (_lifted_walk), whose trie then has the nodes of the listing's.  The
    determinant is the facet's parity times sign times the last pivot;
    the coordinates do not depend on the order.  The table does not
    depend on heights, so the last one is kept, with (A, K) as its key:
    regularity under any heights, the volumes, the simplex signs and the
    affine supports of a count of one complex read one walk.
    """
    if K.facets and K.dimension != A.dimension:
        raise ValueError("determinant requires a square matrix")
    listing = K._listing
    P, entries = _lifted_walk(A.points, A.dimension, listing.facets)
    return _LiftedTable(P ** A.dimension,
                        tuple(parity * det for parity, (det, _)
                              in zip(listing.parities, entries)),
                        tuple(coords for _, coords in entries), P)


def simplex_signs(
    K: SimplicialComplex, A: PointConfiguration, C: RationalMatrix
) -> dict[tuple[int, ...], int]:
    """Per-facet sign: sign(det lifted A_tau) * sign(det lifted C_tau).

    For a positively decorated complex, adjacent facets receive opposite
    signs.  The lifted C columns are walked over the complex's kept trie,
    as the decoration check walks C's, so no trie is built here.
    """
    A.require_vertices(K)
    dets_a = _lifted_table(A, K).dets
    if K.facets and C.rows != K.dimension:
        raise ValueError("determinant requires a square matrix")
    # the lifted columns (1, c_v), each scaled by its own positive lcm, of
    # each facet in the shared order: the sorted facet's determinant is
    # the listed one's times its parity
    lifted_c, _ = integer_rows((1, *col) for col in zip(*C.to_lists()))
    listing = K._listing
    dets_c = map(mul, listing.parities,
                 eliminate_prefixes(lifted_c, listing.trie, _determinant))
    signs = {}
    for facet, det_a, det_c in zip(K.facets, dets_a, dets_c):
        if det_a == 0:
            raise ValueError(f"degenerate facet {facet}: lifted matrix singular")
        if det_c == 0:
            raise ValueError(f"facet {facet} is not decorated (singular lift)")
        signs[facet] = 1 if (det_a > 0) == (det_c > 0) else -1
    return signs


def normalized_volume(A: PointConfiguration, facet: Sequence[int]) -> Fraction:
    """|det| of the lifted facet matrix: Euclidean volume times d!, from a
    walk over the facet's one-node trie, so a complex's cached table is
    kept."""
    if len(facet) != A.dimension + 1:
        raise ValueError("determinant requires a square matrix")
    points, P = common_integer_rows(A.points)
    (det,) = eliminate_prefixes([(1, *p) for p in points],
                                prefix_trie([facet]), _determinant)
    return Fraction(abs(det), P ** A.dimension)


def is_unimodular(K: SimplicialComplex, A: PointConfiguration) -> bool:
    """True iff every facet's lifted determinant is +-1.

    Reads the cached table of (A, K), so after a regularity check
    of the same complex, under any heights, it runs no elimination.
    """
    A.require_vertices(K)
    scale, dets, _, _ = _lifted_table(A, K)
    return all(abs(det) == scale for det in dets)


def total_normalized_volume(K: SimplicialComplex,
                            A: PointConfiguration) -> Fraction:
    A.require_vertices(K)
    scale, dets, _, _ = _lifted_table(A, K)
    return Fraction(sum(map(abs, dets)), scale)


def coloring_to_json_dict(coloring: Mapping[int, int], n: int) -> dict:
    return {"colors": [coloring.get(v, 0) for v in range(1, n + 1)]}

