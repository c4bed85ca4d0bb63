"""Reference answers computed without the code under test.

Everything here works on plain tuples, ``Fraction`` and ``mpmath``; nothing
imports ``virodecor``.  The benchmark compares every answer the program gives
against these functions, so a faster but wrong program fails the run.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import combinations, permutations

import mpmath as mp


class WrongAnswer(AssertionError):
    """The program's answer disagrees with the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongAnswer(message)


# -- complexes ----------------------------------------------------------------


def ridge_adjacency(facets) -> dict[int, set[int]]:
    """Facet adjacency by shared ridges: |F & G| = d iff F, G share a ridge."""
    by_ridge: dict[tuple[int, ...], list[int]] = {}
    for i, facet in enumerate(facets):
        for k in range(len(facet)):
            by_ridge.setdefault(facet[:k] + facet[k + 1:], []).append(i)
    adjacency: dict[int, set[int]] = {i: set() for i in range(len(facets))}
    for members in by_ridge.values():
        for a, b in combinations(members, 2):
            adjacency[a].add(b)
            adjacency[b].add(a)
    return adjacency


def skeleton_edges(facets) -> set[tuple[int, int]]:
    return {e for facet in facets for e in combinations(sorted(facet), 2)}


def two_coloring(adjacency) -> dict[int, int] | None:
    """BFS 2-coloring of a graph, or None when it has an odd cycle."""
    colors: dict[int, int] = {}
    for start in adjacency:
        if start in colors:
            continue
        colors[start] = 1
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adjacency[v]:
                if w not in colors:
                    colors[w] = -colors[v]
                    queue.append(w)
                elif colors[w] == colors[v]:
                    return None
    return colors


def components(adjacency) -> int:
    seen: set[int] = set()
    count = 0
    for start in adjacency:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            v = queue.popleft()
            for w in adjacency[v] - seen:
                seen.add(w)
                queue.append(w)
    return count


def balanced_coloring_exists(facets, adjacency) -> bool | None:
    """Whether the 1-skeleton has a proper (d+1)-coloring.

    Each facet is a clique, so a proper coloring is rainbow on every facet and
    adjacent facets force the color of their one new vertex.  On a connected
    dual graph the coloring is therefore unique up to renaming the colors, and
    propagating it from one facet decides existence.  Returns None, meaning
    "not decided", when the dual graph is disconnected.
    """
    if not facets:
        return True
    if components(adjacency) > 1:
        return None
    d1 = len(facets[0])
    color = {v: c for c, v in enumerate(facets[0])}
    queue = deque([0])
    seen = {0}
    while queue:
        i = queue.popleft()
        for j in adjacency[i]:
            if j in seen:
                continue
            seen.add(j)
            new = [v for v in facets[j] if v not in color]
            used = {color[v] for v in facets[j] if v in color}
            if len(new) > 1 or len(used) != d1 - len(new):
                return False
            if new:
                color[new[0]] = (set(range(d1)) - used).pop()
            queue.append(j)
    return all(color[a] != color[b] for a, b in skeleton_edges(facets))


def is_proper(colors, edges) -> bool:
    return all(colors[a] != colors[b] for a, b in edges)


def is_odd_closed_walk(walk, facets) -> bool:
    """An odd closed walk in the dual graph: consecutive facets share d vertices."""
    if len(walk) < 3 or len(walk) % 2 == 0:
        return False
    d = len(facets[0]) - 1
    return all(
        len(set(facets[a]) & set(facets[b])) == d
        for a, b in zip(walk, walk[1:] + walk[:1])
    )


# -- family enumerations --------------------------------------------------------


def _gap_starts(n: int, k: int):
    """Increasing k-tuples in 1..n-1 with consecutive gaps >= 2."""
    def extend(prefix, lo):
        if len(prefix) == k:
            yield tuple(prefix)
            return
        for i in range(lo, n):
            yield from extend(prefix + [i], i + 2)
    yield from extend([], 1)


def cyclic_facets(n: int, d: int) -> list[tuple[int, ...]]:
    """Gale's evenness facets of the minimal cyclic triangulation, odd d."""
    return sorted(tuple(v for i in s for v in (i, i + 1))
                  for s in _gap_starts(n, (d + 1) // 2))


def snd_facets(n: int, d: int) -> list[tuple[int, ...]]:
    """Facets of the bipartite subcomplex: a pair start is odd or the gap is > 2."""
    return [f for f in cyclic_facets(n, d)
            if all(f[2 * j] % 2 == 1 or f[2 * j + 2] - f[2 * j] > 2
                   for j in range((d + 1) // 2 - 1))]


def cross_facets(d: int) -> list[tuple[int, ...]]:
    """Orthant facets of the cross polytope on origin=1, +e_i=i+1, -e_i=d+i+1."""
    return sorted(
        tuple(sorted([1] + [2 + i + (d if (bits >> i) & 1 else 0)
                            for i in range(d)]))
        for bits in range(2 ** d))


def linear_extension_count(size: int, relations) -> int:
    return sum(
        1 for perm in permutations(range(1, size + 1))
        if all(perm.index(a) < perm.index(b) for a, b in relations))


# -- exact linear algebra ---------------------------------------------------------


def det_leibniz(rows) -> Fraction:
    """Determinant by the permutation expansion; small matrices only."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2)
                         if perm[i] > perm[j])
        term = Fraction(-1 if inversions % 2 else 1)
        for i, p in enumerate(perm):
            term *= rows[i][p]
            if term == 0:
                break
        total += term
    return total


def is_oriented(columns) -> bool:
    """d+1 columns in Q^d whose signed maximal minors share one nonzero sign."""
    signs = set()
    for i in range(len(columns)):
        rest = columns[:i] + columns[i + 1:]
        minor = det_leibniz([list(r) for r in zip(*rest)])
        if minor == 0:
            return False
        signs.add((minor > 0) == (i % 2 == 0))
    return len(signs) == 1


def failing_facets(facets, C) -> list[tuple[int, ...]]:
    """Facets whose coefficient columns are not oriented; C is a list of rows."""
    cols = list(zip(*C))
    return [f for f in facets if not is_oriented([cols[v - 1] for v in f])]


def solve_exact(rows, rhs) -> list[Fraction]:
    """Gauss-Jordan over Fractions for a square nonsingular system."""
    n = len(rows)
    a = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        p = next(i for i in range(c, n) if a[i][c] != 0)
        a[c], a[p] = a[p], a[c]
        for i in range(n):
            if i != c and a[i][c] != 0:
                f = a[i][c] / a[c][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return [a[i][n] / a[i][i] for i in range(n)]


def regularity_sense(points, heights, facets) -> str | None:
    """'convex' or 'concave' when the lift induces the facets strictly, else None."""
    gaps = set()
    for facet in facets:
        rows = [[Fraction(1), *points[v - 1]] for v in facet]
        coef = solve_exact(rows, [heights[v - 1] for v in facet])
        for p, (x, h) in enumerate(zip(points, heights), start=1):
            if p in facet:
                continue
            gap = h - coef[0] - sum(c * xi for c, xi in zip(coef[1:], x))
            gaps.add((gap > 0) - (gap < 0))
    if gaps == {1} or not gaps:
        return "convex"
    if gaps == {-1}:
        return "concave"
    return None


# -- roots ---------------------------------------------------------------------


def relative_residual(points, C, heights, t: Fraction, log_x,
                      prec: int = 256):
    """max_i |f_i(x)| / max term of row i at x = exp(log_x), evaluated afresh."""
    with mp.workprec(prec):
        lnt = mp.log(mp.mpf(t.numerator)) - mp.log(mp.mpf(t.denominator))
        u = [mp.mpf(s) for s in log_x]
        worst = mp.mpf(0)
        for row in C:
            terms = [
                mp.mpf(c.numerator) / c.denominator * mp.exp(
                    mp.mpf(h.numerator) / h.denominator * lnt
                    + mp.fsum(mp.mpf(a.numerator) / a.denominator * uk
                              for a, uk in zip(p, u)))
                for c, p, h in zip(row, points, heights) if c != 0]
            worst = max(worst, abs(mp.fsum(terms)) / max(abs(x) for x in terms))
        return float(worst)


def distinct(log_points, separation: float) -> bool:
    pts = [[float(s) for s in p] for p in log_points]
    return all(max(abs(a - b) for a, b in zip(p, q)) > separation
               for p, q in combinations(pts, 2))
