"""Built-in reference fixtures used by the verification suite and the CLI.

Each fixture is a families.Fixture, the record that the family
constructors return too: a point configuration, triangulation, lift, and a
decorating coefficient matrix or balanced coloring whose expected behavior
is frozen in the test suite.  Data is stored exactly, as rationals.
"""

from __future__ import annotations

from fractions import Fraction

from .complexes import PointConfiguration, SimplicialComplex
from .exactlinalg import RationalMatrix, parse_rational
from .families import Fixture, cyclic_heights, cyclic_points


def _parse_rows(rows: list[str]) -> RationalMatrix:
    return RationalMatrix([[parse_rational(x) for x in row.split()]
                           for row in rows])


# A planar configuration of 7 points whose lift triangulates the convex
# position part into 6 triangles, with a balanced 3-coloring.
def planar_hexagon_fixture() -> Fixture:
    points = PointConfiguration.from_rows([
        (1, -1), (-4, -6), (-4, 4), (6, 0), (3, 6), (10, 5), (6, -6),
    ])
    facets = [(1, 2, 3), (1, 3, 4), (3, 4, 5), (4, 5, 6), (1, 2, 7), (1, 4, 7)]
    K = SimplicialComplex.from_facets(2, 7, facets)
    heights = tuple(Fraction(h) for h in (0, 0, 0, 3, 5, 10, 2))
    coloring = {1: 0, 2: 1, 3: 2, 4: 1, 5: 0, 6: 2, 7: 2}
    return Fixture("planar-hexagon", points, K, heights, None, coloring)


# A 3 x 6 integer matrix decorating the bipartite subcomplex for (n, d) = (6, 3),
# over moment-curve nodes 0..5 with the degree-4 lift.
def snd63_fixture() -> Fixture:
    C = RationalMatrix([
        [1, 0, 3, -4, 0, -1],
        [-2, 1, 1, 0, 0, -1],
        [0, 0, 3, -3, 1, -3],
    ])
    nodes = [Fraction(i) for i in range(6)]
    points = cyclic_points(6, 3, nodes)
    heights = cyclic_heights(6, 3, nodes)
    facets = [(1, 2, 3, 4), (1, 2, 4, 5), (1, 2, 5, 6),
              (2, 3, 5, 6), (3, 4, 5, 6)]
    K = SimplicialComplex.from_facets(3, 6, facets)
    return Fixture("snd-6-3", points, K, heights, C, None)


_SND115_ROWS = [
    "14036/26031 -29047/45845 22485/134218 -20647/80496 14312/69515 "
    "-39015/127243 -6739/42098 19359/360623 16000/83529 1804/131469 "
    "4862/44061",
    "19937/61149 -8379/77942 -2105/18949 5635/122379 9229/59989 "
    "5391/113671 17593/33547 -50525/112808 -13843/33458 18357/116882 "
    "-54686/132521",
    "6391/94296 -3329/144100 7957/156078 -5685/48451 -14459/74653 "
    "30218/245615 -12227/25927 49127/145204 -14117/47609 29515/59658 "
    "-42328/83609",
    "-12249/145219 -13663/97873 -25831/90582 26287/33739 6818/23407 "
    "-14579/44765 -11126/58889 2247/122770 11139/100537 14421/74818 "
    "-60016/644607",
    "15984/47945 -22523/72834 -10734/41165 8531/24837 -21257/47591 "
    "22017/37075 5346/284353 19757/194173 5740/83029 -62271/466111 "
    "5591/37902",
]


# A 5 x 11 rational matrix decorating all 38 facets of the bipartite
# subcomplex for (n, d) = (11, 5), over nodes 0..10 with the degree-6 lift.
def snd115_fixture() -> Fixture:
    from .families import snd_subcomplex

    C = _parse_rows(_SND115_ROWS)
    nodes = [Fraction(i) for i in range(11)]
    points = cyclic_points(11, 5, nodes)
    heights = cyclic_heights(11, 5, nodes)
    return Fixture("snd-11-5", points, snd_subcomplex(11, 5), heights, C, None)


# Facet counts of the maximal bipartite subcomplexes, indexed by odd d,
# in the regime n = 2d + 1 where the count is maximal for the family.
DIAGONAL_COUNTS = {
    1: 2, 3: 8, 5: 38, 7: 192, 9: 1002, 11: 5336, 13: 28814,
    15: 157184, 17: 864146, 19: 4780008, 21: 26572086,
}
