"""Deformed polynomial systems from a configuration, coefficients and a lift.

A system here is the family f_i(X) = sum_j C_ij t^{h_j} X^{a_j} for a
positive parameter t.  This module validates the container, certifies that
a height function induces the given triangulation (strict lower-hull
inequalities, checked exactly), and computes the per-facet truncated
positive solutions that seed the numerical solver.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Sequence

import mpmath as mp

from .complexes import (
    PointConfiguration,
    SimplicialComplex,
    _Coordinates,
    _lifted_table,
    _lifted_walk,
    _positive_kernel_vectors,
)
from .exactlinalg import (
    RationalMatrix,
    RankDeficiencyError,
    common_integer_rows,
    format_rational,
    loads_exact,
    parse_rational,
    prefix_trie,
)
from .precision import Arithmetic, default_precision


@dataclass(frozen=True)
class ViroSystem:
    """Container for (configuration, coefficient matrix, heights).

    The parameter t stays symbolic; every t-dependent computation takes an
    explicit t argument.
    """

    configuration: PointConfiguration
    coefficients: RationalMatrix
    heights: tuple[Fraction, ...]

    @functools.cached_property
    def _hash(self) -> int:
        return hash((self.configuration, self.coefficients, self.heights))

    def __hash__(self):
        # kept after the first call: the numerics caches are keyed on
        # the system and would otherwise rehash every Fraction per lookup
        return self._hash

    @property
    def dimension(self) -> int:
        return self.configuration.dimension

    @property
    def n_points(self) -> int:
        return self.configuration.n_points

    def to_json_dict(self) -> dict:
        return {
            "points": [[format_rational(x) for x in p]
                       for p in self.configuration.points],
            "coefficients": self.coefficients.to_json_dict(),
            "heights": [format_rational(h) for h in self.heights],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d: dict) -> "ViroSystem":
        A = PointConfiguration.from_rows(
            [[parse_rational(x) for x in p] for p in d["points"]])
        return build_viro_system(
            A,
            RationalMatrix.from_json_dict(
                d["coefficients"], lambda rows, _: require_rows(A, rows)),
            [parse_rational(h) for h in d["heights"]],
        )

    @classmethod
    def from_json(cls, s: str) -> "ViroSystem":
        return cls.from_json_dict(loads_exact(s))


def require_rows(A: PointConfiguration, rows: int) -> None:
    """Refuse a coefficient matrix without one row per dimension of A."""
    if rows != A.dimension:
        raise ValueError("coefficient matrix must have d rows")


def build_viro_system(A: PointConfiguration, C: RationalMatrix,
                      heights: Sequence[Fraction]) -> ViroSystem:
    require_rows(A, C.rows)
    if C.cols != A.n_points:
        raise ValueError("coefficient matrix must have one column per point")
    if len(heights) != A.n_points:
        raise ValueError("need one height per point")
    return ViroSystem(A, C, tuple(Fraction(h) for h in heights))


def render_system(S: ViroSystem) -> str:
    """Human-readable rendering with explicit t powers, in the variables
    X, Y, Z, or X1, ..., Xd past d = 3."""
    d = S.dimension
    var_names = ([f"X{i + 1}" for i in range(d)] if d > 3
                 else ["X", "Y", "Z"][:d])
    lines = []
    for i in range(d):
        terms = []
        for j in range(S.n_points):
            c = S.coefficients[i, j]
            if c == 0:
                continue
            factors = []
            coeff = format_rational(abs(c))
            if coeff != "1":
                factors.append(coeff)
            h = S.heights[j]
            if h != 0:
                factors.append(f"t^{format_rational(h)}" if h != 1 else "t")
            for k, e in enumerate(S.configuration.points[j]):
                if e == 0:
                    continue
                factors.append(f"{var_names[k]}^{format_rational(e)}"
                               if e != 1 else var_names[k])
            mono = "*".join(factors) if factors else "1"
            terms.append(("- " if c < 0 else "+ ") + mono)
        body = " ".join(terms).lstrip("+ ") if terms else "0"
        lines.append(f"f{i + 1} = {body}")
    return "\n".join(lines)


# -- regularity ------------------------------------------------------------


@dataclass
class RegularityReport:
    ok: bool
    sense: str | None                              # "convex" | "concave"
    violations: list[tuple[tuple[int, ...], int]]  # (facet, 1-based point)


def _require_heights(A: PointConfiguration, heights: Sequence) -> None:
    if len(heights) != A.n_points:
        raise ValueError(f"{len(heights)} heights for {A.n_points} points")


def facet_affine_support(A: PointConfiguration, heights: Sequence[Fraction],
                         facet: Sequence[int]) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Exact affine function (offset, gradient) matching the lift on a facet.

    The support solves one equation per vertex v: (1, a_v) . (offset,
    gradient) = h_v.  It is read off the lifted walk of the facet's own
    points (_lifted_walk), as a count reads each facet's off the lifted
    table of its complex (_support).
    """
    _require_heights(A, heights)
    facet = tuple(facet)
    for v in facet:
        if not 1 <= v <= A.n_points:
            raise ValueError(f"vertex {v} of facet {facet} out of "
                             f"range 1..{A.n_points}")
    if A.dimension + 1 != len(facet):
        raise ValueError(f"facet {facet} does not have "
                         f"{A.dimension + 1} vertices")
    own = range(1, len(facet) + 1)
    P, ((_, coords),) = _lifted_walk([A.points[v - 1] for v in facet],
                                     A.dimension, [own])
    return _support(facet, coords, P,
                    *_integer_heights([heights[v - 1] for v in facet]))


def _integer_heights(heights: Sequence) -> tuple[list[int], int]:
    """The heights scaled to integers by their positive common
    denominator Q, and Q."""
    (lift,), Q = common_integer_rows([[Fraction(h) for h in heights]])
    return lift, Q


def _support(facet: tuple[int, ...], coords: _Coordinates | None, P: int,
             lift: Sequence[int], Q: int
             ) -> tuple[Fraction, tuple[Fraction, ...]]:
    """(offset, gradient) of the lift on a facet, from its entry in a
    lifted table, whose points the denominator P scaled, and the heights
    scaled to integers by Q.

    With z_j = sum_r y_j[r] * lift[v_r] / (D * Q) for the unit columns y_j
    (the transposed inverse applied to the heights), the support of the
    scaled points is (z_0, z_1, ..., z_d), so the offset is z_0 and the
    gradient is P * (z_1, ..., z_d), as regularity_check forms its gaps.
    An affinely dependent facet raises RankDeficiencyError.
    """
    if coords is None:
        raise RankDeficiencyError(f"facet {facet} is affinely degenerate")
    D, vertices, _, units = coords
    lift_v = [lift[v - 1] for v in vertices]
    offset, *gradient = (sum(map(mul, y, lift_v)) for y in units)
    return (Fraction(offset, D * Q),
            tuple(Fraction(P * g, D * Q) for g in gradient))


def regularity_check(A: PointConfiguration, heights: Sequence[Fraction],
                     K: SimplicialComplex) -> RegularityReport:
    """Strict hull test: the lift must stay strictly on one side of every
    facet's affine support at every configuration point outside the facet.

    The side must be uniform across the whole complex.  Strictly above
    means the heights induce the complex as a lower hull (convex lift);
    strictly below, as an upper hull (concave lift) — a triangulation is
    certified either way, and the report records which sense applies.
    Ties and mixed senses are reported as violations: they mean the height
    induces a coarser or a different subdivision than the given complex.

    The test reads the table of (A, K.facets) that complexes keeps for
    the last complex: per facet, its last pivot D and each outside point
    p's barycentric coordinates x_k / D on the facet's vertices v_k, as
    integers from one elimination of the lifted columns (1, a_p).  The
    gap at p, h_p minus the facet's affine support at a_p, is then
    (D * h_p - sum_k x_k * h_{v_k}) / D, so it has the sign of
    sign(D) * (D * h_p - sum_k x_k * h_{v_k}), with the heights scaled to
    integers by their positive common denominator.  The table does not
    depend on the heights: checks of one (A, K) under many heights, and
    the volumes of the same complex, share one elimination, and a check
    after the first is only integer dot products.  A facet whose points are
    affinely dependent raises RankDeficiencyError.  Violations follow
    the order of K.facets, and within a facet the order of the points.
    """
    d = A.dimension
    A.require_vertices(K)
    _require_heights(A, heights)
    if K.facets and len(K.facets[0]) != d + 1:
        raise ValueError(f"facet {K.facets[0]} does not have {d + 1} vertices")
    lift, _ = _integer_heights(heights)
    above, below, ties = [], [], []
    for facet, coords in zip(K.facets, _lifted_table(A, K).coords):
        if coords is None:
            raise RankDeficiencyError(f"facet {facet} is affinely degenerate")
        D, vertices, pairs, _ = coords
        lift_v = [lift[v - 1] for v in vertices]
        for p, x in pairs:
            gap = D * lift[p - 1] - sum(map(mul, x, lift_v))
            if D < 0:
                gap = -gap
            (above if gap > 0 else below if gap < 0 else ties).append(
                (facet, p))
    if ties:
        return RegularityReport(False, None, ties)
    if above and below:
        # mixed senses: report the minority side as the offending pairs
        return RegularityReport(False, None,
                                below if len(below) <= len(above) else above)
    if below:
        return RegularityReport(True, "concave", [])
    return RegularityReport(True, "convex", [])


# -- truncated solutions ---------------------------------------------------


@dataclass
class TruncatedSolution:
    """A point in log coordinates for one facet: the positive solution of
    its truncated system (truncated_solution), or its Newton start at a
    given t (predicted_solutions)."""

    facet: tuple[int, ...]
    log_point: tuple[mp.mpf, ...]


def log_fraction(x: Fraction) -> mp.mpf:
    """High-precision log of an exact positive rational."""
    if x <= 0:
        raise ValueError("log of a non-positive rational")
    return mp.log(x.numerator) - mp.log(x.denominator)


def mpf_fraction(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


# The one dense solver of the floating-point side: Newton's step, the
# condition estimate and the lifted solve below all factor with it.  It
# runs on raw mpmath values with the operations of one `Arithmetic`.


def _lu_factor(rows: Sequence[Sequence],
               ops: Arithmetic) -> tuple[list[list], list[int]]:
    """LU factors of a small square matrix given as a list of rows of raw
    mpmath values, in the arithmetic `ops`.

    Partial pivoting, keeping the first of equal candidates; returns
    (lu, perm), where lu holds U on and above the diagonal and L's
    multipliers below it, and row i of L*U is row perm[i] of the input.
    As in mpmath, a pivot p with |p| <= ||A||_1 * eps counts as singular:
    ZeroDivisionError.
    """
    sub, mul, div, abs_ = ops.sub, ops.mul, ops.div, ops.abs
    a = [list(row) for row in rows]
    n = len(a)
    tol = mul(ops.max(ops.total(abs_(row[k]) for row in a) for k in range(n)),
              ops.eps)
    perm = list(range(n))
    for j in range(n):
        magnitudes = [abs_(a[i][j]) for i in range(j, n)]
        best = ops.max(magnitudes)
        if ops.le(best, tol):
            raise ZeroDivisionError("matrix is numerically singular")
        p = j + magnitudes.index(best)
        a[j], a[p] = a[p], a[j]
        perm[j], perm[p] = perm[p], perm[j]
        pivot_row = a[j]
        pivot = pivot_row[j]
        for row in a[j + 1:]:
            f = row[j] = div(row[j], pivot)
            for k in range(j + 1, n):
                row[k] = sub(row[k], mul(f, pivot_row[k]))
    return a, perm


def _lu_solve(factors: tuple[list[list], list[int]], b: Sequence,
              ops: Arithmetic, first: int = 0) -> list:
    """Solve A x = b from _lu_factor(A, ops), in the same arithmetic.

    The forward substitution starts at row `first` of the permuted b,
    whose rows above it the caller knows to stay exact zeros.
    """
    a, perm = factors
    sub, mul, total = ops.sub, ops.mul, ops.total
    n = len(a)
    x = [b[p] for p in perm]
    for i in range(first + 1, n):
        row = a[i]
        x[i] = sub(x[i], total([mul(row[k], x[k]) for k in range(first, i)]))
    for i in range(n - 1, -1, -1):
        row = a[i]
        x[i] = ops.div(sub(x[i], total([mul(row[k], x[k])
                                         for k in range(i + 1, n)])),
                       row[i])
    return x


def truncated_solution(A: PointConfiguration, C: RationalMatrix,
                       facet: Sequence[int],
                       prec: int | None = None) -> TruncatedSolution:
    """Solve the facet-truncated system exactly-then-numerically.

    The exact positive kernel vector v of the facet's coefficient submatrix
    is mapped through the lifted exponent matrix: solving the transposed
    lifted system against log v yields (log lambda, u) with u the log of the
    positive solution.  v comes from the walk a count makes over a
    complex's facets (_positive_kernel_vectors), over this facet alone.
    """
    facet = tuple(facet)
    (kernel,) = _positive_kernel_vectors(C, [facet], prefix_trie([facet]))
    bits = prec or default_precision()
    with mp.workprec(bits):
        return TruncatedSolution(facet, _log_solution(
            facet, kernel, _point_rows(A.points[v - 1] for v in facet),
            Arithmetic(bits)))


def _point_rows(points) -> list[list[tuple]]:
    """The row (1, a_p) of each point, as raw mpf values at the working
    precision."""
    return [[mpf_fraction(Fraction(x))._mpf_ for x in (1, *p)]
            for p in points]


def _log_solution(facet: tuple[int, ...],
                  kernel: tuple[Fraction, ...] | ValueError,
                  rows: list[list[tuple]], ops: Arithmetic
                  ) -> tuple[mp.mpf, ...]:
    """u of the facet's truncated solution: the transposed lifted matrix,
    one row (1, a_v) per vertex v, solved against log kernel, less its
    first entry.  A kernel that is an error is raised."""
    if isinstance(kernel, ValueError):
        raise kernel
    try:
        sol = _lu_solve(_lu_factor(rows, ops),
                        [log_fraction(x)._mpf_ for x in kernel], ops)
    except ZeroDivisionError as exc:
        raise RankDeficiencyError(
            f"degenerate facet {facet}: lifted matrix singular") from exc
    return tuple(map(mp.make_mpf, sol[1:]))


@functools.lru_cache(maxsize=1)
def _facet_solutions(S: ViroSystem, K: SimplicialComplex,
                     bits: int) -> tuple[tuple, ...]:
    """(facet, truncated log-solution, mpf gradient of the affine
    support) per facet of K.  None of it depends on t, so the last build
    is kept: counts of one system at many t solve each facet once.

    The exact data come from walks made once per complex: the kernel
    vectors from one walk of C's columns over the complex's listing trie
    (_positive_kernel_vectors), and the affine supports from the lifted
    table of (A, K) (_support), which a regularity check of the same
    complex has already built.  Each point's row is converted to mpf once.
    A complex with more vertices than the points is refused first, as
    regularity_check refuses it.  Then a facet that is not decorated or is
    degenerate raises, the first in the order of K.facets, with
    truncated_solution's error and then facet_affine_support's.
    """
    A = S.configuration
    A.require_vertices(K)
    kernels = _positive_kernel_vectors(S.coefficients, K.facets,
                                       K._listing.trie)
    table = _lifted_table(A, K)
    lift, Q = _integer_heights(S.heights)
    ops = Arithmetic(bits)
    out = []
    with mp.workprec(bits):
        rows = _point_rows(A.points)
        for facet, kernel, coords in zip(K.facets, kernels, table.coords):
            u = _log_solution(facet, kernel, [rows[v - 1] for v in facet],
                              ops)
            _, grad = _support(facet, coords, table.denominator, lift, Q)
            out.append((facet, u, tuple(map(mpf_fraction, grad))))
    return tuple(out)


def predicted_solutions(S: ViroSystem, K: SimplicialComplex, t: Fraction,
                        prec: int | None = None) -> list[TruncatedSolution]:
    """Starting points u - log(t) * gradient, one per facet of K."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    bits = prec or default_precision()
    with mp.workprec(bits):
        lnt = log_fraction(t)
        return [TruncatedSolution(facet, tuple(x - lnt * g
                                               for x, g in zip(u, grad)))
                for facet, u, grad in _facet_solutions(S, K, bits)]
