"""Deformed polynomial systems from a configuration, coefficients and a lift.

A system here is the family f_i(X) = sum_j C_ij t^{h_j} X^{a_j} for a
positive parameter t.  This module validates the container, certifies that
a height function induces the given triangulation (strict lower-hull
inequalities, checked exactly), and builds each facet's truncated positive
solution and affine support, from walks over the whole complex, to seed
the numerical solver.  Both are read off the exact inverse of the facet's
lifted matrix in the lifted table, so degeneracy is decided exactly.
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
    _positive_kernel_vectors,
)
from .exactlinalg import (
    RationalMatrix,
    RankDeficiencyError,
    common_integer_rows,
    format_rational,
    loads_exact,
    parse_rational,
)
from .precision import Arithmetic, working_precision


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


def _integer_heights(heights: Sequence) -> tuple[list[int], int]:
    """The heights scaled to integers by their positive common
    denominator Q, and Q."""
    (lift,), Q = common_integer_rows([[Fraction(h) for h in heights]])
    return lift, Q


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
    affinely dependent raises RankDeficiencyError, and a complex whose
    dimension is not A's is refused as the table refuses it.  Violations
    follow the order of K.facets, and within a facet the order of the
    points.
    """
    A.require_vertices(K)
    if len(heights) != A.n_points:
        raise ValueError(f"{len(heights)} heights for {A.n_points} points")
    table = _lifted_table(A, K)
    lift, _ = _integer_heights(heights)
    above, below, ties = [], [], []
    for facet, coords in zip(K.facets, table.coords):
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
    """A facet's Newton start at a given t, in log coordinates
    (predicted_solutions)."""

    facet: tuple[int, ...]
    log_point: tuple[mp.mpf, ...]


def log_fraction(x: Fraction) -> mp.mpf:
    """High-precision log of an exact positive rational."""
    if x <= 0:
        raise ValueError("log of a non-positive rational")
    return mp.log(x.numerator) - mp.log(x.denominator)


def mpf_fraction(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / mp.mpf(x.denominator)


def _facet_data(facet: tuple[int, ...],
                kernel: tuple[Fraction, ...] | ValueError,
                coords: _Coordinates | None, P: int, lift: Sequence[int],
                Q: int, ops: Arithmetic) -> tuple[tuple, tuple]:
    """(u, gradient) of a facet: the log of its truncated solution, as
    mpfs, and the exact gradient of the lift's affine support on it.

    Both solve u_0 + <u, a_v> = r_v at the vertices v, with r_v = log
    lambda_v for the kernel vector lambda and r_v = h_v, so both are read
    off the facet's entry in a lifted table whose points the denominator
    P scaled.  With its unit columns y_k, last pivot D and vertex v_r
    pivoted in row r, u_k = sum_r (P * y_k[r] / D) * log lambda_{v_r},
    each coefficient converted to mpf once and summed by one
    `Arithmetic.dot`, and the gradient is P * sum_r y_k[r] * lift[v_r] /
    (D * Q) for the heights scaled to integers by Q.  A kernel that is an
    error is raised; then a facet without an entry is degenerate.
    """
    if isinstance(kernel, ValueError):
        raise kernel
    if coords is None:
        raise RankDeficiencyError(
            f"degenerate facet {facet}: lifted matrix singular")
    D, vertices, _, units = coords
    at = dict(zip(facet, kernel))
    logs = [log_fraction(at[v])._mpf_ for v in vertices]
    lift_v = [lift[v - 1] for v in vertices]
    u = tuple(mp.make_mpf(ops.dot([mpf_fraction(Fraction(P * x, D))._mpf_
                                   for x in y], logs)) for y in units)
    return u, tuple(Fraction(P * sum(map(mul, y, lift_v)), D * Q)
                    for y in units)


@functools.lru_cache(maxsize=1)
def _facet_solutions(S: ViroSystem, K: SimplicialComplex,
                     bits: int) -> tuple[tuple, ...]:
    """(facet, truncated log-solution, mpf gradient of the affine
    support) per facet of K.  None of it depends on t, so the last build
    is kept: counts of one system at many t read each facet once.

    The exact data come from walks made once per complex: the kernel
    vectors from one walk of C's columns over the complex's listing trie
    (_positive_kernel_vectors), and each facet's inverse from the lifted
    table of (A, K) (_facet_data), which a regularity check of the same
    complex has already built.  A complex with more vertices than the
    points is refused first, as regularity_check refuses it.  Then the
    first facet, in the order of K.facets, that is not decorated or is
    degenerate raises: its kernel's error (_positive_kernel_vectors), or
    a singular lifted matrix.
    """
    A = S.configuration
    A.require_vertices(K)
    kernels = _positive_kernel_vectors(S.coefficients, K)
    table = _lifted_table(A, K)
    lift, Q = _integer_heights(S.heights)
    ops = Arithmetic(bits)
    out = []
    with mp.workprec(bits):
        for facet, kernel, coords in zip(K.facets, kernels, table.coords):
            u, gradient = _facet_data(facet, kernel, coords,
                                      table.denominator, lift, Q, ops)
            out.append((facet, u, tuple(map(mpf_fraction, gradient))))
    return tuple(out)


def predicted_solutions(S: ViroSystem, K: SimplicialComplex, t: Fraction,
                        prec: int | None = None) -> list[TruncatedSolution]:
    """Starting points u - log(t) * gradient, one per facet of K."""
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    bits = working_precision(prec)
    with mp.workprec(bits):
        lnt = log_fraction(t)
        return [TruncatedSolution(facet, tuple(x - lnt * g
                                               for x, g in zip(u, grad)))
                for facet, u, grad in _facet_solutions(S, K, bits)]
