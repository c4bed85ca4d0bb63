"""Stable evaluation and Newton refinement of deformed systems in log space.

Points live as u = log X, so positivity is structural.  Every row is
evaluated with its largest exponent factored out, which keeps residuals
representable even when heights reach 10^6; an evaluation takes one exp
per monomial and one per distinct row support, and accumulates each
residual and each Jacobian entry exactly (fsum, dot) before rounding it
once.  Newton evaluates each iterate once, and forms the Jacobian from
the weights of that evaluation only for the iterates it accepts; at a
root it also reports that Jacobian's condition number.  Newton's steps
and the condition numbers are solved with the one small LU defined here,
on Python lists; nothing else factors a matrix in floating point.

Work that cannot change a bit is left out: the compiled system drops the
zero coordinates of the points and the zero entries of the Jacobian
columns, rows with one support share one scale, the unit columns of a
condition number start their forward substitution at their 1, and the
deduplication sweeps the kept points in the order of their first
coordinate instead of comparing every pair.  Each is argued exact where
it is made.  A non-finite coordinate of a log-point is refused.

The evaluation, the Jacobian, the LU, Newton, the condition numbers and
the deduplication run on raw mpmath values with the operations of
`precision.Arithmetic`.  Each returns the tuple its mpf operator's libmp
call returns: on finite nonzero operands it rounds half-even at the
working precision directly on the tuple, which gives the same bits
because libmp rounds correctly (and fsum and dot take mpf_sum's loop
step for step); exp, le and any zero or non-finite operand go to libmp
itself.  So every value is bit-identical to mpf-class code at every
precision.  Values become mpfs only at the public edges: `NewtonResult`,
`Witness` and the result of `condition_estimate`, which takes raw rows
and the caller's arithmetic.

Counts produced here are floating-point certificates (residual +
nonsingular Jacobian + pairwise separation), not interval-arithmetic
proofs, and are flagged as such; each reports the working precision it
ran at.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp
from mpmath.libmp import mpf_shift

from .complexes import SimplicialComplex
from .precision import Arithmetic, working_precision
from .viro import ViroSystem, log_fraction, mpf_fraction, predicted_solutions

DEDUP_LOG_DISTANCE = mp.mpf("1e-6")


@functools.lru_cache(maxsize=1)
def _compile(S: ViroSystem, t: Fraction, bits: int):
    """The system at t converted once; returns a function of u.

    The function maps a log-point u, given as raw mpmath values, to
    (residuals, scales, jacobian): residual_i = f_i(exp u) / exp(scale_i),
    where scale_i is the row's largest term exponent, and jacobian()
    forms the Jacobian in log coordinates under the same row scaling, as
    a list of rows, from the weights of this evaluation; a point whose
    Jacobian is never asked for costs none.  Each call takes one exp per
    monomial and one per distinct row support: term j of row i weighs
    w_ij = c_ij * exp(e_j), the residual is fsum(w_i) * exp(-scale_i) and
    Jacobian entry (i, k) is dot(w_i, a_.k) * exp(-scale_i), so every sum
    is accumulated exactly and rounded once.  Exponents are unbounded, so
    exp(e_j) cannot overflow however large the heights.  Every value in
    and out is a raw mpmath value, computed with `Arithmetic(bits)`.
    The last build is kept: a count refines every facet of one system.

    Structural zeros are dropped here, and no bit changes.  Each point
    keeps only its nonzero coordinates for its exponent e_j: a product
    0 * u_k of a finite u_k is an exact 0, and adding an exact 0 to the
    running sum, which is already rounded, returns it unchanged.  Each
    Jacobian column keeps only its nonzero entries: dot, like mpf_sum,
    skips zero terms.  (0 * inf is NaN, so a non-finite u is refused
    before it gets here.)  Rows with one support share one scale: its
    max and exp(-max) are the same values for each of them, so they are
    formed once.
    """
    ops = Arithmetic(bits)
    add, mul, exp, neg = ops.add, ops.mul, ops.exp, ops.neg
    total, fsum, dot, max_ = ops.total, ops.fsum, ops.dot, ops.max
    with mp.workprec(bits):
        lnt = log_fraction(t)
        A = S.configuration.points
        points = [[(k, mpf_fraction(a)._mpf_) for k, a in enumerate(p) if a]
                  for p in A]
        offsets = [(mpf_fraction(h) * lnt)._mpf_ for h in S.heights]
        supports: dict[tuple, int] = {}
        rows = []
        for row in S.coefficients.to_lists():
            support = tuple(j for j, c in enumerate(row) if c != 0)
            columns = []
            for k in range(S.dimension):
                # the positions in the support whose point has a_k != 0;
                # None when that is all of them
                keep = [i for i, j in enumerate(support) if A[j][k]]
                columns.append((None if len(keep) == len(support) else keep,
                                [mpf_fraction(A[support[i]][k])._mpf_
                                 for i in keep]))
            rows.append((supports.setdefault(support, len(supports)),
                         [mpf_fraction(row[j])._mpf_ for j in support],
                         columns))
    supports = list(supports)

    def system(u):
        exps = [add(off, total([mul(a, u[k]) for k, a in p]))
                for off, p in zip(offsets, points)]
        powers = [exp(e) for e in exps]
        scaled = []
        for support in supports:
            m = max_([exps[j] for j in support])
            scaled.append((m, exp(neg(m))))
        residuals, scales, weights = [], [], []
        for g, coefficients, _ in rows:
            m, s = scaled[g]
            w = [mul(c, powers[j]) for j, c in zip(supports[g], coefficients)]
            residuals.append(mul(fsum(w), s))
            scales.append(m)
            weights.append((w, s))

        def jacobian():
            return [[mul(dot(w if keep is None else [w[i] for i in keep],
                             column), s)
                     for keep, column in columns]
                    for (w, s), (_, _, columns) in zip(weights, rows)]

        return residuals, scales, jacobian

    return system


def _finite(x) -> bool:
    """Whether the raw value x is finite: zero or with a mantissa."""
    return bool(x[1]) or not x[2]


def _in_range(x, bits: int) -> bool:
    """Whether the raw value x is finite and below 2^bits in magnitude.

    A coordinate that reaches 2^bits keeps no fractional bit, so no bit
    of exp(x) is correct; and exp takes time and memory in proportion to
    log |x|, which Newton on a system without a root can drive past any
    bound: each step there can exponentiate the last.
    """
    sign, man, exp, bc = x
    return exp + bc <= bits if man else not exp


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


@dataclass
class NewtonResult:
    status: str                      # converged | singular | diverged | max_iter
    log_point: tuple | None
    residual: object | None
    iterations: int
    condition: object | None = None  # at the root; None unless converged
    halvings: int = 0                # step halvings, summed over the run


def newton_refine(S: ViroSystem, t: Fraction, u0: Sequence,
                  max_iter: int = 100,
                  prec: int | None = None) -> NewtonResult:
    """Damped Newton in log coordinates.

    The step is halved (at most 30 times) while the scaled residual norm
    does not decrease.  Success requires, within max_iter iterations, the
    residual below tol = 2^-(prec // 2), about the square root of the unit
    roundoff at the working precision, and the step below
    tol * max(1, |u|): the step is measured relative to the point, whose
    coordinates reach 10^5 and more at small t.  Divergence, a singular
    Jacobian and iteration exhaustion are reported distinctly, each with
    the number of step halvings taken over the run.  A trial point with a
    coordinate of magnitude 2^prec or more is rejected unevaluated, like
    one whose residual does not fall.  Each iterate is evaluated once: the
    accepted line-search trial's evaluation supplies the next residual
    and, from its weights, the next Jacobian; a rejected trial forms no
    Jacobian; the root's Jacobian gives its condition number, in the same
    arithmetic.  The iteration runs on raw mpmath values; the start is
    rounded to the working precision first, and the result holds mpfs.
    """
    # bool, a subclass of int, is refused
    if type(max_iter) is not int or max_iter < 1:
        raise ValueError(f"max_iter must be a positive whole number; "
                         f"got {max_iter!r}")
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    if len(u0) != S.dimension:
        raise ValueError(f"log-point has {len(u0)} coordinates; the system "
                         f"has dimension {S.dimension}")
    bits = working_precision(prec)
    ops = Arithmetic(bits)
    add, mul, lt, max_abs = ops.add, ops.mul, ops.lt, ops.max_abs
    tol = mpf_shift(ops.one, -(bits // 2))
    with mp.workprec(bits):
        u = [mp.mpf(x)._mpf_ for x in u0]
    for k, x in enumerate(u):
        if not _finite(x):
            raise ValueError(f"log-point coordinate {k} is "
                             f"{mp.make_mpf(x)}; it must be finite")
    system = _compile(S, t, bits)
    res, _, jacobian = system(u)
    halvings = 0
    for it in range(1, max_iter + 1):
        rnorm = max_abs(res)
        try:
            step = _lu_solve(_lu_factor(jacobian(), ops),
                             [ops.neg(r) for r in res], ops)
        except ZeroDivisionError:
            return NewtonResult("singular", None, mp.make_mpf(rnorm), it,
                                halvings=halvings)
        lam = ops.one
        for _ in range(30):
            trial = [add(x, mul(lam, dx)) for x, dx in zip(u, step)]
            if not all(_in_range(x, bits) for x in trial):
                pass                 # rejected unevaluated
            elif lt(rnorm, tol):
                evaluation = None    # a full step, taken untested
                break
            else:
                evaluation = system(trial)
                if lt(max_abs(evaluation[0]), rnorm):
                    break
            lam = mpf_shift(lam, -1)
            halvings += 1
        else:
            return NewtonResult("diverged", None, mp.make_mpf(rnorm), it,
                                halvings=halvings)
        u = trial
        res, _, jacobian = evaluation or system(u)
        size = ops.max([ops.one, max_abs(u)])
        if lt(rnorm, tol) and lt(max_abs(mul(lam, dx) for dx in step),
                                 mul(tol, size)):
            return NewtonResult("converged", tuple(map(mp.make_mpf, u)),
                                mp.make_mpf(max_abs(res)), it,
                                condition_estimate(jacobian(), ops),
                                halvings=halvings)
    return NewtonResult("max_iter", None, mp.make_mpf(rnorm), max_iter,
                        halvings=halvings)


def condition_estimate(rows: list[list], ops: Arithmetic) -> object:
    """1-norm condition number of a small square matrix J, as an mpf.

    J is given as its rows of raw values, and every value is rounded in
    `ops`.  ||J||_1 times the largest column 1-norm of J^-1, whose
    columns are solved from one LU factorization; inf when J is
    singular.  When J is finite, each unit column's forward substitution
    starts at the row where its 1 lands: the rows above it hold exact
    zeros, every product of a finite multiplier with an exact zero is an
    exact zero, and a left-to-right sum from 0 is unchanged by leading
    zero terms.
    """
    try:
        factors = _lu_factor(rows, ops)
    except ZeroDivisionError:
        return mp.inf
    n = len(rows)
    perm = factors[1]
    # the permuted unit column e_k holds its 1 in row perm.index(k); a
    # finite J has finite multipliers
    finite = all(_finite(x) for row in rows for x in row)
    inverse_norm = ops.max(
        ops.fsum(_lu_solve(factors, [ops.one if i == k else ops.zero
                                     for i in range(n)], ops,
                           perm.index(k) if finite else 0), True)
        for k in range(n))
    norm = ops.max(ops.fsum([row[k] for row in rows], True)
                   for k in range(n))
    return mp.make_mpf(ops.mul(norm, inverse_norm))


def _deduplicate(points: list[list], ops: Arithmetic) -> tuple[list, object]:
    """Which log-points, taken in order, are new, and the least separation.

    A point is a duplicate when its max-norm distance sep to a point kept
    before it is below DEDUP_LOG_DISTANCE; min_sep is the least sep over
    the pairs of a point and a point kept before it, or None when there
    is no such pair.  Every value is raw and rounded in `ops`.

    The answer is that of comparing each point with every kept one, made
    by a sweep: the kept points are held in the order of their first
    coordinate, compared through `ops`, and the comparisons run outward
    from where the new point's first coordinate falls.  The rounded gap
    |sub(u_0, k_0)| is the first term of sep's max, so sep >= gap; once
    gap >= max(threshold, min_sep), that pair can neither be a duplicate
    nor lower min_sep, and since rounding is monotone, the gap only grows
    further out on that side, so the walk stops there.  Until min_sep
    exists, every kept point is compared.
    """
    sub, lt, abs_ = ops.sub, ops.lt, ops.abs
    threshold = DEDUP_LOG_DISTANCE._mpf_
    keep = []
    kept: list[list] = []        # by first coordinate, ties in facet order
    min_sep = None
    for point in points:
        first = point[0]
        lo, hi = 0, len(kept)    # kept[:lo] have first coordinate <= first
        while lo < hi:
            mid = (lo + hi) // 2
            if lt(first, kept[mid][0]):
                hi = mid
            else:
                lo = mid + 1
        dup = False
        for side in (range(lo - 1, -1, -1), range(lo, len(kept))):
            for i in side:
                other = kept[i]
                if min_sep is not None:
                    gap = abs_(sub(first, other[0]))
                    if not (lt(gap, threshold) or lt(gap, min_sep)):
                        break
                sep = ops.max_abs(map(sub, point, other))
                if min_sep is None or lt(sep, min_sep):
                    min_sep = sep
                if lt(sep, threshold):
                    dup = True
        keep.append(not dup)
        if not dup:
            kept.insert(lo, point)
    return keep, min_sep


@dataclass
class Witness:
    log_point: tuple
    residual: object
    jacobian_condition: object
    facet: tuple[int, ...]


@dataclass
class CertifiedCount:
    """Floating-point-certified lower bound on distinct positive solutions."""

    count: int
    witnesses: list[Witness]
    min_separation: object | None
    failures: list[tuple[tuple[int, ...], str]]
    precision: int                   # working bits the count ran at
    heuristic: bool = True           # not an interval-arithmetic certificate

    def to_json_dict(self, t: Fraction) -> dict:
        from .exactlinalg import format_rational
        return {
            "t": format_rational(Fraction(t)),
            "count": self.count,
            "heuristic": self.heuristic,
            "precision": self.precision,
            "witnesses": [
                {
                    "log_x": [mp.nstr(x, 25) for x in w.log_point],
                    "residual": mp.nstr(w.residual, 8),
                    "jac_cond": mp.nstr(w.jacobian_condition, 8),
                    "facet": list(w.facet),
                }
                for w in self.witnesses
            ],
            "failures": [
                {"facet": list(f), "reason": r} for f, r in self.failures
            ],
        }


def certified_positive_count(S: ViroSystem, K: SimplicialComplex,
                             t: Fraction,
                             prec: int | None = None) -> CertifiedCount:
    """Refine every facet's predicted start; count the distinct survivors.

    Survivors must converge, have a nonsingular Jacobian, and be pairwise
    separated by more than the deduplication threshold in log distance.
    Duplicates are found in facet order by the sweep of `_deduplicate`,
    which compares only the pairs whose first coordinates lie closer than
    max(threshold, min_separation) and answers as comparing every pair
    would, bit for bit.
    """
    t = Fraction(t)
    bits = working_precision(prec)
    with mp.workprec(bits):
        starts = predicted_solutions(S, K, t, prec=bits)
        witnesses: list[Witness] = []
        failures: list[tuple[tuple[int, ...], str]] = []
        for start in starts:
            result = newton_refine(S, t, start.log_point, prec=bits)
            if result.status != "converged":
                residual = mp.nstr(result.residual, 2, min_fixed=0,
                                   max_fixed=0)
                failures.append((start.facet,
                                 f"{result.status} after {result.iterations} "
                                 f"iterations (residual {residual}, "
                                 f"{result.halvings} halvings)"))
                continue
            if not mp.isfinite(result.condition):
                failures.append((start.facet, "singular jacobian at root"))
                continue
            witnesses.append(Witness(result.log_point, result.residual,
                                     result.condition, start.facet))
        # deterministic single-threaded deduplication in facet order
        keep, min_sep = _deduplicate([[x._mpf_ for x in w.log_point]
                                      for w in witnesses], Arithmetic(bits))
        distinct = [w for w, new in zip(witnesses, keep) if new]
        failures += [(w.facet, "duplicate root")
                     for w, new in zip(witnesses, keep) if not new]
        if min_sep is not None:
            min_sep = mp.make_mpf(min_sep)
        return CertifiedCount(len(distinct), distinct, min_sep, failures,
                              bits)
