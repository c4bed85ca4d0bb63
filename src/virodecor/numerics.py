"""Stable evaluation and Newton refinement of deformed systems in log space.

Points live as u = log X, so positivity is structural.  Every row is
evaluated with its largest exponent factored out, which keeps residuals
representable even when heights reach 10^6; an evaluation takes one exp
per monomial and one per row, and accumulates each residual and each
Jacobian entry exactly (fsum, fdot) before rounding it once.  Newton
evaluates each iterate once, and forms the Jacobian from the weights of
that evaluation only for the iterates it accepts.  Newton's steps and
the condition numbers are solved with the LU of `viro`, on Python lists.
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

from .complexes import SimplicialComplex
from .precision import default_precision
from .viro import (
    ViroSystem,
    _lu_factor,
    _lu_solve,
    log_fraction,
    mpf_fraction,
    predicted_solutions,
)

DEDUP_LOG_DISTANCE = mp.mpf("1e-6")


@functools.lru_cache(maxsize=1)
def _compile(S: ViroSystem, t: Fraction, bits: int):
    """The system at t converted to mpf once; returns a function of u.

    The function maps a log-point u to (residuals, scales, jacobian):
    residual_i = f_i(exp u) / exp(scale_i), where scale_i is the row's
    largest term exponent, and jacobian() forms the Jacobian in log
    coordinates under the same row scaling, as a list of rows, from the
    weights of this evaluation; a point whose Jacobian is never asked
    for costs none.  Each call takes one exp per monomial and one per
    row: term j of row i weighs w_ij = c_ij * exp(e_j), the residual is
    fsum(w_i) * exp(-scale_i) and Jacobian entry (i, k) is
    fdot(w_i, a_.k) * exp(-scale_i), so every sum is accumulated exactly
    and rounded once.  mpf exponents are unbounded, so exp(e_j) cannot
    overflow however large the heights.  The mpf values are rounded to
    `bits`, so call both functions at that working precision.  Only the
    context's + - * /, exp, fsum and fdot are used.  The last build is
    kept: a count refines every facet of one system.
    """
    with mp.workprec(bits):
        lnt = log_fraction(t)
        points = [[mpf_fraction(a) for a in p]
                  for p in S.configuration.points]
        offsets = [mpf_fraction(h) * lnt for h in S.heights]
        rows = []
        for row in S.coefficients.to_lists():
            support = [j for j, c in enumerate(row) if c != 0]
            rows.append((support, [mpf_fraction(row[j]) for j in support],
                         [[points[j][k] for j in support]
                          for k in range(S.dimension)]))

    def system(u):
        exps = [off + sum(a * uk for a, uk in zip(p, u))
                for off, p in zip(offsets, points)]
        powers = [mp.exp(e) for e in exps]
        residuals, scales, weights = [], [], []
        for support, coefficients, _ in rows:
            m = max(exps[j] for j in support)
            s = mp.exp(-m)
            w = [c * powers[j] for j, c in zip(support, coefficients)]
            residuals.append(mp.fsum(w) * s)
            scales.append(m)
            weights.append((w, s))

        def jacobian():
            return [[mp.fdot(w, column) * s for column in columns]
                    for (w, s), (_, _, columns) in zip(weights, rows)]

        return residuals, scales, jacobian

    return system


def evaluate(S: ViroSystem, t: Fraction, u: Sequence,
             prec: int | None = None):
    """Row-scaled residuals at log-point u.

    Returns (residuals, scales): residual_i = f_i(exp u) / exp(scale_i)
    where scale_i is the row's maximal term exponent.
    """
    if Fraction(t) <= 0:
        raise ValueError("t must be positive")
    bits = prec or default_precision()
    with mp.workprec(bits):
        return _compile(S, Fraction(t), bits)(u)[:2]


def jacobian(S: ViroSystem, t: Fraction, u: Sequence,
             prec: int | None = None):
    """Jacobian in log coordinates, with the same row scaling as evaluate."""
    bits = prec or default_precision()
    with mp.workprec(bits):
        return mp.matrix(_compile(S, Fraction(t), bits)(u)[2]())


@dataclass
class NewtonResult:
    status: str                      # converged | singular | diverged | max_iter
    log_point: tuple | None
    residual: object | None
    iterations: int
    jacobian: object | None = None   # at the root; None unless converged
    halvings: int = 0                # step halvings, summed over the run


def _max_abs(xs):
    return max(abs(x) for x in xs)


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
    the number of step halvings taken over the run.  Each
    iterate is evaluated once: the accepted line-search trial's
    evaluation supplies the next residual and, from its weights, the next
    Jacobian; a rejected trial forms no Jacobian.
    """
    bits = prec or default_precision()
    with mp.workprec(bits):
        tol = mp.ldexp(1, -(bits // 2))
        system = _compile(S, Fraction(t), bits)
        u = [mp.mpf(x) for x in u0]
        res, _, jacobian = system(u)
        halvings = 0
        for it in range(1, max_iter + 1):
            rnorm = _max_abs(res)
            try:
                step = _lu_solve(_lu_factor(jacobian()), [-r for r in res])
            except ZeroDivisionError:
                return NewtonResult("singular", None, rnorm, it,
                                    halvings=halvings)
            lam = mp.mpf(1)
            for _ in range(30):
                trial = [x + lam * dx for x, dx in zip(u, step)]
                if rnorm < tol:
                    evaluation = None    # a full step, taken untested
                    break
                evaluation = system(trial)
                if _max_abs(evaluation[0]) < rnorm:
                    break
                lam /= 2
                halvings += 1
            else:
                return NewtonResult("diverged", None, rnorm, it,
                                    halvings=halvings)
            u = trial
            if not all(mp.isfinite(x) for x in u):
                return NewtonResult("diverged", None, rnorm, it,
                                    halvings=halvings)
            res, _, jacobian = evaluation or system(u)
            size = max(1, _max_abs(u))
            if rnorm < tol and _max_abs(lam * dx for dx in step) < tol * size:
                return NewtonResult("converged", tuple(u), _max_abs(res), it,
                                    mp.matrix(jacobian()), halvings=halvings)
        return NewtonResult("max_iter", None, rnorm, max_iter,
                            halvings=halvings)


def condition_estimate(J) -> object:
    """1-norm condition number of a small square mpmath matrix.

    ||J||_1 times the largest column 1-norm of J^-1, whose columns are
    solved from one LU factorization; inf when J is singular.
    """
    rows = J.tolist()
    try:
        factors = _lu_factor(rows)
    except ZeroDivisionError:
        return mp.inf
    n = len(rows)
    inverse_norm = max(mp.fsum(abs(x) for x in _lu_solve(factors, e))
                       for e in ([int(i == k) for i in range(n)]
                                 for k in range(n)))
    return mp.mnorm(J, 1) * inverse_norm


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
    """
    t = Fraction(t)
    bits = prec or default_precision()
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
            cond = condition_estimate(result.jacobian)
            if not mp.isfinite(cond):
                failures.append((start.facet, "singular jacobian at root"))
                continue
            witnesses.append(Witness(result.log_point, result.residual,
                                     cond, start.facet))
        # deterministic single-threaded deduplication in facet order
        distinct: list[Witness] = []
        min_sep = None
        for w in witnesses:
            dup = False
            for kept in distinct:
                sep = max(abs(a - b)
                          for a, b in zip(w.log_point, kept.log_point))
                if min_sep is None or sep < min_sep:
                    min_sep = sep
                if sep < DEDUP_LOG_DISTANCE:
                    dup = True
            if dup:
                failures.append((w.facet, "duplicate root"))
            else:
                distinct.append(w)
        return CertifiedCount(len(distinct), distinct, min_sep, failures,
                              bits)
