"""Stable evaluation and Newton refinement of deformed systems in log space.

Points live as u = log X, so positivity is structural.  Every row is
evaluated with its largest exponent factored out, which keeps residuals
representable even when heights reach 10^6.  Counts produced here are
floating-point certificates (residual + nonsingular Jacobian + pairwise
separation), not interval-arithmetic proofs, and are flagged as such.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import mpmath as mp

from .complexes import SimplicialComplex
from .precision import default_precision
from .viro import ViroSystem, log_fraction, mpf_fraction, predicted_solutions

DEDUP_LOG_DISTANCE = mp.mpf("1e-6")


@functools.lru_cache(maxsize=1)
def _compile(S: ViroSystem, t: Fraction, bits: int):
    """The system at t converted to mpf once; returns a function of u.

    The function maps a log-point u to (residuals, scales, J):
    residual_i = f_i(exp u) / exp(scale_i), where scale_i is the row's
    largest term exponent, and J is the Jacobian in log coordinates under
    the same row scaling (None unless asked for).  The mpf values are
    rounded to `bits`, so call the function at that working precision.
    The last build is kept: a count refines every facet of one system.
    """
    with mp.workprec(bits):
        lnt = log_fraction(t)
        points = [[mpf_fraction(a) for a in p]
                  for p in S.configuration.points]
        offsets = [mpf_fraction(h) * lnt for h in S.heights]
        rows = [[(j, mpf_fraction(c)) for j, c in enumerate(row) if c != 0]
                for row in S.coefficients.to_lists()]

    def system(u, with_jacobian=False):
        exps = [off + sum(a * uk for a, uk in zip(p, u))
                for off, p in zip(offsets, points)]
        residuals, scales, J = [], [], []
        for row in rows:
            m = max(exps[j] for j, _ in row)
            w = [(j, c * mp.e ** (exps[j] - m)) for j, c in row]
            residuals.append(sum(wj for _, wj in w))
            scales.append(m)
            if with_jacobian:
                J.append([sum(wj * points[j][k] for j, wj in w)
                          for k in range(S.dimension)])
        return residuals, scales, mp.matrix(J) if with_jacobian else None

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
        return _compile(S, Fraction(t), bits)(u, with_jacobian=True)[2]


@dataclass
class NewtonResult:
    status: str                      # converged | singular | diverged | max_iter
    log_point: tuple | None
    residual: object | None
    iterations: int
    jacobian: object | None = None   # at the root; None unless converged


def newton_refine(S: ViroSystem, t: Fraction, u0: Sequence,
                  max_iter: int = 100,
                  prec: int | None = None) -> NewtonResult:
    """Damped Newton in log coordinates.

    The step is halved (at most 30 times) while the scaled residual norm
    does not decrease.  Success requires both the residual and the step
    norm below 2^-(prec // 2), about the square root of the unit roundoff
    at the working precision, within max_iter iterations; divergence, a
    singular Jacobian and iteration exhaustion are reported distinctly.
    """
    bits = prec or default_precision()
    with mp.workprec(bits):
        tol = mp.ldexp(1, -(bits // 2))
        system = _compile(S, Fraction(t), bits)

        def residual_norm(u):
            return mp.norm(mp.matrix(system(list(u))[0]), "inf")

        u = mp.matrix([mp.mpf(x) for x in u0])
        for it in range(1, max_iter + 1):
            res, _, J = system(list(u), with_jacobian=True)
            r = mp.matrix(res)
            rnorm = mp.norm(r, "inf")
            try:
                step = mp.lu_solve(J, -r)
            except (ZeroDivisionError, TypeError):
                # mpmath signals a singular matrix inconsistently
                return NewtonResult("singular", None, rnorm, it)
            lam = mp.mpf(1)
            for _ in range(30):
                if rnorm < tol or residual_norm(u + lam * step) < rnorm:
                    break
                lam /= 2
            else:
                return NewtonResult("diverged", None, rnorm, it)
            u = u + lam * step
            if not all(mp.isfinite(x) for x in u):
                return NewtonResult("diverged", None, rnorm, it)
            if rnorm < tol and mp.norm(lam * step, "inf") < tol:
                res, _, J = system(list(u), with_jacobian=True)
                return NewtonResult("converged", tuple(u),
                                    mp.norm(mp.matrix(res), "inf"), it, J)
        return NewtonResult("max_iter", None, rnorm, max_iter)


def condition_estimate(J) -> object:
    """1-norm condition estimate of a small mpmath matrix."""
    try:
        Jinv = J ** -1
    except (ZeroDivisionError, TypeError):
        return mp.inf
    return mp.mnorm(J, 1) * mp.mnorm(Jinv, 1)


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
    heuristic: bool = True           # not an interval-arithmetic certificate

    def to_json_dict(self, t: Fraction) -> dict:
        from .exactlinalg import format_rational
        return {
            "t": format_rational(Fraction(t)),
            "count": self.count,
            "heuristic": self.heuristic,
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
    with mp.workprec(prec or default_precision()):
        starts = predicted_solutions(S, K, t, prec=prec)
        witnesses: list[Witness] = []
        failures: list[tuple[tuple[int, ...], str]] = []
        for start in starts:
            result = newton_refine(S, t, start.log_point, prec=prec)
            if result.status != "converged":
                residual = mp.nstr(result.residual, 2, min_fixed=0,
                                   max_fixed=0)
                failures.append((start.facet,
                                 f"{result.status} after {result.iterations} "
                                 f"iterations (residual {residual})"))
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
        return CertifiedCount(len(distinct), distinct, min_sep, failures)
