"""Log-space numerics: evaluation, Jacobians, Newton, root counting."""

import random
from fractions import Fraction

import mpmath as mp
import pytest

from virodecor import catalog, numerics
from virodecor.complexes import (
    PointConfiguration,
    SimplicialComplex,
    decoration_from_coloring,
)
from virodecor.exactlinalg import RationalMatrix
from virodecor.numerics import (
    DEDUP_LOG_DISTANCE,
    certified_positive_count,
    evaluate,
    jacobian,
    newton_refine,
)
from virodecor.viro import build_viro_system, log_fraction, predicted_solutions

PREC = 256


def planar_system():
    f = catalog.planar_hexagon_fixture()
    C = decoration_from_coloring(f.coloring, 7, 2)
    return f, build_viro_system(f.configuration, C, f.heights)


def snd63_system():
    f = catalog.snd63_fixture()
    return f, build_viro_system(f.configuration, f.coefficients, f.heights)


def test_evaluate_single_monomial_row():
    A = PointConfiguration.from_rows([(2,)])
    S = build_viro_system(A, RationalMatrix([[5]]), [3])
    res, scales = evaluate(S, Fraction(1, 10), [mp.mpf(1)])
    with mp.workprec(PREC):
        assert abs(res[0] - 5) < mp.mpf("1e-70")
        expected = 3 * mp.log(mp.mpf(1) / 10) + 2
        assert abs(scales[0] - expected) < mp.mpf("1e-70")


def random_system(rnd, d):
    m = rnd.randint(d + 1, d + 3)
    A = PointConfiguration.from_rows(
        [[rnd.randint(-3, 3) for _ in range(d)] for _ in range(m)])
    C = RationalMatrix(
        [[Fraction(rnd.randint(-5, 5), rnd.randint(1, 3)) for _ in range(m)]
         for _ in range(d)])
    heights = [Fraction(rnd.randint(0, 6)) for _ in range(m)]
    return build_viro_system(A, C, heights)


def test_jacobian_matches_finite_differences():
    """Over 100 random systems of dimension up to 4: each row's residual
    against a direct evaluation from the Fractions, and central
    differences of the unscaled residual against the analytic Jacobian."""
    rnd = random.Random(20240817)
    checked = 0
    with mp.workprec(PREC):
        h = mp.mpf("1e-20")
        while checked < 100:
            d = rnd.randint(1, 4)
            S = random_system(rnd, d)
            t = Fraction(1, rnd.randint(2, 50))
            u = [mp.mpf(rnd.uniform(-1.5, 1.5)) for _ in range(d)]
            J = jacobian(S, t, u, prec=PREC)
            res0, sc0 = evaluate(S, t, u, prec=PREC)
            ok_system = True
            for i in range(d):
                # unscaled row sum computed directly from the Fractions
                terms = [mp.mpf(c.numerator) / c.denominator
                         * mp.power(mp.mpf(t.numerator) / t.denominator, h)
                         * mp.exp(mp.fsum(a * uk for a, uk in zip(p, u)))
                         for c, h, p in zip(S.coefficients.to_lists()[i],
                                            S.heights, S.configuration.points)
                         if c != 0]
                scale = max(abs(x) for x in terms)
                if abs(res0[i] * mp.e ** sc0[i] - mp.fsum(terms)) \
                        >= mp.mpf("1e-60") * scale:
                    ok_system = False
            for k in range(d):
                up = list(u)
                um = list(u)
                up[k] += h
                um[k] -= h
                rp, sp = evaluate(S, t, up, prec=PREC)
                rm, sm = evaluate(S, t, um, prec=PREC)
                for i in range(d):
                    fd = (rp[i] * mp.e ** sp[i] - rm[i] * mp.e ** sm[i]) \
                        / (2 * h)
                    an = J[i, k] * mp.e ** sc0[i]
                    denom = max(abs(fd), abs(an), mp.mpf("1e-30"))
                    if abs(fd - an) / denom >= mp.mpf("1e-6"):
                        ok_system = False
            assert ok_system
            checked += 1


def test_newton_converges_from_exact_root():
    f, S = planar_system()
    t = Fraction(1, 1000)
    result = certified_positive_count(S, f.complex, t)
    root = result.witnesses[0].log_point
    again = newton_refine(S, t, root)
    assert again.status == "converged"
    assert again.iterations <= 3


def test_newton_reports_failure_not_crash():
    f, S = planar_system()
    result = newton_refine(S, Fraction(1, 1000),
                           [mp.mpf(500), mp.mpf(-500)], max_iter=20)
    assert result.status in ("diverged", "singular", "max_iter")
    assert result.log_point is None
    assert result.jacobian is None
    # the count says why each facet failed: status word, then iterations
    t = Fraction(1, 10)
    count = certified_positive_count(S, f.complex, t)
    starts = {s.facet: s.log_point
              for s in predicted_solutions(S, f.complex, t)}
    newton_failures = [(facet, reason) for facet, reason in count.failures
                       if reason != "duplicate root"]
    assert newton_failures
    for facet, reason in newton_failures:
        again = newton_refine(S, t, starts[facet])
        assert reason.startswith(
            f"{again.status} after {again.iterations} iterations (residual ")


def test_newton_returns_the_jacobian_at_the_root():
    f, S = snd63_system()
    t = Fraction(1, 10)
    for start in predicted_solutions(S, f.complex, t):
        result = newton_refine(S, t, start.log_point)
        assert result.status == "converged"
        J = jacobian(S, t, result.log_point)
        assert (result.jacobian.rows, result.jacobian.cols) == (J.rows, J.cols)
        assert all(result.jacobian[i, k] == J[i, k]
                   for i in range(J.rows) for k in range(J.cols))


def test_count_compiles_the_system_once(monkeypatch):
    """One conversion of the system to mpf per count, not one per facet:
    each build takes log t once."""
    f, S = snd63_system()
    calls = []

    def counted(x):
        calls.append(x)
        return log_fraction(x)

    monkeypatch.setattr(numerics, "log_fraction", counted)
    # a t no other test uses, so no earlier build is kept for it
    result = certified_positive_count(S, f.complex, Fraction(1, 97))
    assert result.count == 5
    assert calls == [Fraction(1, 97)]


def test_count_single_decorated_simplex():
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    C = RationalMatrix([[2, -1, -1], [1, 1, -3]])
    K = SimplicialComplex.from_facets(2, 3, [(1, 2, 3)])
    S = build_viro_system(A, C, [0, 1, 1])
    result = certified_positive_count(S, K, Fraction(1, 10))
    assert result.count == 1
    assert result.failures == []


def test_count_planar_fixture():
    f, S = planar_system()
    result = certified_positive_count(S, f.complex, Fraction(1, 1000))
    assert result.count == 6
    assert result.heuristic
    for w in result.witnesses:
        assert w.residual < mp.mpf("1e-10")
        assert mp.isfinite(w.jacobian_condition)
    assert result.min_separation is None or \
        result.min_separation > DEDUP_LOG_DISTANCE


@pytest.mark.parametrize("prec", [53, 64, 113])
def test_count_at_low_precision(prec):
    """The stopping tolerance follows the working precision, so every
    precision the policy accepts finds all the roots."""
    for make, t, expected in ((planar_system, Fraction(1, 1000), 6),
                              (snd63_system, Fraction(1, 10), 5)):
        f, S = make()
        result = certified_positive_count(S, f.complex, t, prec=prec)
        assert result.count == expected
        assert result.failures == []


def test_count_monotone_in_t():
    for make, t0 in ((planar_system, Fraction(1, 1000)),
                     (snd63_system, Fraction(1, 100))):
        f, S = make()
        base = certified_positive_count(S, f.complex, t0).count
        finer = certified_positive_count(S, f.complex, t0 / 10).count
        assert finer >= base


def test_roots_invariant_under_row_scaling():
    f, S = planar_system()
    t = Fraction(1, 1000)
    baseline = certified_positive_count(S, f.complex, t)
    rows = S.coefficients.to_lists()
    rows[0] = [Fraction(7, 3) * x for x in rows[0]]
    scaled = build_viro_system(S.configuration, RationalMatrix(rows),
                               S.heights)
    other = certified_positive_count(scaled, f.complex, t)
    assert other.count == baseline.count

    def key(w):
        return tuple(mp.nstr(x, 20) for x in w.log_point)

    with mp.workprec(PREC):
        for w1, w2 in zip(sorted(baseline.witnesses, key=key),
                          sorted(other.witnesses, key=key)):
            for a, b in zip(w1.log_point, w2.log_point):
                assert abs(a - b) < mp.mpf("1e-25")


def test_report_json_shape():
    f, S = planar_system()
    t = Fraction(1, 1000)
    report = certified_positive_count(S, f.complex, t).to_json_dict(t)
    assert report["t"] == "1/1000"
    assert report["count"] == 6
    assert report["heuristic"] is True
    for w in report["witnesses"]:
        assert set(w) == {"log_x", "residual", "jac_cond", "facet"}
