"""Log-space numerics: evaluation, Jacobians, Newton, root counting."""

import random
import re
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virodecor import catalog, numerics, viro
from virodecor.complexes import (
    PointConfiguration,
    SimplicialComplex,
    _lifted_table,
    decoration_from_coloring,
)
from virodecor.exactlinalg import RationalMatrix, positive_kernel_vector
from virodecor.families import (
    Poset,
    cross_polytope_triangulation,
    order_polytope_triangulation,
)
from virodecor.numerics import (
    DEDUP_LOG_DISTANCE,
    NewtonResult,
    Witness,
    certified_positive_count,
    condition_estimate,
    evaluate,
    jacobian,
    newton_refine,
)
from virodecor.precision import Arithmetic
from virodecor.viro import (
    _lu_factor,
    _lu_solve,
    build_viro_system,
    log_fraction,
    mpf_fraction,
    predicted_solutions,
)

from exact_oracles import lifted_matrix

PREC = 256


def snd115_system():
    f = catalog.snd115_fixture()
    return f, build_viro_system(f.configuration, f.coefficients, f.heights)


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


def row_loop_oracle(S, t, u, bits):
    """The evaluation as one exp of (e_j - scale_i) per term of every row:
    residuals, scales and the Jacobian, computed at `bits`."""
    with mp.workprec(bits):
        lnt = log_fraction(t)
        points = [[mpf_fraction(a) for a in p]
                  for p in S.configuration.points]
        exps = [mpf_fraction(h) * lnt + sum(a * uk for a, uk in zip(p, u))
                for h, p in zip(S.heights, points)]
        residuals, scales, J = [], [], []
        for row in S.coefficients.to_lists():
            terms = [(j, mpf_fraction(c)) for j, c in enumerate(row) if c != 0]
            m = max(exps[j] for j, _ in terms)
            w = [(j, c * mp.e ** (exps[j] - m)) for j, c in terms]
            residuals.append(sum(wj for _, wj in w))
            scales.append(m)
            J.append([sum(wj * points[j][k] for j, wj in w)
                      for k in range(S.dimension)])
        return residuals, scales, J


@st.composite
def large_systems(draw):
    """A random system of dimension up to 5 with heights up to 10^6, a
    log-point with coordinates up to 10^5, a t and a precision."""
    d = draw(st.integers(1, 5))
    m = draw(st.integers(d + 1, d + 3))
    A = PointConfiguration.from_rows(
        draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d),
                      min_size=m, max_size=m)))
    C = RationalMatrix(draw(st.lists(
        st.lists(st.fractions(-5, 5, max_denominator=7), min_size=m,
                 max_size=m).filter(any),
        min_size=d, max_size=d)))
    heights = draw(st.lists(st.integers(0, 10 ** 6), min_size=m, max_size=m))
    u = draw(st.lists(st.floats(-1e5, 1e5), min_size=d, max_size=d))
    t = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 10),
                              Fraction(1, 1000)]))
    bits = draw(st.sampled_from([53, 64, 113, 256]))
    return build_viro_system(A, C, heights), t, u, bits


@settings(max_examples=150, deadline=None)
@given(large_systems())
def test_evaluation_matches_the_row_loop(case):
    """One exp per monomial and one per row agree with one exp per term:
    each residual within 2^(8 - prec) * sum_j |C_ij|, each Jacobian entry
    within 2^(8 - prec) * sum_j |C_ij| * |a_jk|, the scales exactly."""
    S, t, u, bits = case
    with mp.workprec(bits):
        u = [mp.mpf(x) for x in u]
    res, scales = evaluate(S, t, u, prec=bits)
    J = jacobian(S, t, u, prec=bits)
    want_res, want_scales, want_J = row_loop_oracle(S, t, u, bits)
    assert scales == want_scales
    unit = mp.ldexp(1, 8 - bits)
    points = S.configuration.points
    for i, row in enumerate(S.coefficients.to_lists()):
        assert abs(res[i] - want_res[i]) <= unit * sum(map(abs, row))
        for k in range(S.dimension):
            bound = unit * sum(abs(c * p[k]) for c, p in zip(row, points))
            assert abs(J[i, k] - want_J[i][k]) <= bound


def raw(xs):
    return [x._mpf_ for x in xs]


def raw_rows(rows):
    return [raw(row) for row in rows]


def well_conditioned(rnd, n):
    """A random n x n matrix made diagonally dominant."""
    rows = [[mp.mpf(rnd.uniform(-1, 1)) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        rows[i][i] += n * (1 if rows[i][i] >= 0 else -1)
    return rows


@pytest.mark.parametrize("bits", [53, 64, 113, 256])
def test_lu_matches_mpmath(bits):
    """Solves agree with mp.lu_solve, and the condition estimate with
    ||J||_1 * ||J^-1||_1, to 2^(20 - prec) relative."""
    rnd = random.Random(bits)
    ops = Arithmetic(bits)
    with mp.workprec(bits):
        tol = mp.ldexp(1, 20 - bits)
        for n in range(1, 7):
            for _ in range(5):
                rows = well_conditioned(rnd, n)
                b = [mp.mpf(rnd.uniform(-10, 10)) for _ in range(n)]
                x = [mp.make_mpf(v) for v in _lu_solve(
                    _lu_factor(raw_rows(rows), ops), raw(b), ops)]
                want = mp.lu_solve(mp.matrix(rows), mp.matrix(b))
                err = max(abs(x[i] - want[i]) for i in range(n))
                assert err <= tol * max(abs(w) for w in want)
                J = mp.matrix(rows)
                want = mp.mnorm(J, 1) * mp.mnorm(J ** -1, 1)
                assert abs(condition_estimate(J) - want) <= tol * want


def test_lu_refuses_a_singular_matrix():
    rows = [[mp.mpf(1), mp.mpf(2)], [mp.mpf(2), mp.mpf(4)]]
    with pytest.raises(ZeroDivisionError):
        _lu_factor(raw_rows(rows), Arithmetic(PREC))
    assert condition_estimate(mp.matrix(rows)) == mp.inf


def test_newton_reports_a_singular_jacobian():
    """Two equal rows give an exactly singular Jacobian at every point."""
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    S = build_viro_system(A, RationalMatrix([[2, -1, -1], [2, -1, -1]]),
                          [0, 1, 1])
    result = newton_refine(S, Fraction(1, 10), [mp.mpf(0), mp.mpf(1)])
    assert result.status == "singular"
    assert result.iterations == 1
    assert result.log_point is None


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


def test_list_built_inputs_count_like_the_canonical_ones():
    f = catalog.snd63_fixture()
    K = SimplicialComplex(3, 6, [list(facet) for facet in f.complex.facets])
    A = PointConfiguration(3, [list(p) for p in f.configuration.points])
    assert K == f.complex and hash(K) == hash(f.complex)
    assert A == f.configuration and hash(A) == hash(f.configuration)
    t = Fraction(1, 10)
    S = build_viro_system(A, f.coefficients, f.heights)
    assert certified_positive_count(S, K, t).count == 5
    canonical = build_viro_system(f.configuration, f.coefficients, f.heights)
    assert canonical == S
    assert certified_positive_count(canonical, f.complex, t).count == 5


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


def test_newton_failure_reports_its_step_halvings():
    f, S = planar_system()
    t = Fraction(1, 10)
    count = certified_positive_count(S, f.complex, t)
    starts = {s.facet: s.log_point
              for s in predicted_solutions(S, f.complex, t)}
    diverged = [(facet, reason) for facet, reason in count.failures
                if reason.startswith("diverged")]
    assert diverged
    for facet, reason in diverged:
        again = newton_refine(S, t, starts[facet])
        # the last iteration alone halved its step 30 times
        assert again.status == "diverged" and again.halvings >= 30
        assert reason.endswith(f", {again.halvings} halvings)")


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


def spy_on_builds(monkeypatch):
    """The facet lists of the kernel walks a count makes (one per build
    of its per-facet data) and the facets it solves in mpf, as they
    happen."""
    builds, solves = [], []
    kernels = viro._positive_kernel_vectors
    log_solution = viro._log_solution

    def counted_kernels(C, facets, trie):
        builds.append(tuple(facets))
        return kernels(C, facets, trie)

    def counted_solve(facet, *args):
        solves.append(facet)
        return log_solution(facet, *args)

    monkeypatch.setattr(viro, "_positive_kernel_vectors", counted_kernels)
    monkeypatch.setattr(viro, "_log_solution", counted_solve)
    return builds, solves


def test_count_solves_each_facet_once_per_system(monkeypatch):
    """The per-facet data do not depend on t: two counts of one system
    walk its complex once and solve each facet once, and a count of
    another system builds them again."""
    builds, solves = spy_on_builds(monkeypatch)
    planar, P = planar_system()
    snd63, S = snd63_system()
    certified_positive_count(P, planar.complex, Fraction(1, 1000))
    builds.clear()
    solves.clear()
    for t in (Fraction(1, 10), Fraction(1, 100)):
        assert certified_positive_count(S, snd63.complex, t).count == 5
    assert builds == [snd63.complex.facets]
    assert solves == list(snd63.complex.facets)
    certified_positive_count(P, planar.complex, Fraction(1, 1000))
    assert builds == [snd63.complex.facets, planar.complex.facets]
    assert solves == list(snd63.complex.facets + planar.complex.facets)


def test_count_needs_no_single_facet_solve(monkeypatch):
    """A cold count reads its kernel vectors and affine supports off the
    walks of the whole complex: with positive_kernel_vector and solve
    raising wherever they are held, snd-11-5 still counts 38."""
    def refused(*args, **kwargs):
        raise AssertionError("a count made a single-facet solve")

    for name, module in list(sys.modules.items()):
        if name == "virodecor" or name.startswith("virodecor."):
            for attr in ("positive_kernel_vector", "solve"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, refused)
    viro._facet_solutions.cache_clear()
    _lifted_table.cache_clear()
    f, S = snd115_system()
    assert certified_positive_count(S, f.complex, Fraction(1, 1000)).count \
        == 38


def test_newton_evaluates_each_iterate_once(monkeypatch):
    """No point is evaluated twice in one Newton run, and a Jacobian is
    formed once per iteration plus once at the root, never for a
    rejected line-search trial."""
    f, S = snd63_system()
    t = Fraction(1, 10)
    compiled = numerics._compile
    points, jacobians = [], []

    def counting(*args):
        system = compiled(*args)

        def evaluate_once(u):
            points.append(tuple(u))
            res, scales, jacobian = system(u)

            def counted_jacobian():
                jacobians.append(tuple(u))
                return jacobian()

            return res, scales, counted_jacobian

        return evaluate_once

    monkeypatch.setattr(numerics, "_compile", counting)
    for start in predicted_solutions(S, f.complex, t):
        points.clear()
        jacobians.clear()
        result = newton_refine(S, t, start.log_point)
        assert result.status == "converged"
        assert len(set(points)) == len(points)
        assert len(jacobians) == result.iterations + 1
        assert jacobians[-1] == tuple(raw(result.log_point))


def test_equal_systems_share_one_build(monkeypatch):
    """Two equal systems built separately hash equal, and a count of the
    second reuses the first's conversion and truncated solutions."""
    f, S = snd63_system()
    twin = build_viro_system(
        PointConfiguration.from_rows(
            [list(p) for p in f.configuration.points]),
        RationalMatrix(f.coefficients.to_lists()), list(f.heights))
    assert twin is not S and twin == S
    assert hash(twin) == hash(S)
    assert hash(twin.configuration) == hash(S.configuration)
    assert hash(twin.coefficients) == hash(S.coefficients)
    # a t no other test uses, so no earlier build is kept for it
    t = Fraction(1, 89)
    first = certified_positive_count(S, f.complex, t)
    logs = []
    monkeypatch.setattr(numerics, "log_fraction",
                        lambda x: logs.append(x) or log_fraction(x))
    builds, solves = spy_on_builds(monkeypatch)
    second = certified_positive_count(twin, f.complex, t)
    assert (logs, builds, solves) == ([], [], [])
    assert second.count == first.count == 5
    assert [w.log_point for w in second.witnesses] == \
        [w.log_point for w in first.witnesses]


def cross_system(d):
    fam = cross_polytope_triangulation(d)
    C = decoration_from_coloring(fam.coloring, fam.complex.n_vertices, d)
    return build_viro_system(fam.configuration, C, fam.heights), fam.complex


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("bits", [256, 53])
def test_cross_roots_match_the_closed_form(d, bits):
    """Under the coloring decoration each row of cross(d) reads
    -1 + t (x_i + 1/x_i) = 0, whose roots are
    x = (1 +- sqrt(1 - 4t^2)) / (2t): 2^d positive roots for t < 1/2, one
    per sign pattern.  Every witness coordinate lies within
    2^(8 - prec) * max(1, |u|) of the log of one of the two."""
    S, K = cross_system(d)
    for t in (Fraction(1, 1000), Fraction(1, 10), Fraction(49, 100)):
        result = certified_positive_count(S, K, t, prec=bits)
        assert result.count == 2 ** d, t
        with mp.workprec(bits + 64):
            tt = mpf_fraction(t)
            root = mp.sqrt(1 - 4 * tt ** 2)
            logs = [mp.log((1 + root) / (2 * tt)),
                    mp.log((1 - root) / (2 * tt))]
            unit = mp.ldexp(1, 8 - bits)
            patterns = set()
            for w in result.witnesses:
                pattern = []
                for x in w.log_point:
                    errors = [abs(x - y) for y in logs]
                    assert min(errors) <= unit * max(1, abs(x)), (t, x)
                    pattern.append(errors.index(min(errors)))
                patterns.add(tuple(pattern))
        assert len(patterns) == 2 ** d


@pytest.mark.parametrize("bits", [256, 113, 64, 53])
def test_cross_double_root_is_never_counted_twice(bits):
    """At t = 1/2 the two roots of each cross(3) row merge into x = 1, a
    double root with a singular Jacobian: every facet's start leads to
    it, and the count is at most 1 (0 at 256 bits)."""
    S, K = cross_system(3)
    result = certified_positive_count(S, K, Fraction(1, 2), prec=bits)
    assert result.count <= 1
    if bits == 256:
        assert result.count == 0


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
    precision the policy accepts finds all the roots.  On snd-11-5 the
    roots reach |u| ~ 5e5 with condition ~ 3e10; the t values are those at
    which a step test absolute in u lost a root at 53 bits."""
    snd115 = [(snd115_system, t, 38) for t in (
        Fraction(1, 1000), Fraction(11, 9186), Fraction(432, 9001),
        Fraction(6, 2969), Fraction(179, 6099))]
    for make, t, expected in [(planar_system, Fraction(1, 1000), 6),
                              (snd63_system, Fraction(1, 10), 5)] + snd115:
        f, S = make()
        result = certified_positive_count(S, f.complex, t, prec=prec)
        assert result.count == expected, t
        assert result.failures == []
        assert result.precision == prec


@pytest.mark.xfail(strict=True, reason="known under-count: Newton from the "
                   "predicted start diverges on facet (4, 5, 7, 8, 9, 10)")
def test_snd115_at_nine_tenths_counts_every_facet():
    """snd-11-5 has at least 38 positive roots at t = 9/10, one per facet:
    the root of facet (4, 5, 7, 8, 9, 10), found in its barycentric facet
    coordinates and mapped to global ones, converges under newton_refine
    at 256 bits, and the 38 roots lie at least 9.44 apart in log max-norm.
    The count reports 37, because Newton from that facet's predicted
    start diverges (after 1 iteration and 30 halvings at 256 bits, after
    2 and 57 at 53 bits)."""
    f, S = snd115_system()
    result = certified_positive_count(S, f.complex, Fraction(9, 10),
                                      prec=PREC)
    assert result.count == 38, result.failures


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
    assert report["precision"] == PREC
    for w in report["witnesses"]:
        assert set(w) == {"log_x", "residual", "jac_cond", "facet"}


# -- bit-identity oracles ---------------------------------------------------
#
# The kernel of a count runs on raw mpmath values.  The mpf-class code it
# replaced is kept below as the oracle: each witness, residual, condition
# number and separation must be the same mpf value bit for bit, compared
# through _mpf_, and each failure the same, at every precision.  Newton's
# oracle has one line more than the code it was: the line search rejects
# a trial beyond 2^prec unevaluated.  Without it, Newton on a system with
# no positive root runs |u| up a tower of exponentials, and exp of such a
# coordinate runs out of memory.


def oracle_compile(S, t, bits):
    """The mpf-class evaluation: (residuals, scales, jacobian) of u."""
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


def oracle_lu_factor(rows):
    a = [list(row) for row in rows]
    n = len(a)
    tol = max(sum(abs(row[k]) for row in a) for k in range(n)) * mp.eps
    perm = list(range(n))
    for j in range(n):
        p = max(range(j, n), key=lambda i: abs(a[i][j]))
        if abs(a[p][j]) <= tol:
            raise ZeroDivisionError("matrix is numerically singular")
        a[j], a[p] = a[p], a[j]
        perm[j], perm[p] = perm[p], perm[j]
        pivot_row = a[j]
        for row in a[j + 1:]:
            f = row[j] = row[j] / pivot_row[j]
            for k in range(j + 1, n):
                row[k] -= f * pivot_row[k]
    return a, perm


def oracle_lu_solve(factors, b):
    a, perm = factors
    n = len(a)
    x = [b[p] for p in perm]
    for i in range(1, n):
        x[i] -= sum(a[i][k] * x[k] for k in range(i))
    for i in range(n - 1, -1, -1):
        x[i] = (x[i] - sum(a[i][k] * x[k] for k in range(i + 1, n))) / a[i][i]
    return x


def _max_abs(xs):
    return max(abs(x) for x in xs)


def oracle_newton(S, t, u0, max_iter=100, prec=PREC):
    bits = prec
    with mp.workprec(bits):
        tol = mp.ldexp(1, -(bits // 2))
        system = oracle_compile(S, Fraction(t), bits)
        u = [mp.mpf(x) for x in u0]
        res, _, jacobian = system(u)
        halvings = 0
        for it in range(1, max_iter + 1):
            rnorm = _max_abs(res)
            try:
                step = oracle_lu_solve(oracle_lu_factor(jacobian()),
                                       [-r for r in res])
            except ZeroDivisionError:
                return NewtonResult("singular", None, rnorm, it,
                                    halvings=halvings)
            lam = mp.mpf(1)
            for _ in range(30):
                trial = [x + lam * dx for x, dx in zip(u, step)]
                if not all(abs(x) < mp.ldexp(1, bits) for x in trial):
                    pass
                elif rnorm < tol:
                    evaluation = None
                    break
                else:
                    evaluation = system(trial)
                    if _max_abs(evaluation[0]) < rnorm:
                        break
                lam /= 2
                halvings += 1
            else:
                return NewtonResult("diverged", None, rnorm, it,
                                    halvings=halvings)
            u = trial
            res, _, jacobian = evaluation or system(u)
            size = max(1, _max_abs(u))
            if rnorm < tol and _max_abs(lam * dx for dx in step) < tol * size:
                return NewtonResult("converged", tuple(u), _max_abs(res), it,
                                    mp.matrix(jacobian()), halvings=halvings)
        return NewtonResult("max_iter", None, rnorm, max_iter,
                            halvings=halvings)


def oracle_condition(J):
    rows = J.tolist()
    try:
        factors = oracle_lu_factor(rows)
    except ZeroDivisionError:
        return mp.inf
    n = len(rows)
    inverse_norm = max(mp.fsum(abs(x) for x in oracle_lu_solve(factors, e))
                       for e in ([int(i == k) for i in range(n)]
                                 for k in range(n)))
    return mp.mnorm(J, 1) * inverse_norm


def oracle_count(S, K, t, bits):
    with mp.workprec(bits):
        witnesses, failures = [], []
        for start in predicted_solutions(S, K, t, prec=bits):
            result = oracle_newton(S, t, start.log_point, prec=bits)
            if result.status != "converged":
                residual = mp.nstr(result.residual, 2, min_fixed=0,
                                   max_fixed=0)
                failures.append((start.facet,
                                 f"{result.status} after {result.iterations} "
                                 f"iterations (residual {residual}, "
                                 f"{result.halvings} halvings)"))
                continue
            cond = oracle_condition(result.jacobian)
            if not mp.isfinite(cond):
                failures.append((start.facet, "singular jacobian at root"))
                continue
            witnesses.append(Witness(result.log_point, result.residual,
                                     cond, start.facet))
        distinct, min_sep = [], None
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
        return numerics.CertifiedCount(len(distinct), distinct, min_sep,
                                       failures, bits)


def oracle_truncated(A, C, facet, bits):
    """The lifted solve of viro.truncated_solution through the oracle LU."""
    v = positive_kernel_vector(C.submatrix_columns([i - 1 for i in facet]))
    with mp.workprec(bits):
        lifted = lifted_matrix(A, facet)
        mat = [[mpf_fraction(lifted[i, j]) for i in range(lifted.rows)]
               for j in range(lifted.cols)]
        sol = oracle_lu_solve(oracle_lu_factor(mat),
                              [log_fraction(x) for x in v])
        return tuple(sol[1:])


def bits_of(x):
    return None if x is None else x._mpf_


def newton_bits(result):
    jac = result.jacobian
    return (result.status, result.iterations, result.halvings,
            bits_of(result.residual),
            None if result.log_point is None else raw(result.log_point),
            None if jac is None else raw_rows(jac.tolist()))


def count_bits(result):
    return (result.count, result.precision, result.failures,
            bits_of(result.min_separation),
            [(w.facet, raw(w.log_point), w.residual._mpf_,
              w.jacobian_condition._mpf_) for w in result.witnesses])


ORACLE_BITS = [53, 64, 113, 256]
SND115_TS = [Fraction(1, q) for q in (1000, 300, 100, 30, 10, 5, 3, 2)]


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_snd115_count_is_bit_identical_to_the_mpf_oracle(bits):
    f, S = snd115_system()
    for facet in f.complex.facets:
        trunc = viro.truncated_solution(f.configuration, f.coefficients,
                                        facet, prec=bits)
        assert raw(trunc.log_point) == raw(oracle_truncated(
            f.configuration, f.coefficients, facet, bits))
    for t in SND115_TS:
        got = certified_positive_count(S, f.complex, t, prec=bits)
        assert count_bits(got) == count_bits(oracle_count(S, f.complex, t,
                                                          bits)), t
        assert got.count == 38


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_cross_double_root_is_bit_identical_to_the_mpf_oracle(bits):
    """At t = 1/2 every facet of cross(3) runs out of its 100 iterations
    or converges to the double root; duplicates are found in between."""
    S, K = cross_system(3)
    t = Fraction(1, 2)
    for start in predicted_solutions(S, K, t, prec=bits):
        got = newton_refine(S, t, start.log_point, prec=bits)
        assert newton_bits(got) == newton_bits(
            oracle_newton(S, t, start.log_point, prec=bits))
    got = certified_positive_count(S, K, t, prec=bits)
    assert count_bits(got) == count_bits(oracle_count(S, K, t, bits))
    assert all("after 100 iterations" in reason or reason == "duplicate root"
               for _, reason in got.failures)


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_diverging_starts_are_bit_identical_to_the_mpf_oracle(bits):
    """The planar fixture's diverging facets halve their last step 30
    times; a far start fails within 20 iterations."""
    f, S = planar_system()
    t = Fraction(1, 10)
    halvings = []
    for start in predicted_solutions(S, f.complex, t, prec=bits):
        got = newton_refine(S, t, start.log_point, prec=bits)
        assert newton_bits(got) == newton_bits(
            oracle_newton(S, t, start.log_point, prec=bits))
        if got.status == "diverged":
            halvings.append(got.halvings)
    assert halvings and min(halvings) >= 30
    got = certified_positive_count(S, f.complex, t, prec=bits)
    assert count_bits(got) == count_bits(oracle_count(S, f.complex, t, bits))
    far = [mp.mpf(500), mp.mpf(-500)]
    assert newton_bits(newton_refine(S, Fraction(1, 1000), far, max_iter=20,
                                     prec=bits)) == \
        newton_bits(oracle_newton(S, Fraction(1, 1000), far, max_iter=20,
                                  prec=bits))


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_singular_jacobian_is_bit_identical_to_the_mpf_oracle(bits):
    A = PointConfiguration.from_rows([(0, 0), (1, 0), (0, 1)])
    S = build_viro_system(A, RationalMatrix([[2, -1, -1], [2, -1, -1]]),
                          [0, 1, 1])
    u = [mp.mpf(0), mp.mpf(1)]
    got = newton_refine(S, Fraction(1, 10), u, prec=bits)
    assert got.status == "singular"
    assert newton_bits(got) == newton_bits(
        oracle_newton(S, Fraction(1, 10), u, prec=bits))
    with mp.workprec(bits):
        J = jacobian(S, Fraction(1, 10), u, prec=bits)
        assert condition_estimate(J) == oracle_condition(J) == mp.inf


def n_poset_system():
    """The order polytope of the N poset 1 < 3 > 2 < 4, decorated by its
    coloring: five facets, 0/1 points, four rows of unequal supports."""
    fam = order_polytope_triangulation(
        Poset.from_relations(4, [(1, 3), (2, 3), (2, 4)]))
    C = decoration_from_coloring(fam.coloring, fam.complex.n_vertices, 4)
    return build_viro_system(fam.configuration, C, fam.heights), fam.complex


@pytest.mark.parametrize("bits", [53, 113, 256])
def test_sparse_counts_are_bit_identical_to_the_mpf_oracle(bits):
    """Systems with zero coordinates and unequal row supports, whose
    compiled form drops zero coordinates and Jacobian entries and forms
    one scale per support: cross(4) under its coloring decoration, 16
    roots, and the N poset's order polytope, whose convex lift counts
    all 5 roots at t = 100 and, at t = 1/1000, one root and failures
    that are singular and diverged."""
    for (S, K), t, count in ((cross_system(4), Fraction(1, 1000), 16),
                             (n_poset_system(), Fraction(100), 5),
                             (n_poset_system(), Fraction(1, 1000), 1)):
        supports = {tuple(c != 0 for c in row)
                    for row in S.coefficients.to_lists()}
        assert len(supports) == S.dimension
        assert any(0 in p for p in S.configuration.points)
        got = certified_positive_count(S, K, t, prec=bits)
        assert count_bits(got) == count_bits(oracle_count(S, K, t, bits))
        assert got.count == count


def test_an_evaluation_takes_one_exp_per_monomial_and_one_per_support(
        monkeypatch):
    """snd-11-5 has 11 monomials and one support shared by its 5 rows: 12
    exps per evaluation, and none to form the Jacobian."""
    calls = []

    class Counted(Arithmetic):
        def __init__(self, prec):
            super().__init__(prec)
            exp = self.exp

            def counted(x):
                calls.append(x)
                return exp(x)

            self.exp = counted

    f, S = snd115_system()
    t = Fraction(1, 100)
    u = predicted_solutions(S, f.complex, t)[0].log_point
    monkeypatch.setattr(numerics, "Arithmetic", Counted)
    numerics._compile.cache_clear()
    try:
        evaluate(S, t, u)
        assert len(calls) == 12
        residuals, _, jacobian_ = numerics._evaluate(S, t, u, None)
        jacobian_()
        assert len(calls) == 24
    finally:
        numerics._compile.cache_clear()


@pytest.mark.parametrize("bad", [mp.inf, -mp.inf, mp.nan, float("inf"),
                                 float("nan")])
def test_a_non_finite_log_point_is_refused(bad, monkeypatch):
    """Before any work, naming the coordinate: evaluate(S, t, [inf, 0, 0,
    0, 0]) once returned NaN residuals, and Newton from there reported
    divergence with a NaN residual."""
    f, S = snd115_system()
    u = [mp.mpf(0), mp.mpf(1), bad, mp.mpf(0), mp.mpf(0)]

    def no_work(*args):
        raise AssertionError("compiled")

    monkeypatch.setattr(numerics, "_compile", no_work)
    message = f"log-point coordinate 2 is {mp.mpf(bad)}; it must be finite"
    for call in (evaluate, jacobian, newton_refine):
        with pytest.raises(ValueError, match=re.escape(message)):
            call(S, Fraction(1, 100), u)


def all_pairs_deduplication(points, ops):
    """The deduplication before the sweep: each point against every kept
    one, in facet order."""
    threshold = DEDUP_LOG_DISTANCE._mpf_
    keep, kept, min_sep = [], [], None
    for point in points:
        dup = False
        for other in kept:
            sep = ops.max_abs(map(ops.sub, point, other))
            if min_sep is None or ops.lt(sep, min_sep):
                min_sep = sep
            if ops.lt(sep, threshold):
                dup = True
        keep.append(not dup)
        if not dup:
            kept.append(point)
    return keep, min_sep


@st.composite
def clustered_points(draw):
    """Up to 40 log-points of dimension 1 to 4, and a precision.  Each
    coordinate is one of a few bases moved by an offset near the
    deduplication threshold T, or by none, so exact duplicates,
    near-duplicates on either side of T and equal first coordinates are
    common."""
    bits = draw(st.sampled_from(ORACLE_BITS))
    d = draw(st.integers(1, 4))
    T = DEDUP_LOG_DISTANCE
    with mp.workprec(bits):
        bases = [mp.mpf(0), mp.mpf(1), mp.mpf(-7) / 2, mp.mpf(10) ** 5]
        offsets = [mp.mpf(0), T, T * (1 + mp.ldexp(1, -40)),
                   T * (1 - mp.ldexp(1, -40)), T / 2, 2 * T, mp.mpf(1) / 1000]
        coordinate = st.tuples(st.sampled_from(bases),
                               st.sampled_from(offsets),
                               st.sampled_from([1, -1]))
        points = [[(b + sign * off)._mpf_
                   for b, off, sign in draw(st.lists(coordinate, min_size=d,
                                                     max_size=d))]
                  for _ in range(draw(st.integers(0, 40)))]
    return points, bits


@settings(max_examples=300, deadline=None)
@given(clustered_points())
def test_the_sweep_deduplicates_as_all_pairs_do(case):
    """The same points kept, so the same distinct list and the same
    duplicates in the same order, and min_separation bit for bit."""
    points, bits = case
    ops = Arithmetic(bits)
    keep, min_sep = numerics._deduplicate(points, ops)
    assert (keep, min_sep) == all_pairs_deduplication(points, ops)


@st.composite
def small_systems(draw):
    """A system of dimension up to 3, a start, a t, an iteration budget
    and a precision."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(d + 1, d + 2))
    A = PointConfiguration.from_rows(
        draw(st.lists(st.lists(st.integers(-2, 2), min_size=d, max_size=d),
                      min_size=m, max_size=m)))
    C = RationalMatrix(draw(st.lists(
        st.lists(st.fractions(-3, 3, max_denominator=5), min_size=m,
                 max_size=m).filter(any),
        min_size=d, max_size=d)))
    heights = draw(st.lists(st.integers(0, 6), min_size=m, max_size=m))
    u = draw(st.lists(st.floats(-3, 3), min_size=d, max_size=d))
    t = draw(st.sampled_from([Fraction(1, 2), Fraction(1, 10),
                              Fraction(1, 1000)]))
    max_iter = draw(st.integers(1, 25))
    bits = draw(st.sampled_from(ORACLE_BITS))
    return build_viro_system(A, C, heights), t, u, max_iter, bits


@settings(max_examples=60, deadline=None)
@given(small_systems())
def test_newton_is_bit_identical_to_the_mpf_oracle(case):
    S, t, u, max_iter, bits = case
    got = newton_refine(S, t, u, max_iter=max_iter, prec=bits)
    assert newton_bits(got) == newton_bits(
        oracle_newton(S, t, u, max_iter=max_iter, prec=bits))
    if got.jacobian is not None:
        with mp.workprec(bits):
            assert bits_of(condition_estimate(got.jacobian)) == \
                bits_of(oracle_condition(got.jacobian))


@settings(max_examples=100, deadline=None)
@given(large_systems())
def test_evaluation_is_bit_identical_to_the_mpf_oracle(case):
    """Floats and mpfs of any precision are taken as the mpf operators
    take them."""
    S, t, u, bits = case
    with mp.workprec(bits + 7):
        wide = [mp.mpf(x) / 3 for x in u]
    for point in (u, wide):
        res, scales = evaluate(S, t, point, prec=bits)
        with mp.workprec(bits):
            want_res, want_scales, want_J = oracle_compile(S, t, bits)(point)
            want_J = want_J()
        assert raw(res) == raw(want_res)
        assert raw(scales) == raw(want_scales)
        J = jacobian(S, t, point, prec=bits)
        assert raw_rows(J.tolist()) == raw_rows(want_J)
        with mp.workprec(bits):
            assert bits_of(condition_estimate(J)) == \
                bits_of(oracle_condition(mp.matrix(want_J)))


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)), st.sampled_from(ORACLE_BITS))
def test_lu_is_bit_identical_to_the_mpf_oracle(entries, bits):
    """Small integer matrices, singular ones included, each scaled by 1/7
    so the entries round: the same factors, solves and refusals."""
    n = len(entries)
    with mp.workprec(bits):
        rows = [[mp.mpf(x) / 7 for x in row] for row in entries]
        b = [mp.mpf(i + 1) / 3 for i in range(n)]
        try:
            want = oracle_lu_factor(rows)
        except ZeroDivisionError:
            want = None
        ops = Arithmetic(bits)
        if want is None:
            with pytest.raises(ZeroDivisionError):
                _lu_factor(raw_rows(rows), ops)
            assert condition_estimate(mp.matrix(rows)) == mp.inf
            return
        got = _lu_factor(raw_rows(rows), ops)
        assert got == (raw_rows(want[0]), want[1])
        assert _lu_solve(got, raw(b), ops) == raw(oracle_lu_solve(want, b))
        assert bits_of(condition_estimate(mp.matrix(rows))) == \
            bits_of(oracle_condition(mp.matrix(rows)))


def rootless_system():
    """-2 t^3 / x - t^4 / 2 = 0 has no positive root.  Far right, a Newton
    step in u = log x is about exp(u): at t = 1/2 and 53 bits, from
    u = 2.54 the iterates are 5.1, 27.1 and 7.7e10, and the next step,
    near exp(7.7e10), is too large for exp to hold in memory."""
    A = PointConfiguration.from_rows([(-1,), (0,)])
    return build_viro_system(
        A, RationalMatrix([[Fraction(-2), Fraction(-1, 2)]]), [3, 4])


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_newton_rejects_a_runaway_step(bits):
    result = newton_refine(rootless_system(), Fraction(1, 2), [2.54],
                           max_iter=24, prec=bits)
    assert result.status == "diverged"
    assert result.halvings >= 30
    assert newton_bits(result) == newton_bits(oracle_newton(
        rootless_system(), Fraction(1, 2), [2.54], max_iter=24, prec=bits))


@pytest.mark.parametrize("max_iter", [0, -1, 2.5])
def test_newton_refuses_a_bad_iteration_budget(max_iter):
    f, S = snd115_system()
    start = predicted_solutions(S, f.complex, Fraction(1, 100))[0]
    with pytest.raises(ValueError, match=f"max_iter .*{max_iter!r}"):
        newton_refine(S, Fraction(1, 100), start.log_point,
                      max_iter=max_iter)


@pytest.mark.parametrize("length", [0, 3, 6])
def test_a_log_point_of_the_wrong_length_is_refused(length, monkeypatch):
    """On snd-11-5 (dimension 5) before any work: the system is never
    compiled."""
    f, S = snd115_system()
    u = [mp.mpf(0)] * length

    def no_work(*args):
        raise AssertionError("compiled")

    monkeypatch.setattr(numerics, "_compile", no_work)
    message = f"log-point has {length} coordinates; the system has " \
        f"dimension 5"
    for call in (lambda: newton_refine(S, Fraction(1, 100), u),
                 lambda: evaluate(S, Fraction(1, 100), u),
                 lambda: jacobian(S, Fraction(1, 100), u)):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("bits", ORACLE_BITS)
def test_lu_singular_threshold_is_the_norm_times_eps(bits):
    """||A||_1 = 4 makes the threshold 8 * 2^-prec: a last pivot of
    6 * 2^-prec is singular and one of 10 * 2^-prec is not, as in the
    oracle."""
    ops = Arithmetic(bits)
    with mp.workprec(bits):
        for k, singular in ((6, True), (10, False)):
            rows = [[mp.mpf(1), mp.mpf(1), mp.mpf(0)],
                    [mp.mpf(1), 1 + mp.ldexp(k, -bits), mp.mpf(0)],
                    [mp.mpf(0), mp.mpf(0), mp.mpf(4)]]
            for factor in (oracle_lu_factor, lambda r: _lu_factor(
                    raw_rows(r), ops)):
                if singular:
                    with pytest.raises(ZeroDivisionError):
                        factor(rows)
                else:
                    factor(rows)
