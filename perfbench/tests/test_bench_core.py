"""The benchmark's own arithmetic and its input generators."""

import random
import time

import pytest

import oracles
import run
import tracing
import workloads


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name]
    assert run.digest(make(3)) == run.digest(make(3))
    assert run.digest(make(3)) != run.digest(make(4))


@pytest.mark.parametrize("d", [2, 3])
def test_cross_construction_keeps_decoration_and_regularity(d):
    """G*C0*D decorates every facet, a negated column fails exactly the
    facets through it, and a*|x|^2 + affine induces the slicing; all checked
    by brute force rather than by the program."""
    facets = oracles.cross_facets(d)
    points = workloads.cross_points(d)
    assert oracles.failing_facets(facets, workloads.coloring_decoration(d)) == []
    rng = random.Random(7)
    for trial in range(6):
        req = workloads.cross_request(rng, d, negate=trial % 2 == 1)
        want = [f for f in facets if req.negated in f]
        assert oracles.failing_facets(facets, req.coefficients) == want
        assert oracles.regularity_sense(points, req.heights, facets) == "convex"


def test_brute_force_oracles_reject_bad_inputs():
    facets = oracles.cross_facets(2)
    C = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]]        # origin column is zero
    assert oracles.failing_facets(facets, C) == facets
    flat = [0] * 5
    assert oracles.regularity_sense(workloads.cross_points(2), flat,
                                    facets) is None


def test_self_time_on_hand_built_span_tree():
    #   0 root [0, 100]
    #   ├── 1 child [10, 40]
    #   │   └── 3 grandchild [20, 30]
    #   └── 2 child [50, 90]
    starts = [0, 10, 50, 20]
    ends = [100, 40, 90, 30]
    parents = [-1, 0, 0, 1]
    own = tracing.self_times(starts, ends, parents)
    assert [round(x * 1e9) for x in own] == [30, 20, 40, 10]
    assert sum(own) * 1e9 == pytest.approx(100)


def test_layer_metrics_from_spans():
    t = tracing.Tracer()
    t.names = ["numerics.certified_positive_count", "numerics.newton_refine",
               "exactlinalg.determinant", "exactlinalg.determinant"]
    t.starts = [0, 0, 100, 102]
    t.ends = [1000, 600, 110, 108]
    t.parents = [-1, 0, 1, 2]          # recursion: 3 inside 2
    t.requests = [1, 1, 1, 1]
    t.counters.update({"numerics.newton_refine.iterations": 7,
                       "numerics.newton_refine.converged": 1})
    m = tracing.layer_metrics(t, requests=2, overhead_ratio=0.25)
    assert set(m) == {name for name, _, _ in tracing.PER_LAYER}
    assert m["exactlinalg.determinant.calls"] == 1.0
    assert m["exactlinalg.self_s"] * 1e9 == pytest.approx(10 / 2)
    assert m["numerics.self_s"] * 1e9 == pytest.approx((400 + 590) / 2)
    assert m["numerics.certified_positive_count.self_s"] * 1e9 == \
        pytest.approx(400 / 2)
    assert m["numerics.newton_refine.s"] * 1e9 == pytest.approx(600 / 2)
    assert m["numerics.newton_refine.iterations"] == 3.5
    assert m["numerics.newton_refine.converged_ratio"] == 1.0
    assert m["completion.extract_decoration.verified_ratio"] == 0.0
    assert m["trace.overhead_ratio"] == 0.25


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = list(range(1, 101))            # 100 samples, p90 = 90
    assert run.percentile(samples, 0.9) == 90
    assert run.percentile(samples[:99], 0.9) is None
    assert run.percentile([], 0.5) is None
    assert run.percentile(list(range(1, 21)), 0.5) == 10


def test_end_to_end_omits_p90_on_short_runs():
    rec = run.Recorder()
    rec.durations = [1.0, 2.0, 3.0]
    rec.scaled = [0.5, 1.0, 1.5]          # the host ran at twice the reference
    rec.probes = [2 * run.REFERENCE_PROBE_S]
    rec.facets, rec.attempted = 30, 3
    out = run.end_to_end(rec, {"wall": 0.5, "scaled": 0.25})
    assert "request_p90_s" not in out
    assert out["request_p50_s"]["value"] == 1.0
    assert out["request_p50_s"]["wall"] == 2.0
    assert out["facets_per_s"]["value"] == 10.0
    assert out["facets_per_s"]["wall"] == 5.0
    assert out["setup_s"]["value"] == 0.25
    assert out["error_ratio"]["value"] == 0.0


def test_requests_are_scaled_by_the_probe_before_their_job():
    class Sleepy:
        def run(self, job, rec):
            rec.request(1, lambda: time.sleep(0.01))

    rec = run.Recorder()
    rec.run_job(Sleepy(), None)
    assert rec.scaled[0] == pytest.approx(
        rec.durations[0] * run.REFERENCE_PROBE_S / rec.probes[0])
    assert 0 < run.host_probe() < 1
