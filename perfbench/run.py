"""virodecor benchmark: one closed-loop client, one process, one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload certify-cross --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run.  The line
before it is a full report (run environment, every end-to-end figure of the
workload, layer shares).  Any wrong answer makes the run exit 1.  Notes on
the workloads and metrics are in perfbench/README.md.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()    # set-up time counts from here

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
SETUP_REPEATS = 7
TAIL_SAMPLES = 10           # samples required beyond a reported percentile
END_TO_END = ("setup_s", "request_p50_s", "facets_per_s", "peak_rss_mb")
# Host-probe time that defines a reference second.  On a 2-core x86-64
# machine shared with other tenants the probe took about 4.5 ms, and moved
# between 3.5 and 9 ms within minutes as the other tenants' load changed.
REFERENCE_PROBE_S = 0.0045


def host_probe() -> float:
    """Seconds for a fixed piece of pure-Python work that uses no program code.

    Exact Fraction elimination plus tuple/dict/set bookkeeping, the same kinds
    of work the program does.  Request times are divided by the probe taken
    just before their job, so a host that slows down for a while (shared
    cores, frequency changes) moves both and the ratio stays put.
    """
    rng = random.Random(5)
    rows = [[Fraction(rng.randint(-99, 99), rng.randint(1, 99))
             for _ in range(6)] for _ in range(6)]
    facets = oracles.cross_facets(7)
    times = []
    for _ in range(3):
        start = time.perf_counter()
        for _ in range(3):
            oracles.solve_exact(rows, [1] * 6)
            oracles.ridge_adjacency(facets)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Recorder:
    """Times requests and counts attempts, failures and workload tallies.

    ``durations`` are wall seconds; ``scaled`` are the same requests in
    reference seconds (wall seconds times REFERENCE_PROBE_S over the host
    probe taken before the request's job).
    """

    def __init__(self):
        self.tracer = None
        self.probe_s = REFERENCE_PROBE_S
        self.probes: list[float] = []
        self.durations: list[float] = []
        self.scaled: list[float] = []
        self.facets = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.tally: Counter = Counter()

    def request(self, facets: int, fn, span: str | None = None):
        """Time one call into the program; ``span`` names a benchmark span."""
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.request_id = self.attempted
        start = time.perf_counter()
        if tracer is not None and span is not None:
            with tracer.span(span):
                out = fn()
        else:
            out = fn()
        wall = time.perf_counter() - start
        self.durations.append(wall)
        self.scaled.append(wall * REFERENCE_PROBE_S / self.probe_s)
        self.facets += facets
        return out

    def run_job(self, workload, job) -> None:
        self.probe_s = host_probe()
        self.probes.append(self.probe_s)
        try:
            workload.run(job, self)
        except Exception:     # a wrong or failed request; the run goes on
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(traceback.format_exc())


def run_cycles(workload, rec: Recorder, seconds: float) -> list:
    """Run whole cycles until ``seconds`` have passed; return the jobs run."""
    done = []
    start = time.perf_counter()
    for batch in workload.cycle_iter():
        for job in batch:
            rec.run_job(workload, job)
            done.append(job)
        if time.perf_counter() - start >= seconds:
            return done


def percentile(samples, q: float):
    """Nearest-rank q-quantile, or None unless TAIL_SAMPLES samples lie above it."""
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < TAIL_SAMPLES:
        return None
    return sorted(samples)[rank - 1]


def end_to_end(rec: Recorder, setup: dict) -> dict:
    """Every end-to-end figure of a run.

    Times and rates are in reference seconds ("value") and in wall seconds
    ("wall"); see REFERENCE_PROBE_S.
    """
    n = len(rec.durations)
    out = {
        "setup_s": {"value": setup["scaled"], "unit": "s",
                    "wall": setup["wall"]},
        "request_p50_s": {"value": statistics.median(rec.scaled), "unit": "s",
                          "wall": statistics.median(rec.durations),
                          "samples": n},
    }
    p90 = percentile(rec.scaled, 0.9)
    if p90 is not None:
        out["request_p90_s"] = {"value": p90, "unit": "s",
                                "wall": percentile(rec.durations, 0.9),
                                "samples": n}
    out["facets_per_s"] = {"value": rec.facets / sum(rec.scaled),
                           "unit": "1/s",
                           "wall": rec.facets / sum(rec.durations)}
    tally = rec.tally
    if tally["counted_facets"]:
        out["roots_found_ratio"] = {
            "value": tally["roots"] / tally["counted_facets"],
            "unit": "ratio", "base": tally["counted_facets"]}
    if tally["decorate_attempted"]:
        out["decorate_found_ratio"] = {
            "value": tally["decorate_found"] / tally["decorate_attempted"],
            "unit": "ratio", "base": tally["decorate_attempted"]}
    out["error_ratio"] = {"value": rec.failed / rec.attempted, "unit": "ratio",
                          "base": rec.attempted}
    out["peak_rss_mb"] = {
        "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unit": "MB"}
    out["host_probe_s"] = {"value": statistics.median(rec.probes), "unit": "s",
                           "min": min(rec.probes), "max": max(rec.probes)}
    return out


def traced(workload, rec: Recorder, seconds: float):
    """Untraced for half the time, then the same jobs again with spans.

    Returns the report and the tracer that holds the spans.
    """
    jobs = run_cycles(workload, rec, seconds / 2)
    plain_s, first = sum(rec.scaled), rec.attempted
    tracer = tracing.Tracer()
    wrapped = tracer.install()
    rec.tracer = tracer
    for job in jobs:
        rec.run_job(workload, job)
    requests = rec.attempted - first
    overhead = (sum(rec.scaled) - plain_s) / plain_s - 1
    return {"per_layer": tracing.layer_metrics(tracer, requests, overhead),
            "self_time_shares": tracing.layer_shares(tracer),
            "traced_requests": requests,
            "wrapped_attributes": wrapped,
            "spans": len(tracer.names)}, tracer


def import_program():
    """Import virodecor from this checkout's src/, never from elsewhere."""
    if not (SRC / "virodecor" / "__init__.py").is_file():
        sys.exit(f"error: {SRC / 'virodecor'} not found; run from a checkout")
    sys.path.insert(0, str(SRC))
    import virodecor
    import virodecor.cli  # noqa: F401  (CLI users pay this import)
    if not Path(virodecor.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: virodecor imported from {virodecor.__file__}")
    import workloads
    return workloads


def digest(workload) -> str:
    text = json.dumps(workload.describe(), sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def measure_setup(args) -> dict:
    """Median of fresh-process set-up times: imports plus input generation.

    Each process also runs the host probe after its set-up, which scales its
    time to reference seconds.
    """
    wall, scaled = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            sys.exit(f"error: set-up probe failed:\n{proc.stderr}")
        seconds, probe = map(float, proc.stdout.split()[-2:])
        wall.append(seconds)
        scaled.append(seconds * REFERENCE_PROBE_S / probe)
    return {"wall": statistics.median(wall), "scaled": statistics.median(scaled)}


def environment(args, workload, workloads) -> dict:
    """What two runs must share to have measured the same thing."""
    import mpmath.libmp
    import virodecor
    from virodecor.precision import default_precision
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": digest(workload),
        "precision_bits": {"default": default_precision(),
                           "pipeline_low": workloads.LOW_PRECISION_BITS},
        "reference_probe_s": REFERENCE_PROBE_S,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "virodecor": virodecor.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    for var in BLAS_THREAD_VARS:       # before anything imports numpy
        os.environ[var] = "1"
    os.environ.pop("VIRODECOR_PRECISION_BITS", None)   # measure the default
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_probe:
        print(time.perf_counter() - T0, host_probe())
        return 0

    setup = None if args.trace else measure_setup(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    rec = Recorder()
    try:
        workload.prepare(workdir)
        # Keep the reference answers out of the program's garbage collections.
        gc.collect()
        gc.freeze()
        if args.trace:
            report, tracer = traced(workload, rec, args.seconds)
            tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            units = {m: u for m, u, _ in tracing.PER_LAYER}
            metrics = {m: {"value": v, "unit": units[m]}
                       for m, v in report["per_layer"].items()}
        else:
            run_cycles(workload, rec, args.seconds)
            report = {"end_to_end": end_to_end(rec, setup)}
            metrics = {k: {f: report["end_to_end"][k][f]
                           for f in ("value", "unit")} for k in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report["environment"] = environment(args, workload, workloads)
    report["errors"] = rec.errors
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"report-{stem}.json").write_text(json.dumps(report, indent=1))
    for err in rec.errors:
        print(err, file=sys.stderr)
    print(json.dumps(report))
    print(json.dumps({"correct": rec.failed == 0, "attempted": rec.attempted,
                      "failed": rec.failed, "metrics": metrics}))
    return 0 if rec.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
