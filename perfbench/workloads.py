"""The four benchmark workloads: seeded inputs, requests and their checks.

A workload is built from a seed alone.  Its constructor makes every input the
program will receive (this is the part ``setup_s`` times, together with the
imports); ``prepare`` then computes the reference answers with ``oracles``,
which never calls the program.  Requests come in cycles of fixed composition:
the seed sets the order and the values inside each request, never how much
work a cycle holds, so runs with different seeds measure the same mix.

Every call into the program goes through a module attribute at call time
(``vd.dual_graph``, ``vcli.main``) so that the traced run sees the wrappers
it installs on those attributes.
"""

from __future__ import annotations

import json
import math
import random
import shutil
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from pathlib import Path

import mpmath as mp
from click.testing import CliRunner

import virodecor as vd
import virodecor.cli as vcli
from virodecor import catalog

import oracles
from oracles import expect


def _fraction_text(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


# -- certify-cross --------------------------------------------------------------


@dataclass(frozen=True)
class CrossRequest:
    coefficients: tuple[tuple[Fraction, ...], ...]   # d rows, 2d+1 columns
    heights: tuple[Fraction, ...]
    negated: int | None                               # 1-based vertex or None


def cross_points(d: int) -> list[tuple[Fraction, ...]]:
    """Origin, then +e_i, then -e_i: the vertex order of the cross slicing."""
    unit = [tuple(Fraction(int(k == i)) for k in range(d)) for i in range(d)]
    return ([tuple(Fraction(0) for _ in range(d))] + unit
            + [tuple(-x for x in p) for p in unit])


def coloring_decoration(d: int) -> list[list[Fraction]]:
    """d x (2d+1) columns: -1 on the origin, e_i on +-e_i (colour i).

    Every orthant facet gets the columns e_1..e_d and (-1,...,-1), whose
    kernel is spanned by the all-ones vector, so all facets are decorated.
    """
    return [[Fraction(-1)] + [Fraction(int(k == i)) for k in range(d)] * 2
            for i in range(d)]


def cross_request(rng: random.Random, d: int, negate: bool) -> CrossRequest:
    """C = G * C0 * D with det G > 0 and D > 0; heights a|x|^2 + affine, a > 0.

    G = L * U with unit lower-triangular L and an upper-triangular U of
    positive diagonal, so det G is the product of U's diagonal.  Each signed
    maximal minor of a facet block of C is det G times the one of C0 times a
    product of D entries, so every facet stays decorated.  Negating column v
    flips every minor of a facet containing v except the one that drops v, so
    exactly those facets fail.  Scaling the lift by a > 0 and adding an affine
    function keeps every hull gap's sign, so the slicing stays regular.
    """
    L = [[1 if i == j else (rng.randint(-2, 2) if j < i else 0)
          for j in range(d)] for i in range(d)]
    U = [[rng.randint(1, 3) if i == j else (rng.randint(-2, 2) if j > i else 0)
          for j in range(d)] for i in range(d)]
    G = [[sum(L[i][k] * U[k][j] for k in range(d)) for j in range(d)]
         for i in range(d)]
    C0 = coloring_decoration(d)
    n = 2 * d + 1
    scale = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
    negated = rng.randint(1, n) if negate else None
    if negated is not None:
        scale[negated - 1] = -scale[negated - 1]
    C = tuple(
        tuple(sum(G[i][k] * C0[k][j] for k in range(d)) * scale[j]
              for j in range(n))
        for i in range(d))
    a = Fraction(rng.randint(1, 5), rng.randint(1, 5))
    b0 = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
    b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(d)]
    heights = tuple(a * sum(x * x for x in p) + b0
                    + sum(bi * x for bi, x in zip(b, p))
                    for p in cross_points(d))
    return CrossRequest(C, heights, negated)


class CertifyCross:
    """Full structural check of cross(8) under seeded decorations and lifts."""

    name = "certify-cross"
    d = 8
    cycle_size = 4        # one request per cycle negates a column
    cycles = 12

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        d = self.d
        self.points = cross_points(d)
        self.facets = oracles.cross_facets(d)
        self.K = vd.SimplicialComplex.from_facets(d, 2 * d + 1, self.facets)
        self.A = vd.PointConfiguration.from_rows(self.points)
        self.plan = []
        for _ in range(self.cycles):
            negate_at = rng.randrange(self.cycle_size)
            reqs = [cross_request(rng, d, i == negate_at)
                    for i in range(self.cycle_size)]
            self.plan.append([
                (r, vd.RationalMatrix(r.coefficients)) for r in reqs])

    def describe(self):
        return [[{"C": [[_fraction_text(x) for x in row]
                        for row in r.coefficients],
                  "h": [_fraction_text(x) for x in r.heights],
                  "negated": r.negated} for r, _ in c] for c in self.plan]

    def prepare(self, workdir: Path):
        self.adjacency = oracles.ridge_adjacency(list(self.K.facets))
        self.dual_edges = {(a, b) for a, nb in self.adjacency.items()
                           for b in nb if a < b}
        self.skeleton = oracles.skeleton_edges(self.facets)

    def cycle_iter(self):
        return cycle(self.plan)

    def run(self, job, rec):
        req, C = job
        K, A = self.K, self.A

        def call():
            G = vd.dual_graph(K)
            return (G, vd.is_bipartite(G), vd.balanced_coloring(K),
                    vd.is_positively_decorated(K, C),
                    vd.regularity_check(A, req.heights, K),
                    vd.is_unimodular(K, A))

        G, bip, col, (ok, failing), reg, uni = rec.request(len(K.facets), call)
        expect(list(K.facets) == self.facets, "cross facets changed")
        expect(G.adjacency == self.adjacency, "dual graph differs from ridges")
        expect(bip.colors is not None
               and oracles.is_proper(bip.colors, self.dual_edges),
               "bipartite coloring is not proper on the dual graph")
        expect(col is not None and oracles.is_proper(col, self.skeleton),
               "balanced coloring is not proper on the 1-skeleton")
        want = [f for f in self.facets if req.negated in f]
        expect(ok == (not want) and list(failing) == want,
               f"failing facets differ for negated vertex {req.negated}")
        expect(reg.ok and reg.sense == "convex" and not reg.violations,
               "a*|x|^2 + affine lift not certified convex")
        expect(uni is True, "cross slicing not reported unimodular")


# -- graph-snd ------------------------------------------------------------------


class GraphSnd:
    """Dual graph, bipartite test and coloring on snd and cyclic complexes."""

    name = "graph-snd"
    # Complexes of 1,666-2,241 facets with d in {7, 9}, chosen so that the
    # requests cost about the same: the median request then falls among
    # neighbours of similar cost whatever the seeded order, and
    # request_p50_s does not jump between size classes from run to run.
    # The two full cyclic triangulations are not bipartite.
    snd_pairs = [(21, 7), (22, 7), (20, 9)]
    cyclic_pairs = [(20, 7), (19, 9)]
    cycles = 8

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        base = ([("snd", n, d) for n, d in self.snd_pairs]
                + [("cyclic", n, d) for n, d in self.cyclic_pairs])
        self.plan = [rng.sample(base, len(base)) for _ in range(self.cycles)]

    def describe(self):
        return self.plan

    def prepare(self, workdir: Path):
        self.expected = {}
        for kind, n, d in self.plan[0]:
            facets = (oracles.snd_facets(n, d) if kind == "snd"
                      else oracles.cyclic_facets(n, d))
            adjacency = oracles.ridge_adjacency(facets)
            self.expected[kind, n, d] = {
                "facets": facets,
                "adjacency": adjacency,
                "edges": {(a, b) for a, nb in adjacency.items()
                          for b in nb if a < b},
                "bipartite": oracles.two_coloring(adjacency) is not None,
                "balanced": oracles.balanced_coloring_exists(facets, adjacency),
                "skeleton": oracles.skeleton_edges(facets),
            }

    def cycle_iter(self):
        return cycle(self.plan)

    def run(self, job, rec):
        kind, n, d = job
        want = self.expected[job]

        def call():
            K = (vd.snd_subcomplex(n, d) if kind == "snd"
                 else vd.cyclic_minimal_triangulation(n, d))
            G = vd.dual_graph(K)
            counts = ((vd.count_snd(n, d), vd.count_snd_series(n, d))
                      if kind == "snd" else (vd.cyclic_facet_count(n, d),))
            return K, G, vd.is_bipartite(G), vd.balanced_coloring(K), counts

        K, G, bip, col, counts = rec.request(len(want["facets"]), call)
        expect(list(K.facets) == want["facets"], f"{job}: facets differ")
        expect(G.adjacency == want["adjacency"], f"{job}: dual graph differs")
        expect(all(c == len(want["facets"]) for c in counts),
               f"{job}: counts {counts} != {len(want['facets'])} facets")
        if want["bipartite"]:
            expect(bip.colors is not None
                   and oracles.is_proper(bip.colors, want["edges"]),
                   f"{job}: bipartite coloring is not proper")
        else:
            expect(bip.colors is None
                   and oracles.is_odd_closed_walk(bip.odd_cycle, K.facets),
                   f"{job}: no valid odd-cycle witness")
        if col is None:
            expect(want["balanced"] is not True,
                   f"{job}: balanced coloring exists but none returned")
        else:
            expect(want["balanced"] is not False
                   and oracles.is_proper(col, want["skeleton"]),
                   f"{job}: balanced coloring is not proper")


# -- count-snd115 -----------------------------------------------------------------


class CountSnd115:
    """Certified count of the Appendix-A system at seeded t."""

    name = "count-snd115"
    facets = 38
    cycle_size = 8      # one t from each eighth of [log 1/1000, log 1/2]
    cycles = 6

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        lo, hi = math.log(1 / 1000), math.log(1 / 2)
        self.plan = []
        for _ in range(self.cycles):
            block = []
            for k in range(self.cycle_size):
                u = lo + (hi - lo) * (k + rng.random()) / self.cycle_size
                t = Fraction(math.exp(u)).limit_denominator(10 ** 4)
                block.append(min(max(t, Fraction(1, 1000)), Fraction(1, 2)))
            rng.shuffle(block)
            self.plan.append(block)
        f = catalog.snd115_fixture()
        self.K = f.complex
        self.S = vd.build_viro_system(f.configuration, f.coefficients,
                                      f.heights)

    def describe(self):
        return {"t": [[_fraction_text(t) for t in c] for c in self.plan],
                "system": self.S.to_json_dict(),
                "complex": self.K.to_json_dict()}

    def prepare(self, workdir: Path):
        self.points = [tuple(p) for p in self.S.configuration.points]
        self.rows = [self.S.coefficients.row(i)
                     for i in range(self.S.coefficients.rows)]
        self.heights = list(self.S.heights)

    def cycle_iter(self):
        return cycle(self.plan)

    def run(self, t, rec):
        result = rec.request(
            self.facets, lambda: vd.certified_positive_count(self.S, self.K, t))
        rec.tally["roots"] += result.count
        rec.tally["counted_facets"] += self.facets
        expect(result.count == self.facets == len(result.witnesses),
               f"t={t}: {result.count} roots, expected {self.facets}")
        logs = [[mp.nstr(x, 40) for x in w.log_point] for w in result.witnesses]
        worst = max(oracles.relative_residual(self.points, self.rows,
                                              self.heights, t, p)
                    for p in logs)
        expect(worst < 1e-20, f"t={t}: witness residual {worst:g}")
        expect(oracles.distinct(logs, 1e-9), f"t={t}: witnesses coincide")


# -- pipeline-small ---------------------------------------------------------------


POSETS = [                      # (size, relations) on at most 4 elements
    (3, [(1, 2)]),
    (3, []),
    (4, [(1, 2), (3, 4)]),
    (4, [(1, 2), (2, 3)]),
    (4, [(1, 3), (2, 3), (3, 4)]),
    (4, []),
]
SND_SMALL = [(6, 3), (7, 3), (8, 3), (7, 5), (8, 5)]
CROSS_SMALL = [3, 4, 5]
PAPER_CASES = {"ex3.6": 6, "ex5.8": 5, "appendixA": 38, "table1": 0,
               "prism": 3}
LOW_PRECISION_BITS = 53
LOW_PRECISION_MAX_FACETS = 8
LOW_PRECISION_PER_CYCLE = 3


@dataclass(frozen=True)
class Instance:
    kind: str                   # snd | cross | order | paper
    params: tuple
    decorate_seed: int = 0
    low_precision: bool = False

    @property
    def label(self) -> str:
        return f"{self.kind}-" + "-".join(map(str, self.params))

    @property
    def facets(self) -> int:
        if self.kind == "snd":
            return len(oracles.snd_facets(*self.params))
        if self.kind == "cross":
            return 2 ** self.params[0]
        if self.kind == "order":
            return oracles.linear_extension_count(*self.params)
        return PAPER_CASES[self.params[0]]


class PipelineSmall:
    """The CLI pipeline on small instances, plus the verify-paper cases."""

    name = "pipeline-small"
    cycles = 8

    def __init__(self, seed: int):
        rng = random.Random(f"{self.name}:{seed}")
        self.plan = []
        small = None
        for c in range(self.cycles):
            base = ([Instance("snd", p) for p in SND_SMALL]
                    + [Instance("cross", (d,)) for d in CROSS_SMALL]
                    + [self._relabeled(rng, size, rels) for size, rels in POSETS])
            if small is None:
                # The 53-bit counts walk through a seeded order of the small
                # instances, so a run of a few cycles meets each of them
                # about equally often; their costs differ 40-fold.
                small = [i for i, inst in enumerate(base)
                         if inst.facets <= LOW_PRECISION_MAX_FACETS]
                rng.shuffle(small)
            k = LOW_PRECISION_PER_CYCLE
            low = {small[(c * k + j) % len(small)] for j in range(k)}
            jobs = [Instance(inst.kind, inst.params, rng.randrange(10 ** 6),
                             i in low) for i, inst in enumerate(base)]
            jobs += [Instance("paper", (case,)) for case in PAPER_CASES]
            rng.shuffle(jobs)
            self.plan.append(jobs)

    @staticmethod
    def _relabeled(rng, size, relations):
        perm = list(range(1, size + 1))
        rng.shuffle(perm)
        return Instance("order", (size, tuple(sorted(
            (perm[a - 1], perm[b - 1]) for a, b in relations))))

    def describe(self):
        return [[[j.kind, list(j.params), j.decorate_seed, j.low_precision]
                 for j in c] for c in self.plan]

    def prepare(self, workdir: Path):
        self.workdir = workdir
        self.runner = CliRunner()
        self.serial = 0

    def cycle_iter(self):
        return cycle(self.plan)

    def _cli(self, rec, facets, args, env=None, codes=(0,)):
        result = rec.request(
            facets, lambda: self.runner.invoke(vcli.main, args, env=env),
            span="cli.main")
        expect(result.exception is None
               or isinstance(result.exception, SystemExit),
               f"{args[0]} raised {result.exception!r}")
        expect(result.exit_code in codes,
               f"{' '.join(args)}: exit {result.exit_code}, expected {codes}")
        return result

    def run(self, inst: Instance, rec):
        if inst.kind == "paper":
            result = self._cli(rec, inst.facets, ["verify-paper", inst.params[0]])
            lines = result.stdout.splitlines()
            expect(lines and all(x.startswith("pass") for x in lines),
                   f"verify-paper {inst.params[0]} reported a failure")
            return
        self.serial += 1
        out = self.workdir / f"{self.serial:06d}-{inst.label}"
        try:
            self._pipeline(inst, rec, out)
        finally:
            shutil.rmtree(out, ignore_errors=True)

    def _pipeline(self, inst, rec, out):
        out.mkdir(parents=True)
        F = inst.facets
        if inst.kind == "snd":
            args = ["snd", "--n", str(inst.params[0]), "--d", str(inst.params[1])]
        elif inst.kind == "cross":
            args = ["cross", "--d", str(inst.params[0])]
        else:
            size, rels = inst.params
            poset = out / "poset.json"
            poset.write_text(json.dumps({"size": size,
                                         "relations": [list(r) for r in rels]}))
            args = ["order", "--poset", str(poset)]
        files = {k: str(out / f"{k}.json")
                 for k in ("complex", "points", "heights", "C", "S")}
        self._cli(rec, F, ["family", *args, "--out", str(out)])

        K = json.loads(Path(files["complex"]).read_text())
        facets = [tuple(f) for f in K["facets"]]
        d = K["dimension"]
        if inst.kind == "snd":
            expect(facets == oracles.snd_facets(*inst.params), "snd facets")
        elif inst.kind == "cross":
            expect(sorted(facets) == oracles.cross_facets(d), "cross facets")
        expect(len(facets) == F and all(len(f) == d + 1 for f in facets),
               f"{inst.label}: {len(facets)} facets, expected {F}")
        adjacency = oracles.ridge_adjacency(facets)
        bipartite = oracles.two_coloring(adjacency) is not None
        balanced = oracles.balanced_coloring_exists(facets, adjacency)
        expect(balanced is not None, f"{inst.label}: oracle undecided")

        result = self._cli(
            rec, F, ["check", "--complex", files["complex"], "--bipartite",
                     "--balanced", "--format", "json"],
            codes=(0,) if bipartite and balanced else (1,))
        report = json.loads(result.stdout)
        expect(report["bipartite"]["ok"] == bipartite
               and report["balanced"]["ok"] == balanced,
               f"{inst.label}: check report {report}")
        if balanced:
            colors = report["balanced"]["coloring"]["colors"]
            expect(oracles.is_proper({v + 1: c for v, c in enumerate(colors)},
                                     oracles.skeleton_edges(facets)),
                   f"{inst.label}: balanced coloring is not proper")

        rec.tally["decorate_attempted"] += 1
        result = self._cli(
            rec, F, ["decorate", "--complex", files["complex"], "--restarts",
                     "3", "--seed", str(inst.decorate_seed),
                     "--out", files["C"]],
            codes=(0,) if balanced else (0, 1))
        if result.exit_code == 1:
            expect(json.loads(result.stdout)["found"] is False,
                   f"{inst.label}: decorate exit 1 without found=false")
            return
        C = vd.RationalMatrix.from_json(Path(files["C"]).read_text())
        Kc = vd.SimplicialComplex.from_json_dict(K)
        expect(vd.is_positively_decorated(Kc, C)[0]
               and not oracles.failing_facets(facets, C.to_lists()),
               f"{inst.label}: returned decoration fails the exact check")
        rec.tally["decorate_found"] += 1

        points = [tuple(Fraction(x) for x in p) for p in
                  json.loads(Path(files["points"]).read_text())["points"]]
        heights = [Fraction(h) for h in
                   json.loads(Path(files["heights"]).read_text())["heights"]]
        sense = oracles.regularity_sense(points, heights, facets)
        expect(sense is not None, f"{inst.label}: family lift is not regular")
        result = self._cli(
            rec, F, ["check", "--complex", files["complex"], "--decorated",
                     "--regular", "--matrix", files["C"], "--points",
                     files["points"], "--heights", files["heights"],
                     "--format", "json"])
        report = json.loads(result.stdout)
        expect(report["decorated"] == {"ok": True, "failing_facets": []}
               and report["regular"] == {"ok": True, "violations": []},
               f"{inst.label}: check report {report}")

        self._cli(rec, F, ["viro", "--points", files["points"], "--matrix",
                           files["C"], "--heights", files["heights"],
                           "--out", files["S"]])
        system = json.loads(Path(files["S"]).read_text())
        expect(vd.RationalMatrix.from_json_dict(system["coefficients"]) == C
               and [Fraction(h) for h in system["heights"]] == heights
               and [tuple(Fraction(x) for x in p)
                    for p in system["points"]] == points,
               f"{inst.label}: viro system does not match its inputs")

        t = Fraction(1, 1000) if sense == "convex" else Fraction(100)
        env = ({"VIRODECOR_PRECISION_BITS": str(LOW_PRECISION_BITS)}
               if inst.low_precision else None)
        result = self._cli(
            rec, F, ["count", "--system", files["S"], "--complex",
                     files["complex"], "--t", _fraction_text(t),
                     "--expect", str(F)], env=env, codes=(0, 1))
        found = json.loads(result.stdout)
        expect(result.exit_code == (0 if found["count"] >= F else 1),
               f"{inst.label}: count exit {result.exit_code} for "
               f"{found['count']} >= {F}")
        logs = [w["log_x"] for w in found["witnesses"]]
        expect(found["count"] == len(logs), f"{inst.label}: witness count")
        rows = C.to_lists()
        for p in logs:
            r = oracles.relative_residual(points, rows, heights, t, p)
            expect(r < (1e-6 if inst.low_precision else 1e-12),
                   f"{inst.label}: witness residual {r:g}")
        expect(oracles.distinct(logs, 1e-9), f"{inst.label}: witnesses coincide")
        rec.tally["roots"] += found["count"]
        rec.tally["counted_facets"] += F


WORKLOADS = {w.name: w for w in (CertifyCross, GraphSnd, CountSnd115,
                                 PipelineSmall)}
