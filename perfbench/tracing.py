"""Spans around calls into virodecor's modules, and the per-layer metrics.

``Tracer.install`` replaces every public function of the traced modules at
every module attribute that holds it (for example ``determinant`` as imported
into ``complexes`` and ``families``), so calls resolved through any of those
names record a span.  Nothing here edits the package's source; the wrappers
live only in the process of a traced run.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

PACKAGE = "virodecor"
LAYERS = ("exactlinalg", "complexes", "families", "viro", "numerics",
          "completion", "cli")

# Value conversions called per number; their time stays with the caller,
# as the per-layer notes describe (cli.self_s includes Fraction parsing).
UNTRACED = {"format_rational", "parse_rational", "mpf_fraction",
            "log_fraction"}


def _count_result(tracer, name, result):
    """Counters read from return values, at the span where the work happened."""
    c = tracer.counters
    if name == "complexes.dual_graph":
        c["complexes.dual_graph.edges"] += sum(
            len(nb) for nb in result.adjacency.values()) // 2
    elif name == "numerics.newton_refine":
        c["numerics.newton_refine.iterations"] += result.iterations
        c["numerics.newton_refine.converged"] += result.status == "converged"
    elif name == "completion.alternating_projection":
        c["completion.alternating_projection.iterations"] += result.iterations
        c["completion.alternating_projection.converged"] += result.converged
    elif name == "completion.extract_decoration":
        c["completion.extract_decoration.verified"] += result.verified


class Tracer:
    """In-memory spans: (name, start ns, end ns, parent index, request id)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.requests: list[int] = []
        self.counters: Counter = Counter()
        self.request_id = 0
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.requests.append(self.request_id)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            _count_result(self, name, result)
            return result
        return traced

    def install(self) -> int:
        """Wrap the public functions of LAYERS at every attribute holding them.

        Generator functions are left alone: a span around one would close
        before its body runs.  Returns the number of attributes replaced.
        """
        traced_modules = {f"{PACKAGE}.{layer}" for layer in LAYERS}
        wrappers: dict[int, object] = {}
        replaced = 0
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if not self._traceable(value, traced_modules):
                    continue
                key = id(value)
                if key not in wrappers:
                    layer = value.__module__.rsplit(".", 1)[1]
                    wrappers[key] = self.wrap(value, f"{layer}.{value.__name__}")
                setattr(module, attr, wrappers[key])
                replaced += 1
        return replaced

    @staticmethod
    def _traceable(value, traced_modules) -> bool:
        if not (isinstance(value, types.FunctionType)
                or isinstance(value, functools._lru_cache_wrapper)):
            return False
        name = getattr(value, "__name__", "_")
        return (getattr(value, "__module__", None) in traced_modules
                and not name.startswith("_") and name not in UNTRACED
                and not inspect.isgeneratorfunction(value))

    def dump(self, path) -> None:
        path.write_text(json.dumps({
            "fields": ["name", "start_ns", "end_ns", "parent", "request"],
            "spans": list(zip(self.names, self.starts, self.ends,
                              self.parents, self.requests)),
            "counters": dict(self.counters),
        }))


# -- span arithmetic ------------------------------------------------------------


def self_times(starts, ends, parents) -> list[float]:
    """Duration of each span minus the union of its children's intervals, in s."""
    children: dict[int, list[int]] = {}
    for i, p in enumerate(parents):
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = []
    for i in range(len(starts)):
        covered = 0
        reach = starts[i]
        for s, e in sorted((max(starts[c], starts[i]), min(ends[c], ends[i]))
                           for c in children.get(i, ())):
            s = max(s, reach)
            if e > s:
                covered += e - s
                reach = e
        out.append((ends[i] - starts[i] - covered) / 1e9)
    return out


def outermost(names, parents) -> list[bool]:
    """True for spans with no ancestor of the same name (recursion counted once)."""
    flags = []
    for i, name in enumerate(names):
        p = parents[i]
        while p >= 0 and names[p] != name:
            p = parents[p]
        flags.append(p < 0)
    return flags


PER_LAYER = [   # (metric, unit, better)
    ("exactlinalg.self_s", "s", "lower"),
    ("exactlinalg.determinant.calls", "count", "lower"),
    ("exactlinalg.is_oriented.calls", "count", "lower"),
    ("exactlinalg.solve.calls", "count", "lower"),
    ("exactlinalg.rank.calls", "count", "lower"),
    ("exactlinalg.positive_kernel_vector.calls", "count", "lower"),
    ("complexes.self_s", "s", "lower"),
    ("complexes.dual_graph.s", "s", "lower"),
    ("complexes.dual_graph.calls", "count", "lower"),
    ("complexes.dual_graph.edges", "count", "lower"),
    ("complexes.is_bipartite.s", "s", "lower"),
    ("complexes.balanced_coloring.s", "s", "lower"),
    ("complexes.is_positively_decorated.s", "s", "lower"),
    ("complexes.is_unimodular.s", "s", "lower"),
    ("families.self_s", "s", "lower"),
    ("families.snd_subcomplex.s", "s", "lower"),
    ("families.cyclic_minimal_triangulation.s", "s", "lower"),
    ("families.order_polytope_triangulation.s", "s", "lower"),
    ("viro.self_s", "s", "lower"),
    ("viro.regularity_check.s", "s", "lower"),
    ("viro.facet_affine_support.calls", "count", "lower"),
    ("viro.predicted_solutions.s", "s", "lower"),
    ("viro.truncated_solution.calls", "count", "lower"),
    ("numerics.self_s", "s", "lower"),
    ("numerics.newton_refine.s", "s", "lower"),
    ("numerics.newton_refine.calls", "count", "lower"),
    ("numerics.newton_refine.iterations", "count", "lower"),
    ("numerics.newton_refine.converged_ratio", "ratio", "higher"),
    ("numerics.evaluate.calls", "count", "lower"),
    ("numerics.jacobian.calls", "count", "lower"),
    ("numerics.condition_estimate.s", "s", "lower"),
    ("numerics.certified_positive_count.self_s", "s", "lower"),
    ("completion.self_s", "s", "lower"),
    ("completion.alternating_projection.s", "s", "lower"),
    ("completion.alternating_projection.calls", "count", "lower"),
    ("completion.alternating_projection.iterations", "count", "lower"),
    ("completion.alternating_projection.converged_ratio", "ratio", "higher"),
    ("completion.extract_decoration.verified_ratio", "ratio", "higher"),
    ("cli.self_s", "s", "lower"),
    ("cli.invocations", "count", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, requests: int, overhead_ratio: float) -> dict:
    """Every PER_LAYER metric, times and counts per traced request.

    A ratio whose function never ran (no calls) reads 0.
    """
    names, parents = tracer.names, tracer.parents
    own = self_times(tracer.starts, tracer.ends, parents)
    top = outermost(names, parents)
    calls: Counter = Counter(names)
    inclusive: Counter = Counter()
    self_by_name: Counter = Counter()
    self_by_layer: Counter = Counter()
    for i, name in enumerate(names):
        self_by_name[name] += own[i]
        self_by_layer[name.split(".", 1)[0]] += own[i]
        if top[i]:
            inclusive[name] += (tracer.ends[i] - tracer.starts[i]) / 1e9
    c = tracer.counters
    values = {}
    for metric, _unit, _better in PER_LAYER:
        head, _, tail = metric.rpartition(".")
        if metric == "trace.overhead_ratio":
            v = overhead_ratio
        elif metric == "cli.invocations":
            v = calls["cli.main"] / requests
        elif metric.endswith(".converged_ratio"):
            v = _ratio(c[head + ".converged"], calls[head])
        elif metric.endswith(".verified_ratio"):
            v = _ratio(c[head + ".verified"], calls[head])
        elif tail == "self_s" and "." in head:
            v = self_by_name[head] / requests
        elif tail == "self_s":
            v = self_by_layer[head] / requests
        elif tail == "s":
            v = inclusive[head] / requests
        elif tail == "calls":
            v = calls[head] / requests
        else:
            v = c[metric] / requests
        values[metric] = v
    return values


def layer_shares(tracer: Tracer) -> dict:
    """Share of all self time per layer, and per named function subtree."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    total = sum(own) or 1.0
    shares: Counter = Counter()
    for i, name in enumerate(tracer.names):
        shares[name.split(".", 1)[0]] += own[i] / total
    # self time inside the subtrees the acceptance notes name
    for root in ("viro.regularity_check", "viro.predicted_solutions",
                 "complexes.dual_graph"):
        inside = 0.0
        for i in range(len(own)):
            p = i
            while p >= 0 and tracer.names[p] != root:
                p = tracer.parents[p]
            if p >= 0:
                inside += own[i]
        shares[root + ".subtree"] = inside / total
    return dict(shares)
