"""Traced runs: span wrappers around the package's public calls.

A Tracer replaces each public function of interest, in every `boxrep`
module that holds a reference to it, with a wrapper that records a span
(metric name, start, end, parent index). Spans stay in memory; per-layer
self times are computed from them after a pass. Counters are recorded at the
same boundaries. Nothing under the package's source tree is modified: the
wrappers live only in the running process and are removed after each traced
pass.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from collections import defaultdict

MIB = float(1 << 20)

# (module, attribute, metric): module-level functions; attribute may be
# "Class.method" for methods looked up on the class.
WRAPPED = [
    ("graph", "peel", "graph.peel_s"),
    ("graph", "degeneracy_order", "graph.degeneracy_order_s"),
    ("graph", "components", "graph.subgraph_s"),
    ("graph", "Graph.induced", "graph.subgraph_s"),
    ("graph", "Graph.remove_edges_inside", "graph.subgraph_s"),
    ("graph", "Graph.add_clique", "graph.subgraph_s"),
    ("graph", "quotient_by_a_neighborhood", "graph.quotient_s"),
    ("graph", "assert_k3k", "graph.quotient_s"),
    ("builders", "roberts_rep", "builders.roberts_rep_s"),
    ("builders", "degenerate_rep", "builders.degenerate_rep_s"),
    ("builders", "acyclic_rep", "builders.acyclic_rep_s"),
    ("builders", "forest_rep", "builders.acyclic_rep_s"),
    ("builders", "trivial_rep", "builders.trivial_rep_s"),
    ("combinators", "split_compose", "combinators.split_compose_s"),
    ("combinators", "quotient_lift", "combinators.quotient_lift_s"),
    ("intervals", "verify_representation", "intervals.verify_s"),
    ("intervals", "BoxRepresentation.__post_init__", "intervals.rep_validate_s"),
    ("intervals", "write_representation", "intervals.write_rep_s"),
    ("intervals", "parse_representation", "intervals.parse_rep_s"),
    ("intervals", "extend_universal", "intervals.extend_universal_s"),
    ("intervals", "concat", "intervals.concat_s"),
    ("intervals", "merge_components", "intervals.merge_components_s"),
    ("exact", "exact_boxicity", "exact.boxicity_s"),
    ("exact", "exact_poset_dimension", "exact.poset_dimension_s"),
    ("coloring", "smallest_acyclic_coloring", "coloring.smallest_acyclic_s"),
    ("pipelines", "edge_pipeline", "pipelines.self_s"),
    ("pipelines", "surface_pipeline", "pipelines.self_s"),
    ("pipelines", "bipartite_experiment", "pipelines.bipartite_experiment_s"),
]

TIME_METRICS = sorted({metric for _, _, metric in WRAPPED})


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    `spans` holds (name, start, end, parent) with parent an index into
    `spans` or -1. Children are clipped to their parent and overlapping
    children are counted once.
    """
    children = defaultdict(list)
    for i, (_, _, _, parent) in enumerate(spans):
        if parent >= 0:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans and counters while installed into the boxrep modules."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._installed: list[tuple] = []
        self._seen: set = set()
        self._keep: list = []

    # -- scopes and results -------------------------------------------------

    def new_scope(self) -> None:
        """Start a new build: earlier oracle calls no longer count as repeats."""
        self._seen.clear()
        self._keep.clear()

    def layer_metrics(self, factor=lambda start, end: 1.0) -> dict[str, float]:
        """Self time per time metric plus the counters, for the spans so far.

        Each span's self time is multiplied by factor(start, end).
        """
        out = {metric: 0.0 for metric in TIME_METRICS}
        for span, own in zip(self.spans, self_times(self.spans)):
            out[span[0]] += own * factor(span[1], span[2])
        out.update(self.counts)
        return out

    # -- wrapping -----------------------------------------------------------

    def _span(self, fn, metric, before=None, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            tracing_alloc = before(args) if before else False
            idx = len(spans)
            spans.append([metric, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1], spans[idx][2] = start, end
                if tracing_alloc:
                    self._stop_alloc()
            if after:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        hooks = {
            "verify_representation": (self._before_verify, self._after_verify),
            "BoxRepresentation.__post_init__": (None, self._after_rep),
            "write_representation": (None, self._after_write),
            "roberts_rep": (None, self._after_roberts),
            "degenerate_rep": (None, self._after_degenerate),
        }
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "boxrep" or name.startswith("boxrep."))]
        for mod_name, attr, metric in WRAPPED:
            owner = sys.modules[f"boxrep.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__.get(meth)
                if orig is None:
                    continue
                setattr(cls, meth, self._span(orig, metric, *hooks.get(attr, (None, None))))
                self._installed.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr, None)
            if orig is None:
                continue
            wrapper = self._span(orig, metric, *hooks.get(attr, (None, None)))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapper)
                        self._installed.append((mod, key, orig))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._installed):
            setattr(owner, key, orig)
        self._installed.clear()

    # -- counters -----------------------------------------------------------

    def _before_verify(self, args) -> bool:
        if tracemalloc.is_tracing():
            return False
        tracemalloc.start()
        return True

    def _stop_alloc(self) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        key = "intervals.verify.peak_alloc_mb"
        self.counts[key] = max(self.counts[key], peak / MIB)

    def _after_verify(self, args, result) -> None:
        g, rep = args[0], args[1]
        pair_dims = rep.d * g.n * (g.n - 1) // 2
        c = self.counts
        c["intervals.verify.calls"] += 1
        c["intervals.verify.pair_dims"] += pair_dims
        # a graph and dimension sequence already checked in this build; the
        # dims tuple is kept alive so that its ids cannot be reused
        dims = tuple(getattr(rep, "dims", ()))
        key = (g.n, g.edges, tuple(map(id, dims)) or id(rep))
        if key in self._seen:
            c["intervals.verify.repeat_pair_dims"] += pair_dims
        else:
            self._seen.add(key)
            self._keep.append((dims, rep))

    def _after_rep(self, args, result) -> None:
        rep = args[0]
        self.counts["intervals.rep_intervals"] += rep.n * rep.d

    def _after_write(self, args, result) -> None:
        self.counts["intervals.rep_mb"] += len(result) / MIB

    def _after_roberts(self, args, result) -> None:
        self.counts["builders.roberts_rep.dims"] += result.d

    def _after_degenerate(self, args, result) -> None:
        c, meta = self.counts, result.metadata
        c["builders.degenerate_rep.dims"] += result.d
        c["builders.degenerate_rep.rounds"] += meta.get("rounds_used", 0)
        c["builders.degenerate_rep.fallback_dims"] += meta.get("fallback_dims", 0)
