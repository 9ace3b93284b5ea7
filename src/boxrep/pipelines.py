"""End-to-end constructions, experiments, and closed-form bound tables."""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .builders import (
    DegenerateStrategy,
    _default_budget,
    _points,
    _universal,
    acyclic_rep,
    degenerate_rep,
    roberts_rep,
)
from .coloring import Coloring, smallest_acyclic_coloring
from .combinators import quotient_lift, split_compose
from .errors import (InvalidColoring, InvalidParams, SizeLimitExceeded,
                     StructuralCheckFailed, as_count, as_index, as_vertices)
from .exact import exact_boxicity
from .graph import (
    Graph,
    _check_draws,
    assert_k3k,
    components,
    degeneracy_order,
    euler_genus_upper,
    generate,
    peel,
    quotient_by_a_neighborhood,
)
from .intervals import (
    BoxRepresentation,
    certify,
    extend_universal,
    merge_components,
    prune_dims,
)
from .rng import SplitMix64


@dataclass
class PipelineTrace:
    seed: int
    values: list = field(default_factory=list)
    warnings: list = field(default_factory=list)
    wall_time: float = 0.0

    def record(self, key: str, value) -> None:
        self.values.append((key, value))

    def get(self, key: str):
        found = [v for k, v in self.values if k == key]
        if not found:
            raise KeyError(key)
        return found[-1]

    def get_all(self, key: str) -> list:
        return [v for k, v in self.values if k == key]

    def to_text(self, include_timings: bool = False) -> str:
        lines = [f"{k} = {v}" for k, v in self.values]
        lines.extend(f"warning = {w}" for w in self.warnings)
        lines.append(f"seed = {self.seed}")
        if include_timings:
            lines.append(f"wall_time_s = {self.wall_time:.3f}")
        return "\n".join(lines) + "\n"


EDGE_BOUND_FORMULA = "(15e+1)*sqrt(m*ln(n))"


def _edge_bound(n: int, m: int) -> float:
    """The paper's bound (15e+1)*sqrt(m*ln(n)) on the boxicity."""
    return (15 * math.e + 1) * math.sqrt(m * math.log(n))


def _heawood_bound(genus: int) -> float:
    """(5 + sqrt(1+24g))/2, above the degeneracy of any graph of Euler genus g."""
    return 0.5 * (5 + math.sqrt(1 + 24 * genus))


def _relaxed_class_cap(genus: int) -> int:
    """The relaxed cap 1e9 * g^4 on the A-neighborhood classes, for g >= 1."""
    return 10**9 * genus**4


def edge_pipeline(g: Graph, mode: str = "paper", seed: int = 0):
    """Build a representation whose size scales with the edge count.

    Per component: peel vertices with at most theta surviving neighbors
    (paper mode theta = sqrt(m/ln n), the paper's balance; reference mode
    theta = (m/ln n)^(1/3), a smaller theta that leaves more survivors to
    the pairing construction). The peel order witnesses that the graph h
    minus survivor-internal edges has degeneracy at most ceil(theta), the
    `k_bound` of the trace. h gets the degenerate cover along its own
    degeneracy order, whose k (at most k_bound) is the trace's `k`; the
    survivors get the pairing construction, and split_compose recombines.
    Components merge at the end; the merged representation, whose d the
    trace keeps as `dims_unpruned`, is pruned by `prune_dims`, and the
    result is certified once; a rejected result raises StructuralCheckFailed.
    """
    if g.n < 2:
        raise InvalidParams("edge_pipeline needs n >= 2")
    if mode not in ("paper", "reference"):
        raise InvalidParams(f"unknown mode {mode!r}")
    trace = PipelineTrace(seed)
    started = time.perf_counter()
    seeder = SplitMix64(seed)
    reps = []
    maps = []
    for comp, mapping in components(g):
        comp_seed = seeder.next_u64()
        if comp.m == 0:
            rep = _points(comp.n)
            trace.record("component", {"n": comp.n, "m": 0, "dims": 1})
        else:
            n_c, m_c = comp.n, comp.m
            ratio = m_c / math.log(n_c)
            theta = math.sqrt(ratio) if mode == "paper" else ratio ** (1.0 / 3.0)
            survivors = sorted(peel(comp, theta))
            if mode == "paper":
                cap = 2.0 * math.sqrt(m_c * math.log(n_c))
                if len(survivors) > cap:
                    raise StructuralCheckFailed(
                        f"survivor count {len(survivors)} exceeds 2*sqrt(m*ln n)={cap}")
            h = comp.remove_edges_inside(survivors)
            order, k = degeneracy_order(h)
            k_bound = math.ceil(theta)
            assert k <= k_bound
            r_h = degenerate_rep(h, order, k,
                                 DegenerateStrategy(seed=comp_seed))
            gs, _ = comp.induced(survivors)
            r_s = roberts_rep(gs) if survivors else None
            rep = split_compose(r_h, r_s, survivors, comp) if survivors else r_h
            entry = {
                "n": n_c, "m": m_c, "theta": round(theta, 6),
                "k": k, "k_bound": k_bound, "survivors": len(survivors),
                "h_dims": r_h.d,
                "s_dims": r_s.d if r_s is not None else 0,
                "dims": rep.d,
                "h_size_bound": r_h.metadata.get("size_bound"),
                "fallback_dims": r_h.metadata.get("fallback_dims"),
            }
            if mode == "paper":
                entry["survivor_cap"] = round(cap, 6)
            trace.record("component", entry)
        reps.append(rep)
        maps.append(mapping)
    merged = merge_components(reps, maps) if len(reps) > 1 else reps[0]
    result = certify(g, prune_dims(merged), "the pruned edge-pipeline output",
                     StructuralCheckFailed)
    trace.record("mode", mode)
    trace.record("dims_unpruned", merged.d)
    trace.record("final_dims", result.d)
    trace.record("edge_bound_formula", EDGE_BOUND_FORMULA)
    if g.n >= 2 and g.m >= 1:
        trace.record("edge_bound_value", round(_edge_bound(g.n, g.m), 3))
    trace.wall_time = time.perf_counter() - started
    return result, trace


def surface_pipeline(g: Graph, genus: int, a: Iterable[int],
                     coloring: Coloring | None = None, seed: int = 0):
    """Build a representation from a deletion set and an acyclic coloring.

    `a` is a vertex set whose removal leaves a graph acyclically colorable by
    `coloring` (keyed by original vertex ids; colors of vertices in `a` are
    ignored). The ids of `a` go through `as_vertices` in the quotient, and
    the keys of `coloring` here, raising InvalidColoring. With `coloring`
    None, G-A gets `smallest_acyclic_coloring`, exact and size-limited.
    `genus` is the declared Euler genus (`as_count`), used only for
    structural assertions. Two supergraphs are represented and stacked. G1
    completes everything outside `a`: the degenerate cover represents the
    A-neighborhood quotient, and `quotient_lift` stretches its rows over the
    class representatives and copies them to each class. G2 makes every
    vertex of `a` universal over the acyclic-coloring representation. Every
    non-edge of the input lies in one of the two, so their stacked rows
    represent the input. The stack, whose d the trace keeps as
    `dims_unpruned`, is pruned by `prune_dims`, and the result is certified
    against the input; a rejected result raises StructuralCheckFailed. The
    quotient's representation and the result are the only two oracle calls,
    and neither G1 nor the quotient plus a clique is built.
    """
    genus = as_count(genus, "genus")
    trace = PipelineTrace(seed)
    started = time.perf_counter()
    a = list(a)
    q = quotient_by_a_neighborhood(g, a)  # checks the ids of A
    a_set = frozenset(a)
    outside = [v for v in range(g.n) if v not in a_set]
    if coloring is not None:
        as_vertices(coloring.color, g.n, "coloring", InvalidColoring)

    # supergraph 2: the subgraph outside A plus |A| universal vertices
    if outside:
        sub, members = g.induced(outside)
        if coloring is None:
            local_coloring = smallest_acyclic_coloring(sub)
        else:
            local_coloring = Coloring(
                {i: coloring.color[v] for i, v in enumerate(members)
                 if v in coloring.color},
                coloring.k)
        r_inner = acyclic_rep(sub, local_coloring)
        r_g2 = extend_universal(r_inner, members, g.n)
    else:
        r_g2 = _universal(g.n)
    trace.record("g2_dims", r_g2.d)

    # structural checks for the quotient stage
    k3k = assert_k3k(g, a_set, genus)
    trace.record("k3k_max_count", k3k.max_count)
    trace.record("k3k_bound", k3k.bound)
    if not k3k.passed:
        raise StructuralCheckFailed(
            f"three vertices of A {k3k.witness} have {k3k.max_count} common "
            f"neighbors outside A, above the bound {k3k.bound}", k3k)
    # Never exceeded once assert_k3k passes: at most 1 + |A| + C(|A|,2) classes
    # have < 3 A-neighbours, and each other class's representative is a common
    # neighbour outside A of a triple of A, at most k3k.bound per triple.
    a_size = len(a_set)
    trace.record("quotient_classes", len(q.reps))
    trace.record("quotient_class_cap", 1 + a_size + math.comb(a_size, 2)
                 + k3k.bound * math.comb(a_size, 3))
    if genus >= 1:
        trace.record("quotient_class_cap_relaxed", _relaxed_class_cap(genus))

    order, k_q = degeneracy_order(q.quotient_graph)
    effective_genus = max(genus, 2)
    if effective_genus != genus:
        trace.record("genus_for_formulas", effective_genus)
    heawood = _heawood_bound(effective_genus)
    trace.record("quotient_degeneracy", k_q)
    trace.record("heawood_degeneracy_bound", round(heawood, 3))
    if k_q > math.ceil(heawood):
        trace.warnings.append(
            f"quotient degeneracy {k_q} exceeds the declared-genus bound "
            f"{math.ceil(heawood)}; the declared genus may be wrong")

    seeder = SplitMix64(seed)
    r_q = degenerate_rep(q.quotient_graph, order, k_q,
                         DegenerateStrategy(seed=seeder.next_u64()))
    trace.record("quotient_dims", r_q.d)

    r_g1 = quotient_lift(r_q, q)  # represents G1, g plus a clique outside A
    trace.record("g1_dims", r_g1.d)

    stacked = BoxRepresentation(g.n, np.concatenate((r_g1.lo, r_g2.lo)),
                                np.concatenate((r_g1.hi, r_g2.hi)))
    result = certify(g, prune_dims(stacked),
                     "the pruned stack of the G1 and G2 representations",
                     StructuralCheckFailed)
    trace.record("dims_unpruned", stacked.d)
    trace.record("final_dims", result.d)
    trace.wall_time = time.perf_counter() - started
    return result, trace


# ---------------------------------------------------------------------------
# experiments and bound tables


@dataclass
class ExperimentReport:
    n: int
    trials: int
    seed: int
    edge_cap: float
    within_cap: int
    edge_counts: list
    boxicity_distribution: Counter
    over_limit: int
    per_trial: list  # (trial, edges, within_cap, boxicity) rows of to_csv

    def fraction_within_cap(self) -> float:
        return self.within_cap / self.trials if self.trials else 0.0

    def to_text(self) -> str:
        lines = [
            f"model = bipartite({self.n})",
            f"trials = {self.trials}",
            f"seed = {self.seed}",
            f"edge_cap = {self.edge_cap:.3f}",
            f"within_cap = {self.within_cap}",
            f"fraction_within_cap = {self.fraction_within_cap():.3f}",
        ]
        if self.boxicity_distribution:
            dist = ", ".join(f"{k}: {v}" for k, v in
                             sorted(self.boxicity_distribution.items()))
            lines.append(f"boxicity_distribution = {{{dist}}}")
        if self.over_limit:
            lines.append(f"boxicity_over_limit = {self.over_limit}")
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        rows = ["trial,edges,within_cap,boxicity"]
        for row in self.per_trial:
            rows.append(",".join(str(x) for x in row))
        return "\n".join(rows) + "\n"


def bipartite_experiment(n: int, trials: int, seed: int = 0) -> ExperimentReport:
    """Sample random bipartite graphs and check the edge-count cap 2n^2/ln n.

    For n <= 4, that is n = 4, the report also carries the exact boxicity
    distribution. Every such sample has 8 vertices, within the exact
    solver's limit, so `over_limit`, the samples it refuses, is 0 on every
    call; the field stays because the benchmark reads it. All trials * n^2
    draws must fit in GENERATOR_DRAW_LIMIT, checked up front. n and seed go
    through `as_index`, trials through `as_count`.
    """
    n, trials = as_index(n, "n"), as_count(trials, "trials")
    if n < 4:
        raise InvalidParams("bipartite_experiment needs n >= 4")
    _check_draws(trials * n * n)
    seeder = SplitMix64(seed)
    cap = 2.0 * n * n / math.log(n)
    edge_counts = []
    within = 0
    dist: Counter = Counter()
    over_limit = 0
    per_trial = []
    for i in range(trials):
        trial_seed = seeder.next_u64()
        sample = generate("bipartite", seed=trial_seed, n=n)
        m = sample.m
        edge_counts.append(m)
        ok = m <= cap
        within += ok
        box = ""
        if n <= 4:
            try:
                box = exact_boxicity(sample)
                dist[box] += 1
            except SizeLimitExceeded:
                over_limit += 1
                box = "over_limit"
        per_trial.append((i, m, int(ok), box))
    return ExperimentReport(n, trials, seed, cap, within, edge_counts,
                            dist, over_limit, per_trial)


def bound_report(n: int, m: int, genus: int | None = None,
                 k: int | None = None) -> list[tuple[str, str, object]]:
    """Evaluate the closed-form size bounds for the given parameters.

    Returns (name, formula, value) rows; all logarithms are natural. n (at
    least 2) goes through `as_index`, and m, genus and k through `as_count`.
    A value too large for a float, or an integer past Python's int-to-str
    digit limit, raises InvalidParams.
    """
    n, m = as_index(n, "n"), as_count(m, "m")
    if n < 2:
        raise InvalidParams("need n >= 2")
    genus = None if genus is None else as_count(genus, "genus")
    k = None if k is None else as_count(k, "k")
    rows: list[tuple[str, str, object]] = []
    try:
        rows.append(("roberts_pairing", "n/2", n / 2))
        rows.append(("edge_sqrt", EDGE_BOUND_FORMULA, _edge_bound(n, m)))
        rows.append(("euler_genus_upper", "m + 2", euler_genus_upper(m)))
        rows.append(("poset_dim_via_pairing", "2*(n/2) + n + 4", n + n + 4))
        if k is not None:
            rows.append(("degenerate_cover", "(k+2)*ceil(e^2*ln(n(n-1)/2))",
                         (k + 2) * _default_budget(n)))
            rows.append(("acyclic_color_pairs", "k*(k-1)", k * (k - 1)))
        if genus is not None:
            rows.append(("heawood_degeneracy", "(5 + sqrt(1+24g))/2",
                         _heawood_bound(genus)))
            rows.append(("quotient_class_relaxed_cap", "1e9 * g^4",
                         _relaxed_class_cap(genus)))
        for _, _, value in rows:
            if isinstance(value, int):
                str(value)  # raises ValueError past sys.get_int_max_str_digits()
    except OverflowError as exc:
        raise InvalidParams(f"a bound overflows a float: {exc}") from exc
    except ValueError as exc:
        raise InvalidParams(f"a bound has too many digits to print: {exc}") from exc
    return rows


def format_bound_table(rows: list[tuple[str, str, object]],
                       csv: bool = False) -> str:
    def render(v):
        if isinstance(v, int):
            return str(v)
        return f"{v:.3f}"

    if csv:
        out = ["name,formula,value"]
        for name, formula, value in rows:
            out.append(f"{name},\"{formula}\",{render(value)}")
        return "\n".join(out) + "\n"
    name_w = max(len(r[0]) for r in rows)
    formula_w = max(len(r[1]) for r in rows)
    out = []
    for name, formula, value in rows:
        out.append(f"{name:<{name_w}}  {formula:<{formula_w}}  {render(value)}")
    return "\n".join(out) + "\n"
