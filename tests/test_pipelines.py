import ast
import math
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxrep import graph, intervals, pipelines
from boxrep.builders import (DegenerateStrategy, _points, _universal, acyclic_rep,
                             degenerate_rep, roberts_rep)
from boxrep.coloring import Coloring, acyclic_coloring, smallest_acyclic_coloring
from boxrep.combinators import quotient_lift, split_compose
from boxrep.errors import (
    BoxrepError,
    InvalidColoring,
    InvalidInputRep,
    InvalidOrder,
    InvalidParams,
    PreconditionViolation,
    SizeLimitExceeded,
    StructuralCheckFailed,
)
from boxrep.graph import Graph, generate
from boxrep.intervals import (
    BoxRepresentation,
    extend_universal,
    merge_components,
    prune_dims,
    verify_representation,
)
from boxrep.pipelines import (
    bipartite_experiment,
    bound_report,
    edge_pipeline,
    format_bound_table,
    surface_pipeline,
)
from boxrep.poset import poset_dim_upper
from boxrep.rng import SplitMix64

from conftest import (
    complete_bipartite,
    complete_graph,
    cored150,
    cycle_graph,
    path_graph,
    random_graph,
    with_clique,
)
from test_graph_core import graphs_strategy


def identity_coloring(n):
    return Coloring({v: v for v in range(n)}, n)


class TestEdgePipeline:
    def test_c4_trace_and_validity(self, c4):
        rep, trace = edge_pipeline(c4, mode="paper", seed=3)
        assert verify_representation(c4, rep).valid
        comp = trace.get("component")
        assert comp["dims"] == trace.get("dims_unpruned") == 4
        # every vertex survives, so both copies of h's point row separate
        # nothing; the two Roberts rows stay
        assert rep.d == trace.get("final_dims") == 2
        assert comp["survivors"] == 4  # theta ~ 1.7 < every degree

    def test_k10_hand_trace(self):
        k10 = complete_graph(10)
        rep, trace = edge_pipeline(k10, mode="paper", seed=0)
        comp = trace.get("component")
        # all degrees 9 beat theta ~ 4.4: everything survives, the stripped
        # graph is edgeless (one point dimension), survivors give one
        # universal dimension, so 2*1 + 1 = 3; no row separates a pair of
        # K10, so the prune keeps row 1 alone
        assert comp["survivors"] == 10
        assert comp["h_dims"] == 1
        assert comp["s_dims"] == 1
        assert trace.get("dims_unpruned") == 3
        assert rep.d == trace.get("final_dims") == 1
        assert verify_representation(k10, rep).valid

    def test_kdegen_reference_bound_from_metadata(self):
        g = generate("kdegen", n=60, k=3, seed=11)
        rep, trace = edge_pipeline(g, mode="reference", seed=7)
        assert verify_representation(g, rep).valid
        for comp in trace.get_all("component"):
            if comp["m"] == 0:
                continue
            cap = 2 * comp["h_size_bound"] + max(1, comp["survivors"] // 2)
            assert comp["dims"] <= cap

    def test_paper_mode_survivor_cap(self):
        for seed in range(5):
            g = generate("kdegen", n=40, k=3, seed=seed)
            rep, trace = edge_pipeline(g, mode="paper", seed=seed)
            assert verify_representation(g, rep).valid
            for comp in trace.get_all("component"):
                if comp["m"]:
                    assert comp["survivors"] <= comp["survivor_cap"]

    def test_certifies_each_representation_once(self, monkeypatch):
        checked = _count_oracle_calls(monkeypatch)
        two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2),
                                             (3, 4), (4, 5), (3, 5)])
        for g in (complete_graph(10), cycle_graph(4), two_triangles,
                  generate("kdegen", n=40, k=3, seed=1)):
            checked.clear()
            rep, _ = edge_pipeline(g, mode="paper", seed=0)
            assert checked[g, id(rep.lo), id(rep.hi)] == 1
            assert max(checked.values()) == 1

    @pytest.mark.parametrize("name", ["kdegen300", "cored150"])
    def test_paper_mode_within_roberts_half_n(self, name):
        g = (generate("kdegen", n=300, k=3, seed=1) if name == "kdegen300"
             else cored150())
        rep, trace = edge_pipeline(g, mode="paper", seed=1)
        assert rep.d <= g.n / 2 < trace.get("edge_bound_value")
        assert verify_representation(g, rep).valid

    def test_disconnected_input(self):
        g = Graph.from_edges(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
        rep, trace = edge_pipeline(g, mode="paper", seed=1)
        assert verify_representation(g, rep).valid
        assert len(trace.get_all("component")) == 3

    def test_rejects_tiny_and_bad_mode(self, c4):
        with pytest.raises(InvalidParams):
            edge_pipeline(Graph(1, frozenset()))
        with pytest.raises(InvalidParams):
            edge_pipeline(c4, mode="fast")

    def test_rejected_output_raises_structural_check_failed(self, c4, monkeypatch):
        # a pruned result that represents K4 leaves C4's non-edges uncovered
        monkeypatch.setattr(pipelines, "prune_dims", lambda rep: _universal(rep.n))
        with pytest.raises(StructuralCheckFailed, match="edge-pipeline output fails the oracle"):
            edge_pipeline(c4)

    def test_deterministic_given_seed(self, c4):
        r1, _ = edge_pipeline(c4, mode="reference", seed=9)
        r2, _ = edge_pipeline(c4, mode="reference", seed=9)
        assert np.array_equal(r1.lo, r2.lo) and np.array_equal(r1.hi, r2.hi)

    @given(graphs_strategy(7), st.integers(0, 50))
    @settings(max_examples=40)
    def test_every_output_verifies(self, g, seed):
        if g.n < 2:
            return
        for mode in ("paper", "reference"):
            rep, _ = edge_pipeline(g, mode=mode, seed=seed)
            assert verify_representation(g, rep).valid


def _count_oracle_calls(mp):
    """Count oracle calls per (graph, lo, hi) while `mp` is active."""
    real = intervals.verify_representation
    checked = Counter()
    alive = []  # keeps checked arrays alive, so their ids stay distinct

    def counting(g, rep):
        alive.append(rep)
        checked[g, id(rep.lo), id(rep.hi)] += 1
        return real(g, rep)

    mp.setattr(intervals, "verify_representation", counting)
    return checked


def apex_style_graph():
    """4 apexes over a 60-vertex kdegen tree, with a 2-colouring of the tree.

    Tree vertex t (vertex t + 4) is joined to apex a iff bit a of t is set,
    so 16 classes; any three apexes share at most 8 tree neighbours, the
    K_{3,k} bound of Euler genus 3.
    """
    tree = generate("kdegen", n=60, k=1, seed=1)
    edges = [(u + 4, v + 4) for u, v in tree.edges]
    edges += [(a, t + 4) for t in range(tree.n) for a in range(4) if t >> a & 1]
    color = {}
    for t in range(tree.n):  # each tree vertex has at most one earlier neighbour
        earlier = [color[u + 4] for u in tree.neighbors(t) if u < t]
        color[t + 4] = 1 - earlier[0] if earlier else 0
    return Graph.from_edges(tree.n + 4, edges), set(range(4)), Coloring(color, 2)


class TestSurfacePipeline:
    @given(graphs_strategy(7), st.integers(0, 127))
    @settings(max_examples=30)
    def test_certifies_each_representation_once(self, g, a_mask):
        a = {v for v in range(g.n) if (a_mask >> v) & 1}
        with pytest.MonkeyPatch.context() as mp:
            checked = _count_oracle_calls(mp)
            rep, _ = surface_pipeline(g, 3, a, seed=1)
        assert checked[g, id(rep.lo), id(rep.hi)] == 1
        assert max(checked.values()) == 1

    def test_apex_style_graph_certifies_the_quotient_and_the_result(self, monkeypatch):
        g, a, coloring = apex_style_graph()
        checked = _count_oracle_calls(monkeypatch)
        rep, trace = surface_pipeline(g, 3, a, coloring)
        q = graph.quotient_by_a_neighborhood(g, a)
        assert trace.get("quotient_classes") == 16
        # one call on the quotient, handed to quotient_lift, one on the result
        assert sum(checked.values()) == 2
        assert [seen for seen, _, _ in checked] == [q.quotient_graph, g]
        assert checked[g, id(rep.lo), id(rep.hi)] == 1
        assert verify_representation(g, rep).valid

    def test_apex_style_graph_builds_no_h1(self, monkeypatch):
        # every derived graph is built through `Graph._trusted`; none is the
        # quotient plus a clique on its representatives, nor G1
        g, a, coloring = apex_style_graph()
        q = graph.quotient_by_a_neighborhood(g, a)
        built = []
        trusted = Graph._trusted.__func__
        monkeypatch.setattr(Graph, "_trusted", classmethod(
            lambda cls, n, edges: built.append(edges) or trusted(cls, n, edges)))
        surface_pipeline(g, 3, a, coloring)
        outside = [v for v in range(g.n) if v not in a]
        assert built
        for edges in built:
            assert not set(combinations(q.reps, 2)) <= edges
            assert not set(combinations(outside, 2)) <= edges

    def test_k7_hand_trace(self):
        k7 = complete_graph(7)
        rep, trace = surface_pipeline(k7, 2, frozenset(), identity_coloring(7))
        assert trace.get("g2_dims") == 42
        assert trace.get("g1_dims") == 2
        assert trace.get("dims_unpruned") == 44
        assert rep.d == trace.get("final_dims") == 1  # every row is dead on K7
        assert verify_representation(k7, rep).valid

    def test_c4_genus0_assertions_vacuous(self, c4):
        rep, trace = surface_pipeline(c4, 0, frozenset(),
                                      smallest_acyclic_coloring(c4))
        assert verify_representation(c4, rep).valid
        assert trace.get("dims_unpruned") == trace.get("g1_dims") + trace.get("g2_dims")
        # G1 is complete, so its 2 rows are dead; 2 of G2's 6 rows stay
        assert (trace.get("g1_dims"), trace.get("g2_dims")) == (2, 6)
        assert rep.d == trace.get("final_dims") == 2

    def test_k35_declared_genus0_fails_with_witness(self):
        g = complete_bipartite(3, 5)
        coloring = Coloring({v: 0 for v in range(3, 8)}, 1)
        with pytest.raises(StructuralCheckFailed) as exc:
            surface_pipeline(g, 0, {0, 1, 2}, coloring)
        assert exc.value.report.max_count == 5
        assert exc.value.report.bound == 2

    def test_k35_declared_genus2_passes(self):
        g = complete_bipartite(3, 5)
        coloring = Coloring({v: 0 for v in range(3, 8)}, 1)
        rep, trace = surface_pipeline(g, 2, {0, 1, 2}, coloring)
        assert verify_representation(g, rep).valid

    def test_a_equals_v(self, c4):
        rep, trace = surface_pipeline(c4, 1, range(4), Coloring({}, 0))
        assert verify_representation(c4, rep).valid

    def test_rejected_output_raises_structural_check_failed(self, c4, monkeypatch):
        # a pruned result that represents K4 leaves C4's non-edges uncovered
        monkeypatch.setattr(pipelines, "prune_dims", lambda rep: _universal(rep.n))
        with pytest.raises(StructuralCheckFailed,
                           match="stack of the G1 and G2 representations fails the oracle"):
            surface_pipeline(c4, 0, frozenset(), smallest_acyclic_coloring(c4))

    def test_rejects_non_acyclic_coloring(self, c4):
        bad = Coloring({0: 0, 1: 1, 2: 0, 3: 1}, 2)
        with pytest.raises(InvalidColoring):
            surface_pipeline(c4, 0, frozenset(), bad)

    @given(graphs_strategy(6), st.integers(0, 63), st.integers(0, 3))
    @settings(max_examples=40)
    def test_random_instances_verify(self, g, a_mask, genus):
        a = {v for v in range(g.n) if (a_mask >> v) & 1}
        outside = [v for v in range(g.n) if v not in a]
        sub, members = g.induced(outside)
        local = smallest_acyclic_coloring(sub)
        coloring = Coloring({members[i]: c for i, c in local.color.items()}, local.k)
        report_bound = 2 * genus + 2
        try:
            rep, trace = surface_pipeline(g, genus, a, coloring, seed=1)
        except StructuralCheckFailed as exc:
            assert exc.report.max_count > report_bound
            return
        assert verify_representation(g, rep).valid
        assert trace.get("dims_unpruned") == trace.get("g1_dims") + trace.get("g2_dims")
        assert rep.d == trace.get("final_dims") <= trace.get("dims_unpruned")


def _h1_construction(g, a, coloring, seed):
    """The surface pipeline's pruned stack, with G1 built the older way:
    split_compose of the quotient's rows and a one-row universal
    representation of the representatives over H1, the quotient plus a
    clique on them, then the columns gathered by `q.cols`. Returns the
    quotient, its degenerate representation and the pruned stack."""
    q = graph.quotient_by_a_neighborhood(g, a)
    order, k = graph.degeneracy_order(q.quotient_graph)
    r_q = degenerate_rep(q.quotient_graph, order, k,
                         DegenerateStrategy(seed=SplitMix64(seed).next_u64()))
    r_h1 = r_q
    if q.reps:
        r_h1 = split_compose(r_q, _universal(len(q.reps)), q.reps,
                             with_clique(q.quotient_graph, q.reps))
    outside = [v for v in range(g.n) if v not in a]
    if outside:
        sub, members = g.induced(outside)
        local = Coloring({i: coloring.color[v] for i, v in enumerate(members)
                          if v in coloring.color}, coloring.k)
        r_g2 = extend_universal(acyclic_rep(sub, local), members, g.n)
    else:
        r_g2 = _universal(g.n)
    cols = list(q.cols)
    stacked = BoxRepresentation(g.n, np.concatenate((r_h1.lo[:, cols], r_g2.lo)),
                                np.concatenate((r_h1.hi[:, cols], r_g2.hi)))
    return q, r_q, prune_dims(stacked)


class TestSurfaceMatchesH1Construction:
    """Stretching the quotient's rows drops only the lifted universal row,
    which separates nothing, so the pruned certificate is unchanged."""

    def _check(self, g, a, coloring, seed):
        rep, _ = surface_pipeline(g, 3, a, coloring, seed=seed)
        q, r_q, expected = _h1_construction(g, a, coloring, seed)
        for got, want in ((rep.lo, expected.lo), (rep.hi, expected.hi)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
        assert quotient_lift(r_q, q).d == (2 * r_q.d if q.reps else r_q.d)

    @given(graphs_strategy(7), st.integers(0, 127), st.integers(0, 3))
    @settings(max_examples=40)
    def test_random_instances(self, g, a_mask, seed):
        a = {v for v in range(g.n) if (a_mask >> v) & 1}
        outside = [v for v in range(g.n) if v not in a]
        sub, members = g.induced(outside)
        local = smallest_acyclic_coloring(sub)
        coloring = Coloring({members[i]: c for i, c in local.color.items()}, local.k)
        self._check(g, a, coloring, seed)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_apex_style_graph(self, seed):
        g, a, coloring = apex_style_graph()
        self._check(g, a, coloring, seed)


class TestSurfaceInputChecks:
    """Each faulty input is rejected, by the one callee that checks it."""

    @pytest.mark.parametrize("a, coloring, error, message", [
        ({0, 4}, {1: 0, 2: 1, 3: 0}, InvalidParams, "outside the graph"),
        ({0}, {1: 0, 2: 1}, InvalidColoring, "must assign every vertex"),
        (set(), {0: 0, 1: 1, 2: 0, 3: 1}, InvalidColoring, "induce a cycle"),
        ({0}, {1: 0, 2: 1, 3: 0, 9: 0}, InvalidColoring, "outside the graph"),
        ({0}, {1: 0, 2: "a", 3: 0}, InvalidColoring, "mutually comparable"),
    ], ids=["a_outside", "missing_color", "cyclic", "coloring_outside",
            "incomparable_names"])
    def test_single_fault(self, c4, a, coloring, error, message):
        with pytest.raises(error, match=message):
            surface_pipeline(c4, 0, a, Coloring(coloring, 2))

    @given(st.integers(0, 5), st.lists(st.integers(0, 31), min_size=1, max_size=14),
           st.integers(0, 3))
    @settings(max_examples=60)
    def test_class_cap_holds_whenever_k3k_passes(self, a_size, masks, genus):
        # A = {0, ..., a_size-1}; outside vertex a_size+i has A-neighbourhood
        # masks[i], and the vertices outside A are independent
        edges = [(a, a_size + i) for i, mask in enumerate(masks)
                 for a in range(a_size) if mask >> a & 1]
        g = Graph.from_edges(a_size + len(masks), edges)
        a = set(range(a_size))
        coloring = Coloring({v: 0 for v in range(a_size, g.n)}, 1)
        k3k = graph.assert_k3k(g, a, genus)
        if not k3k.passed:
            with pytest.raises(StructuralCheckFailed, match="common neighbors"):
                surface_pipeline(g, genus, a, coloring)
            return
        _, trace = surface_pipeline(g, genus, a, coloring)
        cap = (1 + a_size + math.comb(a_size, 2)
               + trace.get("k3k_bound") * math.comb(a_size, 3))
        assert trace.get("quotient_class_cap") == cap
        assert trace.get("quotient_classes") <= cap

    @given(graphs_strategy(7), st.integers(0, 127), st.integers(0, 3))
    @settings(max_examples=40)
    def test_none_coloring_is_the_smallest_of_g_minus_a(self, g, a_mask, genus):
        a = {v for v in range(g.n) if (a_mask >> v) & 1}
        sub, members = g.induced(v for v in range(g.n) if v not in a)
        local = smallest_acyclic_coloring(sub)
        coloring = Coloring({members[i]: c for i, c in local.color.items()}, local.k)
        try:
            given_rep, given_trace = surface_pipeline(g, genus, a, coloring, seed=2)
        except StructuralCheckFailed:
            with pytest.raises(StructuralCheckFailed):
                surface_pipeline(g, genus, a, seed=2)
            return
        rep, trace = surface_pipeline(g, genus, a, seed=2)
        assert np.array_equal(rep.lo, given_rep.lo)
        assert np.array_equal(rep.hi, given_rep.hi)
        assert trace.values == given_trace.values

    def test_none_coloring_over_the_size_limit(self):
        g = generate("kdegen", n=20, k=2, seed=1)
        with pytest.raises(SizeLimitExceeded):
            surface_pipeline(g, 1, {0, 1})


class TestTraceText:
    """The `key = value` lines that benchmark scripts read back from to_text."""

    @pytest.mark.parametrize("mode", ["paper", "reference"])
    def test_edge_component_lines_round_trip(self, mode):
        # two isolated vertices add two edgeless components to the kdegen one
        g = generate("kdegen", n=60, k=3, seed=4)
        g = Graph.from_edges(g.n + 2, g.edges)
        _, trace = edge_pipeline(g, mode=mode, seed=5)
        lines = [line.partition(" = ") for line in trace.to_text().splitlines()]
        parsed = [ast.literal_eval(value) for key, _, value in lines
                  if key == "component"]
        assert parsed == trace.get_all("component")
        assert [c["m"] == 0 for c in parsed] == [False, True, True]

    def test_surface_dims_lines_parse_as_ints(self):
        g = complete_bipartite(3, 5)
        coloring = Coloring({v: 0 for v in range(3, 8)}, 1)
        _, trace = surface_pipeline(g, 2, {0, 1, 2}, coloring)
        values = {key: value for key, _, value in
                  (line.partition(" = ") for line in trace.to_text().splitlines())}
        for key in ("quotient_dims", "g2_dims"):
            assert int(values[key]) == trace.get(key)


class TestBipartiteExperiment:
    def test_zero_trials_empty_report(self):
        report = bipartite_experiment(16, 0, seed=5)
        assert report.trials == 0
        assert report.edge_counts == []
        assert report.fraction_within_cap() == 0.0

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParams):
            bipartite_experiment(3, 5)

    def test_draw_budget_covers_all_trials(self, monkeypatch):
        # every trial alone is within the budget, all of them together are not
        with pytest.raises(SizeLimitExceeded,
                           match="1000000000 random draws, limit 10000000$"):
            bipartite_experiment(1000, 1000)
        monkeypatch.setattr(graph, "GENERATOR_DRAW_LIMIT", 48)
        assert bipartite_experiment(4, 3).trials == 3
        with pytest.raises(SizeLimitExceeded):
            bipartite_experiment(4, 4)

    def test_edge_cap_mostly_holds(self):
        report = bipartite_experiment(64, 30, seed=2)
        assert report.within_cap >= 29

    def test_n4_exact_distribution(self):
        report = bipartite_experiment(4, 4, seed=1)
        assert report.over_limit == 0
        assert set(report.boxicity_distribution) <= {1, 2}
        assert sum(report.boxicity_distribution.values()) == 4

    def test_over_limit_sample_renders_without_distribution(self, monkeypatch):
        def over_limit(g):
            raise SizeLimitExceeded(f"component has {g.n} vertices, limit 7")

        monkeypatch.setattr(pipelines, "exact_boxicity", over_limit)
        report = bipartite_experiment(4, 1, seed=0)
        assert report.over_limit == 1
        assert not report.boxicity_distribution
        text = report.to_text()
        assert "boxicity_distribution" not in text
        assert text.splitlines()[-1] == "boxicity_over_limit = 1"
        assert report.to_csv().splitlines()[-1].endswith(",over_limit")

    def test_text_and_csv_render(self):
        report = bipartite_experiment(16, 3, seed=0)
        text = report.to_text()
        assert "fraction_within_cap" in text
        csv = report.to_csv()
        assert csv.splitlines()[0] == "trial,edges,within_cap,boxicity"
        assert len(csv.splitlines()) == 4


@pytest.mark.parametrize("call", [
    lambda: generate("kdegen", n=5.5, k=2),
    lambda: generate("kdegen", n=5, k="2"),
    lambda: generate("copm", k=2.0),
    lambda: generate("kdegen", n=5, k=2, seed=1.5),
    lambda: bipartite_experiment(4.0, 2),
    lambda: bipartite_experiment(4, 2.5),
    lambda: bipartite_experiment(4, 2, seed="1"),
    lambda: edge_pipeline(cycle_graph(5), seed=2.5),
    lambda: surface_pipeline(cycle_graph(5), 0, frozenset(), seed=2.5),
    lambda: acyclic_coloring(path_graph(3), 2.5),
    lambda: acyclic_coloring(path_graph(3), "2"),
    lambda: surface_pipeline(path_graph(3), "1", ()),
    lambda: surface_pipeline(path_graph(3), 1.5, ()),
    lambda: graph.assert_k3k(complete_bipartite(3, 3), {0}, None),
    lambda: graph.assert_k3k(complete_bipartite(3, 3), {0}, 1.5),
    lambda: bound_report(10, 5, genus=1.5),
    lambda: bound_report(10, 5, genus="1"),
    lambda: bound_report("10", 5),
    lambda: bound_report(10.5, 5),
    lambda: bound_report(10, 5.5),
    lambda: bound_report(10, 5, k=2.5),
    lambda: graph.euler_genus_upper(1.5),
    lambda: poset_dim_upper(1.5, 2),
], ids=["float n", "str k", "float k", "float gen seed", "float experiment n",
        "float trials", "str experiment seed", "float edge seed",
        "float surface seed", "float k_max", "str k_max", "str surface genus",
        "float surface genus", "None k3k genus", "float k3k genus",
        "float report genus", "str report genus", "str report n",
        "float report n", "float report m", "float report k",
        "float euler genus m", "float poset box_dims"])
def test_non_integer_params_raise_invalid_params(call):
    with pytest.raises(InvalidParams, match="must be (an )?integers?, got"):
        call()


def test_integer_like_params_match_int():
    assert (generate("kdegen", n=np.int64(9), k=np.int32(2), seed=np.uint64(4))
            == generate("kdegen", n=9, k=2, seed=4))
    assert (bipartite_experiment(np.int64(4), np.int64(3), seed=np.int64(1)).per_trial
            == bipartite_experiment(4, 3, seed=1).per_trial)
    k33 = complete_bipartite(3, 3)
    assert graph.assert_k3k(k33, {0, 1, 2}, np.int64(0)) == graph.assert_k3k(k33, {0, 1, 2}, 0)
    assert type(graph.assert_k3k(k33, {0}, np.int64(1)).bound) is int
    assert acyclic_coloring(cycle_graph(5), np.int64(3)) == acyclic_coloring(cycle_graph(5), 3)
    assert bound_report(10, 5, genus=np.int64(2)) == bound_report(10, 5, genus=2)


_P4, _C4, _K33 = path_graph(4), cycle_graph(4), complete_bipartite(3, 3)


# each of these once returned a result built on a non-vertex or raised a
# bare TypeError or IndexError
@pytest.mark.parametrize("call, error", [
    (lambda: _P4.induced([0, 1.5, 3]), InvalidParams),
    (lambda: graph.forward_degeneracy(_P4, [0.0, 1, 2, 3]), InvalidParams),
    (lambda: graph.quotient_by_a_neighborhood(_P4, [2.5]), InvalidParams),
    (lambda: graph.quotient_by_a_neighborhood(_P4, ["a"]), InvalidParams),
    (lambda: graph.assert_k3k(_K33, [0, 1, 99], 0), InvalidParams),
    (lambda: graph.assert_k3k(_K33, [0, 1, 2.5], 0), InvalidParams),
    (lambda: acyclic_rep(_P4, Coloring({0: 0, 1.0: 1, 2: 0, 3: 1}, 2)),
     InvalidColoring),
    (lambda: degenerate_rep(_P4, [0.0, 1, 2, 3], 1), InvalidOrder),
    (lambda: split_compose(roberts_rep(_C4), _universal(1), [1.5], _C4),
     PreconditionViolation),
    (lambda: split_compose(roberts_rep(_C4), _universal(1), ["a"], _C4),
     PreconditionViolation),
    (lambda: extend_universal(_points(2), [0, 0.5], 3), InvalidInputRep),
    (lambda: merge_components([_points(1), _points(1)], [(0.0,), (1,)]),
     InvalidInputRep),
    (lambda: surface_pipeline(_P4, 0, (), Coloring({0: 0, 1.0: 1, 2: 0, 3: 1}, 2)),
     InvalidColoring),
    (lambda: surface_pipeline(_P4, 1, [1.5]), InvalidParams),
    (lambda: surface_pipeline(_P4, 1, ["x"]), InvalidParams),
], ids=["induced float", "forward_degeneracy float order", "quotient float A",
        "quotient str A", "k3k A outside", "k3k float A", "acyclic_rep float key",
        "degenerate_rep float order", "split_compose float S", "split_compose str S",
        "extend_universal float member", "merge_components float map",
        "surface float coloring key", "surface float A", "surface str A"])
def test_non_integer_vertices_raise_boxrep_errors(call, error):
    with pytest.raises(error, match="names a (non-integer )?vertex"):
        call()


def test_integer_like_vertices_match_int():
    rep = roberts_rep(cycle_graph(8))
    wide, ref = extend_universal(rep, np.arange(8), 9), extend_universal(rep, range(8), 9)
    assert np.array_equal(wide.lo, ref.lo) and np.array_equal(wide.hi, ref.hi)
    out = split_compose(roberts_rep(_C4), _universal(1), [np.int64(1)], _C4)
    ref = split_compose(roberts_rep(_C4), _universal(1), [1], _C4)
    assert np.array_equal(out.lo, ref.lo) and np.array_equal(out.hi, ref.hi)
    assert _P4.induced([np.int64(3), True]) == _P4.induced([1, 3])
    assert type(_P4.induced([np.int64(3)])[1][0]) is int


_VALUES = st.lists(st.one_of(st.integers(-2, 7), st.floats(-2, 7), st.text(max_size=2),
                             st.integers(-2, 7).map(np.int64)), max_size=6)


@given(graphs_strategy(6), _VALUES)
def test_vertex_ids_are_integers_in_range_or_refused(g, values):
    valid = all(isinstance(v, (int, np.integer)) and 0 <= v < g.n for v in values)
    for call in (g.induced, lambda a: graph.quotient_by_a_neighborhood(g, a)):
        try:
            call(values)
        except BoxrepError:
            assert not valid
        else:
            assert valid


class TestBoundReport:
    def test_edge_bound_example(self):
        rows = {name: value for name, _, value in bound_report(50, 100)}
        assert rows["edge_sqrt"] == pytest.approx(826.246, abs=0.01)

    def test_degenerate_bound_example(self):
        rows = {name: value for name, _, value in bound_report(100, 50, k=3)}
        assert rows["degenerate_cover"] == 315

    def test_heawood_example(self):
        rows = {name: value for name, _, value in bound_report(10, 5, genus=2)}
        assert rows["heawood_degeneracy"] == pytest.approx(6.0)
        assert rows["quotient_class_relaxed_cap"] == 16 * 10**9

    def test_roberts_and_euler_rows(self):
        rows = {name: value for name, _, value in bound_report(9, 7)}
        assert rows["roberts_pairing"] == 4.5
        assert rows["euler_genus_upper"] == 9

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidParams):
            bound_report(1, 0)
        with pytest.raises(InvalidParams):
            bound_report(4, -1)

    @pytest.mark.parametrize("args", [
        {"n": 10**400, "m": 5}, {"n": 10, "m": 10**400},
        {"n": 10, "m": 5, "genus": 10**400},
    ], ids=["n", "m", "genus"])
    def test_rejects_values_that_overflow_a_float(self, args):
        with pytest.raises(InvalidParams, match="overflows a float"):
            bound_report(**args)

    def test_rejects_an_integer_row_too_long_to_print(self):
        # k*(k-1) has 4,401 digits, past Python's 4,300-digit str() limit
        with pytest.raises(InvalidParams, match="too many digits"):
            bound_report(10, 5, k=10**2200)

    def test_render_text_and_csv(self):
        rows = bound_report(50, 100, genus=1, k=2)
        text = format_bound_table(rows)
        assert len(text.splitlines()) == len(rows)
        csv = format_bound_table(rows, csv=True)
        assert csv.splitlines()[0] == "name,formula,value"
