import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boxrep import graph
from boxrep.builders import trivial_rep
from boxrep.errors import FormatError, InvalidParams, SizeLimitExceeded
from boxrep.graph import (
    Graph,
    assert_k3k,
    components,
    degeneracy_order,
    euler_genus_upper,
    forward_degeneracy,
    generate,
    parse_graph,
    peel,
    quotient_by_a_neighborhood,
    write_graph,
)
from boxrep.intervals import BoxRepresentation, verify_representation
from boxrep.pipelines import edge_pipeline

from conftest import (
    all_graphs,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    star_graph,
)


def graphs_strategy(max_n=8):
    def build(n, mask):
        from itertools import combinations

        pairs = list(combinations(range(n), 2))
        return Graph(n, frozenset(p for i, p in enumerate(pairs)
                                  if (mask >> i) & 1))

    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(st.just(n), st.integers(0, (1 << (n * (n - 1) // 2)) - 1))
    ).map(lambda t: build(*t))


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(InvalidParams):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidParams):
            Graph(3, frozenset({(0, 3)}))

    @pytest.mark.parametrize("n, edges", [
        (3, [(0, 1.5)]),
        (3, [(0, "1")]),
        (3, [(0, 1, 2)]),
        (3, [(0,)]),
        (3, [0]),
        (2.5, []),
        ("3", []),
    ], ids=["float id", "str id", "triple", "single", "not a pair", "float n",
            "str n"])
    def test_bad_ids_raise_invalid_params(self, n, edges):
        with pytest.raises(InvalidParams):
            Graph.from_edges(n, edges)

    @pytest.mark.parametrize("n, edges", [
        (2.5, frozenset()),
        (3, frozenset({(0, "1")})),
        (3, frozenset({(0, 1.5)})),
        (3, frozenset({(np.int64(0), 1)})),
        (3, frozenset({(0, True)})),
        (3, frozenset({(0, 1, 2)})),
        (3, frozenset({0})),
    ], ids=["float n", "str id", "float id", "numpy id", "bool id", "triple",
            "not a pair"])
    def test_constructor_rejects_malformed_input(self, n, edges):
        with pytest.raises(InvalidParams):
            Graph(n, edges)

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (0, 1)],
        {(0, 1), (1, 2)},
        ((u, u + 1) for u in range(2)),
    ], ids=["list with a duplicate", "set", "generator"])
    def test_constructor_stores_a_frozenset(self, edges):
        g = Graph(3, edges)
        assert type(g.edges) is frozenset and g.edges == {(0, 1), (1, 2)}
        assert g.m == 2 and hash(g) == hash(path_graph(3))
        assert g == path_graph(3)

    def test_a_repeated_edge_is_one_edge_downstream(self):
        g = Graph(2, [(0, 1), (0, 1)])
        assert g.m == 1
        assert verify_representation(g, trivial_rep(g)).valid
        assert verify_representation(g, edge_pipeline(g)[0]).valid
        assert parse_graph(write_graph(g)) == g

    def test_constructor_keeps_a_frozenset(self):
        edges = frozenset({(0, 1)})
        assert Graph(2, edges).edges is edges

    # a float id once got past the constructor: components then raised a
    # bare TypeError and the oracle truncated 1.5 to 1, reporting edge (0, 1)
    @pytest.mark.parametrize("use", [
        components,
        lambda g: verify_representation(g, BoxRepresentation(
            3, np.zeros((1, 3), np.int64), np.zeros((1, 3), np.int64))),
    ], ids=["components", "verify"])
    def test_float_id_never_reaches_a_consumer(self, use):
        with pytest.raises(InvalidParams):
            use(Graph(3, frozenset({(0, 1.5)})))

    @given(graphs_strategy(7), st.integers(0, 127))
    def test_derived_graphs_pass_the_checks_they_skip(self, g, mask):
        part = [v for v in range(g.n) if (mask >> v) & 1]
        for h in (g.induced(part)[0], g.remove_edges_inside(part)):
            assert Graph(h.n, h.edges) == h

    # named for the deleted `Graph.add_clique`; its three inputs go through `induced`
    @pytest.mark.parametrize("verts", [[0, 1.5], [0, 3], [-1, 0]])
    def test_add_clique_rejects_bad_vertices(self, verts):
        with pytest.raises(InvalidParams):
            path_graph(3).induced(verts)

    def test_numpy_ids_become_ints(self):
        g = Graph.from_edges(np.int64(3), [(np.int64(2), np.int32(0)), (1, np.uint8(2))])
        assert g == Graph(3, frozenset({(0, 2), (1, 2)}))
        assert type(g.n) is int
        assert {type(v) for e in g.edges for v in e} == {int}

    def test_normalizes_and_dedupes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.m == 2
        assert g.sorted_edges() == [(0, 2), (1, 2)]

    def test_nonedges_lex_order(self):
        g = cycle_graph(4)
        assert list(g.nonedges()) == [(0, 2), (1, 3)]


def degeneracy_order_by_min(g):
    """degeneracy_order as a min over the alive set at every step."""
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    order = []
    k = 0
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        k = max(k, deg[v])
        order.append(v)
        alive.remove(v)
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1
    return order, k


def peel_by_min(g, theta):
    """peel as a min over the set of removable vertices at every step."""
    theta = Fraction(theta)
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    low = {v for v in alive if deg[v] <= theta}
    while low:
        v = min(low)
        low.remove(v)
        alive.remove(v)
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1
                if deg[w] <= theta:
                    low.add(w)
    return frozenset(alive)


class TestDegeneracy:
    def test_complete(self):
        assert degeneracy_order(complete_graph(5))[1] == 4

    def test_tree(self):
        assert degeneracy_order(path_graph(6))[1] == 1
        assert degeneracy_order(star_graph(5))[1] == 1

    def test_cycle(self):
        assert degeneracy_order(cycle_graph(4))[1] == 2

    @given(graphs_strategy())
    def test_order_witnesses_k_and_k_is_tight(self, g):
        order, k = degeneracy_order(g)
        assert forward_degeneracy(g, order) <= k
        # tightness: at the peak step the remaining induced graph has min degree k
        pos = {v: i for i, v in enumerate(order)}
        peak = max(range(g.n),
                   key=lambda i: sum(1 for w in g.neighbors(order[i])
                                     if pos[w] > i),
                   default=None)
        if g.n:
            rest = order[peak:]
            sub, _ = g.induced(rest)
            if sub.n:
                assert min((sub.degree(v) for v in range(sub.n)), default=0) <= k


    def test_forward_degeneracy_rejects_a_repeated_vertex(self):
        g = generate("kdegen", n=10, k=2, seed=1)
        order, _ = degeneracy_order(g)
        with pytest.raises(InvalidParams):
            forward_degeneracy(g, order + [order[0]])


class TestHeapOrders:
    """The heap-driven orders against a min over a set at every step."""

    @given(graphs_strategy(12))
    def test_degeneracy_order_matches(self, g):
        assert degeneracy_order(g) == degeneracy_order_by_min(g)

    @given(st.integers(1, 60), st.integers(0, 60), st.integers(0, 10_000),
           st.fractions(min_value=0, max_value=12))
    def test_peel_matches(self, n, p_percent, seed, theta):
        g = random_graph(n, p_percent, seed)
        assert peel(g, theta) == peel_by_min(g, theta)
        assert degeneracy_order(g) == degeneracy_order_by_min(g)


class TestPeel:
    def test_c4_theta1_keeps_everything(self):
        assert peel(cycle_graph(4), 1) == frozenset({0, 1, 2, 3})

    def test_c4_theta2_removes_everything(self):
        assert peel(cycle_graph(4), 2) == frozenset()

    def test_star_theta1_hand_simulation(self):
        # leaves 1..4 go first; then the center goes, and leaf 5 after it
        assert peel(star_graph(5), 1) == frozenset()
        # a triangle with a pendant: the pendant goes, the triangle stays
        g = Graph.from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        assert peel(g, 1) == frozenset({0, 1, 2})

    def test_rejects_negative_theta(self):
        with pytest.raises(InvalidParams):
            peel(cycle_graph(4), Fraction(-1, 2))

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf, "x", None],
                             ids=["nan", "inf", "-inf", "str", "None"])
    def test_rejects_non_numeric_theta(self, theta):
        with pytest.raises(InvalidParams):
            peel(cycle_graph(4), theta)

    @given(graphs_strategy(), st.fractions(min_value=0, max_value=6))
    def test_postconditions_and_replay(self, g, theta):
        nx = pytest.importorskip("networkx")
        survivors = peel(g, theta)
        # every survivor keeps more than theta surviving neighbors
        for v in survivors:
            assert len(g.neighbors(v) & survivors) > theta
        # and they are the (floor(theta) + 1)-core, the largest such set
        h = nx.Graph(list(g.edges))
        h.add_nodes_from(range(g.n))
        assert survivors == frozenset(nx.k_core(h, math.floor(theta) + 1))

    @given(graphs_strategy())
    def test_survivor_count_bound_at_sqrt_threshold(self, g):
        if g.m == 0 or g.n < 2:
            return
        theta = Fraction(math.sqrt(g.m / math.log(g.n)))
        assert len(peel(g, theta)) <= 2 * math.sqrt(g.m * math.log(g.n)) + 1e-9

    @given(graphs_strategy())
    def test_order_witnesses_forward_degeneracy(self, g):
        if g.m == 0 or g.n < 2:
            return
        # the peeling order, then the survivors, is an order of h in which
        # no vertex has more than ceil(theta) later neighbors
        theta = Fraction(math.sqrt(g.m / math.log(g.n)))
        h = g.remove_edges_inside(peel(g, theta))
        assert degeneracy_order(h)[1] <= math.ceil(theta)


class TestComponents:
    def test_path_single(self):
        assert len(components(path_graph(3))) == 1

    def test_two_k2(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        comps = components(g)
        assert len(comps) == 2
        assert all(c.n == 2 for c, _ in comps)

    def test_edgeless(self):
        comps = components(Graph(3, frozenset()))
        assert len(comps) == 3

    @given(graphs_strategy())
    def test_maps_partition_and_edges_match(self, g):
        comps = components(g)
        seen = set()
        total_m = 0
        for sub, members in comps:
            assert len(members) == sub.n
            seen.update(members)
            total_m += sub.m
            for u, v in sub.edges:
                assert tuple(sorted((members[u], members[v]))) in g.edges
        assert seen == set(range(g.n))
        assert total_m == g.m

    @pytest.mark.parametrize("g", [path_graph(1), path_graph(4), cycle_graph(5),
                                   complete_graph(4)],
                             ids=["K1", "P4", "C5", "K4"])
    def test_connected_graph_is_its_own_component(self, g):
        [(comp, members)] = components(g)
        assert comp is g
        assert members == tuple(range(g.n))

    def test_empty_graph_has_no_component(self):
        assert components(Graph(0, frozenset())) == []

    @given(graphs_strategy())
    def test_matches_inducing_every_component(self, g):
        # reference: grow each component from its smallest unseen vertex,
        # then induce it, relabelled by ascending id, connected or not
        label = {}
        for start in range(g.n):
            if start not in label:
                label[start] = start
                stack = [start]
                while stack:
                    for w in g.neighbors(stack.pop()):
                        if w not in label:
                            label[w] = start
                            stack.append(w)
        starts = sorted(set(label.values()))
        assert components(g) == [
            g.induced(v for v in range(g.n) if label[v] == s) for s in starts]


def reference_quotient(g, a):
    """The earlier class-list quotient: (classes, rep_of, quotient graph, local_id).

    Classes are the vertices outside `a` grouped by their neighborhood in
    `a`, each sorted and listed by its smallest member, its representative.
    The quotient graph is g minus every edge outside `a`, induced on `a` plus
    the representatives and relabeled by ascending id (`local_id`).
    """
    a_set = frozenset(a)
    outside = [v for v in range(g.n) if v not in a_set]
    groups = {}
    for v in outside:
        groups.setdefault(frozenset(g.neighbors(v) & a_set), []).append(v)
    classes = tuple(tuple(sorted(members)) for members in
                    sorted(groups.values(), key=min))
    rep_of = {v: v for v in a_set}
    for members in classes:
        for v in members:
            rep_of[v] = members[0]
    kept = sorted(a_set | {members[0] for members in classes})
    qg, members = g.remove_edges_inside(set(outside)).induced(kept)
    return classes, rep_of, qg, {v: i for i, v in enumerate(members)}


class TestQuotient:
    def test_star_center(self):
        q = quotient_by_a_neighborhood(star_graph(4), {0})
        assert q.reps == (1,)
        assert q.cols == (0, 1, 1, 1, 1)
        assert q.quotient_graph.n == 2
        assert q.quotient_graph.m == 1

    def test_a_equals_v(self):
        g = cycle_graph(4)
        q = quotient_by_a_neighborhood(g, range(4))
        assert q.reps == ()
        assert q.cols == (0, 1, 2, 3)
        assert q.quotient_graph.edges == g.edges

    def test_k23_two_side(self):
        g = complete_bipartite(2, 3)
        q = quotient_by_a_neighborhood(g, {0, 1})
        assert q.reps == (2,)
        assert q.cols == (0, 1, 2, 2, 2)

    def test_rejects_a_outside_the_graph(self):
        with pytest.raises(InvalidParams, match="outside the graph"):
            quotient_by_a_neighborhood(cycle_graph(4), {4})

    @given(graphs_strategy(6), st.integers(0, 63))
    def test_class_key_is_a_neighborhood(self, g, a_mask):
        a = {v for v in range(g.n) if (a_mask >> v) & 1}
        q = quotient_by_a_neighborhood(g, a)
        outside = [v for v in range(g.n) if v not in a]
        # cols[u] == cols[v] iff u and v have the same A-neighborhood
        for u in outside:
            for v in outside:
                same_key = g.neighbors(u) & a == g.neighbors(v) & a
                assert (q.cols[u] == q.cols[v]) == same_key
        # A keeps its own distinct boxes, apart from the classes
        assert len({q.cols[v] for v in a}) == len(a)
        assert not {q.cols[v] for v in a} & set(q.reps)
        assert {q.cols[v] for v in outside} == set(q.reps)
        # no edges between representatives
        for u, v in q.quotient_graph.edges:
            assert not (u in q.reps and v in q.reps)

    @given(graphs_strategy(9), st.integers(0, 511))
    def test_matches_the_class_list_reference(self, g, a_mask):
        a = {v for v in range(g.n) if (a_mask >> v) & 1}
        q = quotient_by_a_neighborhood(g, a)
        classes, rep_of, qg, local_id = reference_quotient(g, a)
        assert q.quotient_graph.n == qg.n
        assert q.quotient_graph.edges == qg.edges
        assert q.reps == tuple(sorted(local_id[cls[0]] for cls in classes))
        assert q.cols == tuple(local_id[rep_of[v]] for v in range(g.n))


class TestK3K:
    def test_k33_genus1_passes(self):
        report = assert_k3k(complete_bipartite(3, 3), {0, 1, 2}, 1)
        assert report.passed and report.max_count == 3

    def test_k35_genus1_fails_with_witness(self):
        report = assert_k3k(complete_bipartite(3, 5), {0, 1, 2}, 1)
        assert not report.passed
        assert report.max_count == 5
        assert report.witness == (0, 1, 2)

    def test_k35_genus2_passes(self):
        report = assert_k3k(complete_bipartite(3, 5), {0, 1, 2}, 2)
        assert report.passed and report.max_count == 5

    def test_small_a_vacuous(self):
        report = assert_k3k(complete_graph(4), {0, 1}, 0)
        assert report.passed and report.max_count == 0


class TestEulerGenusUpper:
    def test_values(self):
        assert euler_genus_upper(0) == 2
        assert euler_genus_upper(10) == 12
        m = math.floor(2 * 256**2 / math.log(256))
        assert euler_genus_upper(m) == m + 2

    def test_negative(self):
        with pytest.raises(InvalidParams):
            euler_genus_upper(-1)


class TestGenerate:
    def test_copm2_is_c4(self):
        g = generate("copm", k=2)
        assert g.sorted_edges() == [(0, 2), (0, 3), (1, 2), (1, 3)]
        assert all(g.degree(v) == 2 for v in range(4))

    def test_copm3_is_octahedron(self):
        g = generate("copm", k=3)
        assert g.n == 6 and g.m == 12
        assert all(g.degree(v) == 4 for v in range(6))
        missing = set(g.nonedges())
        assert missing == {(0, 1), (2, 3), (4, 5)}

    def test_kdegen_degeneracy_at_most_k(self):
        g = generate("kdegen", n=30, k=3, seed=5)
        assert degeneracy_order(g)[1] <= 3

    def test_reproducible(self):
        for model, kwargs in [("bipartite", {"n": 16}), ("kdegen", {"n": 20, "k": 2})]:
            a = generate(model, seed=42, **kwargs)
            b = generate(model, seed=42, **kwargs)
            assert a.edges == b.edges
            assert write_graph(a) == write_graph(b)
            c = generate(model, seed=43, **kwargs)
            assert c.edges != a.edges

    def test_bipartite_edge_concentration(self):
        n = 256
        p = 1 / math.log(n)
        mean = n * n * p
        slack = 4 * math.sqrt(mean)
        hits = 0
        trials = 100
        for seed in range(trials):
            g = generate("bipartite", n=n, seed=seed)
            if abs(g.m - mean) <= slack:
                hits += 1
        assert hits >= 0.95 * trials

    def test_draw_budget_checked_before_drawing(self, monkeypatch):
        with pytest.raises(SizeLimitExceeded, match="10000000000 random draws"):
            generate("bipartite", n=100_000)
        with pytest.raises(SizeLimitExceeded, match="limit 10000000$"):
            generate("kdegen", n=10**8, k=3)
        monkeypatch.setattr(graph, "GENERATOR_DRAW_LIMIT", 16)
        assert generate("bipartite", n=4).n == 8
        assert generate("kdegen", n=8, k=2).n == 8
        with pytest.raises(SizeLimitExceeded):
            generate("bipartite", n=5)
        with pytest.raises(SizeLimitExceeded):
            generate("kdegen", n=6, k=3)

    def test_copm_pair_budget_checked_before_enumerating(self, monkeypatch):
        with pytest.raises(SizeLimitExceeded,
                           match="19999900000 vertex pairs, limit 10000000$"):
            generate("copm", k=100_000)
        monkeypatch.setattr(graph, "GENERATOR_DRAW_LIMIT", 6)
        assert generate("copm", k=2).m == 4
        with pytest.raises(SizeLimitExceeded):
            generate("copm", k=3)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            generate("bipartite", n=1)
        with pytest.raises(InvalidParams):
            generate("copm", k=0)
        with pytest.raises(InvalidParams):
            generate("nope", n=4)


class TestGraphIO:
    def test_round_trip_all_n3(self):
        for g in all_graphs(3):
            assert parse_graph(write_graph(g)).edges == g.edges

    def test_comments_and_format(self):
        text = write_graph(cycle_graph(4), comments=["hello"])
        assert text.startswith("# hello\n4 4\n")
        assert parse_graph(text) == cycle_graph(4)

    def test_byte_exact_round_trip(self):
        g = random_graph(9, 40, seed=3)
        text = write_graph(g)
        assert write_graph(parse_graph(text)) == text

    @pytest.mark.parametrize("bad", [
        "", "3\n", "2 1\n1 0\n", "2 1\n0 0\n", "2 2\n0 1\n0 1\n", "2 1\n0 2\n",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            parse_graph(bad)

    def test_vertex_limit(self):
        assert parse_graph(f"{graph.GRAPH_VERTEX_LIMIT} 0\n").n == graph.GRAPH_VERTEX_LIMIT
        with pytest.raises(SizeLimitExceeded, match="limit"):
            parse_graph(f"{graph.GRAPH_VERTEX_LIMIT + 1} 0\n")
