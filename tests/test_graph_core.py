import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from boxrep import graph
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

    def test_normalizes_and_dedupes(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 2)])
        assert g.m == 2
        assert g.sorted_edges() == [(0, 2), (1, 2)]

    def test_nonedges_lex_order(self):
        g = cycle_graph(4)
        assert list(g.nonedges()) == [(0, 2), (1, 3)]


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


class TestPeel:
    def test_c4_theta1_keeps_everything(self):
        pr = peel(cycle_graph(4), 1)
        assert pr.survivors == frozenset({0, 1, 2, 3})
        assert pr.removal_order == ()

    def test_c4_theta2_removes_everything(self):
        pr = peel(cycle_graph(4), 2)
        assert pr.survivors == frozenset()
        assert len(pr.removal_order) == 4

    def test_star_theta1_hand_simulation(self):
        # leaves 1..4 go first; then the center (id 0) ties with leaf 5 and wins
        pr = peel(star_graph(5), 1)
        assert pr.survivors == frozenset()
        assert pr.removal_order == (1, 2, 3, 4, 0, 5)

    def test_rejects_negative_theta(self):
        with pytest.raises(InvalidParams):
            peel(cycle_graph(4), Fraction(-1, 2))

    @given(graphs_strategy(), st.fractions(min_value=0, max_value=6))
    def test_postconditions_and_replay(self, g, theta):
        pr = peel(g, theta)
        assert set(pr.survivors) | set(pr.removal_order) == set(range(g.n))
        assert len(pr.removal_order) + len(pr.survivors) == g.n
        # every survivor keeps more than theta surviving neighbors
        for v in pr.survivors:
            assert len(g.neighbors(v) & pr.survivors) > theta
        # replay: each removed vertex had <= theta neighbors among the not
        # yet removed vertices at its removal time
        remaining = set(range(g.n))
        for v in pr.removal_order:
            assert len(g.neighbors(v) & remaining) <= theta
            remaining.remove(v)
        assert remaining == set(pr.survivors)

    @given(graphs_strategy())
    def test_survivor_count_bound_at_sqrt_threshold(self, g):
        if g.m == 0 or g.n < 2:
            return
        theta = Fraction(math.sqrt(g.m / math.log(g.n)))
        pr = peel(g, theta)
        assert len(pr.survivors) <= 2 * math.sqrt(g.m * math.log(g.n)) + 1e-9

    @given(graphs_strategy())
    def test_order_witnesses_forward_degeneracy(self, g):
        if g.m == 0 or g.n < 2:
            return
        theta = Fraction(math.sqrt(g.m / math.log(g.n)))
        pr = peel(g, theta)
        h = g.remove_edges_inside(pr.survivors)
        order = list(pr.removal_order) + sorted(pr.survivors)
        assert forward_degeneracy(h, order) <= math.ceil(theta)


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
                assert g.has_edge(members[u], members[v])
        assert seen == set(range(g.n))
        assert total_m == g.m


class TestQuotient:
    def test_star_center(self):
        q = quotient_by_a_neighborhood(star_graph(4), {0})
        assert len(q.classes) == 1
        assert q.classes[0] == (1, 2, 3, 4)
        assert q.quotient_graph.n == 2
        assert q.quotient_graph.m == 1

    def test_a_equals_v(self):
        g = cycle_graph(4)
        q = quotient_by_a_neighborhood(g, range(4))
        assert q.classes == ()
        assert q.quotient_graph.edges == g.edges

    def test_k23_two_side(self):
        g = complete_bipartite(2, 3)
        q = quotient_by_a_neighborhood(g, {0, 1})
        assert len(q.classes) == 1
        assert q.classes[0] == (2, 3, 4)

    @given(graphs_strategy(6), st.integers(0, 63))
    def test_class_key_is_a_neighborhood(self, g, a_mask):
        a = {v for v in range(g.n) if (a_mask >> v) & 1}
        q = quotient_by_a_neighborhood(g, a)
        # same class iff equal A-neighborhood
        key = {}
        for cls in q.classes:
            for v in cls:
                key[v] = frozenset(g.neighbors(v) & q.a_set)
        for ci in q.classes:
            for cj in q.classes:
                same = ci == cj
                assert (key[ci[0]] == key[cj[0]]) == same
        # no edges between representatives
        reps = {q.local_id[cls[0]] for cls in q.classes}
        for u, v in q.quotient_graph.edges:
            assert not (u in reps and v in reps)


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
