from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from boxrep.builders import degenerate_rep, roberts_rep
from boxrep.errors import SizeLimitExceeded
from boxrep.exact import (SolveLimits, _maximal_keepable, exact_boxicity,
                          exact_poset_dimension)
from boxrep.graph import Graph, components, degeneracy_order, generate
from boxrep.intervals import RECOGNITION_LIMIT, is_interval_graph
from boxrep.poset import FinitePoset, adjacency_poset
from boxrep.rng import SplitMix64

from conftest import complete_graph, cycle_graph, path_graph, random_graph
from test_graph_core import graphs_strategy


def subset_maximal_keepable(comp, nonedges):
    """Reference for `_maximal_keepable`, straight from the definition: test
    every subset F of the non-edges for K - F being interval, then keep the
    maximal ones, largest first, then ascending."""
    keepable = []
    for mask in range(1 << len(nonedges)):
        dropped = {e for i, e in enumerate(nonedges) if (mask >> i) & 1}
        k_minus_f = Graph(comp.n, frozenset(
            e for e in combinations(range(comp.n), 2) if e not in dropped))
        if is_interval_graph(k_minus_f):
            keepable.append(mask)
    keepable.sort(key=lambda m: -bin(m).count("1"))
    maximal = []
    for m in keepable:
        if not any(m | kept == kept for kept in maximal):
            maximal.append(m)
    return maximal


class TestExactBoxicity:
    def test_complete_is_one(self):
        assert exact_boxicity(complete_graph(5)) == 1

    def test_c4_is_two(self, c4):
        assert exact_boxicity(c4) == 2

    def test_complement_of_matching_family(self):
        assert exact_boxicity(generate("copm", k=3)) == 3
        assert exact_boxicity(generate("copm", k=4)) == 4

    def test_c5_is_two(self):
        # confirmed against the interval recognizer: C5 is not interval, and
        # the solver finds a 2-cover of its non-edges
        c5 = cycle_graph(5)
        assert not is_interval_graph(c5)
        assert exact_boxicity(c5) == 2

    def test_edgeless_and_empty(self):
        assert exact_boxicity(Graph(4, frozenset())) == 1
        assert exact_boxicity(Graph(1, frozenset())) == 1

    def test_interval_iff_one(self):
        for seed in range(20):
            g = random_graph(6, 50, seed)
            assert (exact_boxicity(g) == 1) == is_interval_graph(g)

    def test_size_limits_raise(self):
        with pytest.raises(SizeLimitExceeded):
            exact_boxicity(path_graph(11), SolveLimits(max_vertices=10))
        dense_nonedges = Graph.from_edges(8, [(i, i + 1) for i in range(7)])
        with pytest.raises(SizeLimitExceeded):
            exact_boxicity(dense_nonedges, SolveLimits(max_nonedges=5))

    def test_recognition_limit_caps_max_vertices(self):
        # copm(7) has 14 vertices and 7 non-edges: within the caller's limits,
        # above the interval-recognition limit
        with pytest.raises(SizeLimitExceeded, match=f"limit {RECOGNITION_LIMIT}"):
            exact_boxicity(generate("copm", k=7), SolveLimits(max_vertices=14))

    def test_limits_apply_per_component(self):
        # two K5s: 25+ cross non-edges in total but none inside a component
        edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
        edges += [(5 + i, 5 + j) for i in range(5) for j in range(i + 1, 5)]
        g = Graph.from_edges(10, edges)
        assert exact_boxicity(g, SolveLimits(max_nonedges=3)) == 1

    @given(graphs_strategy(6))
    def test_ordering_dp_matches_subset_enumeration(self, g):
        # a component on at most 6 vertices has at most 10 non-edges
        for comp, _ in components(g):
            nonedges = list(comp.nonedges())
            assert (_maximal_keepable(comp, nonedges)
                    == subset_maximal_keepable(comp, nonedges))

    @given(graphs_strategy(7))
    def test_upper_bounds_and_builders_sandwich(self, g):
        box = exact_boxicity(g)
        assert 1 <= box <= max(1, g.n // 2)
        assert box <= roberts_rep(g).d
        order, k = degeneracy_order(g)
        assert box <= degenerate_rep(g, order, k).d

    @given(graphs_strategy(7), st.integers(0, 1000))
    @settings(max_examples=30)
    def test_isomorphism_invariant(self, g, seed):
        rng = SplitMix64(seed)
        perm = list(range(g.n))
        for i in range(g.n - 1, 0, -1):
            j = rng.below(i + 1)
            perm[i], perm[j] = perm[j], perm[i]
        h = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
        assert exact_boxicity(g) == exact_boxicity(h)


def chain(n):
    return FinitePoset(n, frozenset((a, b) for a in range(n)
                                    for b in range(a + 1, n)))


class TestExactPosetDimension:
    def test_chain_is_one(self):
        assert exact_poset_dimension(chain(4)) == 1

    def test_two_antichain_is_two(self):
        assert exact_poset_dimension(FinitePoset(2, frozenset())) == 2

    def test_adjacency_poset_of_k2(self):
        # by hand: both critical pairs (a,a') and (b,b') conflict, so 2 slots
        assert exact_poset_dimension(adjacency_poset(path_graph(2))) == 2

    def test_standard_example_from_complete_graphs(self):
        # adjacency posets of K_n are the standard n-dimensional examples
        for n in (3, 4, 5):
            assert exact_poset_dimension(adjacency_poset(complete_graph(n))) == n

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            exact_poset_dimension(adjacency_poset(path_graph(6)))

    @given(graphs_strategy(3))
    def test_realizer_search_matches_brute_force(self, g):
        # brute force straight from the definition: smallest family of linear
        # extensions whose intersection is exactly the poset
        from itertools import combinations, permutations

        p = adjacency_poset(g)
        n = p.ground_size
        exts = [perm for perm in permutations(range(n))
                if all(perm.index(a) < perm.index(b) for a, b in p.strict)]

        def intersection(family):
            pairs = set()
            for a in range(n):
                for b in range(n):
                    if a != b and all(f.index(a) < f.index(b) for f in family):
                        pairs.add((a, b))
            return pairs

        target = set(p.strict)
        brute = None
        for k in range(1, n + 1):
            if any(intersection(family) == target
                   for family in combinations(exts, k)):
                brute = k
                break
        assert exact_poset_dimension(p) == brute
