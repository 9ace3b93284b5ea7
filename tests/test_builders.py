import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boxrep import builders
from boxrep.builders import (
    DegenerateStrategy,
    _default_budget,
    acyclic_rep,
    degenerate_rep,
    forest_rep,
    roberts_rep,
    trivial_rep,
)
from boxrep.coloring import Coloring, smallest_acyclic_coloring
from boxrep.errors import InvalidColoring, InvalidOrder, NotAForest, SizeLimitExceeded
from boxrep.graph import Graph, degeneracy_order, generate
from boxrep.intervals import verify_representation

from conftest import complete_graph, cycle_graph, path_graph, random_graph, star_graph
from test_graph_core import graphs_strategy


def roberts_pairs_by_restart(g):
    """Roberts' pairs by the lexicographic rule read literally: after every
    pair, restart the scan over all pairs of unused vertices."""
    pool = set(range(g.n))
    pairs = []
    while True:
        found = next(((a, b) for a, b in combinations(sorted(pool), 2)
                      if not g.has_edge(a, b)), None)
        if found is None:
            return pairs
        pairs.append(found)
        pool.difference_update(found)


class TestRoberts:
    @given(st.integers(1, 30), st.integers(0, 100), st.integers(0, 10_000))
    def test_pairs_match_the_restart_scan(self, n, p_percent, seed):
        g = random_graph(n, p_percent, seed)
        rep = roberts_rep(g)
        pairs = roberts_pairs_by_restart(g)
        if not pairs:
            assert rep.d == 1 and (rep.lo == 0).all() and (rep.hi == 1).all()
        else:
            # a's interval starts at 0 and b's at 4, and no other one does
            assert [(int(np.flatnonzero(row == 0)[0]), int(np.flatnonzero(row == 4)[0]))
                    for row in rep.lo] == pairs

    def test_complete_one_dimension(self):
        rep = roberts_rep(complete_graph(3))
        assert rep.d == 1
        assert verify_representation(complete_graph(3), rep).valid

    def test_c4_two_dimensions_and_optimal(self, c4):
        rep = roberts_rep(c4)
        assert rep.d == 2
        assert verify_representation(c4, rep).valid
        from boxrep.exact import exact_boxicity

        assert exact_boxicity(c4) == 2

    def test_p3_single_dimension(self):
        g = path_graph(3)
        rep = roberts_rep(g)
        assert rep.d == 1
        assert verify_representation(g, rep).valid

    def test_copm_uses_exactly_k_dimensions(self):
        for k in (2, 3, 4, 6):
            g = generate("copm", k=k)
            rep = roberts_rep(g)
            assert rep.d == k
            assert verify_representation(g, rep).valid

    @given(graphs_strategy(8))
    def test_valid_and_within_pair_bound(self, g):
        rep = roberts_rep(g)
        assert rep.d <= max(1, g.n // 2)
        assert verify_representation(g, rep).valid


class TestForest:
    def test_k2(self):
        g = path_graph(2)
        rep = forest_rep(g)
        assert rep.d == 2
        assert verify_representation(g, rep).valid

    def test_p4_depth_kills_ancestors(self, p4):
        rep = forest_rep(p4)
        assert verify_representation(p4, rep).valid

    def test_forest_with_isolated_tree(self):
        g = Graph.from_edges(4, [(0, 1), (1, 2)])
        rep = forest_rep(g)
        assert verify_representation(g, rep).valid

    def test_rejects_cycles(self):
        with pytest.raises(NotAForest):
            forest_rep(cycle_graph(3))

    @given(graphs_strategy(8))
    def test_every_forest_verifies(self, g):
        from boxrep.graph import is_forest

        if not is_forest(g):
            return
        rep = forest_rep(g)
        assert rep.d == 2
        assert verify_representation(g, rep).valid


class TestAcyclicRep:
    def test_triangle_three_colors(self):
        g = complete_graph(3)
        rep = acyclic_rep(g, Coloring({0: 0, 1: 1, 2: 2}, 3))
        assert rep.d == 6
        assert verify_representation(g, rep).valid

    def test_p4_two_colors(self, p4):
        rep = acyclic_rep(p4, Coloring({0: 0, 1: 1, 2: 0, 3: 1}, 2))
        assert rep.d == 2
        assert verify_representation(p4, rep).valid

    def test_c4_three_coloring_six_dims(self, c4):
        col = smallest_acyclic_coloring(c4)
        assert col.k == 3
        rep = acyclic_rep(c4, col)
        assert rep.d == col.k * (col.k - 1) == 6
        assert verify_representation(c4, rep).valid

    def test_edgeless_one_coloring(self):
        g = Graph(4, frozenset())
        rep = acyclic_rep(g, Coloring({v: 0 for v in range(4)}, 1))
        assert rep.d == 1
        assert verify_representation(g, rep).valid

    def test_counts_colors_in_use_not_declared(self):
        # the path 0-1-2 uses two of its three declared colors
        g = path_graph(3)
        rep = acyclic_rep(g, Coloring({0: 0, 1: 1, 2: 0}, 3))
        assert rep.d == 2 and rep.metadata["colors"] == 2
        assert verify_representation(g, rep).valid

    def test_edgeless_one_color_in_use_of_two(self):
        g = Graph(3, frozenset())
        rep = acyclic_rep(g, Coloring({0: 0, 1: 0, 2: 0}, 2))
        assert rep.d == 1
        assert verify_representation(g, rep).valid

    def test_rejects_invalid_coloring(self, c4):
        with pytest.raises(InvalidColoring):
            acyclic_rep(c4, Coloring({0: 0, 1: 1, 2: 0, 3: 1}, 2))

    @given(graphs_strategy(7))
    def test_exact_dimension_count(self, g):
        col = smallest_acyclic_coloring(g)
        rep = acyclic_rep(g, col)
        assert rep.d == (col.k * (col.k - 1) if col.k >= 2 else 1)
        assert verify_representation(g, rep).valid


class TestDegenerate:
    def test_complete_universal_dimension(self):
        g = complete_graph(6)
        order, k = degeneracy_order(g)
        rep = degenerate_rep(g, order, k)
        assert rep.d == 1
        assert verify_representation(g, rep).valid

    def test_edgeless_point_dimension(self):
        g = Graph(5, frozenset())
        rep = degenerate_rep(g, list(range(5)), 0)
        assert rep.d == 1
        assert verify_representation(g, rep).valid

    def test_star_seeded_runs(self):
        g = star_graph(8)
        order, k = degeneracy_order(g)
        assert k == 1
        for seed in range(5):
            rep = degenerate_rep(g, order, 1, DegenerateStrategy(seed=seed))
            assert verify_representation(g, rep).valid

    def test_c5_budget_statistics(self):
        g = cycle_graph(5)
        order, k = degeneracy_order(g)
        assert k == 2
        s_ref = (k + 2) * _default_budget(k, g.n)
        no_fallback = 0
        for seed in range(100):
            rep = degenerate_rep(g, order, k, DegenerateStrategy(seed=seed))
            assert verify_representation(g, rep).valid
            assert rep.d <= s_ref + rep.metadata["fallback_dims"]
            assert rep.metadata["size_bound"] == s_ref + rep.metadata["fallback_dims"]
            if rep.metadata["fallback_dims"] == 0:
                no_fallback += 1
        assert no_fallback >= 90

    def test_budget_one_forces_fallback(self, monkeypatch):
        # no rounds at all: every non-edge takes a fallback dimension
        monkeypatch.setattr(builders, "_default_budget", lambda k, n: 0)
        g = cycle_graph(5)
        order, k = degeneracy_order(g)
        rep = degenerate_rep(g, order, k)
        assert rep.metadata["fallback_dims"] == 5
        assert rep.metadata["rounds_used"] == 0
        assert verify_representation(g, rep).valid

    def test_emitted_sets_are_independent(self):
        g = generate("kdegen", n=25, k=3, seed=4)
        order, k = degeneracy_order(g)
        rep = degenerate_rep(g, order, k, DegenerateStrategy(seed=9))
        full = (0, g.n + 1)
        round_dims = rep.metadata["round_dims"]
        assert round_dims >= 1
        for lo, hi in zip(rep.lo[:round_dims].tolist(), rep.hi[:round_dims].tolist()):
            members = [v for v in range(g.n) if (lo[v], hi[v]) != full]
            assert len(members) >= 2
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    assert not g.has_edge(u, v)

    def test_strategy_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            DegenerateStrategy(5)
        assert DegenerateStrategy(seed=5).seed == 5

    def test_rejects_bad_order(self, c4):
        with pytest.raises(InvalidOrder):
            degenerate_rep(c4, [0, 1, 2], 2)
        with pytest.raises(InvalidOrder):
            degenerate_rep(c4, [0, 1, 2, 3], 1)

    @given(st.integers(1, 10), st.integers(0, 20))
    def test_kill_probability_meets_reference_rate(self, k, extra):
        # a fixed non-edge with f <= 2k colored forward neighbors dies in one
        # round with probability (1/(k+2)) * (1 - 1/(k+2))^f >= e^-2/(k+2)
        f = min(extra, 2 * k)
        p = (1 / (k + 2)) * (1 - 1 / (k + 2)) ** f
        assert p >= math.exp(-2) / (k + 2)

    def test_empirical_kill_rate(self):
        # leaves 1 and 2 of a star: forward neighbor sets are both {center}
        g = star_graph(8)
        order, _ = degeneracy_order(g)
        k = 1
        rate_floor = math.exp(-2) / (k + 2)
        kills = 0
        rounds = 2000
        from boxrep.rng import SplitMix64

        rng = SplitMix64(123)
        pos = {v: i for i, v in enumerate(order)}
        fwd = {v: [w for w in g.neighbors(v) if pos[w] > pos[v]] for v in range(g.n)}
        for _ in range(rounds):
            color = [rng.below(k + 2) for _ in range(g.n)]
            u, v = 1, 2
            if color[u] == color[v] and all(
                    color[w] != color[u] for w in fwd[u] + fwd[v]):
                kills += 1
        assert kills / rounds >= rate_floor

    @given(graphs_strategy(8), st.integers(0, 1000))
    def test_always_terminates_and_verifies(self, g, seed):
        order, k = degeneracy_order(g)
        rep = degenerate_rep(g, order, k, DegenerateStrategy(seed=seed))
        assert verify_representation(g, rep).valid


class TestTrivial:
    def test_p4(self, p4):
        rep = trivial_rep(p4)
        assert rep is not None and rep.d == 1
        assert verify_representation(p4, rep).valid

    def test_c4_none(self, c4):
        assert trivial_rep(c4) is None

    def test_k1(self):
        g = Graph(1, frozenset())
        rep = trivial_rep(g)
        assert rep is not None and rep.d == 1

    @pytest.mark.parametrize("g", [Graph(12, frozenset()), complete_graph(12),
                                   path_graph(12)], ids=["edgeless", "complete", "path"])
    def test_recognition_limit_is_inclusive(self, g):
        rep = trivial_rep(g)
        assert rep is not None and rep.d == 1
        assert verify_representation(g, rep).valid

    def test_copm6_none(self):
        assert trivial_rep(generate("copm", k=6)) is None

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            trivial_rep(Graph(13, frozenset()))
