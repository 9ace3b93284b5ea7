import hashlib
import json
import math
import tracemalloc
from itertools import combinations
from unittest import mock

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
from boxrep.graph import Graph, degeneracy_order, forward_degeneracy, generate
from boxrep.intervals import verify_representation
from boxrep.rng import SplitMix64

from conftest import (assert_one_array, complete_graph, cycle_graph, path_graph,
                      random_graph, star_graph)
from test_forest_walk import is_forest
from test_graph_core import graphs_strategy


def roberts_pairs_by_restart(g):
    """Roberts' pairs by the lexicographic rule read literally: after every
    pair, restart the scan over all pairs of unused vertices."""
    pool = set(range(g.n))
    pairs = []
    while True:
        found = next(((a, b) for a, b in combinations(sorted(pool), 2)
                      if (a, b) not in g.edges), None)
        if found is None:
            return pairs
        pairs.append(found)
        pool.difference_update(found)


def good_classes(g, order, k, color):
    """The good vertices of each colour, by ascending position: those with no
    later neighbour of their own colour."""
    pos = {v: i for i, v in enumerate(order)}
    return [[v for v in order if color[v] == c
             and all(color[w] != c for w in g.neighbors(v) if pos[w] > pos[v])]
            for c in range(k + 2)]


def separated(lo, hi):
    """The pairs u < v whose intervals in one dimension are disjoint."""
    n = len(lo)
    return {(u, v) for u in range(n) for v in range(u + 1, n)
            if hi[u] < lo[v] or hi[v] < lo[u]}


def point_round(g, order, k, seed):
    """The first round of the cover that hub dimensions replaced, on the same
    colour stream: each good colour class B with at least two members
    becomes a dimension placing B at its positions and everyone else across
    the whole line [0, n+1], which separates only the pairs inside B.
    Returns the (lo, hi) rows."""
    pos = {v: i for i, v in enumerate(order)}
    rng = SplitMix64(seed)
    color = [rng.below(k + 2) for _ in range(g.n)]
    rows = []
    for members in good_classes(g, order, k, color):
        if len(members) >= 2:
            lo, hi = [0] * g.n, [g.n + 1] * g.n
            for v in members:
                lo[v] = hi[v] = pos[v] + 1
            rows.append((lo, hi))
    return rows


def hub_by_pairs(g, order, k, seed):
    """degenerate_rep's cover kept as a set of non-edge tuples: each hub
    dimension is built interval by interval from its definition and kept
    when it separates a pair still in the set; returns (lo, hi, metadata)."""
    pos = {v: i for i, v in enumerate(order)}
    uncovered = set(g.nonedges())
    if not uncovered:
        return [[0] * g.n], [[1] * g.n], {"rounds_used": 0, "round_dims": 0,
                                          "fallback_dims": 0, "size_bound": 1}
    if g.m == 0:
        points = [pos[v] + 1 for v in range(g.n)]
        return [points], [points], {"rounds_used": 0, "round_dims": 1,
                                    "fallback_dims": 0, "size_bound": 1}
    budget = builders._default_budget(g.n)
    rng = SplitMix64(seed)
    lo_rows, hi_rows = [], []
    rounds_used = 0
    while uncovered and rounds_used < budget:
        rounds_used += 1
        color = [rng.below(k + 2) for _ in range(g.n)]
        for members in good_classes(g, order, k, color):
            if not members or not uncovered:
                continue
            lo, hi = [0] * g.n, [0] * g.n
            for v in range(g.n):
                if v in members:
                    lo[v] = hi[v] = pos[v] + 1
                else:
                    hi[v] = max((pos[w] + 1 for w in g.neighbors(v) if w in members),
                                default=0)
            hit = uncovered & separated(lo, hi)
            if hit:
                uncovered -= hit
                lo_rows.append(lo)
                hi_rows.append(hi)
    fallback = 0
    for u, v in sorted(uncovered):
        lo, hi = [0] * g.n, [3] * g.n
        hi[u] = 1
        lo[v] = 2
        lo_rows.append(lo)
        hi_rows.append(hi)
        fallback += 1
    return lo_rows, hi_rows, {"rounds_used": rounds_used,
                              "round_dims": len(lo_rows) - fallback,
                              "fallback_dims": fallback,
                              "size_bound": (k + 2) * budget + fallback}


@st.composite
def cover_inputs(draw):
    """A graph, an order of it, a k it witnesses and a seed: mostly n <= 12,
    sometimes 65 <= n <= 130 and sparse, so the masks span several words."""
    if draw(st.integers(0, 4)):
        n, p_percent = draw(st.integers(1, 12)), draw(st.integers(0, 100))
    else:
        n, p_percent = draw(st.integers(65, 130)), draw(st.integers(0, 4))
    g = random_graph(n, p_percent, draw(st.integers(0, 10_000)))
    order = draw(st.permutations(range(n)))
    k = forward_degeneracy(g, order) + draw(st.integers(0, 2))
    return g, order, k, draw(st.integers(0, 2**64 - 1))


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

    @pytest.mark.parametrize("color, message", [
        ({0: 0, 1: 1, 2: 0, 5: 1}, "names a vertex outside the graph"),
        ({0: 0, 1: 1}, "must assign every vertex"),
        ({0: 0, 1: "a", 2: 0}, "mutually comparable"),
        ({0: [0], 1: [1], 2: [0]}, "hashable and mutually comparable"),
    ], ids=["outside", "missing", "incomparable", "unhashable"])
    def test_names_each_coloring_fault(self, color, message):
        with pytest.raises(InvalidColoring, match=message):
            acyclic_rep(path_graph(3), Coloring(color, 2))

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
        s_ref = (k + 2) * _default_budget(g.n)
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
        monkeypatch.setattr(builders, "_default_budget", lambda n: 0)
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
        round_dims = rep.metadata["round_dims"]
        assert round_dims >= 1
        for lo, hi in zip(rep.lo[:round_dims].tolist(), rep.hi[:round_dims].tolist()):
            # members sit at points pos+1 >= 1; everyone else starts at 0
            members = [v for v in range(g.n) if lo[v] > 0]
            assert members and all(lo[v] == hi[v] for v in members)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    assert (u, v) not in g.edges

    def test_strategy_fields_are_keyword_only(self):
        with pytest.raises(TypeError):
            DegenerateStrategy(5)
        assert DegenerateStrategy(seed=5).seed == 5

    def test_rejects_bad_order(self, c4):
        with pytest.raises(InvalidOrder):
            degenerate_rep(c4, [0, 1, 2], 2)
        with pytest.raises(InvalidOrder):
            degenerate_rep(c4, [0, 1, 2, 3], 1)

    def test_rejects_a_repeated_vertex(self):
        g = generate("kdegen", n=10, k=2, seed=1)
        order, _ = degeneracy_order(g)
        # k = 3 admits the forward degree the repeat gives order[0]
        with pytest.raises(InvalidOrder):
            degenerate_rep(g, order + [order[0]], 3)

    @pytest.mark.parametrize("k", [2.5, "3", None, 3.0])
    def test_rejects_non_integer_k(self, c4, k):
        with pytest.raises(InvalidOrder, match=f"^k must be an integer, got {k!r}$"):
            degenerate_rep(c4, [0, 1, 2, 3], k)

    def test_rejects_negative_k(self, c4):
        with pytest.raises(InvalidOrder, match="^k must be nonnegative$"):
            degenerate_rep(c4, [0, 1, 2, 3], -1)

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

    @pytest.mark.parametrize("n, seed, digest", [
        (300, 0, "89561b9fac5668eebc145e39bdb768af9b9e383dd17cfcba2536ce046e7992ce"),
        (300, 1, "4a86fcdd1778d6cfeab0b210d99f85a7205782ac38f3cabeb8731f36d6dfea0f"),
        (2000, 0, "06bd009d9ad79d3825aad583c1815aa02f12e0c855c11db46a34b7f2f14a5d54"),
        (2000, 1, "97b91210437cc4f6ded12205c6016fa6ae77418d9c78bc33e6d860870e8108cb"),
    ])
    def test_kdegen_output_is_pinned(self, n, seed, digest):
        # graphs past cover_inputs' 130 vertices, where the masks span many
        # words: lo, hi and metadata keep the bytes they had when recorded
        g = generate("kdegen", n=n, k=3, seed=0)
        order, k = degeneracy_order(g)
        rep = degenerate_rep(g, order, k, DegenerateStrategy(seed=seed))
        h = hashlib.sha256(repr(rep.lo.shape).encode())
        h.update(rep.lo.astype("<i8").tobytes())
        h.update(rep.hi.astype("<i8").tobytes())
        h.update(json.dumps(rep.metadata, sort_keys=True).encode())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("g, budget", [
        (complete_graph(4), None), (Graph(4, frozenset()), None),
        (cycle_graph(6), None), (cycle_graph(6), 0),
    ], ids=["complete", "edgeless", "hubs", "fallback"])
    def test_output_arrays_are_read_only(self, g, budget, monkeypatch):
        if budget is not None:
            monkeypatch.setattr(builders, "_default_budget", lambda n: budget)
        order, k = degeneracy_order(g)
        reps = [degenerate_rep(g, order, k), roberts_rep(g), trivial_rep(g),
                acyclic_rep(g, smallest_acyclic_coloring(g))]
        if is_forest(g):
            reps.append(forest_rep(g))
        for rep in filter(None, reps):
            assert_one_array(rep)
            assert verify_representation(g, rep).valid

    @given(graphs_strategy(8), st.integers(0, 1000))
    def test_always_terminates_and_verifies(self, g, seed):
        order, k = degeneracy_order(g)
        rep = degenerate_rep(g, order, k, DegenerateStrategy(seed=seed))
        assert verify_representation(g, rep).valid


class TestDegenerateAgainstTuples:
    """The bitmask cover against a pair-by-pair one on a set of tuples."""

    @staticmethod
    def assert_same(g, order, k, seed):
        rep = degenerate_rep(g, order, k, DegenerateStrategy(seed=seed))
        lo, hi, metadata = hub_by_pairs(g, order, k, seed)
        assert rep.lo.tolist() == lo
        assert rep.hi.tolist() == hi
        assert rep.metadata == metadata

    @given(cover_inputs(), st.sampled_from([None, 0, 1]))
    def test_same_lo_hi_and_metadata(self, case, budget):
        if budget is None:
            self.assert_same(*case)
        else:
            with mock.patch.object(builders, "_default_budget", lambda n: budget):
                self.assert_same(*case)

    @given(cover_inputs())
    def test_hub_round_separates_what_point_round_did(self, case):
        # one round of one colouring: each point dimension's class has a hub
        # dimension separating at least its pairs, unless the round's
        # earlier hub dimensions had already separated every pair
        g, order, k, seed = case
        with mock.patch.object(builders, "_default_budget", lambda n: 1):
            rep = degenerate_rep(g, order, k, DegenerateStrategy(seed=seed))
        hubs = {}
        for lo, hi in zip(rep.lo[:rep.metadata["round_dims"]].tolist(),
                          rep.hi[:rep.metadata["round_dims"]].tolist()):
            members = frozenset(v for v in range(g.n) if lo[v] > 0)
            hubs[members] = separated(lo, hi)
        covered = set().union(*hubs.values())
        for lo, hi in point_round(g, order, k, seed):
            pairs = separated(lo, hi)
            members = frozenset(v for v in range(g.n) if hi[v] <= g.n)
            if members in hubs:
                assert pairs <= hubs[members]
            else:
                assert rep.metadata["fallback_dims"] == 0
            assert pairs <= covered

    @pytest.mark.parametrize("n", [1, 2, 7, 70])
    @pytest.mark.parametrize("dense", [False, True], ids=["edgeless", "complete"])
    def test_edgeless_and_complete(self, n, dense):
        g = complete_graph(n) if dense else Graph(n, frozenset())
        order = list(range(n))[::-1]
        self.assert_same(g, order, forward_degeneracy(g, order), 3)

    def test_peak_memory_near_output_size(self, monkeypatch):
        # the cover must hold two lists of n masks of n bits (uncovered pairs
        # and neighbours), O(n + m) lists and index arrays, and the output
        g = generate("kdegen", n=1000, k=3, seed=1)
        order, k = degeneracy_order(g)
        rep = degenerate_rep(g, order, k)
        # replay the same colors from a list: tracing every allocation of the
        # generator's 64-bit arithmetic would take ten seconds
        rng = SplitMix64(0)
        colors = iter([rng.below(k + 2)
                       for _ in range(rep.metadata["rounds_used"] * g.n)])

        class Replay:
            def __init__(self, seed):
                pass

            def below_many(self, n, count):
                return [next(colors) for _ in range(count)]

        monkeypatch.setattr(builders, "SplitMix64", Replay)
        tracemalloc.start()
        try:
            again = degenerate_rep(g, order, k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(again.lo, rep.lo) and np.array_equal(again.hi, rep.hi)
        # an int of n bits takes n/8 bytes, its header and list slot 36 more
        masks = 2 * g.n * (g.n // 8 + 36)
        linear = 128 * (g.n + 2 * g.m)
        assert peak <= masks + linear + rep.lo.nbytes + rep.hi.nbytes


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
