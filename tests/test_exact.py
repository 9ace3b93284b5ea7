import gc
import inspect
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

from boxrep import exact
from boxrep.builders import degenerate_rep, roberts_rep
from boxrep.errors import SizeLimitExceeded
from boxrep.exact import (POSET_GROUND_LIMIT, _comatching, _conflict_masks,
                          _critical_pairs, _maximal_keepable, _min_cover,
                          _order_masks, exact_boxicity, exact_poset_dimension)
from boxrep.graph import Graph, _max_clique, components, degeneracy_order, generate
from boxrep.intervals import RECOGNITION_LIMIT, interval_order
from boxrep.pipelines import edge_pipeline
from boxrep.poset import FinitePoset, adjacency_poset
from boxrep.rng import SplitMix64

from conftest import (all_graphs_upto, complete_bipartite, complete_graph, cycle_graph,
                      path_graph, petersen_graph, random_graph)
from test_graph_core import graphs_strategy


def keepable(comp, nonedges, mask):
    """Whether the complete graph minus the non-edges in `mask` is interval."""
    dropped = {e for i, e in enumerate(nonedges) if (mask >> i) & 1}
    return interval_order(Graph(comp.n, frozenset(
        e for e in combinations(range(comp.n), 2) if e not in dropped))) is not None


def maximal_masks(masks):
    """The masks inside no other, largest first, then ascending."""
    maximal = []
    for m in sorted(masks, key=lambda m: (-bin(m).count("1"), m)):
        if not any(m | kept == kept for kept in maximal):
            maximal.append(m)
    return maximal


def subset_maximal_keepable(comp, nonedges):
    """Reference for `_maximal_keepable`, straight from the definition: test
    every subset F of the non-edges for K - F being interval, then keep the
    maximal ones, largest first, then ascending."""
    return maximal_masks(m for m in range(1 << len(nonedges))
                         if keepable(comp, nonedges, m))


def dp_boxicity(g):
    """Reference for `exact_boxicity` with no shortcut: per component, the
    minimum cover of its non-edges by the ordering program's sets."""
    best = 1
    for comp, _ in components(g):
        nonedges = list(comp.nonedges())
        if nonedges:
            best = max(best, _min_cover((1 << len(nonedges)) - 1,
                                        _maximal_keepable(comp, nonedges), 1))
    return best


def counting_maximal_keepable(monkeypatch):
    """Wrap `exact._maximal_keepable` so each call is counted; returns the
    list the calls are appended to."""
    calls = []
    inner = exact._maximal_keepable

    def counted(comp, nonedges):
        calls.append(comp.n)
        return inner(comp, nonedges)

    monkeypatch.setattr(exact, "_maximal_keepable", counted)
    return calls


@st.composite
def near_complete_graphs(draw, max_n=7):
    """K_n for 6 <= n <= max_n minus a random matching and up to two more
    pairs. K6 minus a perfect matching is copm(3), of boxicity 3, which the
    co-matching bound settles; a smaller matching leaves the program a
    lower bound of 2 to start from."""
    n = draw(st.integers(6, max_n))
    pairs = list(combinations(range(n), 2))
    perm = draw(st.permutations(range(n)))
    k = draw(st.integers(0, n // 2))
    missing = {tuple(sorted(perm[2 * i:2 * i + 2])) for i in range(k)}
    missing |= draw(st.sets(st.sampled_from(pairs), max_size=2))
    return Graph(n, frozenset(pairs) - missing)


@st.composite
def sparse_connected_graphs(draw):
    """A random tree on 8 to 10 vertices plus up to four chords, kept when it
    has more than 20 non-edges, all in its one component."""
    n = draw(st.integers(8, 10))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    edges |= draw(st.sets(st.sampled_from(list(combinations(range(n), 2))),
                          max_size=4))
    assume(n * (n - 1) // 2 - len(edges) > 20)
    return Graph.from_edges(n, edges)


class TestBoundShortcuts:
    @given(graphs_strategy(7))
    def test_matches_dp_on_random_graphs(self, g):
        assert exact_boxicity(g) == dp_boxicity(g)

    @given(near_complete_graphs())
    def test_matches_dp_on_near_complete_graphs(self, g):
        assert exact_boxicity(g) == dp_boxicity(g)

    def test_matches_dp_on_every_graph_up_to_five_vertices(self):
        for g in all_graphs_upto(5):
            assert exact_boxicity(g) == dp_boxicity(g), sorted(g.edges)

    def test_no_dp_up_to_five_vertices_or_on_p6(self, monkeypatch):
        calls = counting_maximal_keepable(monkeypatch)
        for g in all_graphs_upto(5):
            exact_boxicity(g)
        assert exact_boxicity(path_graph(6)) == 1
        assert calls == []

    @given(sparse_connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_matches_dp_on_sparse_graphs_past_twenty_nonedges(self, g):
        assert exact_boxicity(g) == dp_boxicity(g)

    def test_no_components_split_up_to_five_vertices(self, monkeypatch):
        # a graph on at most 5 vertices is settled whole; from 6 vertices on
        # it is split into components
        calls = []

        def counted(g):
            calls.append(g.n)
            return components(g)

        monkeypatch.setattr(exact, "components", counted)
        for g in all_graphs_upto(5):
            exact_boxicity(g)
        assert calls == []
        assert exact_boxicity(path_graph(6)) == 1
        assert calls == [6]

    def test_dp_runs_when_no_bound_settles(self, monkeypatch):
        # C6 has no induced C4, so no co-matching of 2 pairs; it is not
        # interval, and 2 < 6 // 2, so only the program can answer
        calls = counting_maximal_keepable(monkeypatch)
        assert exact_boxicity(cycle_graph(6)) == 2
        assert calls == [6]

    @pytest.mark.parametrize("k", [3, 4, 5, 6])
    def test_comatching_settles_copm_without_dp(self, k, monkeypatch):
        calls = counting_maximal_keepable(monkeypatch)
        assert exact_boxicity(generate("copm", k=k)) == k
        assert calls == []


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
        assert interval_order(c5) is None
        assert exact_boxicity(c5) == 2

    def test_graphs_with_more_than_twenty_nonedges(self):
        # 35, 30 and 21 non-edges in one component
        assert exact_boxicity(cycle_graph(10)) == 2
        assert exact_boxicity(petersen_graph()) == 3
        assert exact_boxicity(path_graph(8)) == 1

    def test_repeated_components_are_solved_once(self, monkeypatch):
        solve = exact._component_boxicity
        calls = []

        def counting_solve(comp):
            calls.append(comp.n)
            return solve(comp)

        monkeypatch.setattr(exact, "_component_boxicity", counting_solve)
        p = petersen_graph()
        three = Graph.from_edges(30, [(u + 10 * i, v + 10 * i)
                                      for i in range(3) for u, v in p.edges])
        assert exact_boxicity(three) == 3
        assert calls == [10]
        # a second call solves afresh, and a different component is its own key
        with_c5 = Graph.from_edges(15, [*p.edges, *((u + 10, v + 10)
                                                    for u, v in cycle_graph(5).edges)])
        assert exact_boxicity(with_c5) == 3
        assert calls == [10, 10, 5]

    def test_edgeless_and_empty(self):
        assert exact_boxicity(Graph(4, frozenset())) == 1
        assert exact_boxicity(Graph(1, frozenset())) == 1

    def test_interval_iff_one(self):
        for seed in range(20):
            g = random_graph(6, 50, seed)
            assert (exact_boxicity(g) == 1) == (interval_order(g) is not None)

    def test_takes_the_graph_alone(self):
        assert list(inspect.signature(exact_boxicity).parameters) == ["g"]

    def test_size_limits_raise(self):
        assert RECOGNITION_LIMIT == 12
        assert exact_boxicity(path_graph(12)) == 1
        with pytest.raises(SizeLimitExceeded,
                           match="component has 13 vertices, limit 12$"):
            exact_boxicity(path_graph(13))

    def test_recognition_limit_caps_max_vertices(self):
        # copm(7) has 14 vertices: above the interval-recognition limit,
        # which is the only size limit exact boxicity has
        with pytest.raises(SizeLimitExceeded,
                           match=f"component has 14 vertices, limit {RECOGNITION_LIMIT}$"):
            exact_boxicity(generate("copm", k=7))

    def test_limits_apply_per_component(self):
        # two disjoint copm(6): 24 vertices in all, 12 in each component;
        # copm(6) beside C13 has a component over the limit
        copm6 = generate("copm", k=6)
        two = Graph.from_edges(24, [*copm6.edges,
                                    *((u + 12, v + 12) for u, v in copm6.edges)])
        assert exact_boxicity(two) == 6
        mixed = Graph.from_edges(25, [*copm6.edges, *((u + 12, v + 12)
                                                      for u, v in cycle_graph(13).edges)])
        with pytest.raises(SizeLimitExceeded,
                           match="component has 13 vertices, limit 12$"):
            exact_boxicity(mixed)

    @given(graphs_strategy(6))
    def test_ordering_dp_matches_subset_enumeration(self, g):
        # a component on at most 6 vertices has at most 10 non-edges; the
        # program offers keepable sets only, every maximal one among them
        for comp, _ in components(g):
            nonedges = list(comp.nonedges())
            offered = _maximal_keepable(comp, nonedges)
            assert all(keepable(comp, nonedges, m) for m in offered)
            assert maximal_masks(offered) == subset_maximal_keepable(comp, nonedges)

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


def induces_comatching(g, pairs):
    """Whether the endpoints of `pairs` are 2k distinct vertices, any two of
    them adjacent in `g` exactly when they are not one of the pairs, so that
    they induce copm(k); read from `g.edges` alone."""
    ends = [v for pair in pairs for v in pair]
    matched = {tuple(sorted(pair)) for pair in pairs}
    return len(set(ends)) == len(ends) and all(
        ((u, v) in g.edges) != ((u, v) in matched)
        for u, v in combinations(sorted(ends), 2))


def largest_comatching(g):
    """The most pairs of an induced co-matching in `g`, by brute force over
    vertex sets, largest first: a set of 2k vertices induces copm(k) iff
    each of them has exactly one non-neighbour in it."""
    others = [((1 << g.n) - 1) ^ (1 << v) for v in range(g.n)]
    for u, v in g.edges:  # others[v]: v's non-neighbours, from g.edges
        others[u] ^= 1 << v
        others[v] ^= 1 << u
    for size in range(g.n - g.n % 2, 0, -2):
        for verts in combinations(range(g.n), size):
            inside = sum(1 << v for v in verts)
            if all((others[v] & inside).bit_count() == 1 for v in verts):
                return size // 2
    return 0


class TestComatching:
    """`_comatching`'s pairs are a largest induced co-matching, and their
    number k bounds boxicity from below. Every graph on at most 6 vertices
    checks the witness and Roberts' d; exact boxicity, the degenerate cover
    and the edge pipeline, which take far longer per graph, are compared on
    random graphs of at most 9 vertices."""

    def witness_size(self, g):
        pairs = _comatching(g, list(g.nonedges()))
        assert all(u < v and (u, v) not in g.edges for u, v in pairs)
        assert induces_comatching(g, pairs)
        assert len(pairs) == largest_comatching(g)
        return len(pairs)

    def test_every_graph_up_to_six_vertices(self):
        for g in all_graphs_upto(6):
            assert self.witness_size(g) <= roberts_rep(g).d, sorted(g.edges)

    @given(st.one_of(graphs_strategy(9), near_complete_graphs(max_n=9)))
    @settings(deadline=None)
    def test_random_graphs_up_to_nine_vertices(self, g):
        k = self.witness_size(g)
        assert k <= exact_boxicity(g)
        assert k <= roberts_rep(g).d
        assert k <= degenerate_rep(g, *degeneracy_order(g)).d
        if g.n >= 2:
            assert k <= edge_pipeline(g)[0].d

    @pytest.mark.parametrize("k", [1, 2, 3, 6])
    def test_copm_gives_its_own_matching(self, k):
        g = generate("copm", k=k)
        assert sorted(_comatching(g, list(g.nonedges()))) == [
            (2 * i, 2 * i + 1) for i in range(k)]


@st.composite
def covering_set_systems(draw):
    """Up to 10 nonempty sets over up to 12 bits, and a nonempty universe
    inside their union."""
    bits = draw(st.integers(1, 12))
    sets = draw(st.lists(st.integers(1, (1 << bits) - 1), min_size=1, max_size=10))
    union = 0
    for s in sets:
        union |= s
    universe = union & draw(st.integers(0, (1 << bits) - 1))
    assume(universe)
    return universe, sets


def brute_force_cover(universe, sets):
    """The fewest sets whose union holds `universe`, over all combinations."""
    for r in range(1, len(sets) + 1):
        for combo in combinations(sets, r):
            union = 0
            for s in combo:
                union |= s
            if union & universe == universe:
                return r
    raise AssertionError("sets do not cover the universe")


def grid_graph(rows, cols):
    return Graph.from_edges(rows * cols, [
        *((r * cols + c, r * cols + c + 1) for r in range(rows) for c in range(cols - 1)),
        *((r * cols + c, (r + 1) * cols + c) for r in range(rows - 1) for c in range(cols))])


def with_chords(g, *chords):
    return Graph.from_edges(g.n, g.edges | set(chords))


def complement(g):
    return Graph.from_edges(g.n, g.nonedges())


def circulant_graph(n, steps):
    return Graph.from_edges(n, {tuple(sorted((i, (i + s) % n)))
                                for i in range(n) for s in steps})


class TestMinCover:
    @given(covering_set_systems())
    @settings(max_examples=200)
    def test_matches_brute_force(self, system):
        best = brute_force_cover(*system)
        # any start at or below the minimum finds the minimum
        for least in range(1, best + 1):
            assert _min_cover(*system, least) == best

    def test_sets_that_miss_an_element_fail_loudly(self):
        with pytest.raises(AssertionError, match="do not cover"):
            _min_cover(0b111, [0b011, 0b001], 1)

    @pytest.mark.parametrize("g, box", [
        (with_chords(cycle_graph(10), (0, 5), (2, 7)), 2),
        (petersen_graph(), 3),
        (generate("copm", k=5), 5),
        (generate("copm", k=6), 6),
        (grid_graph(3, 4), 2),
        (circulant_graph(12, (1, 3)), 2),
        (cycle_graph(12), 2),
        (with_chords(cycle_graph(12), (0, 6), (3, 9)), 2),
    ], ids=["c10_two_chords", "petersen", "copm5", "copm6", "grid3x4",
            "circulant12_1_3", "c12", "c12_two_chords"])
    def test_ten_to_twelve_vertices(self, g, box):
        assert exact_boxicity(g) == box

    @pytest.mark.parametrize("g, box", [
        (cycle_graph(11), 2),
        # the complement of C_n has boxicity ceil(n / 3) (Cozzens and Roberts)
        (complement(cycle_graph(11)), 4),
        (complement(cycle_graph(12)), 4),
        # a complete multipartite graph: one dimension per part of size >= 2
        (complete_bipartite(6, 6), 2),
        (Graph.from_edges(12, [(u, v) for u, v in combinations(range(12), 2)
                               if u // 4 != v // 4]), 3),
        (circulant_graph(12, (1, 4)), 3),
        (complement(circulant_graph(12, (1, 4))), 4),
        (grid_graph(2, 6), 2),
    ], ids=["c11", "co_c11", "co_c12", "k6_6", "k4_4_4", "circulant12_1_4",
            "co_circulant12_1_4", "grid2x6"])
    def test_eleven_and_twelve_vertices_answer_by_default(self, g, box):
        assert g.n in (11, 12)
        assert exact_boxicity(g) == box


def search_from_two(p):
    """Reference for `exact_poset_dimension`: the same realizer search with
    no lower bound and no pre-placed pairs, trying d = 2, 3, ... in turn."""
    n = p.ground_size
    if n <= 1:
        return 1
    below, above = _order_masks(p)
    has_incomparable = any(
        not ((above[a] >> b) & 1 or (below[a] >> b) & 1)
        for a in range(n) for b in range(a + 1, n))
    if not has_incomparable:
        return 1
    crit = _critical_pairs(n, below, above)

    base = [above[x] for x in range(n)]  # reach[x] = elements forced after x

    def closed_add(reach: tuple, before: int, after: int) -> tuple | None:
        # add constraint: `before` precedes `after`; None when it cycles
        if (reach[after] >> before) & 1:
            return None
        new = list(reach)
        gained = (1 << after) | new[after]
        for x in range(n):
            if x == before or (new[x] >> before) & 1:
                if (new[x] | gained) != new[x]:
                    new[x] |= gained
        new[before] |= gained
        return tuple(new)

    def covered(reach: tuple, a: int, b: int) -> bool:
        # pair (a, b) is reversed when b is forced before a
        return bool((reach[b] >> a) & 1)

    def search(d: int) -> bool:
        start = tuple(base)
        slots = [start] * d

        def dfs(uncovered: list) -> bool:
            live = [(a, b) for a, b in uncovered
                    if not any(covered(s, a, b) for s in slots)]
            if not live:
                return True
            # fail-first: the pair with the fewest feasible slots
            options = []
            for a, b in live:
                feas = [i for i in range(d) if not (slots[i][a] >> b) & 1]
                options.append(((a, b), feas))
                if not feas:
                    return False
            options.sort(key=lambda t: len(t[1]))
            (a, b), feas = options[0]
            tried = set()
            for i in feas:
                if slots[i] in tried:
                    continue
                tried.add(slots[i])
                new = closed_add(slots[i], b, a)
                if new is None:
                    continue
                old = slots[i]
                slots[i] = new
                if dfs(live):
                    return True
                slots[i] = old
            return False

        return dfs(crit)

    for d in range(2, n + 1):
        if search(d):
            return d
    return n


def pairwise_conflict_masks(crit, above):
    """Reference for `_conflict_masks`: bit j of entry i is set iff critical
    pairs i = (a, b) and j = (c, d) have a <= d and c <= b, tested pair by
    pair."""
    up = [above[x] | 1 << x for x in range(len(above))]  # up[x]: elements >= x
    return [sum(1 << j for j, (c, d) in enumerate(crit)
                if (up[a] >> d) & 1 and (up[c] >> b) & 1)
            for a, b in crit]


def rescanning_poset_dimension(p):
    """Reference for `exact_poset_dimension`: the same clique-seeded search
    with no twin reduction, which rescans every uncovered pair against
    every slot at each node."""
    n = p.ground_size
    below, above = _order_masks(p)
    crit = _critical_pairs(n, below, above)
    if not crit:
        return 1
    clique = [crit[i] for i in _max_clique(pairwise_conflict_masks(crit, above))]

    base = tuple(above)

    def closed_add(reach, before, after):
        new = list(reach)
        gained = (1 << after) | new[after]
        for x in range(n):
            if x == before or (new[x] >> before) & 1:
                new[x] |= gained
        return tuple(new)

    def search(d):
        slots = [closed_add(base, b, a) for a, b in clique]
        slots += [base] * (d - len(clique))

        def dfs(uncovered):
            live = [(a, b) for a, b in uncovered
                    if not any((s[b] >> a) & 1 for s in slots)]
            if not live:
                return True
            options = []
            for a, b in live:
                feas = [i for i in range(d) if not (slots[i][a] >> b) & 1]
                if not feas:
                    return False
                options.append(((a, b), feas))
            options.sort(key=lambda t: len(t[1]))
            (a, b), feas = options[0]
            tried = set()
            for i in feas:
                if slots[i] in tried:
                    continue
                tried.add(slots[i])
                old = slots[i]
                slots[i] = closed_add(old, b, a)
                if dfs(live):
                    return True
                slots[i] = old
            return False

        return dfs(crit)

    d = max(2, len(clique))
    while not search(d):
        d += 1
    return d


def clique_bound(p):
    """The size of the largest set of pairwise conflicting critical pairs."""
    below, above = _order_masks(p)
    crit = _critical_pairs(p.ground_size, below, above)
    return len(_max_clique(_conflict_masks(crit, above)))


@st.composite
def posets_strategy(draw, max_n=8):
    """A random DAG on a shuffled order of 0..n-1, transitively closed; with
    `split`, every arc runs from the first half of the order to the second,
    so the poset has height at most 2, as adjacency posets do."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(n)))
    split = draw(st.booleans())
    pairs = [(i, j) for i, j in combinations(range(n), 2)
             if not split or i < n // 2 <= j]
    arcs = draw(st.sets(st.sampled_from(pairs))) if pairs else ()
    above = [0] * n  # over positions in `order`; arcs go forward only
    for i, j in arcs:
        above[i] |= 1 << j
    for i in reversed(range(n)):
        for j in range(i + 1, n):
            if (above[i] >> j) & 1:
                above[i] |= above[j]
    return FinitePoset(n, frozenset((order[i], order[j]) for i in range(n)
                                    for j in range(n) if (above[i] >> j) & 1))


@st.composite
def posets_with_twins_strategy(draw):
    """A `posets_strategy` poset with random elements duplicated, each copy
    a twin of its original (same strict down-set and up-set), relabelled
    at random; at most POSET_GROUND_LIMIT elements in all."""
    p = draw(posets_strategy())
    n = p.ground_size
    count = draw(st.integers(1, POSET_GROUND_LIMIT - n))
    p = with_twins(p, draw(st.lists(st.integers(0, n - 1),
                                    min_size=count, max_size=count)))
    perm = draw(st.permutations(range(p.ground_size)))
    return FinitePoset(p.ground_size,
                       frozenset((perm[a], perm[b]) for a, b in p.strict))


@st.composite
def disjoint_sums_strategy(draw):
    """Two `posets_strategy` posets side by side, relabelled at random; at
    most POSET_GROUND_LIMIT elements in all. Returns the sum and its parts."""
    p = draw(posets_strategy())
    q = draw(posets_strategy(max_n=POSET_GROUND_LIMIT - p.ground_size))
    n = p.ground_size + q.ground_size
    perm = draw(st.permutations(range(n)))
    shift = p.ground_size
    strict = {(perm[a], perm[b]) for a, b in p.strict}
    strict |= {(perm[a + shift], perm[b + shift]) for a, b in q.strict}
    return FinitePoset(n, frozenset(strict)), p, q


def disjoint_union(g, h):
    """g beside h, with h's vertices shifted past g's."""
    return Graph.from_edges(g.n + h.n, [*g.edges, *((u + g.n, v + g.n) for u, v in h.edges)])


def with_twins(p, originals):
    """The poset with a new element n + i, a twin of originals[i], for each i."""
    twin_of = list(range(p.ground_size)) + list(originals)
    return FinitePoset(len(twin_of), frozenset(
        (x, y) for x, a in enumerate(twin_of)
        for y, b in enumerate(twin_of) if (a, b) in p.strict))


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

    @given(posets_strategy())
    @settings(max_examples=200)
    def test_matches_search_from_two_on_random_posets(self, p):
        dim = exact_poset_dimension(p)
        assert dim == search_from_two(p)
        assert dim == rescanning_poset_dimension(p)
        assert clique_bound(p) <= dim

    def test_matches_search_from_two_on_small_adjacency_posets(self):
        for g in all_graphs_upto(4):
            p = adjacency_poset(g)
            dim = exact_poset_dimension(p)
            assert dim == search_from_two(p)
            assert clique_bound(p) <= dim

    def test_clique_bound_is_tight_on_standard_examples(self):
        for n in (3, 4, 5):
            assert clique_bound(adjacency_poset(complete_graph(n))) == n

    def test_k4_beside_an_isolated_vertex(self):
        # K4 on {1, 2, 3, 4} plus vertex 0: `search_from_two` takes up to a
        # second on this labelling, against about 10 ms with K4 on {0, 1, 2, 3}
        g = Graph(5, frozenset(combinations(range(1, 5), 2)))
        p = adjacency_poset(g)
        assert clique_bound(p) == 4
        assert exact_poset_dimension(p) == 4

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


class TestTwinReduction:
    def test_edgeless_adjacency_poset_is_two(self):
        # ten pairwise incomparable elements, all twins of each other
        p = adjacency_poset(Graph(5, frozenset()))
        assert p.ground_size == 10 and not p.strict
        assert exact_poset_dimension(p) == 2

    def test_chain_plus_a_twin_is_two(self):
        assert exact_poset_dimension(with_twins(chain(4), [1])) == 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_doubled_standard_examples_keep_their_dimension(self, n, monkeypatch):
        # 4n elements exceed the ground-set limit, so the check is made with
        # a raised limit; the reduction gets back adjacency_poset(K_n)
        p = adjacency_poset(complete_graph(n))
        p = with_twins(p, range(p.ground_size))
        with pytest.raises(SizeLimitExceeded):
            exact_poset_dimension(p)
        monkeypatch.setattr(exact, "POSET_GROUND_LIMIT", p.ground_size)
        assert exact_poset_dimension(p) == n

    @pytest.mark.parametrize("g, dim, sizes", [
        # C4's adjacency poset is two copies of a 4-element poset, each of two
        # twin pairs; after the twin reduction C4 + K1 leaves two 2-element
        # chains and one element for K1
        (disjoint_union(cycle_graph(4), path_graph(1)), 2, [2, 2]),
        # K3 gives one 6-element component, K2 two 2-element chains
        (disjoint_union(complete_graph(3), path_graph(2)), 3, [6, 2, 2]),
    ], ids=["c4_k1", "k3_k2"])
    def test_components_are_solved_once_each(self, g, dim, sizes, monkeypatch):
        solve = exact._realizer_size
        calls = []

        def counted(below, above):
            calls.append(len(below))
            return solve(below, above)

        monkeypatch.setattr(exact, "_realizer_size", counted)
        p = adjacency_poset(g)
        assert exact_poset_dimension(p) == dim == rescanning_poset_dimension(p)
        assert calls == sizes

    def test_limit_reads_the_ground_set_before_reduction(self):
        # eleven twins reduce to one element, but the input is over the limit
        with pytest.raises(SizeLimitExceeded, match="ground set 11"):
            exact_poset_dimension(FinitePoset(11, frozenset()))
        p = with_twins(adjacency_poset(path_graph(5)), [0])
        with pytest.raises(SizeLimitExceeded, match="ground set 11"):
            exact_poset_dimension(p)


class TestAgainstRescanningSearch:
    @given(posets_with_twins_strategy())
    @settings(max_examples=200)
    def test_random_posets_with_twins(self, p):
        assert exact_poset_dimension(p) == rescanning_poset_dimension(p)

    @given(posets_strategy(max_n=POSET_GROUND_LIMIT))
    @settings(max_examples=100)
    def test_random_posets_up_to_the_limit(self, p):
        assert exact_poset_dimension(p) == rescanning_poset_dimension(p)

    @given(disjoint_sums_strategy())
    @settings(max_examples=200)
    def test_disjoint_sums(self, case):
        s, p, q = case
        dim = exact_poset_dimension(s)
        assert dim == rescanning_poset_dimension(s)
        assert dim == max(2, rescanning_poset_dimension(p), rescanning_poset_dimension(q))

    @given(posets_with_twins_strategy())
    def test_conflict_masks_match_pairwise(self, p):
        below, above = _order_masks(p)
        crit = _critical_pairs(p.ground_size, below, above)
        assert _conflict_masks(crit, above) == pairwise_conflict_masks(crit, above)


def test_recursive_searches_leave_no_reference_cycles():
    # interval_order, _min_cover, _realizer_size and _max_clique each recurse
    # through a nested function; none may leave garbage for the collector
    def searches():
        interval_order(cycle_graph(5))
        exact_boxicity(generate("copm", k=3))
        exact_boxicity(cycle_graph(6))
        exact_poset_dimension(adjacency_poset(complete_graph(3)))
        exact_poset_dimension(adjacency_poset(disjoint_union(complete_graph(3),
                                                             path_graph(2))))
        _max_clique(petersen_graph().neighbor_masks())

    searches()
    gc.collect()
    gc.disable()
    try:
        searches()
        assert gc.collect() == 0
    finally:
        gc.enable()
