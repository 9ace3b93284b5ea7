"""`forest_walk` and its three callers against the union-find versions they
replaced, which stay here as references."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boxrep.builders import _points, acyclic_rep, forest_rep
from boxrep.coloring import ACYCLIC_LIMIT, Coloring, acyclic_coloring
from boxrep.errors import BoxrepError, InvalidColoring, NotAForest, SizeLimitExceeded
from boxrep.graph import Graph, forest_walk
from boxrep.intervals import BoxRepresentation, extend_universal

from conftest import cycle_graph, path_graph
from test_graph_core import graphs_strategy


# ---------------------------------------------------------------------------
# references: the union-find checks and the builders as they were before the walk


def is_forest(g):
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_proper(g, color):
    return all(color[u] != color[v] for u, v in g.edges)


def pair_classes_induce_forests(g, color):
    """Every two color classes induce a forest."""
    classes = {}
    for v, c in color.items():
        classes.setdefault(c, []).append(v)
    for ci, cj in combinations(sorted(classes), 2):
        sub, _ = g.induced(set(classes[ci]) | set(classes[cj]))
        if not is_forest(sub):
            return False
    return True


def validate_acyclic(g, coloring):
    color = coloring.color
    if not set(color) <= set(range(g.n)):
        raise InvalidColoring("coloring names a vertex outside the graph")
    if set(color) != set(range(g.n)):
        raise InvalidColoring("coloring must assign every vertex")
    if not is_proper(g, color):
        raise InvalidColoring("coloring is not proper")
    if not pair_classes_induce_forests(g, color):
        raise InvalidColoring("two color classes induce a cycle")


def forest_rep_reference(forest):
    if not is_forest(forest):
        raise NotAForest("input graph contains a cycle")
    depth, pre, post = [0] * forest.n, [0] * forest.n, [0] * forest.n
    counter = 0
    seen = [False] * forest.n
    for root in range(forest.n):
        if seen[root]:
            continue
        stack = [(root, 0, False)]
        seen[root] = True
        while stack:
            v, d, done = stack.pop()
            if done:
                post[v] = counter
                counter += 1
                continue
            depth[v] = d
            pre[v] = counter
            counter += 1
            stack.append((v, d, True))
            for w in sorted(forest.neighbors(v), reverse=True):
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, d + 1, False))
    ends = np.array([depth, pre, [d + 1 for d in depth], post], dtype=np.int64)
    return BoxRepresentation(forest.n, ends[:2], ends[2:])


def acyclic_rep_reference(g, coloring):
    validate_acyclic(g, coloring)
    classes = {}
    for v, c in coloring.color.items():
        classes.setdefault(c, []).append(v)
    k = len(classes)
    if k <= 1:
        return _points(g.n, colors=k)
    lifted = []
    for ci, cj in combinations(sorted(classes), 2):
        sub, members = g.induced(set(classes[ci]) | set(classes[cj]))
        lifted.append(extend_universal(forest_rep_reference(sub), members, g.n))
    lo = np.concatenate([r.lo for r in lifted])
    hi = np.concatenate([r.hi for r in lifted])
    return BoxRepresentation(g.n, lo, hi, {"colors": k})


def acyclic_coloring_reference(g, k_max):
    if g.n > ACYCLIC_LIMIT:
        raise SizeLimitExceeded(f"acyclic_coloring limited to n <= {ACYCLIC_LIMIT}")
    if k_max < 1:
        return None
    if g.n == 0:
        return Coloring({}, 0)
    color = {}

    def creates_bichromatic_cycle(c):
        for other in {color[w] for w in color if color[w] != c}:
            sub, _ = g.induced(w for w in color if color[w] in (c, other))
            if not is_forest(sub):
                return True
        return False

    def extend(v, used):
        if v == g.n:
            return True
        banned = {color[w] for w in g.neighbors(v) if w in color}
        for c in range(min(k_max, used + 1)):
            if c in banned:
                continue
            color[v] = c
            if not creates_bichromatic_cycle(c) and extend(v + 1, max(used, c + 1)):
                return True
            del color[v]
        return False

    if not extend(0, 0):
        return None
    return Coloring(dict(color), len(set(color.values())))


# ---------------------------------------------------------------------------
# helpers


def outcome(build, *args):
    """A representation's arrays and metadata, or the type of the error raised."""
    try:
        rep = build(*args)
    except BoxrepError as exc:
        return type(exc)
    return rep.lo.tolist(), rep.hi.tolist(), rep.metadata


@st.composite
def colorings(draw, max_n=12):
    """A graph and a coloring of it: proper, or proper with a bichromatic
    even cycle laid through the graph, or improper, missing a vertex, or
    naming one outside the graph."""
    g = draw(graphs_strategy(max_n))
    flaw = draw(st.sampled_from(["none", "cyclic", "improper", "missing", "extra"]))
    color = {}
    if flaw == "cyclic" and g.n >= 4:
        ring = draw(st.permutations(range(g.n)))[:2 * draw(st.integers(2, g.n // 2))]
        sides = set(ring[::2]), set(ring[1::2])
        edges = {e for e in g.edges if not any(set(e) <= side for side in sides)}
        edges |= set(zip(ring, ring[1:] + ring[:1]))
        g = Graph.from_edges(g.n, edges)
        color = {v: g.n + i % 2 for i, v in enumerate(ring)}
    k = draw(st.integers(1, 5))
    for v in draw(st.permutations(range(g.n))):
        if v in color:
            continue
        taken = {color[w] for w in g.neighbors(v) if w in color}
        wish = draw(st.integers(0, k - 1))
        color[v] = wish if wish not in taken else min(set(range(g.n + 1)) - taken)
    if flaw == "improper" and g.m:
        u, v = draw(st.sampled_from(sorted(g.edges)))
        color[u] = color[v]
    elif flaw == "missing" and g.n:
        del color[draw(st.integers(0, g.n - 1))]
    elif flaw == "extra":
        color[g.n + draw(st.integers(0, 2))] = 0
    return g, Coloring(color, len(set(color.values())))


# ---------------------------------------------------------------------------
# differential tests


class TestAgainstReferences:
    @given(graphs_strategy(12))
    def test_forest_rep(self, g):
        walk = forest_walk(g, [0] * g.n, (0,), range(g.n))
        assert (walk is not None) == is_forest(g)
        assert outcome(forest_rep, g) == outcome(forest_rep_reference, g)

    @given(colorings())
    def test_acyclic_rep(self, case):
        g, coloring = case
        assert outcome(acyclic_rep, g, coloring) == \
            outcome(acyclic_rep_reference, g, coloring)

    @given(graphs_strategy(12), st.integers(1, 4))
    def test_acyclic_coloring(self, g, k_max):
        found = acyclic_coloring(g, k_max)
        assert found == acyclic_coloring_reference(g, k_max)
        if found is not None:
            validate_acyclic(g, found)


# ---------------------------------------------------------------------------
# targeted cycles


def triangle_after_a_tree():
    """A tree on 0..2 rooted at 0, then a triangle on 3, 4, 5."""
    return Graph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (3, 5)])


def c4_with_a_pendant():
    """The 4-cycle 2-3-4-5 and the pendant edge 0-5; vertex 1 is isolated."""
    return Graph.from_edges(6, [(2, 3), (3, 4), (4, 5), (2, 5), (0, 5)])


class TestTargetedCycles:
    def test_triangle_away_from_the_first_root(self):
        g = triangle_after_a_tree()
        assert forest_walk(g, [0] * 6, (0,), range(3)) is not None
        assert forest_walk(g, [0] * 6, (0,), range(6)) is None
        with pytest.raises(NotAForest):
            forest_rep(g)

    def test_cycle_closed_through_a_pushed_vertex(self):
        # from 0, vertices 1 and 3 are pushed; entering 2 from 1 meets 3,
        # which has been pushed but not yet entered
        assert forest_walk(cycle_graph(4), [0] * 4, (0,), [0]) is None
        with pytest.raises(NotAForest):
            forest_rep(cycle_graph(4))

    def test_two_colored_c4_in_acyclic_rep(self):
        # the pair {0, 1} induces the 4-cycle; the other two pairs are forests
        g = c4_with_a_pendant()
        color = {0: 2, 1: 0, 2: 0, 3: 1, 4: 0, 5: 1}
        assert is_proper(g, color)
        with pytest.raises(InvalidColoring, match="cycle"):
            acyclic_rep(g, Coloring(color, 3))
        color[2] = 2  # now every pair induces a forest
        rep = acyclic_rep(g, Coloring(color, 3))
        assert outcome(acyclic_rep, g, Coloring(color, 3)) == \
            outcome(acyclic_rep_reference, g, Coloring(color, 3))
        assert rep.d == 6

    def test_search_cycle_far_from_the_first_neighbour(self):
        # in id order, 0, 2 and 4 get color 0 and 3 gets 1; vertex 5 sees only
        # color 0, so 1 is proper for it, but it closes 5-2-3-4 with {0, 1}.
        # 5's first neighbour, 0, is not on that cycle.
        g = c4_with_a_pendant()
        assert acyclic_coloring(g, 2) is None
        found = acyclic_coloring(g, 3)
        assert found == acyclic_coloring_reference(g, 3)
        assert found.color[5] == 2
        validate_acyclic(g, found)

    def test_paths_and_isolated_vertices_walk(self):
        g = Graph.from_edges(5, [(0, 1), (1, 2)])
        depth, entry, leave = forest_walk(g, [0] * 5, (0,), range(5))
        assert depth == {0: 0, 1: 1, 2: 2, 3: 0, 4: 0}
        assert entry == {0: 0, 1: 1, 2: 2, 3: 6, 4: 8}
        assert leave == {2: 3, 1: 4, 0: 5, 3: 7, 4: 9}
        assert forest_walk(path_graph(3), [0, 1, 0], (0,), [0, 2]) == (
            {0: 0, 2: 0}, {0: 0, 2: 2}, {0: 1, 2: 3})
