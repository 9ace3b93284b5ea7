"""The acyclic-colouring path against a plain reference.

The reference search tries every colour count from 1 and walks every colour
pair the new vertex closes; the reference `acyclic_rep` writes each row into
preallocated arrays. The package starts from a proven lower bound, walks only
the pairs whose other colour two coloured neighbours carry, and assembles its
rows once. Outputs must agree exactly, and the reference search confirms
that one colour fewer has no acyclic colouring.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given

from boxrep import coloring as coloring_module
from boxrep.builders import _points, acyclic_rep
from boxrep.coloring import (
    ACYCLIC_LIMIT,
    Coloring,
    acyclic_coloring,
    smallest_acyclic_coloring,
)
from boxrep.errors import InvalidColoring
from boxrep.graph import Graph, forest_walk
from boxrep.intervals import BoxRepresentation

from conftest import all_graphs_upto, complete_graph, cycle_graph
from test_graph_core import graphs_strategy


def reference_acyclic_coloring(g, k_max):
    """Backtracking in id order; one walk per other colour in use."""
    if k_max < 1:
        return None
    if g.n == 0:
        return Coloring({}, 0)
    label = [None] * g.n

    def extend(v, used):
        if v == g.n:
            return True
        banned = {label[w] for w in g.neighbors(v)}
        for c in range(min(k_max, used + 1)):
            if c in banned:
                continue
            label[v] = c
            if all(forest_walk(g, label, (c, o), [v]) is not None
                   for o in range(used) if o != c):
                if extend(v + 1, max(used, c + 1)):
                    return True
        label[v] = None
        return False

    if not extend(0, 0):
        return None
    return Coloring(dict(enumerate(label)), len(set(label)))


def reference_smallest_acyclic_coloring(g):
    """Every colour count from 1 up."""
    for k in range(1, g.n + 1):
        found = reference_acyclic_coloring(g, k)
        if found is not None:
            return found
    return Coloring({v: v for v in range(g.n)}, g.n)


def reference_acyclic_rep(g, coloring):
    """Each colour pair's two rows written into preallocated arrays."""
    color = coloring.color
    if len(color) != g.n or any(color[u] == color[v] for u, v in g.edges):
        raise InvalidColoring("not a proper coloring of every vertex")
    classes = {}
    for v, c in color.items():
        classes.setdefault(c, []).append(v)
    k = len(classes)
    if k <= 1:
        return _points(g.n, colors=k)
    label = [color[v] for v in range(g.n)]
    pairs = list(combinations(sorted(classes), 2))
    lo = np.zeros((2 * len(pairs), g.n), dtype=np.int64)
    hi = np.empty_like(lo)
    for row, pair in zip(range(0, len(lo), 2), pairs):
        roots = sorted(classes[pair[0]] + classes[pair[1]])
        walk = forest_walk(g, label, pair, roots)
        if walk is None:
            raise InvalidColoring("two color classes induce a cycle")
        depth, entry, leave = walk
        hi[row] = max(depth.values()) + 1
        hi[row + 1] = 2 * len(roots) - 1
        lo[row, roots] = [depth[v] for v in roots]
        hi[row, roots] = lo[row, roots] + 1
        lo[row + 1, roots] = [entry[v] for v in roots]
        hi[row + 1, roots] = [leave[v] for v in roots]
    return BoxRepresentation(g.n, lo, hi, {"colors": k})


def wheel_graph(n):
    """A hub 0 joined to every vertex of the cycle 1..n-1."""
    rim = [(i, i % (n - 1) + 1) for i in range(1, n)]
    return Graph.from_edges(n, rim + [(0, i) for i in range(1, n)])


def assert_same_rep(g, coloring):
    got, want = acyclic_rep(g, coloring), reference_acyclic_rep(g, coloring)
    assert got.lo.dtype == want.lo.dtype and got.hi.dtype == want.hi.dtype
    assert np.array_equal(got.lo, want.lo)
    assert np.array_equal(got.hi, want.hi)
    assert got.metadata == want.metadata


def assert_matches_reference(g):
    got = smallest_acyclic_coloring(g)
    want = reference_smallest_acyclic_coloring(g)
    assert (got.color, got.k) == (want.color, want.k)
    if g.n:
        assert reference_acyclic_coloring(g, want.k - 1) is None
    assert_same_rep(g, got)
    # the same colouring under sparse colour names and a larger declared k
    sparse = Coloring({v: 3 * c + 1 for v, c in got.color.items()}, got.k + 2)
    assert_same_rep(g, sparse)


EVERY_SMALL_GRAPH = [Graph(0, frozenset()), *all_graphs_upto(5)]
PINNED_WALKS = 2_263


def test_every_graph_on_five_vertices_matches_reference():
    for g in EVERY_SMALL_GRAPH:
        assert_matches_reference(g)


@given(graphs_strategy(8))
def test_random_graphs_match_reference(g):
    assert_matches_reference(g)


@pytest.mark.parametrize("g", [
    *(cycle_graph(n) for n in range(3, ACYCLIC_LIMIT + 1)),
    *(wheel_graph(n) for n in range(4, ACYCLIC_LIMIT + 1)),
    *(complete_graph(n) for n in range(1, ACYCLIC_LIMIT + 1)),
], ids=lambda g: f"n{g.n}m{g.m}")
def test_families_match_reference(g):
    assert_matches_reference(g)


def test_k_max_is_also_searched_exactly():
    for g in EVERY_SMALL_GRAPH:
        for k in range(1, 5):
            got = acyclic_coloring(g, k)
            want = reference_acyclic_coloring(g, k)
            assert (got is None) == (want is None)
            if got is not None:
                assert (got.color, got.k) == (want.color, want.k)


def test_forest_walk_calls_are_pinned(monkeypatch):
    """The walks `smallest_acyclic_coloring` makes over every graph on at
    most five vertices. A search from one colour that walks every pair in
    use makes 8,685; a rise means the lower bound or the two-neighbour rule
    stopped pruning."""
    calls = 0

    def counting_walk(*args):
        nonlocal calls
        calls += 1
        return forest_walk(*args)

    monkeypatch.setattr(coloring_module, "forest_walk", counting_walk)
    for g in EVERY_SMALL_GRAPH:
        smallest_acyclic_coloring(g)
    assert calls == PINNED_WALKS
