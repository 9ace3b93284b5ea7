"""Differential tests: the graph routines against networkx's implementations."""

import pytest
from hypothesis import given

from boxrep.graph import components, degeneracy_order
from boxrep.intervals import _bits, _is_chordal, _maximal_cliques

from test_graph_core import graphs_strategy

nx = pytest.importorskip("networkx")


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _adj(g):
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


@given(graphs_strategy(9))
def test_components_match_connected_components(g):
    ours = {frozenset(mapping) for _, mapping in components(g)}
    assert ours == {frozenset(c) for c in nx.connected_components(_nx(g))}


@given(graphs_strategy(9))
def test_degeneracy_matches_max_core_number(g):
    _, k = degeneracy_order(g)
    assert k == max(nx.core_number(_nx(g)).values(), default=0)


@given(graphs_strategy(9))
def test_is_chordal_matches(g):
    assert _is_chordal(_adj(g), g.n) == nx.is_chordal(_nx(g))


@given(graphs_strategy(9))
def test_maximal_cliques_match_find_cliques(g):
    expected = {frozenset(c) for c in nx.find_cliques(_nx(g))}
    ours = _maximal_cliques(_adj(g), g.n)
    if len(expected) > g.n:
        assert ours is None  # more than n cliques: early rejection
    else:
        assert {frozenset(_bits(c)) for c in ours} == expected
