"""Differential tests: the graph routines against networkx's implementations."""

import pytest
from hypothesis import given

from boxrep.graph import components, degeneracy_order
from boxrep.intervals import interval_order

from conftest import all_graphs_upto
from test_graph_core import graphs_strategy

nx = pytest.importorskip("networkx")


def _nx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _nx_is_interval(g):
    # interval = chordal and asteroidal-triple-free (Lekkerkerker, Boland 1962)
    h = _nx(g)
    return nx.is_chordal(h) and nx.is_at_free(h)


@given(graphs_strategy(9))
def test_components_match_connected_components(g):
    ours = {frozenset(mapping) for _, mapping in components(g)}
    assert ours == {frozenset(c) for c in nx.connected_components(_nx(g))}


@given(graphs_strategy(9))
def test_degeneracy_matches_max_core_number(g):
    _, k = degeneracy_order(g)
    assert k == max(nx.core_number(_nx(g)).values(), default=0)


@given(graphs_strategy(9))
def test_is_interval_graph_matches_chordal_and_at_free(g):
    assert (interval_order(g) is not None) == _nx_is_interval(g)


def test_is_interval_graph_matches_on_every_small_graph():
    for g in all_graphs_upto(5):
        assert (interval_order(g) is not None) == _nx_is_interval(g), sorted(g.edges)
