import gc
import weakref

import pytest
from hypothesis import given

from boxrep.builders import acyclic_rep
from boxrep.coloring import (
    Coloring,
    acyclic_coloring,
    chromatic_number,
    smallest_acyclic_coloring,
)
from boxrep.errors import InvalidColoring, SizeLimitExceeded
from boxrep.graph import Graph

from conftest import complete_graph, cycle_graph, path_graph, petersen_graph
from test_forest_walk import is_proper, pair_classes_induce_forests, validate_acyclic
from test_graph_core import graphs_strategy


class TestChromaticNumber:
    def test_known_values(self):
        assert chromatic_number(complete_graph(4)) == 4
        assert chromatic_number(cycle_graph(5)) == 3
        assert chromatic_number(petersen_graph()) == 3
        assert chromatic_number(Graph(3, frozenset())) == 1

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            chromatic_number(Graph(25, frozenset()))

    @given(graphs_strategy(7))
    def test_is_achievable_and_minimal(self, g):
        chi = chromatic_number(g)
        assert 1 <= chi <= g.n
        if g.m:
            assert chi >= 2


class TestAcyclicColoring:
    def test_p4_two_colors(self):
        c = acyclic_coloring(path_graph(4), 2)
        assert c is not None and c.k == 2
        validate_acyclic(path_graph(4), c)

    def test_c4_two_colors_impossible(self):
        assert acyclic_coloring(cycle_graph(4), 2) is None

    def test_k4_identity(self):
        c = acyclic_coloring(complete_graph(4), 4)
        assert c is not None
        assert c.color == {0: 0, 1: 1, 2: 2, 3: 3}

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            acyclic_coloring(Graph(17, frozenset()), 3)

    # acyclic_rep validates the colorings it is given
    def test_validator_rejects_improper(self):
        g = path_graph(2)
        with pytest.raises(InvalidColoring, match="not proper"):
            acyclic_rep(g, Coloring({0: 0, 1: 0}, 1))

    def test_validator_rejects_bichromatic_cycle(self):
        g = cycle_graph(4)
        with pytest.raises(InvalidColoring, match="cycle"):
            acyclic_rep(g, Coloring({0: 0, 1: 1, 2: 0, 3: 1}, 2))

    @given(graphs_strategy(6))
    def test_output_passes_independent_verifier(self, g):
        c = smallest_acyclic_coloring(g)
        assert is_proper(g, c.color)
        assert pair_classes_induce_forests(g, c.color)
        assert c.k == len(set(c.color.values()))


@pytest.mark.parametrize("search", [chromatic_number, lambda g: acyclic_coloring(g, 3)],
                         ids=["chromatic_number", "acyclic_coloring"])
def test_graph_dies_without_the_cyclic_collector(search):
    # each search recurses through a nested function; one that kept a
    # reference cycle to itself would keep the graph alive until a collection
    g = petersen_graph()
    search(g)
    alive = weakref.ref(g)
    gc.collect()
    gc.disable()
    try:
        search(g)
        del g
        assert alive() is None
    finally:
        gc.enable()
