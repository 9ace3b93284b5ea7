import numpy as np
import pytest
from hypothesis import given, settings

from boxrep.coloring import chromatic_number
from boxrep.errors import InvalidParams
from boxrep.exact import exact_boxicity, exact_poset_dimension
from boxrep.graph import Graph
from boxrep.poset import (
    FinitePoset,
    adjacency_poset,
    poset_dim_upper,
    write_poset,
)

from conftest import path_graph
from test_graph_core import graphs_strategy


class TestAdjacencyPoset:
    def test_edgeless_is_antichain(self):
        p = adjacency_poset(Graph(3, frozenset()))
        assert p.ground_size == 6
        assert p.strict == frozenset()

    def test_k2_two_relations(self):
        p = adjacency_poset(path_graph(2))
        assert sorted(p.strict) == [(0, 3), (1, 2)]

    def test_p3_four_relations(self):
        p = adjacency_poset(path_graph(3))
        assert len(p.strict) == 4

    @given(graphs_strategy(5))
    def test_height_two_and_shape(self, g):
        p = adjacency_poset(g)
        assert p.ground_size == 2 * g.n
        for a, b in p.strict:
            assert a < g.n <= b  # only V -> V' relations
            assert a != b - g.n  # distinct underlying vertices
        # no chains of three distinct elements
        tops = {b for _, b in p.strict}
        bottoms = {a for a, _ in p.strict}
        assert not (tops & bottoms)

    @given(graphs_strategy(6))
    def test_validating_constructor_accepts_it(self, g):
        # adjacency_poset skips the checks; the validating constructor
        # accepts its output and builds an equal poset
        p = adjacency_poset(g)
        assert FinitePoset(p.ground_size, p.strict) == p


class TestDimUpper:
    def test_formula_values(self):
        assert poset_dim_upper(1, 2) == 8
        assert poset_dim_upper(42, 7) == 95
        assert poset_dim_upper(3, 4) == 14

    def test_rejects_bad_args(self):
        with pytest.raises(InvalidParams):
            poset_dim_upper(0, 1)
        with pytest.raises(InvalidParams):
            poset_dim_upper(1, 0)

    @given(graphs_strategy(4))
    @settings(max_examples=25)
    def test_corollary_inequality_desk_scale(self, g):
        dim = exact_poset_dimension(adjacency_poset(g))
        bound = poset_dim_upper(exact_boxicity(g), chromatic_number(g))
        assert dim <= bound


class TestPosetIO:
    def test_writes_p3(self):
        # u < v' for each ordered adjacent pair of the path 0-1-2
        assert write_poset(adjacency_poset(path_graph(3))) == \
            "poset 6\n0 4\n1 3\n1 5\n2 4\n"


class TestFinitePoset:
    def test_rejects_intransitive(self):
        with pytest.raises(InvalidParams):
            FinitePoset(3, frozenset({(0, 1), (1, 2)}))

    def test_rejects_antisymmetry_violation(self):
        with pytest.raises(InvalidParams, match="antisymmetry"):
            FinitePoset(2, frozenset({(0, 1), (1, 0)}))

    def test_accepts_closed_chain(self):
        FinitePoset(3, frozenset({(0, 1), (1, 2), (0, 2)}))

    def test_rejects_negative_ground_size(self):
        with pytest.raises(InvalidParams, match="nonnegative"):
            FinitePoset(-3, frozenset())

    @pytest.mark.parametrize("n, strict", [
        ("3", frozenset()),
        (2.5, frozenset()),
        (None, frozenset()),
        (3, {(0, 1, 2)}),
        (3, {(0,)}),
        (3, {(0.0, 1)}),
        (3, {(0, "1")}),
        (3, None),
    ], ids=["str n", "float n", "None n", "triple", "single", "float id",
            "str id", "None strict"])
    def test_bad_input_raises_invalid_params(self, n, strict):
        with pytest.raises(InvalidParams):
            FinitePoset(n, strict)

    def test_integer_like_input_becomes_int(self):
        p = FinitePoset(np.int64(3), {(np.int64(0), np.int32(1))})
        assert type(p.ground_size) is int
        assert p.strict == {(0, 1)}
        assert all(type(x) is int for pair in p.strict for x in pair)
