import pytest
from hypothesis import given, settings

from boxrep.coloring import chromatic_number
from boxrep.errors import InvalidParams
from boxrep.exact import exact_boxicity, exact_poset_dimension
from boxrep.graph import Graph
from boxrep.poset import (
    FinitePoset,
    adjacency_poset,
    parse_poset,
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
    def test_round_trip(self):
        p = adjacency_poset(path_graph(3))
        text = write_poset(p)
        assert text.splitlines()[0] == "poset 6"
        again = parse_poset(text)
        assert again.ground_size == 6
        assert again.strict == p.strict
        assert write_poset(again) == text

    def test_validation_on_parse(self):
        from boxrep.errors import FormatError

        with pytest.raises(FormatError):
            parse_poset("not a poset\n")
        with pytest.raises(InvalidParams):
            parse_poset("poset 2\n0 1\n1 0\n")

    def test_negative_size_is_format_error(self):
        from boxrep.errors import FormatError

        with pytest.raises(FormatError, match="bad header"):
            parse_poset("poset -3\n")

    @pytest.mark.parametrize("text", ["poset 2\n0 x\n", "poset 2\n0 1 1\n"],
                             ids=["non_integer", "three_fields"])
    def test_bad_relation_line_is_format_error(self, text):
        from boxrep.errors import FormatError

        with pytest.raises(FormatError):
            parse_poset(text)


class TestFinitePoset:
    def test_rejects_intransitive(self):
        with pytest.raises(InvalidParams):
            FinitePoset(3, frozenset({(0, 1), (1, 2)}))

    def test_accepts_closed_chain(self):
        FinitePoset(3, frozenset({(0, 1), (1, 2), (0, 2)}))

    def test_rejects_negative_ground_size(self):
        with pytest.raises(InvalidParams, match="nonnegative"):
            FinitePoset(-3, frozenset())
