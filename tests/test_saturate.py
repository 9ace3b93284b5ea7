"""`saturate` and the order rows `_order_rows` builds.

Every representation saturated here is valid for its graph, as `saturate`
requires. Each saturated row must separate every pair its source row
separates, the result must pass the oracle, and saturating again must
change nothing. `_order_rows` is checked against the interval formula it
replaced in `trivial_rep`.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxrep import pipelines
from boxrep.builders import (DegenerateStrategy, acyclic_rep, degenerate_rep,
                             forest_rep, roberts_rep, trivial_rep)
from boxrep.coloring import smallest_acyclic_coloring
from boxrep.graph import Graph, components, degeneracy_order
from boxrep.intervals import (BoxRepresentation, _order_rows, interval_order,
                              merge_components, saturate, verify_representation)
from boxrep.pipelines import edge_pipeline

from conftest import assert_one_array
from test_forest_walk import is_forest
from test_graph_core import graphs_strategy


def reference_order_row(g, order):
    """The row the pre-`_order_rows` `trivial_rep` built along `order`:
    position i for order[i], and the last position among it and its
    neighbours."""
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    hi = [max([pos[v], *(pos[w] for w in g.neighbors(v))]) for v in range(g.n)]
    return pos, hi


def separated_pairs(lo, hi):
    return {(u, v) for u, v in combinations(range(len(lo)), 2)
            if lo[u] > hi[v] or lo[v] > hi[u]}


def valid_reps(g, seed):
    """Representations of g from every builder that takes g, from
    `merge_components` over its components, and the rows the edge pipeline
    hands to `saturate`."""
    order, k = degeneracy_order(g)
    reps = [roberts_rep(g), degenerate_rep(g, order, k, DegenerateStrategy(seed=seed)),
            acyclic_rep(g, smallest_acyclic_coloring(g))]
    if is_forest(g):
        reps.append(forest_rep(g))
    if trivial_rep(g) is not None:
        reps.append(trivial_rep(g))
    parts = list(components(g))
    reps.append(merge_components([roberts_rep(c) for c, _ in parts],
                                 [mp for _, mp in parts]))
    if g.n >= 2:
        handed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipelines, "saturate",
                       lambda g, rep: handed.append(rep) or saturate(g, rep))
            edge_pipeline(g, seed=seed)
        reps.extend(handed)
    return reps


class TestSaturate:
    @given(graphs_strategy(7), st.integers(0, 50))
    @settings(max_examples=40)
    def test_rows_separate_supersets_and_pass_the_oracle(self, g, seed):
        for rep in valid_reps(g, seed):
            assert verify_representation(g, rep).valid
            out = saturate(g, rep)
            if rep.d == 1:
                assert out is rep
                continue
            assert_one_array(out)
            assert out.d == rep.d and out.metadata == rep.metadata
            for j in range(rep.d):
                assert separated_pairs(rep.lo[j], rep.hi[j]) <= separated_pairs(
                    out.lo[j], out.hi[j])
            assert verify_representation(g, out).valid
            assert saturate(g, out).ends.tolist() == out.ends.tolist()

    def test_ties_break_by_right_end_then_id(self):
        # row 1 ties vertices 1 and 2 at left end 0; by id alone, vertex 1
        # would come first, its order-row interval [0, 2] would reach
        # vertex 2's and the row would no longer separate the non-edge 12.
        # Row 2 ties vertices 0 and 1 at both ends, so their ids decide.
        g = Graph(3, [(0, 1)])
        rep = BoxRepresentation(3, [[1, 0, 0], [0, 0, 2]], [[1, 1, 0], [1, 1, 2]])
        assert verify_representation(g, rep).valid
        out = saturate(g, rep)
        assert out.ends.tolist() == [[[2, 1, 0], [0, 1, 2]],
                                     [[2, 2, 0], [1, 1, 2]]]
        assert verify_representation(g, out).valid
        by_id = np.argsort(rep.lo, axis=1, kind="stable").argsort(axis=1)
        assert _order_rows(g, by_id)[:, 0].tolist() == [[2, 0, 1], [2, 2, 1]]


class TestOrderRows:
    @given(graphs_strategy(8))
    def test_trivial_rep_is_the_order_row_of_an_interval_order(self, g):
        order = interval_order(g)
        if order is None:
            assert trivial_rep(g) is None
            return
        rank = np.empty((1, g.n), dtype=np.int64)
        rank[0, order] = np.arange(g.n)
        pos, hi = reference_order_row(g, order)
        assert _order_rows(g, rank).tolist() == [[pos], [hi]]
        assert trivial_rep(g).ends.tolist() == [[pos], [hi]]

    @given(graphs_strategy(8).flatmap(lambda g: st.tuples(
        st.just(g), st.lists(st.permutations(range(g.n)), min_size=1, max_size=4))))
    def test_every_row_follows_the_formula(self, drawn):
        g, orders = drawn
        rank = np.argsort(np.array(orders, dtype=np.int64), axis=1)
        rows = [reference_order_row(g, order) for order in orders]
        assert _order_rows(g, rank).tolist() == [[lo for lo, _ in rows],
                                                 [hi for _, hi in rows]]
