import numpy as np
import pytest
from hypothesis import given, strategies as st

from boxrep import intervals
from boxrep.builders import degenerate_rep, roberts_rep, trivial_rep
from boxrep.combinators import quotient_lift, split_compose
from boxrep.errors import InvalidInputRep, PreconditionViolation
from boxrep.graph import Graph, components, degeneracy_order, quotient_by_a_neighborhood
from boxrep.intervals import (
    extend_universal,
    merge_components,
    parse_representation,
    prune_dims,
    verify_representation,
    write_representation,
)
from boxrep.pipelines import edge_pipeline, surface_pipeline

from conftest import (assert_one_array, complete_bipartite, cycle_graph, random_graph,
                      rep_from, star_graph, with_clique)
from test_graph_core import graphs_strategy


def _rep_for(g):
    order, k = degeneracy_order(g)
    return degenerate_rep(g, order, k)


class TestSplitCompose:
    def test_dimension_accounting(self):
        # d=3 and d'=2 combine to exactly 2*3+2 = 8
        g = random_graph(8, 45, seed=2)
        s = [0, 2, 5]
        h = g.remove_edges_inside(s)
        r_h = _rep_for(h)
        gs, _ = g.induced(s)
        r_s = _rep_for(gs)
        out = split_compose(r_h, r_s, s, g)
        assert out.d == 2 * r_h.d + r_s.d
        assert verify_representation(g, out).valid

    def test_empty_s_returns_rep_unchanged(self, c4):
        r_h = roberts_rep(c4)
        out = split_compose(r_h, r_h, [], c4)
        assert out.lo is r_h.lo and out.hi is r_h.hi

    def test_singleton_s_still_pays_full_size(self):
        g = cycle_graph(5)
        s = [2]
        h = g.remove_edges_inside(s)
        r_h = _rep_for(h)
        gs, _ = g.induced(s)
        r_s = trivial_rep(gs)
        out = split_compose(r_h, r_s, s, g)
        assert out.d == 2 * r_h.d + 1

    def test_c4_with_nonadjacent_pair(self, c4):
        s = [0, 2]
        r_h = roberts_rep(c4)  # no edges inside {0,2}, so H = C4
        gs, _ = c4.induced(s)
        r_s = _rep_for(gs)
        out = split_compose(r_h, r_s, s, c4)
        assert verify_representation(c4, out).valid
        assert out.d == 2 * r_h.d + r_s.d

    def test_rejects_wrong_host_rep(self, c4):
        # rep of C4 is not a rep of C4 minus the edges inside {0, 1}
        s = [0, 1]
        r_bad = roberts_rep(c4)
        gs, _ = c4.induced(s)
        r_s = _rep_for(gs)
        with pytest.raises(PreconditionViolation):
            split_compose(r_bad, r_s, s, c4)

    def test_rejects_wrong_subset_rep(self, c4):
        s = [0, 2]  # non-adjacent, so g[S] is edgeless
        h = c4.remove_edges_inside(s)
        r_h = _rep_for(h)
        bad = rep_from([(0, 1), (0, 1)])  # claims an edge
        with pytest.raises(InvalidInputRep):
            split_compose(r_h, bad, s, c4)

    def test_rejects_rep_h_at_the_int64_limit(self):
        # rep_h is valid, but S cannot reach past its top; a wrapped stretch
        # would report a false empty interval at vertex 2
        top = int(np.iinfo(np.int64).max)
        g = Graph(3, frozenset())
        r_h = rep_from([(0, 0), (1, 1), (top, top)])
        r_s = rep_from([(0, 0), (1, 1)])
        with pytest.raises(InvalidInputRep, match="int64 limit"):
            split_compose(r_h, r_s, [1, 2], g)
        # one below the limit leaves room
        r_h = rep_from([(0, 0), (1, 1), (top - 1, top - 1)])
        out = split_compose(r_h, r_s, [1, 2], g)
        assert out.hi.tolist()[0] == [0, top, top]
        assert verify_representation(g, out).valid

    @given(graphs_strategy(7), st.integers(0, 127))
    def test_random_instances(self, g, s_mask):
        s = sorted(v for v in range(g.n) if (s_mask >> v) & 1)
        h = g.remove_edges_inside(s)
        r_h = _rep_for(h)
        if s:
            gs, _ = g.induced(s)
            r_s = _rep_for(gs)
        else:
            r_s = r_h
        out = split_compose(r_h, r_s, s, g)
        if s:
            assert out.d == 2 * r_h.d + r_s.d
        else:
            assert out.d == r_h.d
        assert verify_representation(g, out).valid

    @given(graphs_strategy(7), st.integers(0, 127))
    def test_one_sided_extension_case_split(self, g, s_mask):
        # replay: a non-edge with at most one endpoint in S that some host
        # dimension kills stays killed in the right- or left-extended copy
        s = sorted(v for v in range(g.n) if (s_mask >> v) & 1)
        if not s:
            return
        s_set = set(s)
        h = g.remove_edges_inside(s)
        r_h = _rep_for(h)
        gs, _ = g.induced(s)
        r_s = _rep_for(gs)
        out = split_compose(r_h, r_s, s, g)

        def disjoint(rep, j, a, b):
            return max(rep.lo[j, a], rep.lo[j, b]) > min(rep.hi[j, a], rep.hi[j, b])

        for u, v in g.nonedges():
            if u in s_set and v in s_set:
                continue
            for j in range(r_h.d):
                if disjoint(r_h, j, u, v):
                    assert disjoint(out, 2 * j, u, v) or disjoint(out, 2 * j + 1, u, v)


def test_outputs_are_read_only(c4):
    s = [0, 2]
    gs, members = c4.induced(s)
    outputs = [split_compose(roberts_rep(c4), _rep_for(gs), s, c4),
               extend_universal(_rep_for(gs), members, c4.n)]
    for a in ({0}, range(4)):
        q = quotient_by_a_neighborhood(c4, a)
        outputs.append(quotient_lift(_rep_for(q.quotient_graph), q))
    two_c4 = Graph.from_edges(8, c4.edges | {(u + 4, v + 4) for u, v in c4.edges})
    comps = components(two_c4)
    outputs.append(merge_components([_rep_for(c) for c, _ in comps],
                                    [m for _, m in comps]))
    for out in outputs:
        assert_one_array(out)
        assert out.metadata == {}
    # every other producer: the pipelines, the prune and both readers
    rep, _ = edge_pipeline(two_c4, seed=1)
    outputs = [rep, surface_pipeline(c4, 0, [0])[0],
               prune_dims(rep_from([(0, 1)] * 3, [(0, 1)] * 3)),
               prune_dims(rep_from([(0, 1)], [(2, 3)])),
               prune_dims(roberts_rep(Graph(6, frozenset())))]
    text = write_representation(rep)
    outputs += [parse_representation(text),
                intervals._parse_lines(text.splitlines(), rep.n, rep.d)]
    for out in outputs:
        assert_one_array(out)


class TestQuotientLift:
    def test_star_leaves_share_one_box(self):
        g = star_graph(4)
        q = quotient_by_a_neighborhood(g, {0})
        r_q = _rep_for(q.quotient_graph)
        out = quotient_lift(r_q, q)
        assert out.d == 2 * r_q.d
        assert verify_representation(with_clique(g, [1, 2, 3, 4]), out).valid
        for j in range(out.d):
            boxes = {(out.lo[j, v], out.hi[j, v]) for v in (1, 2, 3, 4)}
            assert len(boxes) == 1

    def test_a_equals_v_identity(self, c4):
        q = quotient_by_a_neighborhood(c4, range(4))
        r_q = _rep_for(q.quotient_graph)
        out = quotient_lift(r_q, q)
        assert np.array_equal(out.lo, r_q.lo) and np.array_equal(out.hi, r_q.hi)

    def test_k23_two_side(self):
        g = complete_bipartite(2, 3)
        q = quotient_by_a_neighborhood(g, {0, 1})
        r_q = _rep_for(q.quotient_graph)
        out = quotient_lift(r_q, q)
        assert verify_representation(with_clique(g, [2, 3, 4]), out).valid

    def test_rejects_rep_failing_the_quotient(self):
        # two classes outside A: a representation of the quotient plus a
        # clique on the representatives lets them meet, which fails the quotient
        g = Graph.from_edges(4, [(0, 1), (0, 2), (3, 2)])
        q = quotient_by_a_neighborhood(g, {0})
        assert len(q.reps) == 2
        r_h1 = _rep_for(with_clique(q.quotient_graph, q.reps))
        with pytest.raises(InvalidInputRep, match="rep_q for the quotient graph"):
            quotient_lift(r_h1, q)

    @given(graphs_strategy(7), st.integers(0, 127))
    def test_random_instances(self, g, a_mask):
        a = {v for v in range(g.n) if (a_mask >> v) & 1}
        outside = [v for v in range(g.n) if v not in a]
        q = quotient_by_a_neighborhood(g, a)
        r_q = _rep_for(q.quotient_graph)
        out = quotient_lift(r_q, q)
        assert out.d == (2 * r_q.d if outside else r_q.d)
        # the proof in quotient_lift's docstring: the lift represents G1
        assert verify_representation(with_clique(g, outside), out).valid
        # equal A-neighborhoods mean bit-identical boxes
        classes = {}
        for v in outside:
            classes.setdefault(g.neighbors(v) & a, []).append(v)
        for cls in classes.values():
            for j in range(out.d):
                assert len({(out.lo[j, v], out.hi[j, v]) for v in cls}) == 1
