import functools
import tracemalloc
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from boxrep import intervals, pipelines
from boxrep.errors import (
    BoxrepError,
    DimensionMismatch,
    EmptyInput,
    FormatError,
    InvalidInputRep,
    SizeLimitExceeded,
)
from boxrep.graph import Graph
from boxrep.intervals import (
    BoxRepresentation,
    VerifyReport,
    extend_universal,
    interval_order,
    merge_components,
    parse_representation,
    prune_dims,
    verify_representation,
    write_representation,
)
from boxrep.pipelines import edge_pipeline, surface_pipeline
from boxrep.builders import roberts_rep, trivial_rep

from conftest import (
    all_graphs,
    assert_one_array,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
    rep_from,
)
from test_graph_core import graphs_strategy


def brute_force_intersection_edges(rep):
    """Independent reading of a representation: the edge set of the
    intersection of its interval graphs, checked pair by pair."""
    lo, hi = rep.lo.tolist(), rep.hi.tolist()
    edges = set()
    for u, v in combinations(range(rep.n), 2):
        if all(max(a[u], a[v]) <= min(b[u], b[v]) for a, b in zip(lo, hi)):
            edges.add((u, v))
    return edges


def reference_report(g, rep):
    """Pure-Python reference oracle: (valid, missing_edge, uncovered_nonedge),
    the witnesses being the smallest pairs on which the brute-force edge set
    and the graph disagree."""
    edges = brute_force_intersection_edges(rep)
    missing = min(g.edges - edges, default=None)
    uncovered = min(edges - g.edges, default=None)
    return (missing is None and uncovered is None, missing, uncovered)


def tampered_rep(g, seed, moves):
    """roberts_rep(g), valid, with `moves` intervals replaced by random ones."""
    from boxrep.rng import SplitMix64

    rep = roberts_rep(g)
    lo, hi = rep.lo.copy(), rep.hi.copy()
    rng = SplitMix64(seed)
    for _ in range(moves):
        j, v = rng.below(rep.d), rng.below(g.n)
        lo[j, v] = rng.below(7)
        hi[j, v] = lo[j, v] + rng.below(3)
    return BoxRepresentation(g.n, lo, hi)


def report_tuple(report):
    return (report.valid, report.missing_edge, report.uncovered_nonedge)


def parse_outcome(parse, *args):
    """What a parser makes of its input: the arrays, or the error's type and
    message."""
    try:
        rep = parse(*args)
    except BoxrepError as exc:
        return type(exc).__name__, str(exc)
    assert rep.lo.dtype == rep.hi.dtype == np.int64
    return "ok", rep.lo.tolist(), rep.hi.tolist()


def random_rep(g, seed, span=6, max_dims=3):
    from boxrep.rng import SplitMix64

    rng = SplitMix64(seed)
    dims = []
    for _ in range(1 + rng.below(max_dims)):
        starts = [rng.below(span) for _ in range(g.n)]
        dims.append([(lo, lo + rng.below(3)) for lo in starts])
    return rep_from(*dims)


class TestRepresentationModel:
    def test_needs_a_dimension(self):
        none = np.empty((0, 2), dtype=np.int64)
        with pytest.raises(InvalidInputRep):
            BoxRepresentation(2, none, none)

    def test_assignment_must_cover(self):
        with pytest.raises(InvalidInputRep):
            BoxRepresentation(2, [[0]], [[1]])

    def test_rejects_empty_interval(self):
        with pytest.raises(InvalidInputRep):
            BoxRepresentation(1, [[2]], [[1]])

    def test_rejects_non_integer(self):
        with pytest.raises(InvalidInputRep):
            BoxRepresentation(1, [[0.0]], [[1]])

    def test_rejects_endpoint_outside_int64(self):
        with pytest.raises(InvalidInputRep):
            BoxRepresentation(1, [[0]], [[10**23]])

    def test_arrays_are_read_only_and_shared(self, c4):
        # lo and hi share one array; the constructor copies them into a new
        # one and leaves the caller's arrays as they were
        rep = roberts_rep(c4)
        assert_one_array(rep)
        again = BoxRepresentation(rep.n, rep.lo, rep.hi)
        assert_one_array(again)
        assert not np.shares_memory(again.ends, rep.ends)
        assert np.array_equal(again.ends, rep.ends)
        lo, hi = rep.lo.astype(np.int32), rep.hi.copy()
        mine = BoxRepresentation(rep.n, lo, hi)
        assert_one_array(mine)
        assert lo.flags.writeable and hi.flags.writeable
        hi[0] += 1
        assert np.array_equal(mine.ends, rep.ends)

    @pytest.mark.parametrize("n", [2.0, "2", -1, None])
    def test_n_is_a_count(self, n):
        ends = np.zeros((1, 2), np.int64)
        with pytest.raises(InvalidInputRep, match="n must be"):
            BoxRepresentation(n, ends, ends)

    def test_n_may_be_integer_like(self):
        ends = np.zeros((1, 2), np.int64)
        rep = BoxRepresentation(np.int64(2), ends, ends)
        assert type(rep.n) is int and rep.n == 2

    def test_n_and_d_come_from_the_array(self):
        rep = parse_representation("boxrep 0 2\ndim 1\ndim 2\n")
        assert (rep.n, rep.d) == (0, 2)
        assert_one_array(rep)
        with pytest.raises(AttributeError):
            rep.n = 3

    def test_equality_and_hash_are_identity(self, c4):
        rep, other = roberts_rep(c4), roberts_rep(c4)
        assert np.array_equal(rep.ends, other.ends)
        assert rep == rep and rep != other and not rep == other
        assert hash(rep) == hash(rep) and len({rep, other}) == 2
        assert rep in [rep] and rep not in [other]

    def test_repr_lists_the_endpoints(self):
        rep = rep_from([(0, 1), (2, 3)])
        assert repr(rep) == ("BoxRepresentation(n=2, lo=[[0, 2]], hi=[[1, 3]], "
                             "metadata={})")


class TestVerify:
    def test_k2_shared_interval_valid(self):
        g = path_graph(2)
        rep = rep_from([(0, 1), (0, 1)])
        assert verify_representation(g, rep).valid

    def test_touching_intervals_intersect(self):
        g = Graph(2, frozenset())
        rep = rep_from([(0, 1), (1, 2)])
        report = verify_representation(g, rep)
        assert not report.valid
        assert report.uncovered_nonedge == (0, 1)

    def test_roberts_c4_valid(self):
        g = cycle_graph(4)
        assert verify_representation(g, roberts_rep(g)).valid

    def test_dimension_mismatch(self):
        rep = rep_from([(0, 1), (0, 1)])
        with pytest.raises(DimensionMismatch):
            verify_representation(path_graph(3), rep)

    def test_witnesses_are_lex_smallest(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        # separate everything: all non-edges covered, both edges broken
        rep = rep_from([(2 * v, 2 * v) for v in range(4)])
        report = verify_representation(g, rep)
        assert report.missing_edge == (0, 1)
        # cover everything: every non-edge uncovered
        rep2 = rep_from([(0, 1)] * 4)
        report2 = verify_representation(g, rep2)
        assert report2.uncovered_nonedge == (0, 2)

    def test_oracle_equals_brute_force_exhaustive_n3(self):
        for g in all_graphs(3):
            for seed in range(3):
                rep = random_rep(g, seed)
                expected = brute_force_intersection_edges(rep) == set(g.sorted_edges())
                assert verify_representation(g, rep).valid == expected

    @given(graphs_strategy(5), st.integers(0, 10_000))
    def test_oracle_equals_brute_force(self, g, seed):
        rep = random_rep(g, seed)
        expected = brute_force_intersection_edges(rep) == set(g.sorted_edges())
        assert verify_representation(g, rep).valid == expected

    @given(graphs_strategy(7), st.integers(0, 10_000), st.integers(1, 12),
           st.integers(2, 40), st.integers(0, 100), st.integers(0, 3))
    def test_oracle_matches_reference_witnesses(self, g, seed, max_dims,
                                                n, p_percent, moves):
        rep = random_rep(g, seed, max_dims=max_dims)
        assert report_tuple(verify_representation(g, rep)) == reference_report(g, rep)
        # moving a few intervals of a valid certificate puts witnesses anywhere
        big = random_graph(n, p_percent, seed)
        rep = tampered_rep(big, seed, moves)
        assert report_tuple(verify_representation(big, rep)) == \
            reference_report(big, rep)

    def test_edge_index_built_once_per_graph(self, monkeypatch):
        builds = []
        build = Graph.edge_index.func
        monkeypatch.setattr(Graph, "edge_index", functools.cached_property(
            lambda g: builds.append(g) or build(g)))
        Graph.edge_index.__set_name__(Graph, "edge_index")
        rep = roberts_rep(cycle_graph(6))
        g = cycle_graph(6)
        first = verify_representation(g, rep)
        assert verify_representation(g, rep) == first
        assert len(builds) == 1 and builds[0] is g
        assert not g.edge_index.flags.writeable
        assert g.edge_index.tolist() == [u * g.n + v for u, v in sorted(g.edges)]

    def test_memory_stays_within_four_matrices(self):
        n = 2000
        g = path_graph(n)
        points = np.arange(n, dtype=np.int64)[None, :]
        same = np.zeros((1, n), dtype=np.int64)
        for rep, expected in ((BoxRepresentation(n, points, points + 1), (True, None, None)),
                              (BoxRepresentation(n, same, same), (False, None, (0, 2)))):
            tracemalloc.start()
            try:
                report = verify_representation(g, rep)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert report_tuple(report) == expected
            assert peak <= 4 * n * n

    def test_witness_in_last_chunk(self, monkeypatch):
        g = cycle_graph(6)
        valid = roberts_rep(g)
        # five universal dimensions, then Roberts' two; the last dimension
        # then moves vertex 0 away from everything, separating the edge (0, 1)
        lo = np.vstack([np.zeros((5, g.n), dtype=np.int64), valid.lo])
        hi = np.vstack([np.ones((5, g.n), dtype=np.int64), valid.hi])
        lo[-1, 0] = hi[-1, 0] = 100
        rep = BoxRepresentation(g.n, lo, hi)
        assert verify_representation(g, rep).missing_edge == (0, 1)
        monkeypatch.setattr(intervals, "ORACLE_CHUNK_BYTES", 2 * g.n * g.n)
        assert rep.d > 2 * 2 and rep.d % 2 == 1  # the last chunk holds one row
        assert report_tuple(verify_representation(g, rep)) == \
            reference_report(g, rep) == (False, (0, 1), None)


def int64_oracle(g, rep):
    """The oracle comparing the int64 endpoints themselves, as it did before
    they were narrowed: the reference of `verify_representation`."""
    if g.n < 2:
        return VerifyReport(True, None, None)
    lo, hi = rep.lo[:, :, None], rep.hi[:, None, :]
    step = max(1, intervals.ORACLE_CHUNK_BYTES // (g.n * g.n))
    below = np.ones((g.n, g.n), dtype=bool)
    for start in range(0, rep.d, step):
        below &= (lo[start:start + step] <= hi[start:start + step]).all(axis=0)
    met = below & below.T
    u, v = np.divmod(g.edge_index, g.n)
    broken = ~met[u, v]
    missing = None
    if broken.any():
        missing = divmod(int((u[broken] * g.n + v[broken]).min()), g.n)
    elif np.count_nonzero(met) == g.n + 2 * g.m:
        return VerifyReport(True, None, None)
    met[u, v] = met[v, u] = False
    np.fill_diagonal(met, False)
    first = int(met.argmax())
    return VerifyReport(False, missing,
                        divmod(first, g.n) if met.flat[first] else None)


def separating_row(n, pair):
    """One row in which exactly the vertices of `pair` do not meet: every
    interval is [0, 2] but theirs, [0, 0] and [2, 2]."""
    lo, hi = np.zeros(n, dtype=np.int64), np.full(n, 2, dtype=np.int64)
    if pair:
        a, b = pair
        hi[a], lo[b] = 0, 2
    return lo, hi


@st.composite
def chunked_certificates(draw):
    """A graph, a representation with one row per non-edge after some
    universal rows, each separating exactly its non-edge, and the report the
    oracle must give. The fault, if any, lies in the last row alone: it
    separates the last edge, or its non-edge meets there by touching."""
    n = draw(st.integers(2, 8))
    g = random_graph(n, draw(st.integers(0, 100)), draw(st.integers(0, 10_000)))
    pairs = [None] * draw(st.integers(0, 4)) + draw(st.permutations(list(g.nonedges())))
    fault = draw(st.sampled_from(["none", "last_edge", "last_nonedge"]))
    expected = (True, None, None)
    if fault == "last_edge" and g.m:
        pairs.append(max(g.edges))
        expected = (False, max(g.edges), None)
    rows = [separating_row(n, pair) for pair in pairs or [None]]
    if fault == "last_nonedge" and pairs and pairs[-1]:
        a, b = pairs[-1]
        rows[-1][0][b], rows[-1][1][a] = 1, 1  # [0, 1] and [1, 2] touch
        expected = (False, None, pairs[-1])
    lo, hi = (np.array(ends) for ends in zip(*rows))
    return g, BoxRepresentation(n, lo, hi), expected


@given(chunked_certificates(), st.integers(1, 40), st.booleans())
def test_oracle_across_chunks(cert, chunks, narrow_all):
    # ORACLE_CHUNK_BYTES set so that the rows fill 1, 2 or many chunks,
    # the last one possibly holding a single row
    g, rep, expected = cert
    rows = -(-rep.d // min(chunks, rep.d))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intervals, "ORACLE_CHUNK_BYTES", rows * g.n * g.n)
        if narrow_all:
            mp.setattr(intervals, "_NARROW_FROM", 0)
        report = verify_representation(g, rep)
        assert report == int64_oracle(g, rep)
    assert report_tuple(report) == reference_report(g, rep) == expected


# endpoints where a span taken in int64, or a cast to 16 or 32 bits, overflows
_WIDE = [-2**63, -2**63 + 1, -2**31 - 1, -2**31, -2**15 - 1, -2**15, -1, 0, 1,
         2**15 - 1, 2**15, 2**31 - 1, 2**31, 2**63 - 2, 2**63 - 1]


@st.composite
def graphs_with_wide_reps(draw):
    g = draw(graphs_strategy(7))
    d = draw(st.integers(1, 4))
    point = st.one_of(st.integers(-3, 3), st.sampled_from(_WIDE))
    ends = draw(st.lists(st.tuples(point, point), min_size=d * g.n, max_size=d * g.n))
    lo = np.array([min(p) for p in ends], dtype=np.int64).reshape(d, g.n)
    hi = np.array([max(p) for p in ends], dtype=np.int64).reshape(d, g.n)
    return g, BoxRepresentation(g.n, lo, hi)


class TestNarrowedOracle:
    @pytest.mark.parametrize("row, dtype", [
        ([3, 258], np.uint8), ([-2**15, 2**15 - 1], np.uint16),
        ([-2**15, 2**15], np.uint32), ([-2**31, 2**31 - 1], np.uint32),
        ([-2**31, 2**31], np.uint64), ([-2**63, 2**63 - 1], np.uint64),
    ])
    def test_smallest_type_that_keeps_the_order(self, monkeypatch, row, dtype):
        monkeypatch.setattr(intervals, "_NARROW_FROM", 0)
        lo = np.array([row, [0, 0]], dtype=np.int64)
        hi = np.array([row[::-1], [1, 0]], dtype=np.int64).clip(lo)
        nlo, nhi = intervals._narrowed(lo, hi)
        assert nlo.dtype == nhi.dtype == dtype
        assert nlo.min(axis=1).tolist() == [0, 0]
        for a, b, na, nb in ((lo, hi, nlo, nhi), (hi, lo, nhi, nlo), (lo, lo, nlo, nlo)):
            assert ((a[:, :, None] <= b[:, None, :])
                    == (na[:, :, None] <= nb[:, None, :])).all()

    def test_small_arrays_are_not_narrowed(self):
        rep = roberts_rep(cycle_graph(6))
        assert intervals._narrowed(rep.lo, rep.hi) == (rep.lo, rep.hi)

    def test_pipeline_certificates_narrow_to_16_bits_or_fewer(self):
        g = random_graph(60, 20, 1)
        rep, _ = edge_pipeline(g, seed=1)
        assert intervals._narrowed(rep.lo, rep.hi)[0].itemsize <= 2

    @given(graphs_with_wide_reps(), st.booleans())
    # int64 min, max and 0 apart: shifted in int64, max and 0 would wrap
    @example((Graph(3, frozenset()), rep_from([(-2**63, -2**63), (2**63 - 1,) * 2, (0, 0)])),
             True)
    def test_matches_the_int64_oracle(self, drawn, narrow_all):
        g, rep = drawn
        with pytest.MonkeyPatch.context() as mp:
            if narrow_all:
                mp.setattr(intervals, "_NARROW_FROM", 0)
            assert verify_representation(g, rep) == int64_oracle(g, rep)

    @given(graphs_strategy(7), st.integers(0, 10_000), st.integers(2, 40),
           st.integers(0, 100), st.integers(0, 3))
    def test_matches_the_int64_oracle_near_certificates(self, g, seed, n,
                                                          p_percent, moves):
        big = random_graph(n, p_percent, seed)
        for graph, rep in ((g, random_rep(g, seed, max_dims=12)),
                           (big, tampered_rep(big, seed, moves))):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(intervals, "_NARROW_FROM", 0)
                assert verify_representation(graph, rep) == int64_oracle(graph, rep)


def oracle_reverse_delete(rep):
    """Indices of the rows a reverse delete driven by oracle calls keeps.

    H is the graph `rep` represents. Last row first, row j goes when the rows
    before it and the rows kept so far still represent H; dropping a row can
    only make more pairs meet, so that holds iff no pair loses its last
    separating row.
    """
    h = Graph.from_edges(rep.n, brute_force_intersection_edges(rep))
    kept = []
    for j in reversed(range(rep.d)):
        rows = list(range(j)) + kept
        if not rows or not verify_representation(
                h, BoxRepresentation(rep.n, rep.lo[rows], rep.hi[rows])).valid:
            kept.insert(0, j)
    return kept


def unpruned_outputs(g, seed):
    """The edge and surface pipelines' results before their prune."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipelines, "prune_dims", lambda rep: rep)
        reps = [edge_pipeline(g, seed=seed)[0]] if g.n >= 2 else []
        reps.append(surface_pipeline(g, 0, (), seed=seed)[0])
    return reps


def stacked(g, reps, extra):
    """The rows of `reps`, each a representation of g, then the rows `extra`
    indexes again, rotated by sum(extra): a representation of g with
    redundant rows."""
    rows = [(r.lo[j], r.hi[j]) for r in reps for j in range(r.d)]
    picked = rows + [rows[i % len(rows)] for i in extra]
    turn = sum(extra) % len(picked)
    picked = picked[turn:] + picked[:turn]
    return BoxRepresentation(g.n, np.array([lo for lo, _ in picked]),
                             np.array([hi for _, hi in picked]))


def is_subsequence(out, rep):
    rows = iter(zip(rep.lo.tolist(), rep.hi.tolist()))
    return all(any(row == r for r in rows) for row in zip(out.lo.tolist(), out.hi.tolist()))


class TestPrune:
    @given(graphs_strategy(7), st.integers(0, 50),
           st.lists(st.integers(0, 200), max_size=30),
           st.sampled_from([None, 1, 2, 3]))
    @settings(max_examples=40)
    def test_matches_an_oracle_driven_reverse_delete(self, g, seed, extra, chunk_rows):
        with pytest.MonkeyPatch.context() as mp:
            if chunk_rows is not None and g.n:
                # a few rows per chunk, so that the counts carry the unions
                mp.setattr(intervals, "ORACLE_CHUNK_BYTES", chunk_rows * g.n * g.n // 8)
            outputs = unpruned_outputs(g, seed)
            reps = outputs + [roberts_rep(g), stacked(g, outputs + [roberts_rep(g)], extra)]
            for rep in reps:
                out = prune_dims(rep)
                kept = oracle_reverse_delete(rep)
                assert (out is rep) == (len(kept) == rep.d)
                assert out.lo.tolist() == rep.lo[kept].tolist()
                assert out.hi.tolist() == rep.hi[kept].tolist()
                assert verify_representation(g, out).valid
                assert prune_dims(out) is out

    @given(graphs_strategy(7), st.integers(0, 10_000), st.integers(1, 12),
           st.lists(st.integers(0, 11), max_size=8))
    def test_keeps_the_oracle_report_of_any_rep(self, g, seed, max_dims, repeats):
        rep = random_rep(g, seed, max_dims=max_dims)
        rows = list(range(rep.d)) + [i % rep.d for i in repeats]
        rep = BoxRepresentation(g.n, rep.lo[rows], rep.hi[rows])
        out = prune_dims(rep)
        assert verify_representation(g, out) == verify_representation(g, rep)
        assert is_subsequence(out, rep)
        assert prune_dims(out) is out

    @given(graphs_with_wide_reps())
    def test_keeps_the_report_at_wide_endpoints(self, drawn):
        g, rep = drawn
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "_NARROW_FROM", 0)
            out = prune_dims(rep)
        assert int64_oracle(g, out) == int64_oracle(g, rep)
        assert is_subsequence(out, rep)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_complete_graph_keeps_row_1(self, n):
        rows = [[(0, 1)] * n, [(v, v + 9) for v in range(n)], [(0, 0)] * n]
        rep = BoxRepresentation(n, np.array([[lo for lo, _ in r] for r in rows],
                                            dtype=np.int64).reshape(3, n),
                                np.array([[hi for _, hi in r] for r in rows],
                                         dtype=np.int64).reshape(3, n))
        out = prune_dims(rep)
        assert out.d == 1 and out.lo.tolist() == rep.lo[:1].tolist()
        assert verify_representation(complete_graph(n), out).valid

    @pytest.mark.parametrize("n", [1, 5])
    def test_kept_rows_are_read_only_and_not_rechecked(self, n, monkeypatch):
        # the kept rows come from a valid representation, so the constructor's
        # checks are skipped, but the arrays are still frozen
        rows = [[(v, v) for v in range(n)], [(0, 9)] * n, [(v, v + 1) for v in range(n)]]
        rep = rep_from(*rows)
        monkeypatch.setattr(BoxRepresentation, "__init__",
                            mock.Mock(side_effect=AssertionError("re-checked")))
        out = prune_dims(rep)
        assert out.d == 1 and out.lo.tolist() == rep.lo[:1].tolist()
        assert not out.lo.flags.writeable and not out.hi.flags.writeable
        assert out.metadata == {}

    @pytest.mark.parametrize("tile", [1, 8, 64, 1 << 18])
    @given(graphs_strategy(20), st.integers(0, 10_000))
    @settings(max_examples=15)
    def test_separated_sets_match_brute_force(self, tile, g, seed):
        rep = random_rep(g, seed, span=g.n + 2, max_dims=3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(intervals, "_PRUNE_TILE", tile)
            sets = intervals._separated_sets(rep.lo, rep.hi, 0, rep.d)
        for row, bits in zip(zip(rep.lo.tolist(), rep.hi.tolist()), sets):
            lo, hi = row
            assert bits == sum(1 << (u * g.n + v) for u in range(g.n) for v in range(g.n)
                               if lo[v] > hi[u] or lo[u] > hi[v])

    def test_memory_stays_within_its_bound(self, monkeypatch):
        # 40 rows over 2000 vertices: two chunks, so the counts are used
        n, d = 2000, 40
        rng = np.random.default_rng(0)
        lo = rng.integers(0, 10 * n, size=(d, n))
        rep = BoxRepresentation(n, lo, lo + rng.integers(0, 400, size=(d, n)))
        bound = intervals._prune_bytes(d, n)
        tracemalloc.start()
        try:
            out = prune_dims(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.d < d and peak <= bound
        monkeypatch.setattr(intervals, "PRUNE_MEMORY_LIMIT", bound - 1)
        tracemalloc.start()
        try:
            with pytest.raises(SizeLimitExceeded, match=f"needs {bound} bytes"):
                prune_dims(rep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d * n  # less than one narrowed copy of the endpoints


class TestRecognition:
    def test_paths_are_interval(self):
        assert interval_order(path_graph(4)) is not None

    def test_c4_is_not(self):
        assert interval_order(cycle_graph(4)) is None

    def test_3sun_is_not(self):
        sun = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1),
                                   (4, 1), (4, 2), (5, 0), (5, 2)])
        assert interval_order(sun) is None

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            interval_order(Graph(13, frozenset()))

    @given(graphs_strategy(6))
    def test_interval_iff_one_dimension_exists(self, g):
        # recognition agrees with actually building a 1-dim representation
        rep = trivial_rep(g)
        assert (rep is not None) == (interval_order(g) is not None)
        if rep is not None:
            assert verify_representation(g, rep).valid


class TestCertify:
    def test_returns_valid_rep_itself(self, c4):
        rep = roberts_rep(c4)
        assert intervals.certify(c4, rep, "roberts", InvalidInputRep) is rep

    def test_given_error_names_what_and_both_witnesses(self, c4):
        # separates the edge (0, 1) and leaves the non-edge (0, 2) covered
        rep = rep_from([(0, 0), (1, 1), (0, 0), (0, 1)])
        with pytest.raises(InvalidInputRep) as exc:
            intervals.certify(c4, rep, "the input", InvalidInputRep)
        text = str(exc.value)
        assert text.startswith("the input ")
        assert "missing_edge=(0, 1)" in text and "uncovered_nonedge=(0, 2)" in text


class TestExtendUniversal:
    def test_third_vertex_universal(self):
        k2 = path_graph(2)
        rep = rep_from([(0, 1), (1, 2)])
        out = extend_universal(rep, (0, 1), 3)
        assert out.n == 3
        assert (out.lo[0, 2], out.hi[0, 2]) == (0, 2)
        k3_minus = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert verify_representation(k3_minus, out).valid
        del k2

    @pytest.mark.parametrize("n_total", [2.5, "3", -1])
    def test_n_total_is_a_count(self, n_total):
        with pytest.raises(InvalidInputRep, match="n_total must be"):
            extend_universal(rep_from([(0, 0), (1, 1)]), [0, 1], n_total)

    def test_identity_when_members_cover(self):
        rep = rep_from([(0, 1), (3, 4)])
        out = extend_universal(rep, (0, 1), 2)
        assert np.array_equal(out.lo, rep.lo) and np.array_equal(out.hi, rep.hi)

    @given(graphs_strategy(6), st.integers(0, 500))
    def test_preserves_subset_coverage(self, g, seed):
        if g.n < 2:
            return
        members = tuple(range(0, g.n, 2))
        sub, _ = g.induced(members)
        rep = random_rep(sub, seed)
        out = extend_universal(rep, members, g.n)
        # pairs inside the subset keep their verdict in every dimension
        for j in range(rep.d):
            for a in range(sub.n):
                for b in range(a + 1, sub.n):
                    before = max(rep.lo[j, a], rep.lo[j, b]) <= \
                        min(rep.hi[j, a], rep.hi[j, b])
                    ia, ib = members[a], members[b]
                    after = max(out.lo[j, ia], out.lo[j, ib]) <= \
                        min(out.hi[j, ia], out.hi[j, ib])
                    assert before == after


class TestMergeComponents:
    def test_two_k2(self):
        g = Graph.from_edges(4, [(0, 1), (2, 3)])
        from boxrep.graph import components

        comps = components(g)
        reps = [trivial_rep(c) for c, _ in comps]
        maps = [m for _, m in comps]
        out = merge_components(reps, maps)
        assert out.d == 1
        assert verify_representation(g, out).valid

    def test_mixed_dimensions(self):
        g = Graph.from_edges(6, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5)])
        from boxrep.graph import components

        comps = components(g)
        reps = []
        for c, _ in comps:
            reps.append(roberts_rep(c))
        out = merge_components(reps, [m for _, m in comps])
        assert out.d == max(r.d for r in reps) == 2
        assert verify_representation(g, out).valid

    def test_single_component_unchanged(self, c4):
        rep = roberts_rep(c4)
        out = merge_components([rep], [(0, 1, 2, 3)])
        assert np.array_equal(out.lo, rep.lo) and np.array_equal(out.hi, rep.hi)

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            merge_components([], [])

    def test_component_without_vertices_raises(self):
        empty = BoxRepresentation(0, np.zeros((1, 0), np.int64), np.zeros((1, 0), np.int64))
        with pytest.raises(InvalidInputRep, match="needs a vertex"):
            merge_components([rep_from([(0, 0)]), empty], [(0,), ()])

    @given(st.lists(st.sampled_from([2, 3, 4, 5]), min_size=1, max_size=4),
           st.integers(0, 1000))
    def test_random_unions_verify(self, sizes, seed):
        from boxrep.graph import components

        offset = 0
        edges = []
        for i, size in enumerate(sizes):
            sub = random_graph(size, 60, seed + i)
            # keep each part connected by adding a path when disconnected
            edges.extend((offset + u, offset + v) for u, v in sub.edges)
            edges.extend((offset + j, offset + j + 1) for j in range(size - 1))
            offset += size
        g = Graph.from_edges(offset, edges)
        comps = components(g)
        reps = [roberts_rep(c) for c, _ in comps]
        out = merge_components(reps, [m for _, m in comps])
        assert verify_representation(g, out).valid
        assert out.d == max(r.d for r in reps)

    def test_shift_past_int64_raises(self):
        # each component verifies, but dimension 1 has no room for both below
        # the int64 limit; a wrapped shift would leave (0, 2) unseparated
        top = int(np.iinfo(np.int64).max)
        a = rep_from([(-top + 4, top - 1)])
        b = rep_from([(0, 0), (6, 8)])
        with pytest.raises(InvalidInputRep, match="int64 limit"):
            merge_components([a, b], [(0,), (1, 2)])

    def test_shift_beyond_int64_raises_not_overflowerror(self):
        # the shift 2**63 + 1 is no int64 and the shifted end would pass the limit
        a = rep_from([(0, 0)])
        b = rep_from([(-2**63, 0)])
        with pytest.raises(InvalidInputRep, match="int64 limit"):
            merge_components([a, b], [(0,), (1,)])

    def test_shift_beyond_int64_with_room_merges(self):
        # the same shift, but the shifted ends fit, so the merge is exact
        a = rep_from([(0, 0)])
        b = rep_from([(-2**63, -2**63), (-2**63 + 2, -2**63 + 3)])
        out = merge_components([a, b], [(0,), (1, 2)])
        assert out.lo.tolist() == [[0, 1, 3]] and out.hi.tolist() == [[0, 1, 4]]
        assert verify_representation(Graph(3, frozenset()), out).valid


class TestRepresentationIO:
    def test_byte_exact_round_trip(self, c4):
        rep = roberts_rep(c4)
        text = write_representation(rep)
        again = parse_representation(text)
        assert write_representation(again) == text
        assert verify_representation(c4, again).valid

    @pytest.mark.parametrize("lo, hi", [
        ([[], []], [[], []]),
        ([[7]], [[7]]),
        ([[-2**63, 0], [2**63 - 1, -2**63]], [[2**63 - 1, 0], [2**63 - 1, -1]]),
    ], ids=["n0", "n1", "int64_extremes"])
    def test_round_trip_edge_sizes(self, lo, hi):
        n = len(lo[0])
        rep = BoxRepresentation(n, np.array(lo, dtype=np.int64).reshape(len(lo), n),
                                np.array(hi, dtype=np.int64).reshape(len(hi), n))
        text = write_representation(rep)
        again = parse_representation(text)
        assert np.array_equal(again.lo, rep.lo) and np.array_equal(again.hi, rep.hi)
        assert write_representation(again) == text

    def test_well_formed_text_skips_line_scan(self, c4, monkeypatch):
        text = write_representation(roberts_rep(c4))

        def refuse(*args):
            raise AssertionError("well-formed text reached the line scan")

        monkeypatch.setattr(intervals, "_parse_lines", refuse)
        assert write_representation(parse_representation(text)) == text

    @pytest.mark.parametrize("pad", ["  {}  ", "\t{}", "{} ", " \t{}\t "])
    def test_padded_dim_lines_skip_line_scan(self, c4, monkeypatch, pad):
        rep = roberts_rep(c4)
        lines = write_representation(rep).splitlines()
        for i in (1, 6):
            lines[i] = pad.format(lines[i])
        text = "\n".join(lines) + "\n"

        def refuse(*args):
            raise AssertionError("padded dim lines reached the line scan")

        expected = parse_outcome(intervals._parse_lines, text.splitlines(), 4, 2)
        monkeypatch.setattr(intervals, "_parse_lines", refuse)
        assert parse_outcome(parse_representation, text) == expected
        assert expected == ("ok", rep.lo.tolist(), rep.hi.tolist())

    # a field is ASCII [+-]?[0-9]+: `int` would read 1_0 as 10 and U+0663 as 3
    @pytest.mark.parametrize("row, expected", [
        ("0 +5 1_0", ("FormatError", "bad interval line '0 +5 1_0'")),
        ("0\xa0\u0663\t\u0663",
         ("FormatError", "bad interval line '0\\xa0\u0663\\t\u0663'")),
        ("0\xa0+5\t7", ([[5]], [[7]])),
        # numpy's loadtxt reads U+01FE as a digit and would return 4623
        ("0 0 \u01fe3", ("FormatError", "bad interval line '0 0 \u01fe3'")),
        (f"0 0 {2**63}", ("FormatError", "interval endpoint outside the int64 range")),
    ], ids=["plus_underscore", "nbsp_arabic_digit", "nbsp_plus", "non_ascii",
            "int64_overflow"])
    def test_spellings_only_the_line_scan_reads(self, row, expected):
        text = f"boxrep 1 1\r\ndim 1\r\n{row}\r\n"
        got = parse_outcome(parse_representation, text)
        assert got == parse_outcome(intervals._parse_lines, text.splitlines(), 1, 1)
        assert got[-2:] == expected

    def test_header_shape(self, c4):
        text = write_representation(roberts_rep(c4))
        lines = text.splitlines()
        assert lines[0] == "boxrep 4 2"
        assert lines[1] == "dim 1"
        assert lines[6] == "dim 2"

    @pytest.mark.parametrize("bad", [
        "", "boxrep 1\n", "boxrep 1 1\nwrong\n0 0 0\n",
        "boxrep 1 1\ndim 1\n1 0 0\n", "boxrep 2 1\ndim 1\n0 0 0\n",
        "boxrep 1 1\ndim 1\n0 2 1\n", f"boxrep 1 1\ndim 1\n0 0 {2**63}\n",
        "boxrep 1 0\n", "boxrep -1 -1\n",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(FormatError):
            parse_representation(bad)


def format_representation(rep):
    """The text format as `write_representation` wrote it with one `format`
    call per dimension: the reference of its output."""
    block = "dim {}\n" + "".join(f"{v} {{}} {{}}\n" for v in range(rep.n))
    ends = np.empty((rep.d, 2 * rep.n), dtype=np.int64)
    ends[:, 0::2] = rep.lo
    ends[:, 1::2] = rep.hi
    body = "".join(block.format(j, *row.tolist())
                   for j, row in enumerate(ends, start=1))
    return f"boxrep {rep.n} {rep.d}\n{body}"


@st.composite
def int64_representations(draw):
    n, d = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    point = st.one_of(st.integers(-2**63, 2**63 - 1), st.sampled_from(_WIDE))
    pairs = draw(st.lists(st.tuples(point, point), min_size=d * n, max_size=d * n))
    lo = np.array([min(p) for p in pairs], dtype=np.int64).reshape(d, n)
    hi = np.array([max(p) for p in pairs], dtype=np.int64).reshape(d, n)
    return BoxRepresentation(n, lo, hi)


@given(int64_representations())
def test_writer_matches_the_format_reference(rep):
    assert write_representation(rep) == format_representation(rep)


_EXTREMES = [-2**63, -2**63 + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1]
_MUTATIONS = ["blank", "crlf", "tab", "nbsp", "plus", "underscore", "arabic_digit",
              "non_ascii", "int64_overflow", "missing_field", "extra_field",
              "swap_lines", "trailing", "padded_dim"]


@st.composite
def canonical_certificates(draw):
    n = draw(st.integers(0, 6))
    d = draw(st.integers(1, 4))
    point = st.one_of(st.integers(-3, 3), st.sampled_from(_EXTREMES))
    pairs = draw(st.lists(st.tuples(point, point), min_size=d * n, max_size=d * n))
    lo = np.array([min(p) for p in pairs], dtype=np.int64).reshape(d, n)
    hi = np.array([max(p) for p in pairs], dtype=np.int64).reshape(d, n)
    return n, d, write_representation(BoxRepresentation(n, lo, hi))


def _mutate(data, text):
    """Apply up to three drawn edits to a certificate, never to its header."""
    lines, end = text.splitlines(), "\n"
    for kind in data.draw(st.lists(st.sampled_from(_MUTATIONS), max_size=3)):
        if kind == "crlf":
            end = "\r\n"
        elif kind == "trailing":
            lines.append(data.draw(st.sampled_from(["", "junk", "0 0 0", "dim 9"])))
        elif kind == "padded_dim":
            dims = [i for i, ln in enumerate(lines) if ln.startswith("dim ")]
            if dims:
                i = data.draw(st.sampled_from(dims))
                lines[i] = f" \t{lines[i]}  "
        elif len(lines) > 1:
            rows = [i for i in range(1, len(lines)) if len(lines[i].split()) == 3]
            any_line = st.integers(1, len(lines) - 1)
            i = data.draw(st.one_of(st.sampled_from(rows), any_line) if rows else any_line)
            parts = lines[i].split()
            if kind == "blank":
                lines.insert(i, data.draw(st.sampled_from(["", "  ", "\t"])))
            elif kind == "tab":
                lines[i] = lines[i].replace(" ", "\t", 1)
            elif kind == "nbsp":
                lines[i] = lines[i].replace(" ", "\xa0", 1)
            elif kind == "missing_field":
                lines[i] = " ".join(parts[:-1])
            elif kind == "extra_field":
                lines[i] += " 0"
            elif kind == "swap_lines":
                j = data.draw(st.integers(1, len(lines) - 1))
                lines[i], lines[j] = lines[j], lines[i]
            elif parts:
                k = data.draw(st.integers(0, len(parts) - 1))
                tok = parts[k]
                parts[k] = {
                    "plus": "+" + tok,
                    "underscore": tok + "_0",
                    "arabic_digit": tok + "\u0663",
                    "non_ascii": "\u01fe" + tok,
                    "int64_overflow": data.draw(st.sampled_from(
                        [str(2**63), str(-2**63 - 1), str(10**30)])),
                }[kind]
                lines[i] = " ".join(parts)
    return end.join(lines) + end


@settings(max_examples=600)
@given(canonical_certificates(), st.data())
def test_batch_parse_agrees_with_line_scan(cert, data):
    n, d, text = cert
    text = _mutate(data, text)
    assert (parse_outcome(parse_representation, text)
            == parse_outcome(intervals._parse_lines, text.splitlines(), n, d))


@settings(max_examples=600)
@given(canonical_certificates(), st.data())
def test_parsed_representations_pass_the_constructor(cert, data):
    # both readers build through `_trusted`; whatever either accepts, the
    # validating constructor accepts unchanged
    n, d, text = cert
    text = _mutate(data, text)
    for parse in (parse_representation,
                  lambda t: intervals._parse_lines(t.splitlines(), n, d)):
        try:
            rep = parse(text)
        except BoxrepError:
            continue
        checked = BoxRepresentation(rep.n, rep.lo, rep.hi)
        assert np.array_equal(checked.ends, rep.ends)
        assert_one_array(rep)
