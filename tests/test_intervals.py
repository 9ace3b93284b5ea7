from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from boxrep import intervals
from boxrep.errors import (
    BoxrepError,
    DimensionMismatch,
    EmptyInput,
    FormatError,
    InvalidInputRep,
    PreconditionViolation,
    SizeLimitExceeded,
    UncoveredNonedge,
)
from boxrep.graph import Graph
from boxrep.intervals import (
    BoxRepresentation,
    concat,
    extend_universal,
    is_interval_graph,
    merge_components,
    parse_representation,
    verify_representation,
    write_representation,
)
from boxrep.builders import roberts_rep, trivial_rep

from conftest import (
    all_graphs,
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
        rep = roberts_rep(c4)
        assert rep.lo.dtype == rep.hi.dtype == np.int64
        assert not rep.lo.flags.writeable and not rep.hi.flags.writeable
        again = BoxRepresentation(rep.n, rep.lo, rep.hi)
        assert again.lo is rep.lo and again.hi is rep.hi


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

    @given(graphs_strategy(7), st.integers(0, 10_000), st.integers(1, 12))
    def test_oracle_matches_reference_witnesses(self, g, seed, max_dims):
        rep = random_rep(g, seed, max_dims=max_dims)
        assert report_tuple(verify_representation(g, rep)) == reference_report(g, rep)

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


class TestRecognition:
    def test_paths_are_interval(self):
        assert is_interval_graph(path_graph(4))

    def test_c4_is_not(self):
        assert not is_interval_graph(cycle_graph(4))

    def test_3sun_is_not(self):
        sun = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 0), (3, 1),
                                   (4, 1), (4, 2), (5, 0), (5, 2)])
        assert not is_interval_graph(sun)

    def test_size_limit(self):
        with pytest.raises(SizeLimitExceeded):
            is_interval_graph(Graph(13, frozenset()))

    @given(graphs_strategy(6))
    def test_interval_iff_one_dimension_exists(self, g):
        # recognition agrees with actually building a 1-dim representation
        rep = trivial_rep(g)
        assert (rep is not None) == is_interval_graph(g)
        if rep is not None:
            assert verify_representation(g, rep).valid


class TestCertify:
    def test_returns_valid_rep_itself(self, c4):
        rep = roberts_rep(c4)
        assert intervals.certify(c4, rep, "roberts") is rep

    def test_default_errors_by_witness_kind(self, c4):
        together = rep_from([(0, 0)] * 4)  # keeps every edge, separates nothing
        with pytest.raises(UncoveredNonedge) as exc:
            intervals.certify(c4, together, "together")
        assert exc.value.pair == (0, 2)
        apart = rep_from([(v, v) for v in range(4)])  # separates every pair
        with pytest.raises(PreconditionViolation,
                           match=r"apart .*missing_edge=\(0, 1\)"):
            intervals.certify(c4, apart, "apart")

    def test_given_error_names_what_and_both_witnesses(self, c4):
        # separates the edge (0, 1) and leaves the non-edge (0, 2) covered
        rep = rep_from([(0, 0), (1, 1), (0, 0), (0, 1)])
        with pytest.raises(InvalidInputRep) as exc:
            intervals.certify(c4, rep, "the input", InvalidInputRep)
        text = str(exc.value)
        assert text.startswith("the input ")
        assert "missing_edge=(0, 1)" in text and "uncovered_nonedge=(0, 2)" in text


class TestConcat:
    def test_dimension_counts_add(self, c4):
        r = roberts_rep(c4)
        out = concat(r, r, c4)
        assert out.d == 2 * r.d

    def test_c4_from_two_chordal_supergraphs(self, c4):
        g1 = c4.add_clique({0, 2})
        g2 = c4.add_clique({1, 3})
        r1 = trivial_rep(g1)
        r2 = trivial_rep(g2)
        out = concat(r1, r2, c4)
        assert out.d == 2
        assert verify_representation(c4, out).valid

    def test_uncovered_nonedge_raises_with_witness(self, c4):
        g1 = c4.add_clique({0, 2})
        r1 = trivial_rep(g1)
        with pytest.raises(UncoveredNonedge) as exc:
            concat(r1, r1, c4)
        assert exc.value.pair == (0, 2)

    @given(graphs_strategy(5), st.integers(0, 500), st.integers(0, 500))
    def test_verify_status_independent_of_order(self, g, s1, s2):
        r1 = random_rep(g, s1)
        r2 = random_rep(g, s2)

        def status(a, b):
            try:
                concat(a, b, g)
                return "valid"
            except UncoveredNonedge:
                return "uncovered"
            except Exception:
                return "other"

        assert status(r1, r2) == status(r2, r1)


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

    @pytest.mark.parametrize("row, expected", [
        ("0 +5 1_0", ([[5]], [[10]])),
        ("0\xa0\u0663\t\u0663", ([[3]], [[3]])),
        # numpy's loadtxt reads U+01FE as a digit and would return 4623
        ("0 0 \u01fe3", ("FormatError", "bad interval line '0 0 \u01fe3'")),
        (f"0 0 {2**63}", ("FormatError", "interval endpoint outside the int64 range")),
    ], ids=["plus_underscore", "nbsp_arabic_digit", "non_ascii", "int64_overflow"])
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
