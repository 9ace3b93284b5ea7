import argparse

import pytest
from hypothesis import given, settings, strategies as st

from boxrep import cli
from boxrep.errors import BoxrepError
from boxrep.graph import Graph, parse_graph, write_graph
from boxrep.intervals import parse_representation, verify_representation

from conftest import path_graph, run_boxrep


def run_cli(*args, timeout=None):
    return run_boxrep(*args, text=True, timeout=timeout)


class TestGen:
    def test_copm_stdout(self):
        res = run_cli("gen", "--model", "copm", "--k", "2")
        assert res.returncode == 0
        g = parse_graph(res.stdout)
        assert g.n == 4 and g.m == 4
        assert "prng=splitmix64" in res.stdout

    def test_bad_params_exit_2(self):
        res = run_cli("gen", "--model", "bipartite", "--n", "1")
        assert res.returncode == 2

    def test_draw_budget_exit_3(self):
        res = run_cli("gen", "--model", "bipartite", "--n", "100000")
        assert res.returncode == 3
        assert res.stdout == ""
        assert "10000000000 random draws" in res.stderr

    def test_copm_pair_budget_exit_3(self):
        res = run_cli("gen", "--model", "copm", "--k", "100000")
        assert res.returncode == 3
        assert res.stdout == ""
        assert "19999900000 vertex pairs" in res.stderr

    def test_unknown_flag_exit_2(self):
        res = run_cli("gen", "--model", "copm", "--wat", "1")
        assert res.returncode == 2


class TestExact:
    def test_c4_prints_boxicity_2(self, tmp_path):
        res = run_cli("gen", "--model", "copm", "--k", "2",
                      "--out", str(tmp_path / "c4.g"))
        assert res.returncode == 0
        res = run_cli("exact", "--graph", str(tmp_path / "c4.g"))
        assert res.returncode == 0
        assert res.stdout == "boxicity 2\n"

    def test_poset_flag(self, tmp_path):
        run_cli("gen", "--model", "copm", "--k", "2", "--out", str(tmp_path / "g"))
        res = run_cli("exact", "--graph", str(tmp_path / "g"), "--poset")
        assert res.stdout == "boxicity 2\nposet dimension 2\n"

    def test_poset_limit_writes_no_answer(self, tmp_path):
        # copm(3) has boxicity 3, but its adjacency poset has 12 elements,
        # over the poset limit: neither answer is written
        run_cli("gen", "--model", "copm", "--k", "3", "--out", str(tmp_path / "g"))
        res = run_cli("exact", "--graph", str(tmp_path / "g"), "--poset")
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr == "error: poset ground set 12 exceeds limit 10\n"

    def test_limit_exit_3(self, tmp_path):
        # copm(7): one component of 14 vertices, over the limit of 12
        run_cli("gen", "--model", "copm", "--k", "7", "--out", str(tmp_path / "g"))
        res = run_cli("exact", "--graph", str(tmp_path / "g"))
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr == "error: component has 14 vertices, limit 12\n"

    def test_interval_graph_with_21_nonedges_is_one(self, tmp_path):
        # P8 is interval, with 21 non-edges in its one component
        gfile = tmp_path / "p8.g"
        gfile.write_text(write_graph(path_graph(8)))
        res = run_cli("exact", "--graph", str(gfile))
        assert res.returncode == 0
        assert res.stdout == "boxicity 1\n"

    def test_kdegen_12_with_45_nonedges(self, tmp_path):
        run_cli("gen", "--model", "kdegen", "--n", "12", "--k", "2",
                "--seed", "3", "--out", str(tmp_path / "g"))
        res = run_cli("exact", "--graph", str(tmp_path / "g"))
        assert res.returncode == 0
        assert res.stdout == "boxicity 2\n"

    def test_env_limits_override(self, tmp_path):
        # copm(6): 12 vertices, the most a component may have
        run_cli("gen", "--model", "copm", "--k", "6", "--out", str(tmp_path / "g"))
        res = run_cli("exact", "--graph", str(tmp_path / "g"))
        assert res.returncode == 0
        assert res.stdout == "boxicity 6\n"

    def test_vertex_limit_flag_is_a_usage_error(self, tmp_path):
        # the vertex limit is fixed, and the flag that once set it per call
        # is gone; its name is split so that no live code spells it
        run_cli("gen", "--model", "copm", "--k", "6", "--out", str(tmp_path / "g"))
        res = run_cli("exact", "--graph", str(tmp_path / "g"), "--max" "-vertices", "12")
        assert res.returncode == 2
        assert res.stdout == ""
        assert "unrecognized arguments" in res.stderr and "Traceback" not in res.stderr


class TestBuildVerify:
    def test_edge_build_verify_round_trip(self, tmp_path):
        gfile = tmp_path / "g.g"
        rfile = tmp_path / "r.br"
        run_cli("gen", "--model", "kdegen", "--n", "14", "--k", "2",
                "--seed", "5", "--out", str(gfile))
        res = run_cli("build", "--graph", str(gfile), "--pipeline", "edge",
                      "--mode", "reference", "--seed", "7", "--out", str(rfile))
        assert res.returncode == 0
        assert "final_dims" in res.stderr  # trace goes to stderr
        res = run_cli("verify", "--graph", str(gfile), "--rep", str(rfile))
        assert res.returncode == 0
        assert res.stdout == "valid\n"
        g = parse_graph(gfile.read_text())
        rep = parse_representation(rfile.read_text())
        assert verify_representation(g, rep).valid

    def test_surface_build_with_files(self, tmp_path):
        gfile = tmp_path / "g.g"
        run_cli("gen", "--model", "copm", "--k", "3", "--out", str(gfile))
        afile = tmp_path / "a.txt"
        afile.write_text("0\n1\n")
        res = run_cli("build", "--graph", str(gfile), "--pipeline", "surface",
                      "--g", "1", "--A", str(afile), "--out", str(tmp_path / "r.br"))
        assert res.returncode == 0
        res = run_cli("verify", "--graph", str(gfile),
                      "--rep", str(tmp_path / "r.br"))
        assert res.returncode == 0

    def test_surface_coloring_declares_more_colors_than_used_outside_a(self, tmp_path):
        # colour 2 sits only on vertex 0, which is in A: two colours remain
        gfile, afile, cfile = tmp_path / "g.g", tmp_path / "a.txt", tmp_path / "c.txt"
        run_cli("gen", "--model", "copm", "--k", "2", "--out", str(gfile))
        afile.write_text("0\n")
        cfile.write_text("0 2\n1 0\n2 1\n3 1\n")
        res = run_cli("build", "--graph", str(gfile), "--pipeline", "surface",
                      "--A", str(afile), "--coloring", str(cfile),
                      "--out", str(tmp_path / "r.br"))
        assert res.returncode == 0, res.stderr
        res = run_cli("verify", "--graph", str(gfile),
                      "--rep", str(tmp_path / "r.br"))
        assert res.stdout == "valid\n"

    def test_surface_coloring_over_the_size_limit_exit_3(self, tmp_path):
        # without --coloring, G-A (18 vertices) gets the exact search, capped at 16
        gfile, afile = tmp_path / "g.g", tmp_path / "a.txt"
        run_cli("gen", "--model", "kdegen", "--n", "20", "--k", "2",
                "--out", str(gfile))
        afile.write_text("0\n1\n")
        res = run_cli("build", "--graph", str(gfile), "--pipeline", "surface",
                      "--g", "1", "--A", str(afile))
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_surface_coloring_naming_a_vertex_outside_the_graph_exit_1(self, tmp_path):
        # an acyclic colouring of G-A on the 6-vertex copm graph, plus vertex 9
        gfile, afile, cfile = tmp_path / "g.g", tmp_path / "a.txt", tmp_path / "c.txt"
        run_cli("gen", "--model", "copm", "--k", "3", "--out", str(gfile))
        afile.write_text("0\n1\n")
        cfile.write_text("2 0\n3 0\n4 1\n5 2\n9 0\n")
        res = run_cli("build", "--graph", str(gfile), "--pipeline", "surface",
                      "--g", "1", "--A", str(afile), "--coloring", str(cfile))
        assert res.returncode == 1
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr
        assert "outside the graph" in res.stderr

    def test_surface_coloring_naming_a_vertex_twice_exit_2(self, tmp_path):
        gfile, cfile = tmp_path / "g.g", tmp_path / "c.txt"
        gfile.write_text("3 1\n0 1\n")
        cfile.write_text("0 0\n1 1\n2 0\n2 1\n")
        res = run_cli("build", "--graph", str(gfile), "--pipeline", "surface",
                      "--coloring", str(cfile))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: duplicate coloring line 2 1")

    @pytest.mark.parametrize("flag, text", [("--A", "x\n"), ("--coloring", "0 a\n")],
                             ids=["vertex_set", "coloring"])
    def test_malformed_side_file_exit_2(self, tmp_path, flag, text):
        gfile, side = tmp_path / "g.g", tmp_path / "side.txt"
        run_cli("gen", "--model", "copm", "--k", "2", "--out", str(gfile))
        side.write_text(text)
        res = run_cli("build", "--graph", str(gfile), "--pipeline", "surface",
                      flag, str(side))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_tampered_rep_exit_1_with_witness(self, tmp_path):
        gfile = tmp_path / "g.g"
        rfile = tmp_path / "r.br"
        run_cli("gen", "--model", "copm", "--k", "2", "--out", str(gfile))
        run_cli("build", "--graph", str(gfile), "--pipeline", "edge",
                "--seed", "1", "--out", str(rfile))
        rep = parse_representation(rfile.read_text())
        lo, hi = rep.lo[0].tolist(), rep.hi[0].tolist()
        hi[0] += 50  # re-cover a killed non-edge everywhere
        lines = [f"boxrep 4 1", "dim 1"]
        lines += [f"{v} {lo[v]} {hi[v]}" for v in range(4)]
        rfile.write_text("\n".join(lines) + "\n")
        res = run_cli("verify", "--graph", str(gfile), "--rep", str(rfile))
        assert res.returncode == 1
        assert res.stdout == "invalid\n"
        assert "edge" in res.stderr

    @pytest.mark.parametrize("line", ["0 0 1\n1 3 2\n", f"0 0 1\n1 0 {10**23}\n"],
                             ids=["empty_interval", "outside_int64"])
    def test_malformed_rep_exit_2(self, tmp_path, line):
        gfile = tmp_path / "g.g"
        rfile = tmp_path / "r.br"
        run_cli("gen", "--model", "copm", "--k", "1", "--out", str(gfile))
        rfile.write_text("boxrep 2 1\ndim 1\n" + line)
        res = run_cli("verify", "--graph", str(gfile), "--rep", str(rfile))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ("build", "--pipeline", "edge"), ("build", "--pipeline", "surface"), ("exact",),
    ], ids=["edge", "surface", "exact"])
    def test_oversized_header_exit_3(self, tmp_path, args):
        gfile = tmp_path / "g.g"
        gfile.write_text(f"{10**22} 0")
        res = run_cli(*args, "--graph", str(gfile), timeout=30)
        assert res.returncode == 3
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ("exact",), ("poset",), ("build", "--pipeline", "edge"),
    ], ids=["exact", "poset", "build"])
    def test_negative_vertex_count_exit_2(self, tmp_path, args):
        gfile = tmp_path / "g.g"
        gfile.write_text("-1 0\n")
        res = run_cli(*args, "--graph", str(gfile))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr == "error: bad header '-1 0': negative vertex count\n"

    @pytest.mark.parametrize("args", [
        ("verify", "--graph", "{bad}", "--rep", "{bad}"),
        ("verify", "--graph", "{g}", "--rep", "{bad}"),
        ("exact", "--graph", "{bad}"),
        ("poset", "--graph", "{bad}"),
        ("build", "--graph", "{bad}", "--pipeline", "edge"),
        ("build", "--graph", "{g}", "--pipeline", "surface", "--A", "{bad}"),
        ("build", "--graph", "{g}", "--pipeline", "surface", "--coloring", "{bad}"),
    ], ids=["verify_graph", "verify_rep", "exact", "poset", "build_graph",
            "build_A", "build_coloring"])
    def test_non_utf8_file_exit_2(self, tmp_path, args):
        gfile, bad = tmp_path / "g.g", tmp_path / "bad.txt"
        run_cli("gen", "--model", "copm", "--k", "2", "--out", str(gfile))
        bad.write_bytes(b"4 0\n\xff\n")
        res = run_cli(*(a.format(g=gfile, bad=bad) for a in args))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_directory_as_graph_exit_2(self, tmp_path):
        res = run_cli("verify", "--graph", str(tmp_path), "--rep", str(tmp_path))
        assert res.returncode == 2
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr


class TestPosetReportExperiment:
    def test_poset_output(self, tmp_path):
        gfile = tmp_path / "g.g"
        run_cli("gen", "--model", "copm", "--k", "2", "--out", str(gfile))
        res = run_cli("poset", "--graph", str(gfile))
        assert res.returncode == 0
        assert res.stdout.splitlines()[0] == "poset 8"

    def test_report_table(self):
        res = run_cli("report", "--n", "50", "--m", "100")
        assert res.returncode == 0
        assert "826.246" in res.stdout
        res = run_cli("report", "--n", "100", "--m", "50", "--k", "3", "--csv")
        assert "degenerate_cover" in res.stdout

    @pytest.mark.parametrize("flag", ["--n", "--m", "--g"])
    def test_report_overflow_exit_2(self, flag):
        args = {"--n": "10", "--m": "5", flag: str(10**400)}
        res = run_cli("report", *(x for item in args.items() for x in item))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_report_integer_row_too_long_exit_2(self):
        res = run_cli("report", "--n", "10", "--m", "5", "--k", str(10**2200))
        assert res.returncode == 2
        assert res.stdout == ""
        assert res.stderr.startswith("error: ") and "Traceback" not in res.stderr

    def test_experiment(self):
        res = run_cli("experiment", "--n", "32", "--trials", "5", "--seed", "3")
        assert res.returncode == 0
        assert "fraction_within_cap" in res.stdout

    def test_experiment_answers_a_sample_with_21_nonedges(self):
        # the only sample has a component with 21 non-edges
        res = run_cli("experiment", "--n", "4", "--trials", "1", "--seed", "232")
        assert res.returncode == 0
        assert res.stdout.splitlines()[-1] == "boxicity_distribution = {1: 1}"
        csv = run_cli("experiment", "--n", "4", "--trials", "1", "--seed", "232",
                      "--csv")
        assert csv.stdout.splitlines()[-1].endswith(",1")

    def test_experiment_draw_budget_exit_3(self):
        res = run_cli("experiment", "--n", "1000", "--trials", "1000")
        assert res.returncode == 3
        assert res.stdout == ""
        assert "1000000000 random draws" in res.stderr


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("gen", "--model", "bipartite", "--n", "16", "--seed", "9"),
        ("gen", "--model", "kdegen", "--n", "18", "--k", "3", "--seed", "9"),
        ("report", "--n", "30", "--m", "60", "--g", "2", "--k", "4"),
        ("experiment", "--n", "16", "--trials", "4", "--seed", "2"),
    ])
    def test_stdout_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_build_byte_identical(self, tmp_path):
        gfile = tmp_path / "g.g"
        run_cli("gen", "--model", "kdegen", "--n", "15", "--k", "2",
                "--seed", "4", "--out", str(gfile))
        outs = []
        for _ in range(2):
            res = run_cli("build", "--graph", str(gfile), "--pipeline", "edge",
                          "--mode", "paper", "--seed", "11")
            assert res.returncode == 0
            outs.append(res.stdout)
        assert outs[0] == outs[1]


# every subcommand's option strings; a change here is an interface change
_OPTIONS = {
    "gen": ["-h", "--help", "--model", "--n", "--k", "--seed", "--out"],
    "build": ["-h", "--help", "--graph", "--pipeline", "--mode", "--g", "--A",
              "--coloring", "--seed", "--out"],
    "verify": ["-h", "--help", "--graph", "--rep"],
    "exact": ["-h", "--help", "--graph", "--poset"],
    "poset": ["-h", "--help", "--graph", "--out"],
    "report": ["-h", "--help", "--n", "--m", "--g", "--k", "--csv"],
    "experiment": ["-h", "--help", "--n", "--trials", "--seed", "--csv"],
}


def test_subcommand_options_are_pinned():
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: [s for a in p._actions for s in a.option_strings]
             for name, p in sub.choices.items()}
    assert found == _OPTIONS


_TOKENS = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["boxrep", "poset", "dim", "#", "x", "1.5", "-", "",
                     "1_0", str(2**63), str(10**30)]))
_TEXTS = st.one_of(
    st.text(max_size=40),
    st.tuples(st.sampled_from(["", "3 2\n", "boxrep 2 1\ndim 1\n", "poset 3\n"]),
              st.lists(st.lists(_TOKENS, max_size=4).map(" ".join), max_size=6)
              ).map(lambda t: t[0] + "\n".join(t[1])))


@pytest.mark.parametrize("parse", [parse_graph, parse_representation,
                                   cli._parse_vertex_set, cli._parse_coloring],
                         ids=lambda f: f.__name__)
@settings(max_examples=300)
@given(text=_TEXTS)
def test_parsers_raise_only_boxrep_errors(parse, text):
    try:
        parse(text)
    except BoxrepError:
        pass


@settings(max_examples=300)
@given(text=_TEXTS)
def test_parsed_graphs_pass_the_constructor(text):
    # parse_graph builds through `_trusted`; whatever it accepts, the
    # validating constructor accepts unchanged
    try:
        g = parse_graph(text)
    except BoxrepError:
        return
    assert Graph(g.n, g.edges) == g
