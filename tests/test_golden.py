"""Golden CLI outputs: seeded commands must keep their exact bytes.

Each case runs one command and compares the sha256 of its stdout (or of its
--out file) with a constant recorded from an earlier release.
`build_surface_trace` hashes that build's stderr trace without its
`wall_time_s` line, so the order and values of the trace lines are pinned
too. A change that alters any of these bytes is a change of output, not a
refactor; when it is intended, record the new digests in the same change.
"""

import hashlib

import pytest

from conftest import run_boxrep

GOLDEN = {
    "gen_kdegen60":
        "a5f28d952aed85467c7ce72e8714f7293a8b0b7ab68862f021865cd34f04284a",
    "build_edge_paper":
        "1bf7e974ae28735d1b8c5e8da796345d92d6b1d45b2c30ed5f14d85835e4b7e1",
    "build_edge_reference":
        "1bf7e974ae28735d1b8c5e8da796345d92d6b1d45b2c30ed5f14d85835e4b7e1",
    "gen_kdegen14":
        "41bcdaa7dce179cd2af3c845f88b884c0d50cb38c52980d95b307b1af985a28a",
    "build_surface":
        "61a124402260fc40968c0bc6316d1fa959b4af54f0bd64b0c5d7af41b47910d4",
    "build_surface_trace":
        "32a44b31614f3c83e61f074428eda887f4d65132234beeab62be9cc151ed8e90",
    "verify":
        "009d962905920ad0e3ff46c6987fad36418982deb81796fd1f58e326d167c268",
    "report":
        "840c6186f47c171c671ff975b57bc84deaa8a508645775618a7baa58be86f9c9",
    "report_csv":
        "abd4c8311a2eaf29990f320551aad34451f975e3a476df6ac37f57b07b08e89f",
    "gen_copm2":
        "72a88baa3dc2fbae5972a468a69da63c882efb6f209da9cb08ee1a7662bf3f55",
    "exact_poset_copm2":
        "8dea02181b8df0eab817deae31a7ab165aee0410d9c252714b254f4e73e2f5bd",
    "gen_copm3":
        "d090d1c90202db4ae6db06d19b9274feff51dba8f7221c43508b3ab251084c6b",
    "exact_copm3":
        "eb04b6eac1875def71356209eb67cec3b3c601740e136672088f479d7f3a23ec",
    "exact_poset_copm3":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "exact_poset_triangle234":
        "99ac745294d4fb02df2ccef9598aa35b198f001027f88d15c8ef88fda28f78dd",
    "exact_poset_k4_1234":
        "fc38e87836a32bcacb9d6029ccc139252a0ab9f9dbc9f0037d4dd30c614cdb2c",
    "experiment_bipartite4_csv":
        "c6cf80966344916fcc80bebf397e931f782e976678eedde752f16e9067a557d5",
}


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Every golden command's (exit code, output bytes), keyed as GOLDEN."""
    tmp = tmp_path_factory.mktemp("golden")
    out = {}

    def run(key, *args, to_file=None):
        res = run_boxrep(*args, *(("--out", str(to_file)) if to_file else ()))
        out[key] = (res.returncode, to_file.read_bytes() if to_file else res.stdout)
        return res

    g60, g14, a = tmp / "kdegen60.g", tmp / "kdegen14.g", tmp / "a.txt"
    c2, c3 = tmp / "copm2.g", tmp / "copm3.g"
    a.write_text("0\n1\n")
    run("gen_kdegen60", "gen", "--model", "kdegen", "--n", "60", "--k", "3",
        "--seed", "1", to_file=g60)
    run("build_edge_paper", "build", "--graph", str(g60), "--pipeline", "edge",
        "--mode", "paper", "--seed", "1", to_file=tmp / "paper.br")
    run("build_edge_reference", "build", "--graph", str(g60), "--pipeline", "edge",
        "--mode", "reference", "--seed", "1")
    run("gen_kdegen14", "gen", "--model", "kdegen", "--n", "14", "--k", "2",
        "--seed", "5", to_file=g14)
    res = run("build_surface", "build", "--graph", str(g14), "--pipeline",
              "surface", "--g", "1", "--A", str(a), to_file=tmp / "surface.br")
    trace = [ln for ln in res.stderr.splitlines(keepends=True)
             if not ln.startswith(b"wall_time_s = ")]
    out["build_surface_trace"] = (res.returncode, b"".join(trace))
    run("verify", "verify", "--graph", str(g60), "--rep", str(tmp / "paper.br"))
    run("report", "report", "--n", "50", "--m", "100", "--g", "1", "--k", "2")
    run("report_csv", "report", "--n", "50", "--m", "100", "--g", "1", "--k", "2",
        "--csv")
    run("gen_copm2", "gen", "--model", "copm", "--k", "2", to_file=c2)
    run("exact_poset_copm2", "exact", "--graph", str(c2), "--poset")
    run("gen_copm3", "gen", "--model", "copm", "--k", "3", to_file=c3)
    run("exact_copm3", "exact", "--graph", str(c3))
    # 12 poset elements exceed POSET_GROUND_LIMIT: exit 3 with an empty stdout
    run("exact_poset_copm3", "exact", "--graph", str(c3), "--poset")
    # poset dimensions 3 and 4: a triangle on {2, 3, 4} and K4 on
    # {1, 2, 3, 4}, each beside isolated vertices
    tri, k4 = tmp / "triangle234.g", tmp / "k4_1234.g"
    tri.write_text("5 3\n2 3\n2 4\n3 4\n")
    k4.write_text("5 6\n1 2\n1 3\n1 4\n2 3\n2 4\n3 4\n")
    run("exact_poset_triangle234", "exact", "--graph", str(tri), "--poset")
    run("exact_poset_k4_1234", "exact", "--graph", str(k4), "--poset")
    # each sample's exact boxicity, from 8-vertex bipartite graphs
    run("experiment_bipartite4_csv", "experiment", "--n", "4", "--trials", "3",
        "--seed", "0", "--csv")
    return out


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_output_unchanged(outputs, key):
    code, data = outputs[key]
    assert code == (3 if key == "exact_poset_copm3" else 0)
    assert _digest(data) == GOLDEN[key]
