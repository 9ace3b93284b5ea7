"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import math
import time
from fractions import Fraction

import pytest

from boxrep.builders import (
    DegenerateStrategy,
    acyclic_rep,
    degenerate_rep,
    forest_rep,
    roberts_rep,
    trivial_rep,
)
from boxrep.coloring import Coloring, chromatic_number, smallest_acyclic_coloring
from boxrep.combinators import split_compose
from boxrep.exact import exact_boxicity, exact_poset_dimension
from boxrep.graph import (
    assert_k3k,
    components,
    degeneracy_order,
    generate,
    peel,
    quotient_by_a_neighborhood,
)
from boxrep.intervals import verify_representation
from boxrep.pipelines import edge_pipeline, surface_pipeline
from boxrep.poset import adjacency_poset
from boxrep.rng import SplitMix64

from conftest import (all_graphs_upto, complete_graph, cored150, cycle_graph,
                      random_graph, run_boxrep)
from test_forest_walk import is_forest

SEEDS = range(10)

_CACHE = {}


def small_corpus():
    if "small" not in _CACHE:
        _CACHE["small"] = list(all_graphs_upto(5))
    return _CACHE["small"]


def random_corpus():
    """Seeded generator graphs up to n = 60, ten seeds per configuration."""
    if "random" not in _CACHE:
        graphs = []
        for seed in SEEDS:
            for n, k in ((20, 2), (40, 3), (60, 3)):
                graphs.append(generate("kdegen", n=n, k=k, seed=seed))
            for side in (4, 8, 15):
                graphs.append(generate("bipartite", n=side, seed=seed))
            for k in (2, 3, 4, 5, 10, 15):
                graphs.append(generate("copm", k=k, seed=seed))
        _CACHE["random"] = graphs
    return _CACHE["random"]


def built_reps(g, seed=0):
    """Every builder and pipeline applicable to the graph."""
    reps = [("roberts", roberts_rep(g))]
    if g.n <= 12:
        tv = trivial_rep(g)
        if tv is not None:
            reps.append(("trivial", tv))
    if is_forest(g):
        reps.append(("forest", forest_rep(g)))
    if g.n <= 8:
        col = smallest_acyclic_coloring(g)
        reps.append(("acyclic", acyclic_rep(g, col)))
    order, k = degeneracy_order(g)
    reps.append(("degenerate", degenerate_rep(g, order, k,
                                              DegenerateStrategy(seed=seed))))
    if g.n >= 2:
        rep, _ = edge_pipeline(g, mode="reference", seed=seed)
        reps.append(("edge_pipeline", rep))
    if g.n <= 8:
        rep, _ = surface_pipeline(g, 0, frozenset(),
                                  smallest_acyclic_coloring(g), seed=seed)
        reps.append(("surface_pipeline", rep))
    return reps


def small_corpus_reps():
    if "small_reps" not in _CACHE:
        _CACHE["small_reps"] = [(g, built_reps(g)) for g in small_corpus()]
    return _CACHE["small_reps"]


def _report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {criterion}: {status} ({detail}) "
          f"[{elapsed:.1f}s of {budget}s budget]")
    assert ok, f"criterion {criterion}: {detail}"
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s budget"


def test_criterion_01_oracle_validity_master():
    started = time.time()
    failures = 0
    total_reps = 0
    graphs = 0
    for g, reps in small_corpus_reps():
        graphs += 1
        for _, rep in reps:
            total_reps += 1
            if not verify_representation(g, rep).valid:
                failures += 1
    for g in random_corpus():
        graphs += 1
        for _, rep in built_reps(g, seed=1):
            total_reps += 1
            if not verify_representation(g, rep).valid:
                failures += 1
    elapsed = time.time() - started
    assert graphs >= 1000
    _report(1, failures == 0,
            f"{total_reps} representations over {graphs} graphs, "
            f"{failures} oracle failures", elapsed, 120)


def test_criterion_02_pairing_equality_family():
    started = time.time()
    ok = True
    for k in (2, 3, 4):
        g = generate("copm", k=k)
        ok &= exact_boxicity(g) == k
        ok &= roberts_rep(g).d == k
    _report(2, ok, "exact boxicity and pairing dimensions equal k for "
            "complements of perfect matchings, k=2..4", time.time() - started, 10)


def test_criterion_03_split_compose_accounting():
    started = time.time()
    rng = SplitMix64(7)
    checked = 0
    ok = True
    while checked < 100:
        n = 4 + rng.below(6)
        g = random_graph(n, 30 + rng.below(50), seed=rng.next_u64())
        size = 1 + rng.below(n - 1)
        s = rng.sample(n, size)
        h = g.remove_edges_inside(s)
        order, k = degeneracy_order(h)
        r_h = degenerate_rep(h, order, k, DegenerateStrategy(seed=rng.next_u64()))
        gs, _ = g.induced(s)
        order_s, k_s = degeneracy_order(gs)
        r_s = degenerate_rep(gs, order_s, k_s,
                             DegenerateStrategy(seed=rng.next_u64()))
        out = split_compose(r_h, r_s, s, g)
        ok &= out.d == 2 * r_h.d + r_s.d
        ok &= verify_representation(g, out).valid
        checked += 1
    _report(3, ok, f"{checked} randomized instances sized exactly 2d+d'",
            time.time() - started, 10)


def test_criterion_04_acyclic_accounting():
    started = time.time()
    rng = SplitMix64(2024)
    ok = True
    for _ in range(200):
        n = 1 + rng.below(8)
        g = random_graph(n, 20 + rng.below(61), seed=rng.next_u64())
        col = smallest_acyclic_coloring(g)
        rep = acyclic_rep(g, col)
        expected = col.k * (col.k - 1) if col.k >= 2 else 1
        ok &= rep.d == expected
        ok &= verify_representation(g, rep).valid
    _report(4, ok, "200 exact acyclic colorings on n <= 8, dims k(k-1), all valid",
            time.time() - started, 60)


def test_criterion_05_edge_pipeline_paper_mode():
    started = time.time()
    ok = True
    graphs = 0
    for g in small_corpus() + random_corpus():
        if g.n < 2:
            continue
        graphs += 1
        # structural replay of the peeling stage, per component
        for comp, _ in components(g):
            if comp.m == 0:
                continue
            theta_f = math.sqrt(comp.m / math.log(comp.n))
            survivors = peel(comp, Fraction(theta_f))
            ok &= len(survivors) <= 2 * math.sqrt(comp.m * math.log(comp.n))
            h = comp.remove_edges_inside(survivors)
            ok &= degeneracy_order(h)[1] <= math.ceil(theta_f)
        rep, trace = edge_pipeline(g, mode="paper", seed=3)
        ok &= verify_representation(g, rep).valid
        for comp_entry in trace.get_all("component"):
            if comp_entry["m"] == 0:
                continue
            cap = (2 * comp_entry["h_size_bound"]
                   + max(1, comp_entry["survivors"] // 2))
            ok &= comp_entry["dims"] <= cap
    _report(5, ok, f"paper-mode peeling invariants and reference-strategy size "
            f"caps on {graphs} corpus graphs", time.time() - started, 120)


def test_criterion_06_surface_pipeline():
    started = time.time()
    k7 = complete_graph(7)
    rep, trace = surface_pipeline(
        k7, 2, frozenset(), Coloring({v: v for v in range(7)}, 7))
    ok = (trace.get("g2_dims") == 42 and trace.get("g1_dims") == 2
          and trace.get("dims_unpruned") == 44 and rep.d == 1
          and verify_representation(k7, rep).valid)
    rng = SplitMix64(99)
    for _ in range(50):
        n = 4 + rng.below(6)
        g = random_graph(n, 30 + rng.below(50), seed=rng.next_u64())
        a = frozenset(rng.sample(n, rng.below(n + 1)))
        report = assert_k3k(g, a, genus=0)
        declared = max(0, math.ceil((report.max_count - 2) / 2))
        check = assert_k3k(g, a, declared)
        ok &= check.passed
        q = quotient_by_a_neighborhood(g, a)
        cap = (1 + len(a) + math.comb(len(a), 2)
               + (2 * declared + 2) * math.comb(len(a), 3))
        ok &= len(q.reps) <= cap
    _report(6, ok, "K_7 trace is 42+2=44, pruned to 1, and 50 random (G, A) instances satisfy "
            "the common-neighbor and class-count formulas",
            time.time() - started, 60)


def test_criterion_07_exact_vs_construction_sandwich():
    started = time.time()
    ok = True
    for g, reps in small_corpus_reps():
        box = exact_boxicity(g)
        for label, rep in reps:
            ok &= box <= rep.d
    for n in range(1, 6):
        ok &= exact_boxicity(complete_graph(n)) == 1
    ok &= exact_boxicity(cycle_graph(4)) == 2
    _report(7, ok, "exact boxicity below every construction on all n <= 5, "
            "complete graphs at 1, C_4 at 2", time.time() - started, 120)


def test_criterion_08_degenerate_builder_statistics():
    started = time.time()
    no_fallback = 0
    ok = True
    for seed in range(100):
        g = generate("kdegen", n=40, k=3, seed=seed)
        order, k = degeneracy_order(g)
        rep = degenerate_rep(g, order, k, DegenerateStrategy(seed=seed))
        if rep.metadata["fallback_dims"] == 0:
            no_fallback += 1
        round_dims = rep.metadata["round_dims"]
        for lo, hi in zip(rep.lo[:round_dims].tolist(), rep.hi[:round_dims].tolist()):
            # a hub dimension's members are points at pos+1 >= 1; the other
            # vertices' intervals start at 0
            members = [v for v in range(g.n) if lo[v] > 0]
            ok &= all(lo[v] == hi[v] for v in members)
            for i, u in enumerate(members):
                for v in members[i + 1:]:
                    ok &= (u, v) not in g.edges
    ok &= no_fallback >= 90
    _report(8, ok, f"coverage inside the round budget in {no_fallback}/100 runs, "
            "all emitted sets independent", time.time() - started, 60)


def test_criterion_09_poset_corollary_end_to_end():
    started = time.time()
    violations = 0
    for g in small_corpus():
        dim = exact_poset_dimension(adjacency_poset(g))
        bound = 2 * exact_boxicity(g) + chromatic_number(g) + 4
        if dim > bound:
            violations += 1
    _report(9, violations == 0,
            f"adjacency poset dimension within 2*box+chi+4 on all "
            f"{len(small_corpus())} graphs, {violations} violations",
            time.time() - started, 120)


def test_criterion_10_bipartite_edge_cap():
    started = time.time()
    n = 256
    cap = 2 * n * n / math.log(n)
    seeder = SplitMix64(0)
    within = 0
    for _ in range(100):
        g = generate("bipartite", n=n, seed=seeder.next_u64())
        if g.m <= cap:
            within += 1
    _report(10, within >= 95, f"{within}/100 samples within 2n^2/ln(n) edges",
            time.time() - started, 30)


def _run_cli(*args):
    res = run_boxrep(*args, text=True)
    return res.returncode, res.stdout


def test_criterion_11_determinism(tmp_path):
    started = time.time()
    gfile = tmp_path / "g.g"
    rc, _ = _run_cli("gen", "--model", "kdegen", "--n", "16", "--k", "2",
                     "--seed", "5", "--out", str(gfile))
    assert rc == 0
    c4file = tmp_path / "c4.g"
    _run_cli("gen", "--model", "copm", "--k", "2", "--out", str(c4file))
    rfile = tmp_path / "r.br"
    _run_cli("build", "--graph", str(gfile), "--pipeline", "edge",
             "--mode", "reference", "--seed", "2", "--out", str(rfile))
    invocations = [
        ("gen", "--model", "bipartite", "--n", "32", "--seed", "4"),
        ("gen", "--model", "kdegen", "--n", "16", "--k", "2", "--seed", "5"),
        ("gen", "--model", "copm", "--k", "4"),
        ("build", "--graph", str(gfile), "--pipeline", "edge",
         "--mode", "paper", "--seed", "11"),
        ("build", "--graph", str(gfile), "--pipeline", "edge",
         "--mode", "reference", "--seed", "11"),
        ("build", "--graph", str(c4file), "--pipeline", "surface",
         "--g", "1", "--seed", "11"),
        ("verify", "--graph", str(gfile), "--rep", str(rfile)),
        ("exact", "--graph", str(c4file), "--poset"),
        ("poset", "--graph", str(c4file)),
        ("report", "--n", "40", "--m", "70", "--g", "3", "--k", "2"),
        ("experiment", "--n", "16", "--trials", "5", "--seed", "8"),
        ("experiment", "--n", "16", "--trials", "5", "--seed", "8", "--csv"),
    ]
    ok = True
    for args in invocations:
        first = _run_cli(*args)
        second = _run_cli(*args)
        ok &= first == second
    _report(11, ok, f"{len(invocations)} seeded invocations byte-identical",
            time.time() - started, 60)


def test_criterion_12_paper_mode_within_the_paper_bound():
    started = time.time()
    ok = True
    details = []
    for name, g in (("kdegen300", generate("kdegen", n=300, k=3, seed=1)),
                    ("cored150", cored150()),
                    ("kdegen600", generate("kdegen", n=600, k=3, seed=1))):
        rep, _ = edge_pipeline(g, mode="paper", seed=1)
        bound = (15 * math.e + 1) * math.sqrt(g.m * math.log(g.n))
        ok &= rep.d <= bound and verify_representation(g, rep).valid
        details.append(f"{name} d={rep.d} <= {bound:.0f}")
    _report(12, ok, ", ".join(details), time.time() - started, 30)
