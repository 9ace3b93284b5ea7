"""Tests for the benchmark's own code: python -m pytest perfbench"""

import json
import re

import numpy as np
import pytest

import run
from checker import CertificateError, check_certificate, parse_certificate
from metrics import END_TO_END, PER_LAYER
from spans import WRAPPED, Tracer, self_times
from workloads import WORKLOADS, Case, Workload, desk_jobs

bx = run.import_package()


def write(n, lo, hi) -> str:
    lines = [f"boxrep {n} {lo.shape[0]}"]
    for j in range(lo.shape[0]):
        lines.append(f"dim {j + 1}")
        lines.extend(f"{v} {lo[j, v]} {hi[j, v]}" for v in range(n))
    return "\n".join(lines) + "\n"


def oracle(g, text):
    report = bx.verify_representation(g, bx.parse_representation(text))
    return report.missing_edge, report.uncovered_nonedge


# n=8 takes the package oracle's plain path, n=60 its numpy path
@pytest.fixture(params=[8, 60])
def certified(request):
    g = bx.generate("kdegen", seed=3, n=request.param, k=2)
    text = bx.write_representation(bx.roberts_rep(g))
    assert check_certificate(g.n, g.edges, text) == (None, None) == oracle(g, text)
    return g, parse_certificate(text)


def test_shrunk_interval_gives_the_oracles_missing_edge(certified):
    g, (n, lo, hi) = certified
    # shrink u to its left end in a dimension where v starts further right
    j, u, v = next((j, u, v) for u, v in sorted(g.edges) for j in range(lo.shape[0])
                   if lo[j, v] > lo[j, u])
    hi[j, u] = lo[j, u]
    text = write(n, lo, hi)
    missing, _ = check_certificate(n, g.edges, text)
    assert missing is not None and missing <= (u, v)
    assert (missing, check_certificate(n, g.edges, text)[1]) == oracle(g, text)


def test_widened_interval_gives_the_oracles_uncovered_nonedge(certified):
    g, (n, lo, hi) = certified
    u, v = next(p for p in g.nonedges())
    lo[:, u] = np.minimum(lo[:, u], lo[:, v])
    hi[:, u] = np.maximum(hi[:, u], hi[:, v])
    text = write(n, lo, hi)
    missing, uncovered = check_certificate(n, g.edges, text)
    assert missing is None and uncovered is not None and uncovered <= (u, v)
    assert (missing, uncovered) == oracle(g, text)


@pytest.mark.parametrize("text", [
    "boxrep 2 1\ndim 1\n0 0 1\n1 3 2\n",      # empty interval
    "boxrep 2 1\ndim 1\n1 0 1\n0 0 1\n",      # vertices out of order
    "boxrep 2 2\ndim 1\n0 0 1\n1 0 1\n",      # missing dimension
    "boxrep 2 1\ndim 1\n0 0 1\n1 0 x\n",      # not a number
])
def test_malformed_certificates_are_rejected(text):
    with pytest.raises(CertificateError):
        check_certificate(2, [(0, 1)], text)


def test_self_time_on_a_hand_built_tree():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),   # overlaps a: [1, 6] is covered once
        ("c", 2.0, 3.0, 1),
        ("d", 9.0, 12.0, 0),  # clipped to the root's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 1.0, 3.0])


def test_metric_names_and_counts():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    e2e = [m["name"] for m in spec["end_to_end"]]
    layer = [m["name"] for m in spec["per_layer"]]
    assert e2e == [name for name, _, _ in END_TO_END]
    assert layer == [row[0] for row in PER_LAYER]
    assert len(e2e) <= 16 and len(layer) <= 128
    assert len(set(e2e + layer)) == len(e2e) + len(layer)
    for name in e2e + layer:
        assert re.fullmatch(r"[A-Za-z0-9_.-]+", name), name
    assert {metric for _, _, metric in WRAPPED} <= set(layer)


def tiny_workload() -> Workload:
    cases = [Case(f"g{i}", n, edges, desk_jobs(n, edges, i), exact=n <= 5)
             for i, (n, edges) in enumerate([
                 (4, ((0, 1), (1, 2), (2, 3), (0, 3))),
                 (5, ((0, 1), (2, 3))),
                 (6, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (0, 3)))])]
    return Workload(cases, [(8, 2, 5)])


def test_traced_pass_counts_match_and_wrappers_are_removed():
    inputs = tiny_workload()
    plain = run.run_pass(bx, inputs, run.Clock())
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_pass(bx, inputs, run.Clock(), tracer)
    finally:
        tracer.uninstall()
    assert plain.failed == 0 and plain.attempted > 0
    assert plain.fingerprint() == traced.fingerprint()
    counts = tracer.layer_metrics()
    assert counts["intervals.verify.calls"] > 0 and counts["exact.boxicity_s"] > 0
    assert not hasattr(bx.verify_representation, "__wrapped__")
    assert not hasattr(bx.intervals.verify_representation, "__wrapped__")
    assert not hasattr(bx.Graph.induced, "__wrapped__")


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_depend_only_on_the_seed(name):
    first, again = WORKLOADS[name](bx, 7), WORKLOADS[name](bx, 7)
    assert first == again
    assert WORKLOADS[name](bx, 8) != first
