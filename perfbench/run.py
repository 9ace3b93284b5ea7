"""Benchmark for boxrep: certificate cost and size through the public API.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload edge_paper --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run is one process and one workload, as a closed loop on one thread: a
pass builds, verifies and solves every input of the workload in turn, and
passes repeat until `--seconds` have elapsed (at least one pass). With
`--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics of
metrics.PER_LAYER. Every certificate is re-checked by checker.py outside the
timed regions, and every time is scaled to a reference CPU speed (Clock).
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ast
import bisect
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from checker import CertificateError, check_certificate
from metrics import END_TO_END_UNITS, PER_LAYER_UNITS
from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

SETUP_REPS = 5
PAPER_CONSTANT = 15 * math.e + 1
# Seconds the reference work takes at reference speed: its median on the
# 2-vCPU virtual machine where the benchmark was defined (Python 3.11,
# numpy 2.4).
REFERENCE_S = 0.0115
CALIBRATE_EVERY_S = 0.2


class MissingPackage(Exception):
    pass


def import_package():
    """Import boxrep afresh from this checkout's src directory."""
    if not (SRC / "boxrep" / "__init__.py").is_file():
        raise MissingPackage(f"no boxrep package under {SRC}")
    for name in [m for m in sys.modules if m == "boxrep" or m.startswith("boxrep.")]:
        del sys.modules[name]
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    bx = importlib.import_module("boxrep")
    if not Path(bx.__file__).resolve().is_relative_to(SRC.resolve()):
        raise MissingPackage(f"boxrep imported from {bx.__file__}, not {SRC}")
    return bx


def reference_work() -> int:
    """A fixed mix of interpreter and numpy work, used to gauge CPU speed."""
    total = 0
    for i in range(100_000):
        total += i * i
    a = np.arange(400_000, dtype=np.int64)
    return total + int((a * a).sum() & 1) + int(np.sort(a[::-1])[0])


class Clock:
    """Scales wall time to a reference CPU speed.

    The virtual CPUs this benchmark runs on change speed by 10-45% over
    seconds to minutes, which moves every timing of a run together. Runs
    therefore time `reference_work` between operations, at least every
    CALIBRATE_EVERY_S and outside the timed regions, and scale each timed
    interval by REFERENCE_S / (median of the NEAREST reference timings
    around it).
    """

    NEAREST = 7

    def __init__(self):
        self.mids: list[float] = []
        self.samples: list[float] = []
        self._last = -math.inf

    def calibrate(self) -> None:
        start = time.perf_counter()
        reference_work()
        self._last = time.perf_counter()
        self.mids.append((start + self._last) / 2)
        self.samples.append(self._last - start)

    def tick(self) -> None:
        if time.perf_counter() - self._last >= CALIBRATE_EVERY_S:
            self.calibrate()

    def factor(self, start: float, end: float) -> float:
        """REFERENCE_S / local reference time, for the interval [start, end]."""
        i = bisect.bisect_left(self.mids, (start + end) / 2)
        lo = max(0, min(i - self.NEAREST // 2, len(self.samples) - self.NEAREST))
        return REFERENCE_S / statistics.median(self.samples[lo:lo + self.NEAREST])

    def scaled(self, start: float, end: float) -> float:
        return (end - start) * self.factor(start, end)


@dataclass
class PassResult:
    # (kind, case index, start, end) of every timed call that succeeded;
    # kind is "build", "verify" or "exact"
    timings: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    dims_total: int = 0
    paper_ratio_max: float = 0.0
    half_n_ratio_max: float = 0.0
    exact_gap_total: int = 0
    counts: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def timed(self, kind: str, case: int, start: float) -> None:
        self.timings.append((kind, case, start, time.perf_counter()))

    def fail(self, where: str, why: str) -> None:
        self.failed += 1
        self.failures.append(f"{where}: {why}")

    def add(self, key: str, value) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def seconds(self, clock: Clock, kind: str) -> float:
        return sum(clock.scaled(s, e) for k, _, s, e in self.timings if k == kind)

    def graph_build_s(self, clock: Clock) -> list[float]:
        per_case: dict[int, float] = {}
        for kind, case, s, e in self.timings:
            if kind == "build":
                per_case[case] = per_case.get(case, 0.0) + clock.scaled(s, e)
        return list(per_case.values())

    def fingerprint(self) -> tuple:
        """Everything a pass computes that must repeat exactly."""
        return (self.attempted, self.failed, self.dims_total, self.paper_ratio_max,
                self.half_n_ratio_max, self.exact_gap_total, sorted(self.counts.items()))


def build(bx, job, g):
    """Run one job; returns (representation or None, pipeline trace or None)."""
    kind = job[0]
    if kind == "edge":
        return bx.edge_pipeline(g, mode=job[1], seed=job[2])
    if kind == "surface":
        _, genus, a, colour = job
        if colour is None:
            colouring = bx.smallest_acyclic_coloring(g)
        else:
            colouring = bx.Coloring(dict(colour), len(set(colour.values())))
        return bx.surface_pipeline(g, genus, a, colouring)
    if kind == "roberts":
        return bx.roberts_rep(g), None
    if kind == "trivial":
        return bx.trivial_rep(g), None
    if kind == "forest":
        return bx.forest_rep(g), None
    if kind == "acyclic":
        return bx.acyclic_rep(g, bx.smallest_acyclic_coloring(g)), None
    if kind == "degenerate":
        order, k = bx.degeneracy_order(g)
        return bx.degenerate_rep(g, order, k, bx.DegenerateStrategy(seed=job[1])), None
    raise ValueError(f"unknown job {job!r}")


def pipeline_counts(res: PassResult, kind: str, trace) -> None:
    """Per-layer counts read from the trace text that `boxrep build` prints."""
    for line in trace.to_text().splitlines():
        key, _, value = line.partition(" = ")
        if kind == "edge" and key == "component":
            entry = ast.literal_eval(value)
            if "k" in entry:
                res.add("pipelines.edge.k_used", entry["k"])
                res.add("pipelines.edge.survivors", entry["survivors"])
                res.add("pipelines.edge.h_dims", entry["h_dims"])
                res.add("pipelines.edge.s_dims", entry["s_dims"])
        elif kind == "surface" and key in ("quotient_dims", "g2_dims"):
            res.add(f"pipelines.surface.{key}", int(value))


def run_case(bx, index: int, case, res: PassResult, clock: Clock, tracer) -> None:
    g = bx.Graph.from_edges(case.n, case.edges)
    dims = []             # d of every certificate built on this graph
    interval = None       # whether trivial_rep found one dimension
    for job in case.jobs:
        where = f"{case.name} {job[0]}"
        if tracer:
            tracer.new_scope()
        res.attempted += 1
        try:
            start = time.perf_counter()
            rep, trace = build(bx, job, g)
            text = bx.write_representation(rep) if rep is not None else None
            res.timed("build", index, start)
        except Exception:  # a failed operation is counted, and the run goes on
            res.fail(where, traceback.format_exc(limit=2))
            continue
        if job[0] == "trivial":
            interval = rep is not None
            if rep is None:
                continue
        if trace is not None:
            pipeline_counts(res, job[0], trace)
        try:
            missing, uncovered = check_certificate(case.n, case.edges, text)
        except CertificateError as exc:
            res.fail(where, f"malformed certificate: {exc}")
            continue
        valid = missing is None and uncovered is None
        if not valid:
            res.fail(where, f"checker: missing_edge={missing} uncovered_nonedge={uncovered}")
        d = rep.d
        dims.append(d)
        res.dims_total += d
        if job[0] in ("edge", "surface") and case.fixed and case.n >= 2:
            res.half_n_ratio_max = max(res.half_n_ratio_max, d / (case.n / 2))
            m = len(case.edges)
            if m:
                bound = PAPER_CONSTANT * math.sqrt(m * math.log(case.n))
                res.paper_ratio_max = max(res.paper_ratio_max, d / bound)

        clock.tick()
        res.attempted += 1
        try:
            start = time.perf_counter()
            report = bx.verify_representation(g, bx.parse_representation(text))
            res.timed("verify", index, start)
        except Exception:
            res.fail(f"{where} verify", traceback.format_exc(limit=2))
            continue
        if report.valid != valid:
            res.fail(f"{where} verify", f"oracle says valid={report.valid}, checker {valid}")
        clock.tick()

    if case.exact or case.expect_box is not None:
        run_exact(bx, index, case, g, dims, interval, res)
        clock.tick()


def run_exact(bx, index: int, case, g, dims, interval, res: PassResult) -> None:
    where = f"{case.name} exact"
    res.attempted += 1
    try:
        start = time.perf_counter()
        box = bx.exact_boxicity(g)
        pdim = bx.exact_poset_dimension(bx.adjacency_poset(g)) if case.exact else None
        res.timed("exact", index, start)
    except Exception:
        res.fail(where, traceback.format_exc(limit=2))
        return
    problems = []
    if case.expect_box is not None and box != case.expect_box:
        problems.append(f"boxicity {box}, expected {case.expect_box}")
    if any(d < box for d in dims):
        problems.append(f"a certificate with d={min(dims)} beats exact boxicity {box}")
    if interval is not None and interval != (box == 1):
        problems.append(f"trivial_rep interval={interval} but exact boxicity {box}")
    # Hiraguchi: a poset on 2n >= 4 elements has dimension at most n
    if pdim is not None and not 1 <= pdim <= max(2, case.n):
        problems.append(f"poset dimension {pdim} outside [1, {max(2, case.n)}]")
    if problems:
        res.fail(where, "; ".join(problems))
    res.exact_gap_total += sum(d - box for d in dims)


def run_experiment(bx, n, trials, seed, res: PassResult) -> None:
    where = f"bipartite_experiment({n}, {trials})"
    res.attempted += 1
    try:
        start = time.perf_counter()
        report = bx.bipartite_experiment(n, trials, seed=seed)
        res.timed("exact", -1, start)
    except Exception:
        res.fail(where, traceback.format_exc(limit=2))
        return
    cap = 2.0 * n * n / math.log(n)
    ok = (len(report.edge_counts) == trials
          and report.within_cap == sum(m <= cap for m in report.edge_counts)
          and all(0 <= m <= n * n for m in report.edge_counts))
    if n <= 4:
        dist = report.boxicity_distribution
        ok = ok and sum(dist.values()) + report.over_limit == trials
        ok = ok and all(1 <= b <= n for b in dist)
    if not ok:
        res.fail(where, "inconsistent report")


def run_pass(bx, workload, clock: Clock, tracer=None) -> PassResult:
    res = PassResult()
    clock.calibrate()
    for index, case in enumerate(workload.cases):
        run_case(bx, index, case, res, clock, tracer)
    for n, trials, seed in workload.experiments:
        if tracer:
            tracer.new_scope()
        run_experiment(bx, n, trials, seed, res)
        clock.tick()
    # reference timings after the last operations, as before the first
    for _ in range(Clock.NEAREST // 2 + 1):
        clock.calibrate()
    return res


def quantile(values, q: int) -> float:
    """The q-th percentile, interpolated between samples (never beyond them)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(passes, clock: Clock, setup_s: float) -> tuple[dict, list[str]]:
    graph_ms = [[1000 * t for t in p.graph_build_s(clock)] for p in passes]
    first = passes[0]
    values = {
        "setup_s": setup_s,
        "build_s": statistics.median(p.seconds(clock, "build") for p in passes),
        "verify_s": statistics.median(p.seconds(clock, "verify") for p in passes),
        "exact_s": statistics.median(p.seconds(clock, "exact") for p in passes),
        # percentiles within each pass, whose graphs are the same every pass
        "build_p50_ms": statistics.median(quantile(ms, 50) for ms in graph_ms),
        "build_p99_ms": statistics.median(quantile(ms, 99) for ms in graph_ms),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "dims_total": first.dims_total,
        "dims_over_paper_bound_max": first.paper_ratio_max,
        "dims_over_half_n_max": first.half_n_ratio_max,
        "exact_gap_total": first.exact_gap_total,
    }
    count = len(graph_ms[0])
    notes = [f"per-graph build samples = {count} per pass "
             f"(about {count - math.ceil(0.99 * count)} beyond p99)"]
    return values, notes


def per_layer(traced, untraced, tracers, clock: Clock) -> dict:
    rows = []
    for res, tracer in zip(traced, tracers):
        row = tracer.layer_metrics(clock.factor)
        row.update(res.counts)
        pair_dims = row.get("intervals.verify.pair_dims", 0)
        repeat = row.pop("intervals.verify.repeat_pair_dims", 0)
        row["intervals.verify.repeat_frac"] = repeat / pair_dims if pair_dims else 0.0
        row["intervals.verify.ns_per_pair_dim"] = (
            1e9 * row["intervals.verify_s"] / pair_dims if pair_dims else 0.0)
        rows.append(row)
    total = lambda p: sum(p.seconds(clock, kind) for kind in ("build", "verify", "exact"))
    values = {name: statistics.median(r.get(name, 0) for r in rows)
              for name in PER_LAYER_UNITS if name != "trace_overhead_frac"}
    values["trace_overhead_frac"] = (statistics.median(map(total, traced))
                                     / statistics.median(map(total, untraced)) - 1)
    return values


def write_spans(tracer, workload: str, seed: int) -> Path:
    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}, fh)
    return path


def run(workload: str, seed: int, seconds: float, traced: bool) -> int:
    clock = Clock()
    setup_times = []
    for _ in range(SETUP_REPS):
        clock.calibrate()
        start = time.perf_counter()
        bx = import_package()
        inputs = WORKLOADS[workload](bx, seed)
        setup_times.append(time.perf_counter() - start)
    clock.calibrate()
    setup_s = statistics.median(setup_times) * REFERENCE_S / statistics.median(clock.samples)

    plain, with_trace, tracers = [], [], []
    started = time.perf_counter()
    while True:
        if traced and len(plain) > len(with_trace):
            tracer = Tracer()
            tracer.install()
            try:
                with_trace.append(run_pass(bx, inputs, clock, tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
        else:
            plain.append(run_pass(bx, inputs, clock))
        if time.perf_counter() - started >= seconds and (not traced or with_trace):
            break

    passes = plain + with_trace
    correct = all(p.fingerprint() == passes[0].fingerprint() for p in passes)
    if not correct:
        print("error: passes over the same inputs disagree on their counts", file=sys.stderr)
    for failure in passes[0].failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = correct and failed == 0

    if traced:
        values = per_layer(with_trace, plain, tracers, clock)
        units = PER_LAYER_UNITS
        notes = [f"untraced passes = {len(plain)}, traced passes = {len(with_trace)}",
                 f"spans written to {write_spans(tracers[-1], workload, seed).relative_to(ROOT)}"]
    else:
        values, notes = end_to_end(passes, clock, setup_s)
        units = END_TO_END_UNITS

    print(f"workload = {workload}, seed = {seed}, trace = {int(traced)}")
    print(f"passes = {len(passes)}, set-ups = {SETUP_REPS}, "
          f"reference work {statistics.median(clock.samples):.4g} s "
          f"(median of {len(clock.samples)}; {REFERENCE_S} s at reference speed)")
    for note in notes:
        print(note)
    print(f"ops_failed_frac = {failed / attempted:.6g} ({failed} of {attempted} operations)")
    for name, unit in units.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so each peak RSS belongs to one workload
        status = 0
        for name in WORKLOADS:
            status |= subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
        return status
    try:
        return run(args.workload, args.seed, args.seconds, bool(args.trace))
    except MissingPackage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
