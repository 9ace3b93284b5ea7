"""Names, units and meaning of every metric the benchmark reports.

END_TO_END metrics come from untraced runs and are what a user of
`boxrep build/verify/exact/experiment` sees. Times are scaled to a reference
CPU speed (see run.Clock); medians are over the passes of one run.

PER_LAYER metrics come from the traced run; each row names the end-to-end
metric it should move, the workloads on which it should move it, and the
workloads on which it should stay flat. edge_paper and surface_apex also run
a sample of 136 five-vertex graphs, so a layer listed as flat there still
moves by the sample's small share. Later performance claims cite these names.
"""

END_TO_END = [
    # (name, unit, meaning)
    ("setup_s", "s", "fresh import of boxrep plus input generation, median of several set-ups"),
    ("build_s", "s", "pipeline/builder calls plus write_representation, per pass"),
    ("verify_s", "s", "parse_representation + verify_representation on the written text, per pass"),
    ("exact_s", "s", "exact_boxicity + exact_poset_dimension + bipartite_experiment, per pass"),
    ("build_p50_ms", "ms", "median per-graph build latency within a pass, median over passes"),
    ("build_p99_ms", "ms", "99th percentile per-graph build latency within a pass, median over passes"),
    ("peak_rss_mb", "MiB", "ru_maxrss of the run's process"),
    ("dims_total", "count", "sum of d over every certificate one pass builds"),
    ("dims_over_paper_bound_max", "ratio", "largest d / ((15e+1) sqrt(m ln n)) over pipeline outputs on the workload's fixed graphs"),
    ("dims_over_half_n_max", "ratio", "largest d / (n/2) over pipeline outputs on the workload's fixed graphs"),
    ("exact_gap_total", "count", "sum of (d - exact boxicity) over every certificate of a graph with a computed exact boxicity"),
]

EDGE, SURFACE, DESK = "edge_paper", "surface_apex", "desk_scale"
ALL = f"{EDGE}, {SURFACE}, {DESK}"

PER_LAYER = [
    # (name, unit, moves, on, stays flat on)
    ("intervals.verify_s", "s", "build_s, verify_s", f"{EDGE}, {SURFACE}", f"{DESK} exact_s"),
    ("intervals.verify.calls", "count", "build_s, verify_s", f"{EDGE}, {SURFACE}", f"{DESK} exact_s"),
    ("intervals.verify.pair_dims", "count", "build_s, verify_s", f"{EDGE} (large) vs {DESK} (tiny)", ""),
    ("intervals.verify.ns_per_pair_dim", "ns", "build_s, verify_s", f"{EDGE} (large) vs {DESK} (tiny)", ""),
    ("intervals.verify.repeat_frac", "ratio", "build_s", f"cored150 in {EDGE}, {SURFACE}", "kdegen300"),
    ("intervals.verify.peak_alloc_mb", "MiB", "peak_rss_mb", EDGE, DESK),
    ("intervals.rep_validate_s", "s", "build_s, verify_s", EDGE, DESK),
    ("intervals.rep_intervals", "count", "build_s, verify_s", EDGE, DESK),
    ("intervals.write_rep_s", "s", "build_s", EDGE, SURFACE),
    ("intervals.parse_rep_s", "s", "verify_s", EDGE, SURFACE),
    ("intervals.rep_mb", "MiB", "build_s, verify_s", EDGE, SURFACE),
    ("intervals.extend_universal_s", "s", "build_s", f"{SURFACE}, {DESK}", "kdegen300"),
    ("intervals.concat_s", "s", "build_s", f"{SURFACE}, {DESK}", "kdegen300"),
    ("intervals.merge_components_s", "s", "build_s", f"{DESK} (multi-component graphs)", "kdegen300"),
    ("combinators.split_compose_s", "s", "build_s", f"cored150 in {EDGE}", SURFACE),
    ("combinators.quotient_lift_s", "s", "build_s", SURFACE, EDGE),
    ("builders.degenerate_rep_s", "s", "build_s", EDGE, f"{DESK} exact_s"),
    ("builders.degenerate_rep.dims", "count", "dims_total, dims_over_paper_bound_max", EDGE, f"{DESK} exact_s"),
    ("builders.degenerate_rep.rounds", "count", "build_s, dims_total", EDGE, f"{DESK} exact_s"),
    ("builders.degenerate_rep.fallback_dims", "count", "dims_total", EDGE, f"{DESK} exact_s"),
    ("builders.roberts_rep_s", "s", "build_s", f"{DESK}, cored150", "kdegen300"),
    ("builders.roberts_rep.dims", "count", "dims_total", f"{DESK}, cored150", "kdegen300"),
    ("builders.acyclic_rep_s", "s", "build_s, build_p99_ms", f"{DESK}, {SURFACE}", EDGE),
    ("builders.trivial_rep_s", "s", "build_s, build_p99_ms", DESK, EDGE),
    ("coloring.smallest_acyclic_s", "s", "build_s, build_p99_ms", DESK, EDGE),
    ("graph.peel_s", "s", "build_s", f"{EDGE}, {DESK}", ""),
    ("graph.degeneracy_order_s", "s", "build_s", f"{EDGE}, {DESK}", ""),
    ("graph.subgraph_s", "s", "build_s", SURFACE, "kdegen300"),
    ("graph.quotient_s", "s", "build_s", SURFACE, "kdegen300"),
    ("exact.boxicity_s", "s", "exact_s", DESK, f"{EDGE}, {SURFACE} (sample only)"),
    ("exact.poset_dimension_s", "s", "exact_s", DESK, f"{EDGE}, {SURFACE} (sample only)"),
    ("pipelines.bipartite_experiment_s", "s", "exact_s", DESK, f"{EDGE}, {SURFACE} (sample only)"),
    ("pipelines.edge.k_used", "count", "dims_total, dims_over_paper_bound_max", EDGE, ""),
    ("pipelines.edge.survivors", "count", "dims_total, dims_over_paper_bound_max", EDGE, ""),
    ("pipelines.edge.h_dims", "count", "dims_total, dims_over_paper_bound_max", EDGE, ""),
    ("pipelines.edge.s_dims", "count", "dims_total, dims_over_paper_bound_max", EDGE, ""),
    ("pipelines.surface.quotient_dims", "count", "dims_total, dims_over_paper_bound_max", SURFACE, ""),
    ("pipelines.surface.g2_dims", "count", "dims_total, dims_over_paper_bound_max", SURFACE, ""),
    ("pipelines.self_s", "s", "build_s", ALL, ""),
    ("trace_overhead_frac", "ratio", "(none: traced / untraced pass time - 1)", ALL, ""),
]

END_TO_END_UNITS = {name: unit for name, unit, _ in END_TO_END}
PER_LAYER_UNITS = {row[0]: row[1] for row in PER_LAYER}
