"""Command-line entry point.

Results and serialized artifacts go to stdout (or --out); diagnostics and
pipeline traces go to stderr, so seeded invocations are byte-identical on
stdout and in files. Exit codes: 0 success/valid, 1 invalid verification,
2 usage, format or file error, 3 size-limit error.
"""

from __future__ import annotations

import argparse
import sys

from .coloring import Coloring
from .errors import BoxrepError, FormatError, InvalidParams, SizeLimitExceeded
from .exact import exact_boxicity, exact_poset_dimension
from .graph import generate, parse_graph, write_graph
from .intervals import (RECOGNITION_LIMIT, parse_representation, verify_representation,
                        write_representation)
from .pipelines import (
    bipartite_experiment,
    bound_report,
    edge_pipeline,
    format_bound_table,
    surface_pipeline,
)
from .poset import adjacency_poset, write_poset
from .rng import ALGORITHM


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _emit(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _rows(text: str, width: int, what: str):
    """The rows of `width` integers of a line file, skipping blank and '#' lines."""
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            row = [int(p) for p in ln.split()]
        except ValueError:
            row = []
        if len(row) != width:
            raise FormatError(f"bad {what} line {ln!r}")
        yield row


def _parse_vertex_set(text: str) -> frozenset:
    return frozenset(v for v, in _rows(text, 1, "vertex-set"))


def _parse_coloring(text: str) -> Coloring:
    color = {}
    for v, c in _rows(text, 2, "coloring"):
        if v in color:
            raise FormatError(f"duplicate coloring line {v} {c}")
        color[v] = c
    return Coloring(color, len(set(color.values())))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="boxrep")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a seeded graph")
    p.add_argument("--model", required=True, choices=["bipartite", "copm", "kdegen"])
    p.add_argument("--n", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("build", help="run a construction pipeline")
    p.add_argument("--graph", required=True)
    p.add_argument("--pipeline", required=True, choices=["edge", "surface"])
    p.add_argument("--mode", choices=["paper", "reference"], default="paper")
    p.add_argument("--g", type=int, default=0, help="declared Euler genus (surface)")
    p.add_argument("--A", dest="a_file", help="vertex-set file, one id per line")
    p.add_argument("--coloring", help="coloring file, 'v color' per line "
                   "(default: a smallest acyclic coloring of G-A)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify", help="check a representation against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--rep", required=True)

    p = sub.add_parser("exact", help="exact boxicity of a graph whose components have "
                       f"at most {RECOGNITION_LIMIT} vertices (and poset dimension)")
    p.add_argument("--graph", required=True)
    p.add_argument("--poset", action="store_true",
                   help="also compute the adjacency poset dimension")

    p = sub.add_parser("poset", help="write the adjacency poset of a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--out", default="-")

    p = sub.add_parser("report", help="closed-form bound table")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--g", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--csv", action="store_true")

    p = sub.add_parser("experiment", help="bipartite edge-count experiment")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", action="store_true")
    return parser


def _cmd_gen(args) -> int:
    g = generate(args.model, seed=args.seed, n=args.n, k=args.k)
    params = []
    if args.n is not None:
        params.append(f"n={args.n}")
    if args.k is not None:
        params.append(f"k={args.k}")
    comment = (f"model={args.model} {' '.join(params)} "
               f"seed={args.seed} prng={ALGORITHM}")
    _emit(write_graph(g, comments=[comment]), args.out)
    return 0


def _cmd_build(args) -> int:
    g = parse_graph(_read(args.graph))
    if args.pipeline == "edge":
        rep, trace = edge_pipeline(g, mode=args.mode, seed=args.seed)
    else:
        a = _parse_vertex_set(_read(args.a_file)) if args.a_file else frozenset()
        coloring = _parse_coloring(_read(args.coloring)) if args.coloring else None
        rep, trace = surface_pipeline(g, args.g, a, coloring, seed=args.seed)
    sys.stderr.write(trace.to_text(include_timings=True))
    _emit(write_representation(rep), args.out)
    return 0


def _cmd_verify(args) -> int:
    g = parse_graph(_read(args.graph))
    rep = parse_representation(_read(args.rep))
    report = verify_representation(g, rep)
    if report.valid:
        sys.stdout.write("valid\n")
        return 0
    sys.stdout.write("invalid\n")
    if report.missing_edge is not None:
        sys.stderr.write(f"missing_edge = {report.missing_edge}\n")
    if report.uncovered_nonedge is not None:
        sys.stderr.write(f"uncovered_nonedge = {report.uncovered_nonedge}\n")
    return 1


def _cmd_exact(args) -> int:
    g = parse_graph(_read(args.graph))
    # every answer before any output, so that a limit leaves stdout empty
    lines = [f"boxicity {exact_boxicity(g)}\n"]
    if args.poset:
        lines.append(f"poset dimension {exact_poset_dimension(adjacency_poset(g))}\n")
    sys.stdout.write("".join(lines))
    return 0


def _cmd_poset(args) -> int:
    g = parse_graph(_read(args.graph))
    _emit(write_poset(adjacency_poset(g)), args.out)
    return 0


def _cmd_report(args) -> int:
    rows = bound_report(args.n, args.m, genus=args.g, k=args.k)
    sys.stdout.write(format_bound_table(rows, csv=args.csv))
    return 0


def _cmd_experiment(args) -> int:
    report = bipartite_experiment(args.n, args.trials, seed=args.seed)
    sys.stdout.write(report.to_csv() if args.csv else report.to_text())
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "build": _cmd_build,
    "verify": _cmd_verify,
    "exact": _cmd_exact,
    "poset": _cmd_poset,
    "report": _cmd_report,
    "experiment": _cmd_experiment,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except SizeLimitExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except (InvalidParams, FormatError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BoxrepError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
