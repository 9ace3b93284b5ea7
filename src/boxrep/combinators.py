"""Representation-level composition rules.

Both combinators were derived independently of any external construction, so
each call passes its input representations and its output through
`intervals.certify`, the oracle gate, and fails loudly with a witness instead
of ever returning an unverified representation.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import ClassMapIncomplete, InvalidInputRep, PreconditionViolation
from .graph import Graph, QuotientResult
from .intervals import BoxRepresentation, certify, extend_universal


def split_compose(rep_h: BoxRepresentation, rep_s: BoxRepresentation,
                  s: Iterable[int], g: Graph) -> BoxRepresentation:
    """Recombine a representation of g-without-S-internal-edges with one of g[S].

    Preconditions: rep_h verifies for H = g minus all edges inside S, and
    rep_s verifies for the induced subgraph on S (relabeled by ascending id).
    Each dimension I of rep_h is emitted twice: once with every S-vertex
    extended rightwards to beyond I's maximum endpoint, once extended
    leftwards below its minimum. A non-edge with at most one endpoint in S is
    a non-edge of H, and whichever side of I separated it survives in one of
    the two copies; extensions only grow intervals, so no edge is lost.
    Non-edges inside S are handled by rep_s extended with universal vertices.
    Output has exactly 2*d + d' dimensions. An empty S returns rep_h as-is.
    """
    s_sorted = sorted(set(s))
    if any(not (0 <= v < g.n) for v in s_sorted):
        raise PreconditionViolation("S contains a vertex outside the graph")
    certify(g.remove_edges_inside(s_sorted), rep_h,
            "rep_h for g minus the edges inside S", PreconditionViolation)
    if not s_sorted:
        return rep_h
    gs, members = g.induced(s_sorted)
    if rep_s.n != gs.n:
        raise InvalidInputRep("rep_s must be over the induced subgraph on S")
    certify(gs, rep_s, "rep_s for g[S]", InvalidInputRep)

    # rows 2j and 2j+1 copy dimension j; S reaches past its top, then its bottom
    lo = np.repeat(rep_h.lo, 2, axis=0)
    hi = np.repeat(rep_h.hi, 2, axis=0)
    hi[0::2, s_sorted] = rep_h.hi.max(axis=1, keepdims=True) + 1
    lo[1::2, s_sorted] = rep_h.lo.min(axis=1, keepdims=True) - 1
    lifted = extend_universal(rep_s, members, g.n)
    lo = np.concatenate((lo, lifted.lo))
    hi = np.concatenate((hi, lifted.hi))
    assert len(lo) == 2 * rep_h.d + rep_s.d

    return certify(g, BoxRepresentation(g.n, lo, hi), "the composed representation")


def quotient_lift(rep_q: BoxRepresentation, q: QuotientResult,
                  target: Graph) -> BoxRepresentation:
    """Give every vertex v the box of quotient vertex `q.cols[v]`.

    `rep_q` must verify for the quotient graph with a clique added on
    `q.reps` (vertices sharing an A-neighborhood are adjacent in the target,
    so they may share one box). `target` is the original graph with all
    edges added between vertices outside A; the lifted representation is
    oracle-checked against it.
    """
    certify(q.quotient_graph.add_clique(q.reps), rep_q,
            "rep_q for the quotient plus a clique on the representatives",
            InvalidInputRep)
    if target.n != len(q.cols):
        raise ClassMapIncomplete(
            f"the quotient maps {len(q.cols)} vertices, the target has {target.n}")
    out = BoxRepresentation(target.n, rep_q.lo[:, q.cols], rep_q.hi[:, q.cols])
    return certify(target, out, "the lifted representation")
