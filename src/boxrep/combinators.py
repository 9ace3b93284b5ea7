"""Representation-level composition rules.

One certification rule: a combinator passes each representation it is
handed through `intervals.certify`, the oracle gate, against the graph its
contract names, and fails loudly with a witness. Its output is covered by
the proof in its docstring, so it is not checked again; the pipeline that
returns it certifies its own result once.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .errors import InvalidInputRep, PreconditionViolation
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
    Pairs inside S are settled by rep_s extended with universal vertices; an
    edge inside S also meets in every copy, where both ends reach past the
    same extreme. So the output represents g and is returned uncertified.
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

    return BoxRepresentation(g.n, lo, hi)


def quotient_lift(rep_q: BoxRepresentation, q: QuotientResult) -> BoxRepresentation:
    """Give every vertex v the box of quotient vertex `q.cols[v]`.

    `rep_q` is certified for H1, the quotient graph with a clique added on
    `q.reps`. The lift represents G1, the original graph with every edge
    added between two vertices outside A:
    - u and v in one class get one box, and they are adjacent in G1;
    - every other pair maps to two distinct H1 ids with the same adjacency
      in H1 as the pair has in G1: A-A and A-class pairs are quotient edges,
      and the classes are pairwise adjacent through the clique.
    So the lift represents G1 exactly when `rep_q` represents H1, and it is
    returned uncertified; G1 is never built.
    """
    certify(q.h1, rep_q,
            "rep_q for the quotient plus a clique on the representatives",
            InvalidInputRep)
    return BoxRepresentation(len(q.cols), rep_q.lo[:, q.cols], rep_q.hi[:, q.cols])
