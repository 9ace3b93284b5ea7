"""Representation-level composition rules.

One certification rule: a combinator passes each representation it is
handed through `intervals.certify`, the oracle gate, against the graph its
contract names, and fails loudly with a witness. Its output is covered by
the proof in its docstring, so it is not checked again, and it is built
through `BoxRepresentation._trusted`; the pipeline that returns it
certifies its own result once.

Both combinators stretch rows over a vertex set S: each row is copied
twice, with S reaching past its top, then its bottom. Stretching only grows
intervals, so no edge is lost; an edge inside S meets in every copy, and a
separated pair with at most one end in S stays separated in one copy.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import InvalidInputRep, PreconditionViolation, as_vertices
from .graph import Graph, QuotientResult
from .intervals import _INT64, BoxRepresentation, certify, extend_universal


def _stretch(rep: BoxRepresentation, s: Sequence[int]):
    """The (lo, hi) rows of `rep` stretched over `s`: rows 2j and 2j+1 copy
    row j, with `s` reaching past its top, then its bottom. A row that
    already reaches an int64 limit has no room past it: InvalidInputRep."""
    top = rep.hi.max(axis=1, keepdims=True)
    bottom = rep.lo.min(axis=1, keepdims=True)
    if top.max() == _INT64.max or bottom.min() == _INT64.min:
        raise InvalidInputRep(
            f"cannot stretch a row that reaches an int64 limit "
            f"({_INT64.min} or {_INT64.max})")
    lo = np.repeat(rep.lo, 2, axis=0)
    hi = np.repeat(rep.hi, 2, axis=0)
    hi[0::2, s] = top + 1
    lo[1::2, s] = bottom - 1
    return lo, hi


def split_compose(rep_h: BoxRepresentation, rep_s: BoxRepresentation,
                  s: Iterable[int], g: Graph) -> BoxRepresentation:
    """Recombine a representation of g-without-S-internal-edges with one of g[S].

    Preconditions: S passes `as_vertices` (else PreconditionViolation), rep_h
    verifies for H = g minus all edges inside S, and rep_s verifies for the
    induced subgraph on S (relabeled by ascending id).
    rep_h is stretched over S: a non-edge with at most one endpoint in S is
    a non-edge of H and stays separated in one copy. Pairs inside S are
    settled by rep_s extended with universal vertices; an edge inside S
    also meets in every copy. So the output represents g and is returned
    uncertified.
    Output has exactly 2*d + d' dimensions. An empty S returns rep_h as-is.
    """
    s_sorted = sorted(set(as_vertices(s, g.n, "S", PreconditionViolation)))
    certify(g.remove_edges_inside(s_sorted), rep_h,
            "rep_h for g minus the edges inside S", PreconditionViolation)
    if not s_sorted:
        return rep_h
    gs, members = g.induced(s_sorted)
    if rep_s.n != gs.n:
        raise InvalidInputRep("rep_s must be over the induced subgraph on S")
    certify(gs, rep_s, "rep_s for g[S]", InvalidInputRep)

    lo, hi = _stretch(rep_h, s_sorted)
    lifted = extend_universal(rep_s, members, g.n)
    lo = np.concatenate((lo, lifted.lo))
    hi = np.concatenate((hi, lifted.hi))
    assert len(lo) == 2 * rep_h.d + rep_s.d

    return BoxRepresentation._trusted(g.n, lo, hi)


def quotient_lift(rep_q: BoxRepresentation, q: QuotientResult) -> BoxRepresentation:
    """Lift a representation of the quotient graph to G1, the original graph
    with every edge added between two vertices outside A.

    `rep_q` is certified for `q.quotient_graph`. Stretched over `q.reps`, its
    rows become 2*d rows representing H1, the quotient graph with a clique
    on the representatives: two representatives meet in every copy, since
    both reach past the same extreme, and any other non-edge of H1 is a
    quotient non-edge with at most one representative among its ends, so
    it stays separated in one of the two copies. Then every vertex v takes
    the box of quotient vertex `q.cols[v]`:
    - u and v in one class get one box, and they are adjacent in G1;
    - every other pair maps to two distinct H1 ids with the same adjacency
      in H1 as the pair has in G1: A-A and A-class pairs are quotient edges,
      and the classes are pairwise adjacent through the clique.
    So the lift represents G1 and is returned uncertified; neither H1 nor G1
    is built. With A = V there is no representative, and the rows are only
    gathered.
    """
    certify(q.quotient_graph, rep_q, "rep_q for the quotient graph",
            InvalidInputRep)
    lo, hi = _stretch(rep_q, q.reps) if q.reps else (rep_q.lo, rep_q.hi)
    return BoxRepresentation._trusted(len(q.cols), lo[:, q.cols], hi[:, q.cols])
