"""Primitive representation constructions.

Every builder returns a BoxRepresentation that passes the oracle on its input
graph, unconditionally, and asserts its size against its own formula. Only
degenerate_rep records statistics of its cover in the metadata.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .coloring import Coloring, validate_acyclic
from .errors import InvalidOrder, NotAForest
from .graph import Graph, is_forest
from .intervals import BoxRepresentation, extend_universal, interval_order
from .rng import SplitMix64


def _universal(n: int, **metadata) -> BoxRepresentation:
    """One dimension giving every vertex [0, 1]: a representation of K_n."""
    return BoxRepresentation(n, np.zeros((1, n), dtype=np.int64),
                             np.ones((1, n), dtype=np.int64), metadata)


def _points(n: int, **metadata) -> BoxRepresentation:
    """One dimension of n distinct points: a representation of the edgeless graph."""
    points = np.arange(n, dtype=np.int64)[None, :]
    return BoxRepresentation(n, points, points, metadata)


def roberts_rep(g: Graph) -> BoxRepresentation:
    """One dimension per greedily chosen non-adjacent pair.

    Pairs are extracted lexicographically smallest first until the unused
    vertices form a clique, so at most max(1, n//2) dimensions are emitted.
    One O(n^2) ascending pass pairs each unused a with its smallest unused
    non-neighbour above it. That gives the same pairs: a vertex it leaves
    unpaired has no unused non-neighbour above it, nor below (that one
    would have taken it), and the unused vertices only get fewer.
    In the dimension for the pair (a, b) the two endpoints sit at opposite
    ends, common neighbors bridge them, one-sided neighbors reach only their
    side, and everything else collapses to the middle point; the dimension
    therefore keeps every edge and separates a and b from all their
    non-neighbors.
    """
    taken = set()
    pairs = []
    for a in range(g.n):
        if a in taken:
            continue
        b = next((b for b in range(a + 1, g.n)
                  if b not in taken and b not in g.adj[a]), None)
        if b is not None:
            taken.add(b)
            pairs.append((a, b))

    if not pairs:
        return _universal(g.n)
    assert len(pairs) <= max(1, g.n // 2)
    lo_rows, hi_rows = [], []
    for a, b in pairs:
        # neighbors of a start at 2, neighbors of b end at 4, the rest sit at 3
        lo, hi = [3] * g.n, [3] * g.n
        for v in g.neighbors(a):
            lo[v] = 2
        for v in g.neighbors(b):
            hi[v] = 4
        lo[a], hi[a], lo[b], hi[b] = 0, 2, 4, 6
        lo_rows.append(lo)
        hi_rows.append(hi)
    return BoxRepresentation(g.n, np.array(lo_rows, dtype=np.int64),
                             np.array(hi_rows, dtype=np.int64))


def forest_rep(forest: Graph) -> BoxRepresentation:
    """Two dimensions for a forest: depth bands and nested DFS ranges.

    Dimension 1 gives each vertex [depth, depth+1], so only vertices whose
    depths differ by at most one can meet. Dimension 2 gives [entry, exit]
    from one global DFS counter, so exactly ancestor-descendant pairs meet
    (and trees occupy disjoint ranges). The intersection keeps precisely the
    parent-child pairs, i.e. the forest's edges.
    """
    if not is_forest(forest):
        raise NotAForest("input graph contains a cycle")
    depth = [0] * forest.n
    pre = [0] * forest.n
    post = [0] * forest.n
    counter = 0
    seen = [False] * forest.n
    for root in range(forest.n):
        if seen[root]:
            continue
        stack = [(root, 0, False)]
        seen[root] = True
        while stack:
            v, d, done = stack.pop()
            if done:
                post[v] = counter
                counter += 1
                continue
            depth[v] = d
            pre[v] = counter
            counter += 1
            stack.append((v, d, True))
            for w in sorted(forest.neighbors(v), reverse=True):
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, d + 1, False))
    ends = np.array([depth, pre, [d + 1 for d in depth], post], dtype=np.int64)
    return BoxRepresentation(forest.n, ends[:2], ends[2:])


def acyclic_rep(g: Graph, coloring: Coloring) -> BoxRepresentation:
    """k(k-1) dimensions from an acyclic coloring using k >= 2 colors.

    k counts the colors the coloring uses, which may be fewer than it
    declares. Each unordered color pair contributes the 2-dimensional forest
    representation of the subgraph it induces, extended to all other vertices
    with full-span intervals. A coloring using at most one color means the
    graph is edgeless and a single dimension of pairwise-disjoint points
    suffices.
    """
    validate_acyclic(g, coloring)
    classes = {}
    for v, c in coloring.color.items():
        classes.setdefault(c, []).append(v)
    k = len(classes)
    if k <= 1:
        return _points(g.n, colors=k)
    lifted = []
    for ci, cj in combinations(sorted(classes), 2):
        verts = sorted(set(classes[ci]) | set(classes[cj]))
        sub, members = g.induced(verts)
        lifted.append(extend_universal(forest_rep(sub), members, g.n))
    lo = np.concatenate([r.lo for r in lifted])
    hi = np.concatenate([r.hi for r in lifted])
    assert len(lo) == k * (k - 1)
    return BoxRepresentation(g.n, lo, hi, {"colors": k})


@dataclass(kw_only=True)
class DegenerateStrategy:
    """The seed of degenerate_rep's randomized cover."""

    seed: int = 0


def _default_budget(k: int, n: int) -> int:
    """degenerate_rep's round count, which bounds its cover at
    (k+2)*ceil(6*e^2*(k+2)*ln(n)) dimensions plus one per fallback."""
    return math.ceil(6 * math.e**2 * (k + 2) * math.log(n))


def degenerate_rep(g: Graph, order, k: int,
                   strategy: DegenerateStrategy | None = None) -> BoxRepresentation:
    """Cover all non-edges of a graph with few forward neighbors per vertex.

    `order` must witness that every vertex has at most k neighbors later in
    the order. Rounds draw a uniform (k+2)-coloring; within a round, a vertex
    is good when no later-in-order neighbor shares its color, so the good
    vertices of one color form an independent set B. Each B with at least two
    members becomes a dimension placing B at distinct points (their order
    positions) and everyone else across the whole line, separating exactly
    the pairs inside B. Rounds stop once every non-edge is separated; if the
    round budget runs out first, each remaining non-edge gets one dedicated
    two-blocks dimension. Complete graphs take a single universal dimension
    and edgeless graphs a single dimension of distinct points.

    The uncovered non-edges are one int bitmask per vertex, n^2/8 bytes in
    all: bit w of `unc[v]` is set while vw is still unseparated. Clearing
    B x B is one mask operation per member of B, and `left` counts the set
    bits, two per uncovered non-edge. Colors are drawn one scalar
    `rng.below` call at a time, so the seeded stream, and with it every
    output, is fixed by the seed alone; a vectorised draw costs more than it
    saves on the small graphs that make up most calls.
    """
    strategy = strategy or DegenerateStrategy()
    order = list(order)
    if len(order) != g.n or set(order) != set(range(g.n)):
        raise InvalidOrder("order must list every vertex exactly once")
    try:
        k = operator.index(k)
    except TypeError as exc:
        raise InvalidOrder(f"k must be an integer, got {k!r}") from exc
    if k < 0:
        raise InvalidOrder("k must be nonnegative")
    pos = {v: i for i, v in enumerate(order)}
    forward = [[w for w in g.neighbors(v) if pos[w] > pos[v]]
               for v in range(g.n)]
    if any(len(f) > k for f in forward):
        raise InvalidOrder("some vertex has more than k later neighbors")

    nbrs = g.neighbor_masks()
    full = (1 << g.n) - 1
    unc = [full & ~nbrs[v] & ~(1 << v) for v in range(g.n)]
    left = sum(mask.bit_count() for mask in unc)
    if left == 0:
        return _universal(g.n, rounds_used=0, round_dims=0, fallback_dims=0,
                          size_bound=1)
    place = np.array([pos[v] + 1 for v in range(g.n)], dtype=np.int64)
    if g.m == 0:
        return BoxRepresentation(g.n, place[None, :], place[None, :],
                                 {"rounds_used": 0, "round_dims": 1,
                                  "fallback_dims": 0, "size_bound": 1})

    budget = _default_budget(k, g.n)
    colors_count = k + 2
    below = SplitMix64(strategy.seed).below
    blocks = []
    rounds_used = 0
    while left and rounds_used < budget:
        rounds_used += 1
        color = [below(colors_count) for _ in range(g.n)]
        good = [[] for _ in range(colors_count)]
        for v, c in enumerate(color):
            for w in forward[v]:
                if color[w] == c:
                    break
            else:
                good[c].append(v)
        for members in good:
            if len(members) < 2:
                continue
            bm = 0
            for x in members:
                bm |= 1 << x
            for x in members:
                assert not nbrs[x] & bm, "good same-color set must be independent"
                hit = unc[x] & bm
                left -= hit.bit_count()
                unc[x] ^= hit
            blocks.append(members)
            if not left:
                break
    pairs = []
    for a in range(g.n):
        rest = unc[a] >> (a + 1)
        while rest:
            low = rest & -rest
            pairs.append((a, a + low.bit_length()))
            rest ^= low
    size_bound = colors_count * budget + len(pairs)
    assert len(blocks) + len(pairs) <= size_bound

    d = len(blocks) + len(pairs)
    lo = np.zeros((d, g.n), dtype=np.int64)
    hi = np.full((d, g.n), g.n + 1, dtype=np.int64)
    if blocks:
        rows = np.repeat(np.arange(len(blocks)), [len(b) for b in blocks])
        cols = np.fromiter(chain.from_iterable(blocks), np.intp, len(rows))
        lo[rows, cols] = hi[rows, cols] = place[cols]
    if pairs:
        # u's interval [0, 1] and v's [2, 3] part; everyone else spans [0, 3]
        rows = np.arange(len(blocks), d)
        ends = np.array(pairs, dtype=np.intp)
        hi[len(blocks):] = 3
        hi[rows, ends[:, 0]] = 1
        lo[rows, ends[:, 1]] = 2
    stats = {"rounds_used": rounds_used, "round_dims": len(blocks),
             "fallback_dims": len(pairs), "size_bound": size_bound}
    return BoxRepresentation(g.n, lo, hi, stats)


def trivial_rep(g: Graph) -> BoxRepresentation | None:
    """One-dimensional representation when the graph is already interval.

    Along an umbrella-free order v0 ... v(n-1) from `interval_order`, vi gets
    [i, max(i, position of its last neighbour)]; returns None for
    non-interval inputs. For i < j, vi and vj meet iff vi has a neighbour at
    a position >= j, and umbrella-freeness makes that vi vj itself.
    """
    order = interval_order(g)
    if order is None:
        return None
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    hi = [max([pos[v], *(pos[w] for w in g.neighbors(v))]) for v in range(g.n)]
    ends = np.array([pos, hi], dtype=np.int64)
    return BoxRepresentation(g.n, ends[:1], ends[1:])
