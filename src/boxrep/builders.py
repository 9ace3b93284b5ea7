"""Primitive representation constructions.

Every builder returns a BoxRepresentation that passes the oracle on its input
graph, unconditionally, and asserts its size against its own formula. Only
degenerate_rep records statistics of its cover in the metadata.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .coloring import Coloring
from .errors import InvalidColoring, InvalidOrder, NotAForest, as_vertices
from .graph import Graph, forest_walk
from .intervals import BoxRepresentation, interval_order
from .rng import SplitMix64


def _universal(n: int, **metadata) -> BoxRepresentation:
    """One dimension giving every vertex [0, 1]: a representation of K_n."""
    return BoxRepresentation._trusted(n, np.zeros((1, n), dtype=np.int64),
                                      np.ones((1, n), dtype=np.int64), metadata)


def _points(n: int, **metadata) -> BoxRepresentation:
    """One dimension of n distinct points: a representation of the edgeless graph."""
    points = np.arange(n, dtype=np.int64)[None, :]
    return BoxRepresentation._trusted(n, points, points, metadata)


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

    One `forest_walk` over all vertices, trees rooted at each unreached
    vertex in ascending id, numbers them. Dimension 1 gives each vertex
    [depth, depth+1], so only vertices whose depths differ by at most one can
    meet. Dimension 2 gives [entry, exit] from the walk's one counter, so
    exactly ancestor-descendant pairs meet (and trees occupy disjoint
    ranges). The intersection keeps precisely the parent-child pairs, i.e.
    the forest's edges.
    """
    walk = forest_walk(forest, [0] * forest.n, (0,), range(forest.n))
    if walk is None:
        raise NotAForest("input graph contains a cycle")
    depth, entry, leave = ([m[v] for v in range(forest.n)] for m in walk)
    ends = np.array([depth, entry, [d + 1 for d in depth], leave], dtype=np.int64)
    return BoxRepresentation(forest.n, ends[:2], ends[2:])


def acyclic_rep(g: Graph, coloring: Coloring) -> BoxRepresentation:
    """k(k-1) dimensions from an acyclic coloring using k >= 2 colors.

    k counts the colors the coloring uses, which may be fewer than it
    declares. Each unordered color pair contributes the two dimensions of
    `forest_rep` on the forest it induces, from one `forest_walk` rooted at
    the pair's vertices in ascending id; every other vertex spans each of the
    two rows, so it meets everything there. The rows are assembled once, as
    Python lists filled from the walk's dicts, and become the `lo` and `hi`
    arrays in one conversion each. A walk that finds a cycle raises
    InvalidColoring, as does a coloring whose keys fail `as_vertices`, that
    misses a vertex, gives two adjacent vertices one color, or uses color
    names that do not compare with each other. A coloring using at most one
    color means the graph is edgeless and a single dimension of
    pairwise-disjoint points suffices.
    """
    color = coloring.color
    as_vertices(color, g.n, "coloring", InvalidColoring)
    if len(color) != g.n:
        raise InvalidColoring("coloring must assign every vertex")
    if any(color[u] == color[v] for u, v in g.edges):
        raise InvalidColoring("coloring is not proper")
    classes = {}
    for v, c in color.items():
        classes.setdefault(c, []).append(v)
    k = len(classes)
    if k <= 1:
        return _points(g.n, colors=k)
    try:
        names = sorted(classes)
    except TypeError as exc:
        raise InvalidColoring("color names must be mutually comparable") from exc
    label = [color[v] for v in range(g.n)]
    lo_rows, hi_rows = [], []
    for pair in combinations(names, 2):
        roots = sorted(classes[pair[0]] + classes[pair[1]])
        walk = forest_walk(g, label, pair, roots)
        if walk is None:
            raise InvalidColoring("two color classes induce a cycle")
        depth, entry, leave = walk
        lo_depth, hi_depth = [0] * g.n, [max(depth.values()) + 1] * g.n
        lo_nest, hi_nest = [0] * g.n, [2 * len(roots) - 1] * g.n
        for v, level in depth.items():
            lo_depth[v], hi_depth[v] = level, level + 1
            lo_nest[v], hi_nest[v] = entry[v], leave[v]
        lo_rows += (lo_depth, lo_nest)
        hi_rows += (hi_depth, hi_nest)
    lo = np.array(lo_rows, dtype=np.int64)
    hi = np.array(hi_rows, dtype=np.int64)
    assert len(lo) == k * (k - 1)
    return BoxRepresentation(g.n, lo, hi, {"colors": k})


@dataclass(kw_only=True)
class DegenerateStrategy:
    """The seed of degenerate_rep's randomized cover: it fixes every round's
    colouring, and with it the output."""

    seed: int = 0


def _default_budget(n: int) -> int:
    """degenerate_rep's round count r = ceil(e^2 * ln(n(n-1)/2)).

    A round separates each fixed non-edge with probability at least e^-2,
    whatever k is, so after r rounds fewer than one of the n(n-1)/2 pairs is
    expected to be left for the fallback. The cover thus has at most (k+2)*r
    hub dimensions, the bound that bound_report prints, plus one dimension
    per fallback pair.
    """
    pairs = n * (n - 1) // 2
    return math.ceil(math.e**2 * math.log(pairs)) if pairs > 1 else 0


def degenerate_rep(g: Graph, order, k: int,
                   strategy: DegenerateStrategy | None = None) -> BoxRepresentation:
    """Cover all non-edges of a graph with few forward neighbors per vertex.

    `order` lists every vertex once (`as_vertices`, else InvalidOrder) and
    must witness that every vertex has at most k neighbors later in the
    order; pos(v) is v's index in it. Rounds draw a uniform
    (k+2)-coloring; within a round, a vertex is good when no later neighbor
    shares its color, so the good vertices B of one color form an
    independent set. The hub dimension of B gives each w in B the point
    pos(w)+1 and every other vertex x the interval [0, t(x)], where t(x) is
    1 + the largest position of a neighbor of x in B, or 0 when x has none.

    *Every edge meets.* An edge from w in B to x outside B meets because
    t(x) >= pos(w)+1; two vertices outside B share 0; B has no inner edge.
    *What it separates.* Every pair inside B (distinct points), and w in B
    from x outside B exactly when t(x) <= pos(w), that is when every
    B-neighbor of x comes before w. Pairs outside B all share 0.

    *Each round separates a non-edge xu with probability at least e^-2.*
    Say pos(x) < pos(u), let c be u's color, and let L(v) be the later
    neighbors of v: at most 2k vertices in L(x) | L(u), none of them u or x.
    Suppose none of them has color c. Then u is good, so u is in B_c. If x
    has color c it is good as well, and B_c separates the pair as two
    points. Otherwise every B_c-neighbor y of x lies in L(x) or before x:
    not in L(x), which has no color c, so pos(y) < pos(x) < pos(u), and B_c
    separates x from u. The colors are independent and uniform, so this
    happens with probability at least (1 - 1/(k+2))^(2k) >= e^-2, as
    ln(1 - 1/(k+2)) >= -1/(k+1). Rounds are independent, so after
    r = _default_budget(n) rounds the expected number of uncovered
    non-edges is at most (n(n-1)/2) * (1 - e^-2)^r < 1, and each one left
    gets one dedicated two-blocks dimension. A hub dimension is emitted only
    when it separates a pair that is still uncovered, so at most (k+2)*r
    hub dimensions are emitted. Complete graphs take a single universal
    dimension and edgeless graphs a single dimension of distinct points.

    Vertices are renumbered by position. The uncovered non-edges are one int
    bitmask per vertex, n^2/8 bytes in all: bit j of `unc[i]` is set while
    the pair at positions i and j is unseparated, and `left` counts the set
    bits, two per uncovered non-edge. With bm the mask of B, t(x) is
    `(nbrs[x] & bm).bit_length()`, so one hub dimension costs O(n) mask
    operations: x loses the members of B at t(x) and after, and each w in B
    loses the x with t(x) <= pos(w), collected in a prefix mask over B.
    Each round's colors are one `below_many(k+2, n)` draw, in vertex id
    order, which leaves the seeded stream as n scalar `below` calls would,
    so every output is fixed by the seed alone. The rows are written once
    the cover stops, each hub pair as two Python lists: a walk over the
    members w of B in ascending position gives w its point and sets t(x) =
    pos(w)+1 for each neighbor x of w, so the last write is the largest.
    A hub row thus costs the degrees of B plus one conversion of n values.
    """
    strategy = strategy or DegenerateStrategy()
    order = as_vertices(order, g.n, "order", InvalidOrder)
    if len(order) != g.n or len(set(order)) != g.n:
        raise InvalidOrder("order must list every vertex exactly once")
    try:
        k = operator.index(k)
    except TypeError as exc:
        raise InvalidOrder(f"k must be an integer, got {k!r}") from exc
    if k < 0:
        raise InvalidOrder("k must be nonnegative")
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    adj = g.adj
    forward = [[pos[w] for w in adj[v] if pos[w] > i] for i, v in enumerate(order)]
    if any(len(f) > k for f in forward):
        raise InvalidOrder("some vertex has more than k later neighbors")

    left = g.n * (g.n - 1) - 2 * g.m
    if left == 0:
        return _universal(g.n, rounds_used=0, round_dims=0, fallback_dims=0,
                          size_bound=1)
    if g.m == 0:
        place = np.array(pos, dtype=np.int64)[None, :] + 1
        return BoxRepresentation._trusted(g.n, place, place,
                                          {"rounds_used": 0, "round_dims": 1,
                                           "fallback_dims": 0, "size_bound": 1})
    nbrs = [0] * g.n
    for i, later in enumerate(forward):  # each edge once
        for j in later:
            nbrs[i] |= 1 << j
            nbrs[j] |= 1 << i
    full = (1 << g.n) - 1
    unc = [full & ~nbrs[i] & ~(1 << i) for i in range(g.n)]

    budget = _default_budget(g.n)
    colors_count = k + 2
    draw = SplitMix64(strategy.seed).below_many
    hubs = []  # the positions of B, ascending, of each emitted hub dimension
    live = range(g.n)
    rounds_used = 0
    while left and rounds_used < budget:
        rounds_used += 1
        drawn = draw(colors_count, g.n)  # by vertex id
        color = [drawn[v] for v in order]
        good = [[] for _ in range(colors_count)]
        for i, c in enumerate(color):
            for j in forward[i]:
                if color[j] == c:
                    break
            else:
                good[c].append(i)
        live = [x for x in live if unc[x]]
        for members in good:
            if not members:
                continue
            bm = 0
            for w in members:
                bm |= 1 << w
            gained = 0
            # bit x of into[j] is set when x was just separated from members[j:]
            into = [0] * len(members)
            for x in live:
                mine = unc[x] & bm
                if mine:
                    t = (nbrs[x] & bm).bit_length()
                    hit = mine >> t << t
                    if hit:
                        unc[x] ^= hit
                        gained += hit.bit_count()
                        into[bisect_left(members, t)] |= 1 << x
            if not gained:
                continue
            cut = 0
            for w, more in zip(members, into):
                cut |= more
                hit = unc[w] & cut
                if hit:
                    unc[w] ^= hit
                    gained += hit.bit_count()
            left -= gained
            hubs.append(members)
            if not left:
                break
    pairs = []
    for a in range(g.n):
        rest = unc[a] >> (a + 1)
        while rest:
            low = rest & -rest
            u, v = order[a], order[a + low.bit_length()]
            pairs.append((u, v) if u < v else (v, u))
            rest ^= low
    pairs.sort()
    size_bound = colors_count * budget + len(pairs)
    assert len(hubs) + len(pairs) <= size_bound

    d = len(hubs) + len(pairs)
    lo = np.zeros((d, g.n), dtype=np.int64)
    hi = np.zeros((d, g.n), dtype=np.int64)
    for j, members in enumerate(hubs):
        # B is independent, so no walk overwrites a member's own point
        low, t = [0] * g.n, [0] * g.n
        for w in members:
            point, v = w + 1, order[w]
            low[v] = t[v] = point
            for x in adj[v]:
                t[x] = point
        lo[j] = low
        hi[j] = t
    if pairs:
        # u's interval [0, 1] and v's [2, 3] part; everyone else spans [0, 3]
        rows = np.arange(len(hubs), d)
        ends = np.array(pairs, dtype=np.intp)
        hi[len(hubs):] = 3
        hi[rows, ends[:, 0]] = 1
        lo[rows, ends[:, 1]] = 2
    stats = {"rounds_used": rounds_used, "round_dims": len(hubs),
             "fallback_dims": len(pairs), "size_bound": size_bound}
    return BoxRepresentation._trusted(g.n, lo, hi, stats)


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
