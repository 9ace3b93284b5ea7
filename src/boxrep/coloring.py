"""Exact coloring routines: chromatic number and acyclic colorings.

Both are backtracking searches guarded by explicit size limits; they exist to
feed the builders and pipelines at desk scale, not to scale. A coloring is
acyclic when every two color classes induce a forest; the acyclic search
checks that with `forest_walk`, the same walk that `acyclic_rep` runs on each
color pair, so the question has one home.

Two facts keep the acyclic search small without changing what it returns.

- Lower bound. An edgeless graph needs one color and a forest with an edge
  two. Any other graph has a cycle, and two colors would make it a single
  color pair, which must induce a forest; so it needs at least three, and at
  least as many as any clique. `smallest_acyclic_coloring` starts there:
  every smaller count has no acyclic coloring, so skipping it changes
  nothing.
- Two-neighbour rule. When vertex v takes color c, the colored vertices
  before it were acyclically colored, so a new cycle in a pair {c, o} passes
  through v. The coloring is proper, so v's neighbours in that pair all have
  color o, and a cycle through v uses two of them. Only a color o that at
  least two colored neighbours of v carry can close a cycle, and only those
  pairs are walked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitExceeded, as_index
from .graph import Graph, _max_clique, forest_walk

CHROMATIC_LIMIT = 20
ACYCLIC_LIMIT = 16


@dataclass
class Coloring:
    color: dict
    k: int


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by backtracking above a clique lower bound."""
    if g.n > CHROMATIC_LIMIT:
        raise SizeLimitExceeded(f"chromatic_number limited to n <= {CHROMATIC_LIMIT}")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    order = sorted(range(g.n), key=g.degree, reverse=True)
    lower = len(_max_clique(g.neighbor_masks()))

    def colorable(k: int) -> bool:
        assigned = {}

        def extend(idx: int, used: int) -> bool:
            if idx == g.n:
                return True
            v = order[idx]
            banned = {assigned[w] for w in g.neighbors(v) if w in assigned}
            for c in range(min(k, used + 1)):
                if c in banned:
                    continue
                assigned[v] = c
                if extend(idx + 1, max(used, c + 1)):
                    return True
                del assigned[v]
            return False

        found = extend(0, 0)
        del extend  # break the closure's reference cycle
        return found

    for k in range(lower, g.n + 1):
        if colorable(k):
            return k
    return g.n


def acyclic_coloring(g: Graph, k_max: int) -> Coloring | None:
    """Proper coloring with <= k_max colors whose class pairs induce forests.

    Exact backtracking in vertex-id order; returns None when no such coloring
    exists, and a `k_max` that is not an integer raises InvalidParams. Colors
    are used in order, so the vertices before v carry exactly the colors
    0..used-1. Those vertices were acyclically colored, so giving v the color
    c can close a cycle only through v, and through two neighbours of v in
    the pair {c, o}; the coloring is proper, so both have color o. One
    `forest_walk` from v alone checks each pair {c, o} whose color o at least
    two colored neighbours of v carry (the two-neighbour rule); in any other
    pair v has at most one neighbour and lies on no cycle.
    """
    k_max = as_index(k_max, "k_max")
    if g.n > ACYCLIC_LIMIT:
        raise SizeLimitExceeded(f"acyclic_coloring limited to n <= {ACYCLIC_LIMIT}")
    if k_max < 1:
        return None
    if g.n == 0:
        return Coloring({}, 0)
    label = [None] * g.n  # the color of each vertex, None before it has one

    def extend(v: int, used: int) -> bool:
        if v == g.n:
            return True
        banned, twice = set(), set()  # neighbours' colors; those carried twice
        for w in g.adj[v]:
            o = label[w]
            if o is not None:
                if o in banned:
                    twice.add(o)
                banned.add(o)
        for c in range(min(k_max, used + 1)):
            if c in banned:
                continue
            label[v] = c
            if all(forest_walk(g, label, (c, o), [v]) is not None
                   for o in twice):
                if extend(v + 1, max(used, c + 1)):
                    return True
        label[v] = None
        return False

    found = extend(0, 0)
    del extend  # break the closure's reference cycle
    if not found:
        return None
    return Coloring(dict(enumerate(label)), len(set(label)))


def smallest_acyclic_coloring(g: Graph) -> Coloring:
    """Acyclic coloring with the fewest colors (distinct colors always work).

    The search starts at a proven lower bound: 1 when g is edgeless, 2 when
    g is a forest (one `forest_walk` over every vertex under one label
    finds no cycle), and otherwise max(3, the clique number), since a graph
    with a cycle has no acyclic 2-coloring. Every count below the start has
    no acyclic coloring, so the result is the one a search from 1 returns.
    """
    if g.m == 0:
        start = 1
    elif forest_walk(g, [0] * g.n, (0,), range(g.n)) is not None:
        start = 2
    else:
        start = max(3, len(_max_clique(g.neighbor_masks())))
    for k in range(start, g.n + 1):
        found = acyclic_coloring(g, k)
        if found is not None:
            return found
    return Coloring({v: v for v in range(g.n)}, g.n)
