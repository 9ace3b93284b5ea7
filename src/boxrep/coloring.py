"""Exact coloring routines: chromatic number and acyclic colorings.

Both are backtracking searches guarded by explicit size limits; they exist to
feed the builders and pipelines at desk scale, not to scale. A coloring is
acyclic when every two color classes induce a forest; the acyclic search
checks that with `forest_walk`, the same walk that `acyclic_rep` runs on each
color pair, so the question has one home.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import SizeLimitExceeded
from .graph import Graph, forest_walk

CHROMATIC_LIMIT = 20
ACYCLIC_LIMIT = 16


@dataclass
class Coloring:
    color: dict
    k: int


def _greedy_clique(g: Graph) -> list[int]:
    best = []
    for v in sorted(range(g.n), key=g.degree, reverse=True):
        if all(g.has_edge(v, u) for u in best):
            best.append(v)
    return best


def chromatic_number(g: Graph) -> int:
    """Exact chromatic number by backtracking above a clique lower bound."""
    if g.n > CHROMATIC_LIMIT:
        raise SizeLimitExceeded(f"chromatic_number limited to n <= {CHROMATIC_LIMIT}")
    if g.n == 0:
        return 0
    if g.m == 0:
        return 1
    order = sorted(range(g.n), key=g.degree, reverse=True)
    lower = len(_greedy_clique(g))

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

        return extend(0, 0)

    for k in range(lower, g.n + 1):
        if colorable(k):
            return k
    return g.n


def acyclic_coloring(g: Graph, k_max: int) -> Coloring | None:
    """Proper coloring with <= k_max colors whose class pairs induce forests.

    Exact backtracking in vertex-id order; returns None when no such coloring
    exists. Colors are used in order, so the vertices before v carry exactly
    the colors 0..used-1. Those vertices were acyclically colored, so giving
    v the color c can close a cycle only through v: one `forest_walk` from v
    alone per other color o in use checks the pair {c, o}.
    """
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
        banned = {label[w] for w in g.neighbors(v)}
        for c in range(min(k_max, used + 1)):
            if c in banned:
                continue
            label[v] = c
            if all(forest_walk(g, label, (c, o), [v]) is not None
                   for o in range(used) if o != c):
                if extend(v + 1, max(used, c + 1)):
                    return True
        label[v] = None
        return False

    if not extend(0, 0):
        return None
    return Coloring(dict(enumerate(label)), len(set(label)))


def smallest_acyclic_coloring(g: Graph) -> Coloring:
    """Acyclic coloring with the fewest colors (distinct colors always work)."""
    for k in range(1, g.n + 1):
        found = acyclic_coloring(g, k)
        if found is not None:
            return found
    return Coloring({v: v for v in range(g.n)}, g.n)
