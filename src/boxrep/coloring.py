"""Exact coloring routines: chromatic number and acyclic colorings.

Both are backtracking searches guarded by explicit size limits; they exist to
feed the builders and pipelines at desk scale, not to scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import InvalidColoring, SizeLimitExceeded
from .graph import Graph, is_forest

CHROMATIC_LIMIT = 20
ACYCLIC_LIMIT = 16


@dataclass
class Coloring:
    color: dict
    k: int


def is_proper(g: Graph, color: dict) -> bool:
    return all(color[u] != color[v] for u, v in g.edges)


def pair_classes_induce_forests(g: Graph, color: dict) -> bool:
    """Independent verifier: every two color classes must induce a forest."""
    classes = {}
    for v, c in color.items():
        classes.setdefault(c, []).append(v)
    for ci, cj in combinations(sorted(classes), 2):
        verts = set(classes[ci]) | set(classes[cj])
        sub, _ = g.induced(verts)
        if not is_forest(sub):
            return False
    return True


def validate_acyclic(g: Graph, coloring: Coloring) -> None:
    color = coloring.color
    if set(color) != set(range(g.n)):
        raise InvalidColoring("coloring must assign every vertex")
    if not is_proper(g, color):
        raise InvalidColoring("coloring is not proper")
    if not pair_classes_induce_forests(g, color):
        raise InvalidColoring("two color classes induce a cycle")


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

    Exact backtracking in vertex-id order with a per-pair cycle check after
    each assignment; returns None when no such coloring exists.
    """
    if g.n > ACYCLIC_LIMIT:
        raise SizeLimitExceeded(f"acyclic_coloring limited to n <= {ACYCLIC_LIMIT}")
    if k_max < 1:
        return None
    if g.n == 0:
        return Coloring({}, 0)
    color = {}

    def creates_bichromatic_cycle(v: int, c: int) -> bool:
        # check each pair {c, other} restricted to vertices colored so far
        others = {color[w] for w in color if color[w] != c}
        for other in others:
            verts = [w for w in color if color[w] in (c, other)]
            parent = {w: w for w in verts}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            ok = True
            for x, y in g.edges:
                if x in parent and y in parent:
                    rx, ry = find(x), find(y)
                    if rx == ry:
                        ok = False
                        break
                    parent[rx] = ry
            if not ok:
                return True
        return False

    def extend(v: int, used: int) -> bool:
        if v == g.n:
            return True
        banned = {color[w] for w in g.neighbors(v) if w in color}
        for c in range(min(k_max, used + 1)):
            if c in banned:
                continue
            color[v] = c
            if not creates_bichromatic_cycle(v, c):
                if extend(v + 1, max(used, c + 1)):
                    return True
            del color[v]
        return False

    if not extend(0, 0):
        return None
    return Coloring(dict(color), len(set(color.values())))


def smallest_acyclic_coloring(g: Graph) -> Coloring:
    """Acyclic coloring with the fewest colors (distinct colors always work)."""
    for k in range(1, g.n + 1):
        found = acyclic_coloring(g, k)
        if found is not None:
            return found
    return Coloring({v: v for v in range(g.n)}, g.n)
