"""Brute-force ground truth: exact boxicity and exact poset dimension.

Both solvers are definitional searches with hard size limits that fail
loudly; there is no approximate fallback here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParams, SizeLimitExceeded
from .graph import Graph, components
from .intervals import RECOGNITION_LIMIT, _interval_order_from_adj
from .poset import FinitePoset

POSET_GROUND_LIMIT = 10


@dataclass
class SolveLimits:
    max_nonedges: int = 20
    max_vertices: int = 10

    def __post_init__(self):
        if min(self.max_nonedges, self.max_vertices) <= 0:
            raise InvalidParams("limits must be positive")


def _min_cover(universe: int, sets: list[int]) -> int:
    """Exact minimum set cover over bitmask sets, by branch and bound."""
    # greedy upper bound; a cover always exists because every single
    # non-edge can be killed alone (complete minus one edge is interval)
    best = 0
    left = universe
    while left:
        pick = max(sets, key=lambda s: bin(s & left).count("1"))
        gained = pick & left
        assert gained, "sets do not cover the universe"
        left &= ~pick
        best += 1

    by_element = {}
    u = universe
    while u:
        e = u & -u
        u &= u - 1
        by_element[e] = [s for s in sets if s & e]
    max_size = max(bin(s).count("1") for s in sets)
    memo = {}

    def dfs(left: int, used: int) -> None:
        nonlocal best
        if left == 0:
            best = min(best, used)
            return
        lower = used + math.ceil(bin(left).count("1") / max_size)
        if lower >= best:
            return
        seen = memo.get(left)
        if seen is not None and seen <= used:
            return
        memo[left] = used
        # branch on the uncovered element with the fewest candidate sets
        e_best, cands = None, None
        u = left
        while u:
            e = u & -u
            u &= u - 1
            cs = [s for s in by_element[e] if s & left]
            if cands is None or len(cs) < len(cands):
                e_best, cands = e, cs
        for s in sorted(cands, key=lambda s: -bin(s & left).count("1")):
            dfs(left & ~s, used + 1)

    dfs(universe, 0)
    return best


def _component_boxicity(comp: Graph, limits: SolveLimits) -> int:
    # interval recognition sets a second vertex limit beside the caller's
    cap = min(limits.max_vertices, RECOGNITION_LIMIT)
    if comp.n > cap:
        raise SizeLimitExceeded(f"component has {comp.n} vertices, limit {cap}")
    nonedges = list(comp.nonedges())
    kk = len(nonedges)
    if kk == 0:
        return 1
    if kk > limits.max_nonedges:
        raise SizeLimitExceeded(
            f"component has {kk} non-edges, limit {limits.max_nonedges}")
    full_adj = [((1 << comp.n) - 1) & ~(1 << v) for v in range(comp.n)]
    keepable = []
    for mask in range(1 << kk):
        adj = list(full_adj)
        w = mask
        while w:
            i = (w & -w).bit_length() - 1
            w &= w - 1
            u, v = nonedges[i]
            adj[u] &= ~(1 << v)
            adj[v] &= ~(1 << u)
        if _interval_order_from_adj(adj, comp.n) is not None:
            keepable.append(mask)
    # only maximal killed-sets matter for the cover
    keepable.sort(key=lambda m: -bin(m).count("1"))
    maximal = []
    for m in keepable:
        if not any(m | kept == kept for kept in maximal):
            maximal.append(m)
    return _min_cover((1 << kk) - 1, maximal)


def exact_boxicity(g: Graph, limits: SolveLimits | None = None) -> int:
    """Smallest number of interval graphs intersecting to the input graph.

    Per connected component (boxicity of a disjoint union is the maximum over
    components): enumerate every subset F of the component's non-edges, keep
    F when the complete graph minus F is interval, and find the minimum
    number of kept subsets covering all non-edges. Complete and edgeless
    graphs answer 1.
    """
    limits = limits or SolveLimits()
    best = 1
    for comp, _ in components(g):
        if comp.n <= 1:
            continue
        best = max(best, _component_boxicity(comp, limits))
    return best


# ---------------------------------------------------------------------------
# poset dimension


def _critical_pairs(n: int, below: list[int], above: list[int]) -> list[tuple[int, int]]:
    pairs = []
    for a in range(n):
        for b in range(n):
            if a == b:
                continue
            if (above[a] >> b) & 1 or (below[a] >> b) & 1:
                continue  # comparable
            if below[a] & ~below[b]:
                continue
            if above[b] & ~above[a]:
                continue
            pairs.append((a, b))
    return pairs


def exact_poset_dimension(p: FinitePoset) -> int:
    """Minimum number of linear extensions whose intersection is the poset.

    A family of linear extensions realizes the poset exactly when every
    critical pair (a, b) is reversed in some extension, so the search covers
    critical pairs: each of d slots holds an acyclic set of precedence
    constraints (the poset's order plus chosen reversals), and depth-first
    search assigns reversals to slots with transitive-closure propagation and
    pruning on infeasible pairs.
    """
    n = p.ground_size
    if n > POSET_GROUND_LIMIT:
        raise SizeLimitExceeded(
            f"poset ground set {n} exceeds limit {POSET_GROUND_LIMIT}")
    if n <= 1:
        return 1
    below = [0] * n
    above = [0] * n
    for a, b in p.strict:
        above[a] |= 1 << b
        below[b] |= 1 << a
    has_incomparable = any(
        not ((above[a] >> b) & 1 or (below[a] >> b) & 1)
        for a in range(n) for b in range(a + 1, n))
    if not has_incomparable:
        return 1
    crit = _critical_pairs(n, below, above)
    assert crit, "incomparable pairs imply critical pairs"

    base = [above[x] for x in range(n)]  # reach[x] = elements forced after x

    def closed_add(reach: tuple, before: int, after: int) -> tuple | None:
        # add constraint: `before` precedes `after`; None when it cycles
        if (reach[after] >> before) & 1:
            return None
        new = list(reach)
        gained = (1 << after) | new[after]
        for x in range(n):
            if x == before or (new[x] >> before) & 1:
                if (new[x] | gained) != new[x]:
                    new[x] |= gained
        new[before] |= gained
        return tuple(new)

    def covered(reach: tuple, a: int, b: int) -> bool:
        # pair (a, b) is reversed when b is forced before a
        return bool((reach[b] >> a) & 1)

    def search(d: int) -> bool:
        start = tuple(base)
        slots = [start] * d

        def dfs(uncovered: list) -> bool:
            live = [(a, b) for a, b in uncovered
                    if not any(covered(s, a, b) for s in slots)]
            if not live:
                return True
            # fail-first: the pair with the fewest feasible slots
            options = []
            for a, b in live:
                feas = [i for i in range(d) if not (slots[i][a] >> b) & 1]
                options.append(((a, b), feas))
                if not feas:
                    return False
            options.sort(key=lambda t: len(t[1]))
            (a, b), feas = options[0]
            tried = set()
            for i in feas:
                if slots[i] in tried:
                    continue
                tried.add(slots[i])
                new = closed_add(slots[i], b, a)
                if new is None:
                    continue
                old = slots[i]
                slots[i] = new
                if dfs(live):
                    return True
                slots[i] = old
            return False

        return dfs(crit)

    for d in range(2, n + 1):
        if search(d):
            return d
    return n
