"""Undirected simple graphs and the structural operations behind the builders.

Vertices are the integers 0..n-1 and edges are unordered pairs stored as
sorted tuples. Everything here is pure: operations return new graphs or
result records and never mutate their inputs, so all of it is safe to call
concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import FormatError, InvalidParams, SizeLimitExceeded
from .rng import SplitMix64


@lru_cache(maxsize=16)
def _upper_pairs(n: int) -> tuple:
    u, v = np.triu_indices(n, 1)
    u.setflags(write=False)
    v.setflags(write=False)
    return u, v


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset

    def __post_init__(self):
        if self.n < 0:
            raise InvalidParams("vertex count must be nonnegative")
        for e in self.edges:
            u, v = e
            if not (0 <= u < v < self.n):
                raise InvalidParams(f"bad edge {e} for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from any iterable of vertex pairs, normalizing order."""
        normalized = set()
        for u, v in edges:
            if u == v:
                raise InvalidParams(f"self-loop at {u}")
            normalized.add((u, v) if u < v else (v, u))
        return Graph(n, frozenset(normalized))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adj(self) -> tuple:
        nbrs = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def pairs(self) -> tuple:
        """Read-only arrays (u, v, is_edge) over all pairs u < v, in
        lexicographic order; the oracle reads its witnesses from them."""
        n = self.n
        u, v = _upper_pairs(n)
        is_edge = np.zeros(len(u), dtype=bool)
        # (a, b) is pair number a*(2n-a-1)/2 + b-a-1 in lexicographic order
        is_edge[[a * (2 * n - a - 1) // 2 + b - a - 1 for a, b in self.edges]] = True
        is_edge.setflags(write=False)
        return u, v, is_edge

    def has_edge(self, u: int, v: int) -> bool:
        return (u, v) in self.edges if u < v else (v, u) in self.edges

    def neighbors(self, v: int) -> frozenset:
        return self.adj[v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def nonedges(self) -> Iterator[tuple[int, int]]:
        """Unordered non-adjacent distinct pairs, in lexicographic order."""
        for u, v in combinations(range(self.n), 2):
            if (u, v) not in self.edges:
                yield (u, v)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def induced(self, verts: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on `verts`, relabeled 0..len-1 by ascending id.

        Returns the subgraph and the member tuple mapping new ids to old.
        """
        members = tuple(sorted(set(verts)))
        if members and not (0 <= members[0] and members[-1] < self.n):
            raise InvalidParams("induced vertex outside graph")
        local = {v: i for i, v in enumerate(members)}
        edges = {
            (local[u], local[v])
            for u, v in self.edges
            if u in local and v in local
        }
        return Graph(len(members), frozenset(edges)), members

    def remove_edges_inside(self, s: Iterable[int]) -> "Graph":
        inside = set(s)
        kept = {e for e in self.edges if not (e[0] in inside and e[1] in inside)}
        return Graph(self.n, frozenset(kept))

    def add_clique(self, s: Iterable[int]) -> "Graph":
        verts = sorted(set(s))
        extra = set(combinations(verts, 2))
        return Graph(self.n, frozenset(set(self.edges) | extra))


# ---------------------------------------------------------------------------
# orderings and peeling


def degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """Min-degree peeling order and the degeneracy k.

    Each vertex has at most k neighbors occurring later in the order, and k
    is tight: at the step where the minimum degree peaks, the remaining
    induced subgraph has minimum degree k. Ties break on smallest vertex id.
    """
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    order = []
    k = 0
    while alive:
        v = min(alive, key=lambda u: (deg[u], u))
        k = max(k, deg[v])
        order.append(v)
        alive.remove(v)
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1
    return order, k


@dataclass(frozen=True)
class PeelResult:
    survivors: frozenset
    removal_order: tuple
    theta: Fraction


def peel(g: Graph, theta) -> PeelResult:
    """Repeatedly delete low-degree vertices from the surviving set.

    Starting from all vertices, any vertex with at most `theta` neighbors
    among the current survivors is removed (smallest id first) until every
    survivor has more than `theta` surviving neighbors. The threshold is kept
    as an exact rational and compared against integer degrees exactly, so the
    loop involves no floating-point decisions.
    """
    theta = Fraction(theta)
    if theta < 0:
        raise InvalidParams("theta must be nonnegative")
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    low = {v for v in alive if deg[v] <= theta}
    order = []
    while low:
        v = min(low)
        low.remove(v)
        alive.remove(v)
        order.append(v)
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1
                if deg[w] <= theta:
                    low.add(w)
    return PeelResult(frozenset(alive), tuple(order), theta)


def forward_degeneracy(g: Graph, order: Iterable[int]) -> int:
    """Largest number of later-in-order neighbors over all vertices."""
    pos = {v: i for i, v in enumerate(order)}
    if len(pos) != g.n or set(pos) != set(range(g.n)):
        raise InvalidParams("order must list every vertex exactly once")
    best = 0
    for v in range(g.n):
        fwd = sum(1 for w in g.neighbors(v) if pos[w] > pos[v])
        best = max(best, fwd)
    return best


def components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Connected components with back-maps, ordered by smallest contained id."""
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in g.neighbors(v):
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        out.append(g.induced(comp))
    return out


def is_forest(g: Graph) -> bool:
    parent = list(range(g.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


# ---------------------------------------------------------------------------
# quotients and embedding-driven checks


@dataclass
class QuotientResult:
    a_set: frozenset
    classes: tuple
    rep_of: dict
    quotient_graph: Graph
    members: tuple
    local_id: dict


def quotient_by_a_neighborhood(g: Graph, a: Iterable[int]) -> QuotientResult:
    """Collapse vertices outside `a` that share the same neighborhood in `a`.

    All edges between pairs of vertices outside `a` are deleted first, then
    each class keeps its lowest-id representative. The quotient graph is the
    induced graph on `a` plus the representatives (so it has no edges between
    representatives), relabeled 0..q-1 with a back-map.
    """
    a_set = frozenset(a)
    if any(not (0 <= v < g.n) for v in a_set):
        raise InvalidParams("A contains a vertex outside the graph")
    outside = [v for v in range(g.n) if v not in a_set]
    groups = {}
    for v in outside:
        key = frozenset(g.neighbors(v) & a_set)
        groups.setdefault(key, []).append(v)
    classes = tuple(tuple(sorted(members)) for members in
                    sorted(groups.values(), key=lambda ms: min(ms)))
    rep_of = {}
    for v in a_set:
        rep_of[v] = v
    for members in classes:
        rep = members[0]
        for v in members:
            rep_of[v] = rep
    kept = sorted(a_set | {members[0] for members in classes})
    stripped = g.remove_edges_inside(set(outside))
    qg, members = stripped.induced(kept)
    local_id = {v: i for i, v in enumerate(members)}
    return QuotientResult(a_set, classes, rep_of, qg, members, local_id)


@dataclass
class K3kReport:
    passed: bool
    bound: int
    max_count: int
    witness: tuple | None


def assert_k3k(g: Graph, a: Iterable[int], genus: int) -> K3kReport:
    """Check that no three vertices of `a` have too many common neighbors.

    A graph embeddable in a surface of Euler genus `genus` cannot contain
    K_{3,k} with k > 2*genus+2, so for every 3-subset of `a` the number of
    common neighbors outside `a` must stay within that bound. Failure is
    reported (with the first witnessing triple), never raised.
    """
    if genus < 0:
        raise InvalidParams("genus must be nonnegative")
    a_sorted = sorted(set(a))
    a_set = frozenset(a_sorted)
    bound = 2 * genus + 2
    max_count = 0
    witness = None
    for triple in combinations(a_sorted, 3):
        x, y, z = triple
        common = g.neighbors(x) & g.neighbors(y) & g.neighbors(z)
        count = sum(1 for v in common if v not in a_set)
        if count > max_count:
            max_count = count
            witness = triple
    return K3kReport(max_count <= bound, bound, max_count,
                     witness if max_count > bound else None)


def euler_genus_upper(m: int) -> int:
    """Upper bound on the Euler genus of any graph with m edges."""
    if m < 0:
        raise InvalidParams("edge count must be nonnegative")
    return m + 2


# ---------------------------------------------------------------------------
# generators

# random draws one `generate` call may make, about 13 s at 1.3 us per draw
GENERATOR_DRAW_LIMIT = 10_000_000


def _check_draws(draws: int) -> None:
    if draws > GENERATOR_DRAW_LIMIT:
        raise SizeLimitExceeded(
            f"generator needs about {draws} random draws, "
            f"limit {GENERATOR_DRAW_LIMIT}")


def generate(model: str, seed: int = 0, n: int | None = None,
             k: int | None = None) -> Graph:
    """Seeded graph generators: `bipartite`, `copm`, `kdegen`.

    bipartite(n): two sides of n vertices each (side one is 0..n-1), every
    cross pair kept independently with probability 1/ln(n). copm(k): the
    complete graph on 2k vertices minus the perfect matching {(2i, 2i+1)}.
    kdegen(n, k): vertices arrive one at a time and pick min(k, i) distinct
    uniform earlier neighbors. Deterministic given (model, params, seed).
    A call that would make more than GENERATOR_DRAW_LIMIT random draws (n^2
    for bipartite, n*k for kdegen) raises SizeLimitExceeded before the first.
    """
    if model == "bipartite":
        if n is None or n < 2:
            raise InvalidParams("bipartite model needs n >= 2")
        _check_draws(n * n)
        rng = SplitMix64(seed)
        p = 1.0 / math.log(n)
        edges = []
        for u in range(n):
            for v in range(n, 2 * n):
                if rng.random() < p:
                    edges.append((u, v))
        return Graph.from_edges(2 * n, edges)
    if model == "copm":
        if k is None or k < 1:
            raise InvalidParams("copm model needs k >= 1")
        matching = {(2 * i, 2 * i + 1) for i in range(k)}
        edges = [e for e in combinations(range(2 * k), 2) if e not in matching]
        return Graph.from_edges(2 * k, edges)
    if model == "kdegen":
        if n is None or n < 1 or k is None or k < 0:
            raise InvalidParams("kdegen model needs n >= 1 and k >= 0")
        _check_draws(n * k)
        rng = SplitMix64(seed)
        edges = []
        for i in range(1, n):
            for j in rng.sample(i, min(k, i)):
                edges.append((j, i))
        return Graph.from_edges(n, edges)
    raise InvalidParams(f"unknown model {model!r}")


# ---------------------------------------------------------------------------
# text format


def write_graph(g: Graph, comments: Iterable[str] = ()) -> str:
    """Serialize to the text format: optional '#' comments, 'n m', then one
    'u v' line per edge with u < v, sorted lexicographically."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    data = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in data if ln and not ln.startswith("#")]
    if not data:
        raise FormatError("empty graph file")
    head = data[0].split()
    if len(head) != 2:
        raise FormatError(f"bad header {data[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise FormatError(f"bad header {data[0]!r}") from exc
    if len(data) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(data) - 1}")
    edges = set()
    for ln in data[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise FormatError(f"bad edge line {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise FormatError(f"bad edge line {ln!r}") from exc
        if not (0 <= u < v < n):
            raise FormatError(f"edge {u} {v} out of range for n={n}")
        if (u, v) in edges:
            raise FormatError(f"duplicate edge {u} {v}")
        edges.add((u, v))
    return Graph(n, frozenset(edges))
