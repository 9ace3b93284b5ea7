"""Undirected simple graphs and the structural operations behind the builders.

Vertices are the integers 0..n-1 and edges are unordered pairs stored as
sorted tuples, in the frozenset `Graph` makes of any iterable of them.
Everything here is pure: operations return new graphs or result records and
never mutate their inputs, so all of it is safe to call concurrently.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from typing import Iterable, Iterator

import numpy as np

from .errors import (FormatError, InvalidParams, SizeLimitExceeded, as_count,
                     as_index, as_vertices)
from .rng import SplitMix64


@dataclass(frozen=True)
class Graph:
    n: int
    edges: frozenset

    def __post_init__(self):
        try:
            object.__setattr__(self, "n", operator.index(self.n))
            object.__setattr__(self, "edges", frozenset(self.edges))
            if self.n < 0:
                raise InvalidParams("vertex count must be nonnegative")
            for u, v in self.edges:
                if not (type(u) is int and type(v) is int and 0 <= u < v < self.n):
                    raise InvalidParams(f"bad edge {(u, v)} for n={self.n}")
        except (TypeError, ValueError) as exc:
            raise InvalidParams("n must be an integer and edges pairs of integers") from exc

    @classmethod
    def _trusted(cls, n: int, edges: frozenset) -> "Graph":
        """A graph derived from a valid one, built without re-checking it."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "edges", edges)
        return g

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        """Build a graph from any iterable of integer pairs, normalizing order and ids."""
        normalized = set()
        for e in edges:
            try:
                u, v = e
                u, v = operator.index(u), operator.index(v)
            except (TypeError, ValueError) as exc:
                raise InvalidParams(f"bad edge {e!r}: not a pair of integers") from exc
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
    def edge_index(self) -> np.ndarray:
        """Read-only sorted intp array of u*n + v over the edges (u, v), u < v:
        each edge's flat position in an (n, n) matrix, in lexicographic order."""
        index = np.fromiter(sorted([u * self.n + v for u, v in self.edges]),
                            np.intp, self.m)
        index.flags.writeable = False
        return index

    def neighbor_masks(self) -> list[int]:
        """Bit v of entry u is set iff uv is an edge."""
        return [sum(1 << v for v in self.adj[u]) for u in range(self.n)]

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
        """Induced subgraph on `verts` (`as_vertices`), relabeled 0..len-1 by id.

        Returns the subgraph and the member tuple mapping new ids to old.
        """
        members = tuple(sorted(set(as_vertices(verts, self.n, "the vertex set"))))
        local = {v: i for i, v in enumerate(members)}
        edges = {
            (local[u], local[v])
            for u, v in self.edges
            if u in local and v in local
        }
        return Graph._trusted(len(members), frozenset(edges)), members

    def remove_edges_inside(self, s: Iterable[int]) -> "Graph":
        inside = set(as_vertices(s, self.n, "the vertex set"))
        kept = {e for e in self.edges if not (e[0] in inside and e[1] in inside)}
        return Graph._trusted(self.n, frozenset(kept))


# ---------------------------------------------------------------------------
# orderings and peeling


def degeneracy_order(g: Graph) -> tuple[list[int], int]:
    """Min-degree peeling order and the degeneracy k.

    Each vertex has at most k neighbors occurring later in the order, and k
    is tight: at the step where the minimum degree peaks, the remaining
    induced subgraph has minimum degree k. Ties break on smallest vertex id.
    A heap of (degree, vertex) entries finds each minimum; a degree drop
    pushes a fresh entry, and entries of removed vertices or out-of-date
    degrees are skipped when popped.
    """
    deg = [g.degree(v) for v in range(g.n)]
    alive = [True] * g.n
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    order = []
    k = 0
    while heap:
        d, v = heapq.heappop(heap)
        if not alive[v] or d != deg[v]:
            continue
        k = max(k, d)
        order.append(v)
        alive[v] = False
        for w in g.neighbors(v):
            if alive[w]:
                deg[w] -= 1
                heapq.heappush(heap, (deg[w], w))
    return order, k


def peel(g: Graph, theta) -> frozenset:
    """The survivors of repeatedly deleting low-degree vertices.

    Starting from all vertices, any vertex with at most `theta` neighbors
    among the current survivors is removed (smallest id first) until every
    survivor has more than `theta` surviving neighbors. The threshold is kept
    as an exact rational, and degrees are integers, so "at most theta" is
    "at most floor(theta)" and the loop involves no floating-point decisions.
    The removable vertices wait in a min-heap; each enters it once, when its
    degree first falls to floor(theta) or below.
    """
    try:
        theta = Fraction(theta)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParams(f"theta must be a finite number, got {theta!r}") from exc
    if theta < 0:
        raise InvalidParams("theta must be nonnegative")
    limit = math.floor(theta)
    deg = [g.degree(v) for v in range(g.n)]
    alive = set(range(g.n))
    low = [v for v in range(g.n) if deg[v] <= limit]  # ascending, so a heap
    while low:
        v = heapq.heappop(low)
        alive.remove(v)
        for w in g.neighbors(v):
            if w in alive:
                deg[w] -= 1
                if deg[w] == limit:
                    heapq.heappush(low, w)
    return frozenset(alive)


def forward_degeneracy(g: Graph, order: Iterable[int]) -> int:
    """Largest number of later-in-order neighbors over all vertices; `order`
    lists every vertex once (`as_vertices`)."""
    order = as_vertices(order, g.n, "order")
    if len(order) != g.n or len(set(order)) != g.n:
        raise InvalidParams("order must list every vertex exactly once")
    pos = {v: i for i, v in enumerate(order)}
    best = 0
    for v in range(g.n):
        fwd = sum(1 for w in g.neighbors(v) if pos[w] > pos[v])
        best = max(best, fwd)
    return best


def _max_clique(adj: list[int]) -> list[int]:
    """A maximum clique of the graph with neighbour masks `adj`, by branch
    and bound: a branch stops when its vertices plus all its candidates
    cannot beat the best clique found."""
    best: list[int] = []

    def grow(clique: list[int], cand: int) -> None:
        nonlocal best
        if len(clique) > len(best):
            best = clique
        while cand and len(clique) + cand.bit_count() > len(best):
            v = cand.bit_length() - 1
            cand ^= 1 << v
            grow(clique + [v], cand & adj[v])

    grow([], (1 << len(adj)) - 1)
    del grow  # break the closure's reference cycle
    return best


def components(g: Graph) -> list[tuple[Graph, tuple[int, ...]]]:
    """Connected components with back-maps, ordered by smallest contained id.
    A connected graph is its own component, with the identity map."""
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
        out.append((g, tuple(range(g.n))) if len(comp) == g.n else g.induced(comp))
    return out


def forest_walk(g: Graph, label: list, pair: tuple,
                roots: Iterable[int]) -> tuple[dict, dict, dict] | None:
    """Depth-first walk of the subgraph on the vertices v with label[v] in pair.

    Trees grow from `roots` in order, skipping roots already reached, and a
    vertex's children are entered in ascending id; one counter numbers the
    entries and exits. Returns the (depth, entry, exit) dicts of the reached
    vertices, or None as soon as a vertex being entered has a reached
    neighbour other than its parent: in a forest the parent is the only one,
    so a second one closes a cycle. A vertex counts as reached once pushed.
    """
    depth, entry, leave = {}, {}, {}
    counter = 0
    for root in roots:
        if root in depth:
            continue
        depth[root] = 0
        stack = [(root, -1)]
        while stack:
            v, parent = stack.pop()
            if parent is None:  # every child of v is finished
                leave[v] = counter
                counter += 1
                continue
            entry[v] = counter
            counter += 1
            stack.append((v, None))
            children = []
            for w in g.adj[v]:
                if w != parent and label[w] in pair:
                    if w in depth:
                        return None
                    children.append(w)
            children.sort(reverse=True)
            for w in children:
                depth[w] = depth[v] + 1
                stack.append((w, v))
    return depth, entry, leave


# ---------------------------------------------------------------------------
# quotients and embedding-driven checks


@dataclass(frozen=True)
class QuotientResult:
    """The A-neighborhood quotient as a vertex map.

    `reps` holds the ascending quotient ids of the class representatives, and
    `cols[v]` is the quotient id whose box vertex v takes: its own for v in
    A, its class representative's otherwise. `quotient_lift` stretches a
    representation of `quotient_graph` over `reps` and gathers it by `cols`.
    """

    quotient_graph: Graph
    reps: tuple
    cols: tuple


def quotient_by_a_neighborhood(g: Graph, a: Iterable[int]) -> QuotientResult:
    """Collapse vertices outside `a` that share the same neighborhood in `a`.

    One pass in ascending id: a vertex of `a` keeps itself, and the first
    vertex seen with a given A-neighborhood represents its class. The kept
    vertices are numbered 0..q-1 in the order they are met, so ascending. The
    quotient graph is the induced graph on them with every edge between two
    vertices outside `a` deleted, so the representatives are independent.
    The ids of `a` go through `as_vertices`.
    """
    a_set = frozenset(as_vertices(a, g.n, "A"))
    ids = {}  # quotient id of each vertex of A and each representative
    head = {}  # quotient id of the class of each A-neighborhood
    reps, cols = [], []
    for v in range(g.n):
        if v in a_set:
            ids[v] = len(ids)
            cols.append(ids[v])
            continue
        key = g.neighbors(v) & a_set
        if key not in head:
            ids[v] = head[key] = len(ids)
            reps.append(ids[v])
        cols.append(head[key])
    edges = frozenset((ids[u], ids[v]) for u, v in g.edges
                      if u in ids and v in ids and (u in a_set or v in a_set))
    return QuotientResult(Graph._trusted(len(ids), edges), tuple(reps), tuple(cols))


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
    reported (with the first witnessing triple), never raised. `genus`
    goes through `as_count` and the ids of `a` through `as_vertices`.
    """
    genus = as_count(genus, "genus")
    a_sorted = sorted(set(as_vertices(a, g.n, "A")))
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
    """Upper bound on the Euler genus of any graph with m edges; `m` goes
    through `as_count`."""
    return as_count(m, "edge count") + 2


# ---------------------------------------------------------------------------
# generators

# draws (copm: pairs) per generate or bipartite_experiment call, ~13 s at 1.3 us
GENERATOR_DRAW_LIMIT = 10_000_000


def _check_draws(draws: int, unit: str = "random draws") -> None:
    if draws > GENERATOR_DRAW_LIMIT:
        raise SizeLimitExceeded(
            f"generator needs about {draws} {unit}, "
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
    for bipartite, n*k for kdegen) or enumerate more vertex pairs (C(2k, 2)
    for copm) raises SizeLimitExceeded before the first. A non-integer n or
    k raises InvalidParams, and so does a non-integer seed of the two random
    models.
    """
    n = None if n is None else as_index(n, "n")
    k = None if k is None else as_index(k, "k")
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
        _check_draws(math.comb(2 * k, 2), "vertex pairs")
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

def _integer_fields(line: str, width: int, what: str, skip: int = 0) -> list[int]:
    """The `width` integers of `line`, split at whitespace, after its first
    `skip` fields: the one reader of integers in every text format.

    A field is ASCII `[+-]?[0-9]+`. `int` also reads `1_0` and non-ASCII
    digits, so every field must be ASCII and free of `_`; there `int` reads
    exactly that pattern. Any other line, or a field past Python's
    int-to-str digit limit, raises FormatError naming the line as a bad
    `what`.
    """
    fields = line.split()[skip:]
    if len(fields) == width and "_" not in line and "".join(fields).isascii():
        try:
            return list(map(int, fields))
        except ValueError:
            pass
    raise FormatError(f"bad {what} {line!r}")


def write_graph(g: Graph, comments: Iterable[str] = ()) -> str:
    """Serialize to the text format: optional '#' comments, 'n m', then one
    'u v' line per edge with u < v, sorted lexicographically."""
    lines = [f"# {c}" for c in comments]
    lines.append(f"{g.n} {g.m}")
    lines.extend(f"{u} {v}" for u, v in g.sorted_edges())
    return "\n".join(lines) + "\n"


# vertices in a parsed graph; at this n a kdegen graph (k = 3) peaks near
# 430 MiB in `build --pipeline edge` and 350 MiB in `verify`, mostly the
# oracle's (n, n) bool matrices
GRAPH_VERTEX_LIMIT = 10_000


def parse_graph(text: str) -> Graph:
    """Read the text format written by `write_graph`: a header `n m`, then m
    lines `u v` with 0 <= u < v < n, no edge twice, skipping blank and '#'
    lines; fields are read by `_integer_fields`. Every field is checked here,
    so the graph is built without the constructor's second check."""
    data = [ln.strip() for ln in text.splitlines()]
    data = [ln for ln in data if ln and not ln.startswith("#")]
    if not data:
        raise FormatError("empty graph file")
    n, m = _integer_fields(data[0], 2, "header")
    if n < 0:
        raise FormatError(f"bad header {data[0]!r}: negative vertex count")
    if n > GRAPH_VERTEX_LIMIT:
        raise SizeLimitExceeded(
            f"graph has {n} vertices, limit {GRAPH_VERTEX_LIMIT}")
    if len(data) - 1 != m:
        raise FormatError(f"expected {m} edge lines, found {len(data) - 1}")
    edges = set()
    for ln in data[1:]:
        u, v = _integer_fields(ln, 2, "edge line")
        if not (0 <= u < v < n):
            raise FormatError(f"edge {u} {v} out of range for n={n}")
        if (u, v) in edges:
            raise FormatError(f"duplicate edge {u} {v}")
        edges.add((u, v))
    return Graph._trusted(n, frozenset(edges))
