"""Box representations and the oracle that certifies them.

A box representation is an ordered list of interval assignments over the same
vertex set; its meaning is the intersection of the corresponding interval
graphs. Intervals are closed with integer endpoints, so touching intervals
intersect. A representation stores its endpoints as two int64 arrays `lo`
and `hi` of shape (d, n): row j is dimension j+1 and column v is vertex v.
The arrays are read-only, so representations and the combinators below share
rows without copying them. Endpoints must lie in the int64 range, and every
combinator below keeps them integral.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .errors import (
    BoxrepError,
    DimensionMismatch,
    EmptyInput,
    FormatError,
    InvalidInputRep,
    PreconditionViolation,
    SizeLimitExceeded,
    UncoveredNonedge,
)
from .graph import Graph

RECOGNITION_LIMIT = 12

# bytes of the oracle's per-chunk temporary; bounds its memory for any d
ORACLE_CHUNK_BYTES = 1 << 24

_INT64 = np.iinfo(np.int64)


def _endpoints(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype != np.int64:
        if arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
            raise InvalidInputRep(f"{what} endpoints must be integers within int64")
        arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


@dataclass
class BoxRepresentation:
    """`d` interval assignments over the vertices 0..n-1.

    `lo[j, v]` and `hi[j, v]` are the endpoints of vertex v's interval in
    dimension j+1; both arrays have shape (d, n) with d >= 1 and hold int64
    values with lo <= hi. Integer arrays of another dtype are converted when
    every value fits in int64; anything else raises InvalidInputRep. The
    constructor takes int64 arrays over without copying and marks them
    read-only, so a representation may share its arrays with the one it was
    derived from.
    """

    n: int
    lo: np.ndarray
    hi: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.lo = _endpoints(self.lo, "lower")
        self.hi = _endpoints(self.hi, "upper")
        if self.lo.ndim != 2 or self.lo.shape != self.hi.shape:
            raise InvalidInputRep("lo and hi must be arrays of one shape (d, n)")
        if self.lo.shape[1] != self.n:
            raise InvalidInputRep("assignment must cover vertices 0..n-1")
        if self.lo.shape[0] == 0:
            raise InvalidInputRep("a representation needs at least one dimension")
        if np.count_nonzero(self.lo > self.hi):
            j, v = np.argwhere(self.lo > self.hi)[0]
            raise InvalidInputRep(f"empty interval at vertex {v} in dimension {j + 1}")

    @property
    def d(self) -> int:
        return self.lo.shape[0]


@dataclass
class VerifyReport:
    valid: bool
    missing_edge: tuple | None
    uncovered_nonedge: tuple | None


def verify_representation(g: Graph, rep: BoxRepresentation) -> VerifyReport:
    """Certify a representation against a graph.

    Valid iff every edge's intervals intersect in every dimension and every
    non-edge is separated in at least one dimension. Witnesses are the
    lexicographically smallest violating pairs of each kind.

    Intervals u and v meet in every dimension iff lo[j, u] <= hi[j, v] for
    all j and lo[j, v] <= hi[j, u] for all j, so one (n, n) matrix of the
    first condition, read against its transpose, decides every pair. It is
    accumulated over chunks of dimensions whose (chunk, n, n) comparison
    stays within ORACLE_CHUNK_BYTES.
    """
    if rep.n != g.n:
        raise DimensionMismatch(f"representation over {rep.n} vertices, graph has {g.n}")
    if g.n < 2:
        return VerifyReport(True, None, None)  # no pair to check
    lo, hi = rep.lo[:, :, None], rep.hi[:, None, :]
    step = max(1, ORACLE_CHUNK_BYTES // (g.n * g.n))
    below = np.ones((g.n, g.n), dtype=bool)
    for start in range(0, rep.d, step):
        below &= (lo[start:start + step] <= hi[start:start + step]).all(axis=0)
    u, v, edge = g.pairs
    wrong = np.flatnonzero((below & below.T)[u, v] != edge)
    if not len(wrong):
        return VerifyReport(True, None, None)
    is_edge = edge[wrong]
    missing, uncovered = wrong[is_edge], wrong[~is_edge]
    return VerifyReport(
        False,
        (int(u[missing[0]]), int(v[missing[0]])) if len(missing) else None,
        (int(u[uncovered[0]]), int(v[uncovered[0]])) if len(uncovered) else None)


def certify(g: Graph, rep: BoxRepresentation, what: str,
            error: type[BoxrepError] | None = None) -> BoxRepresentation:
    """Return `rep` when the oracle accepts it for `g`, raise otherwise.

    The one gate of every combinator, for its inputs and its output. A
    rejected `rep` raises `error`, naming `what` and both witnesses; with no
    `error`, a separated edge raises PreconditionViolation and an unseparated
    non-edge raises UncoveredNonedge.
    """
    report = verify_representation(g, rep)
    if report.valid:
        return rep
    if error is None and report.missing_edge is None:
        raise UncoveredNonedge(report.uncovered_nonedge)
    raise (error or PreconditionViolation)(
        f"{what} fails the oracle (missing_edge={report.missing_edge}, "
        f"uncovered_nonedge={report.uncovered_nonedge})")


# ---------------------------------------------------------------------------
# interval-graph recognition via consecutively orderable maximal cliques


def _maximal_cliques(adj: list[int], n: int) -> list[int] | None:
    """All maximal cliques as bitmasks, or None once more than n exist."""
    cliques: list[int] = []

    def expand(r: int, p: int, x: int) -> bool:
        if p == 0 and x == 0:
            cliques.append(r)
            return len(cliques) <= n
        # pivot on the candidate dominating the most of p
        px = p | x
        best_u, best_cover = -1, -1
        w = px
        while w:
            u = (w & -w).bit_length() - 1
            w &= w - 1
            cover = bin(p & adj[u]).count("1")
            if cover > best_cover:
                best_cover, best_u = cover, u
        candidates = p & ~adj[best_u]
        while candidates:
            v = (candidates & -candidates).bit_length() - 1
            vb = 1 << v
            candidates &= candidates - 1
            if not expand(r | vb, p & adj[v], x & adj[v]):
                return False
            p &= ~vb
            x |= vb
        return True

    if not expand(0, (1 << n) - 1 if n else 0, 0):
        return None
    return cliques


def _is_chordal(adj: list[int], n: int) -> bool:
    """Tarjan-Yannakakis test: maximum cardinality search ordering must be a
    perfect elimination order (in reverse)."""
    if n == 0:
        return True
    chosen = 0
    weight = [0] * n
    pos = [0] * n
    order = []
    for step in range(n):
        best, best_w = -1, -1
        for v in range(n):
            if not (chosen >> v) & 1 and weight[v] > best_w:
                best, best_w = v, weight[v]
        chosen |= 1 << best
        pos[best] = step
        order.append(best)
        w = adj[best]
        while w:
            u = (w & -w).bit_length() - 1
            w &= w - 1
            if not (chosen >> u) & 1:
                weight[u] += 1
    seen = 0
    for v in order:
        prev = adj[v] & seen
        seen |= 1 << v
        if prev:
            u = max((pos[x], x) for x in _bits(prev))[1]
            if prev & ~(adj[u] | (1 << u)):
                return False
    return True


def _bits(mask: int):
    while mask:
        b = mask & -mask
        mask &= mask - 1
        yield b.bit_length() - 1


def _consecutive_order(cliques: list[int]) -> list[int] | None:
    """Order cliques so each vertex's cliques are consecutive, or None.

    A vertex whose run is open and which still occurs in unplaced cliques
    must appear in the next clique placed, which prunes every branch that is
    already doomed.
    """
    t = len(cliques)
    if t == 0:
        return []
    width = max(c.bit_length() for c in cliques)
    cnt = [0] * width
    for c in cliques:
        for v in _bits(c):
            cnt[v] += 1
    order: list[int] = []

    def place(unplaced: int, started: int, closed: int) -> bool:
        if unplaced == 0:
            return True
        pending = 0
        for v in _bits(started & ~closed):
            if cnt[v] > 0:
                pending |= 1 << v
        rem = unplaced
        while rem:
            ib = rem & -rem
            rem &= rem - 1
            i = ib.bit_length() - 1
            c = cliques[i]
            if c & closed or pending & ~c:
                continue
            for v in _bits(c):
                cnt[v] -= 1
            order.append(i)
            if place(unplaced & ~ib, started | c, closed | (started & ~c)):
                return True
            order.pop()
            for v in _bits(c):
                cnt[v] += 1
        return False

    if not place((1 << t) - 1, 0, 0):
        return None
    return [cliques[i] for i in order]


def _interval_order_from_adj(adj: list[int], n: int):
    if n == 0:
        return []
    if not _is_chordal(adj, n):
        return None  # interval graphs are chordal; skips the clique search
    cliques = _maximal_cliques(adj, n)
    if cliques is None:
        return None
    cliques.sort()
    return _consecutive_order(cliques)


def consecutive_clique_order(g: Graph):
    """Maximal cliques in a consecutive order, or None if no order exists.

    Early-rejects when the graph has more than n maximal cliques (interval
    graphs never do). Exhaustive, hence the size guard.
    """
    if g.n > RECOGNITION_LIMIT:
        raise SizeLimitExceeded(
            f"interval recognition limited to n <= {RECOGNITION_LIMIT}")
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return _interval_order_from_adj(adj, g.n)


def is_interval_graph(g: Graph) -> bool:
    return consecutive_clique_order(g) is not None


# ---------------------------------------------------------------------------
# combinators


def concat(r1: BoxRepresentation, r2: BoxRepresentation, g: Graph) -> BoxRepresentation:
    """Stack the dimensions of two supergraph representations.

    Sound for `g` whenever every non-edge of `g` is missing from at least one
    of the two supergraphs; the result is oracle-checked and the call fails
    with a witness otherwise.
    """
    if r1.n != r2.n or r1.n != g.n:
        raise DimensionMismatch("representations must share the vertex set of g")
    out = BoxRepresentation(g.n, np.concatenate((r1.lo, r2.lo)),
                            np.concatenate((r1.hi, r2.hi)),
                            {"builder": "concat", "parts": (r1.d, r2.d)})
    return certify(g, out, "the concatenation of two supergraph representations")


def extend_universal(rep: BoxRepresentation, members: Iterable[int],
                     n_total: int) -> BoxRepresentation:
    """Lift a representation on a vertex subset to the full set.

    `members[i]` is the original id of the subset vertex i. Every vertex not
    in `members` receives, per dimension, the interval spanning all existing
    endpoints of that dimension, making it adjacent to everything.
    """
    members = list(members)
    if len(members) != rep.n:
        raise InvalidInputRep("members must enumerate the representation's vertices")
    if rep.n == 0:
        raise InvalidInputRep("cannot extend an empty representation")
    if (len(set(members)) != len(members) or min(members) < 0
            or max(members) >= n_total):
        raise InvalidInputRep("members must be distinct ids below n_total")
    lo = np.empty((rep.d, n_total), dtype=np.int64)
    hi = np.empty((rep.d, n_total), dtype=np.int64)
    lo[:] = rep.lo.min(axis=1, keepdims=True)
    hi[:] = rep.hi.max(axis=1, keepdims=True)
    lo[:, members] = rep.lo
    hi[:, members] = rep.hi
    meta = dict(rep.metadata)
    meta["extended_from"] = rep.n
    return BoxRepresentation(n_total, lo, hi, meta)


def merge_components(reps: list[BoxRepresentation],
                     maps: list[tuple]) -> BoxRepresentation:
    """Combine per-component representations into one for the disjoint union.

    Output has max(d_i) dimensions. Dimension 1 shifts each component into
    its own coordinate range so cross-component pairs are separated there;
    in higher dimensions a component either keeps its own intervals or, past
    its dimension count, pads with the global span of that dimension.
    """
    if not reps:
        raise EmptyInput("no component representations")
    if len(reps) != len(maps):
        raise InvalidInputRep("one vertex map per representation required")
    if any(rep.n != len(mp) for rep, mp in zip(reps, maps)):
        raise InvalidInputRep("each vertex map must list its representation's vertices")
    n_total = sum(len(m) for m in maps)
    seen = set()
    for mp in maps:
        seen.update(mp)
    if seen != set(range(n_total)):
        raise InvalidInputRep("component maps must partition the vertex set")
    depth = max(r.d for r in reps)
    span_lo = np.full(depth, _INT64.max)
    span_hi = np.full(depth, _INT64.min)
    for rep in reps:
        span_lo[:rep.d] = np.minimum(span_lo[:rep.d], rep.lo.min(axis=1))
        span_hi[:rep.d] = np.maximum(span_hi[:rep.d], rep.hi.max(axis=1))

    lo = np.empty((depth, n_total), dtype=np.int64)
    hi = np.empty((depth, n_total), dtype=np.int64)
    cursor = None
    for rep, mp in zip(reps, maps):
        cols = list(mp)
        lo[:rep.d, cols] = rep.lo
        hi[:rep.d, cols] = rep.hi
        lo[rep.d:, cols] = span_lo[rep.d:, None]
        hi[rep.d:, cols] = span_hi[rep.d:, None]
        # dimension 1: disjoint ranges, first component kept in place
        shift = 0 if cursor is None else cursor - int(rep.lo[0].min())
        lo[0, cols] += shift
        hi[0, cols] += shift
        cursor = int(rep.hi[0].max()) + shift + 1

    return BoxRepresentation(n_total, lo, hi,
                             {"builder": "merge_components",
                              "parts": tuple(r.d for r in reps)})


# ---------------------------------------------------------------------------
# text format


def write_representation(rep: BoxRepresentation) -> str:
    """The text format read by `parse_representation`.

    One format string holds a whole dimension, so each dimension is a single
    `format` call on the interleaved endpoints of its row.
    """
    block = "dim {}\n" + "".join(f"{v} {{}} {{}}\n" for v in range(rep.n))
    ends = np.empty((rep.d, 2 * rep.n), dtype=np.int64)
    ends[:, 0::2] = rep.lo
    ends[:, 1::2] = rep.hi
    body = "".join(block.format(j, *row.tolist())
                   for j, row in enumerate(ends, start=1))
    return f"boxrep {rep.n} {rep.d}\n{body}"


def parse_representation(text: str) -> BoxRepresentation:
    """Read the text format written by `write_representation`.

    The header `boxrep n d` is followed by d blocks; block j is the line
    `dim j` and then n lines `v lo hi` for v = 0..n-1, with integers lo <= hi
    in the int64 range. Fields are separated by whitespace, surrounding
    whitespace is ignored and lines after the last block are not read.

    A well-formed ASCII body is read as one integer table. Every text that
    this batch read refuses goes to the line scan `_parse_lines`, which
    decides it and names the first bad line, so both paths accept the same
    texts and return the same arrays.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("boxrep "):
        raise FormatError("missing 'boxrep n d' header")
    head = lines[0].split()
    if len(head) != 3:
        raise FormatError(f"bad header {lines[0]!r}")
    try:
        n, d = int(head[1]), int(head[2])
    except ValueError as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    if n < 0 or d < 1:
        raise FormatError(f"bad header {lines[0]!r}")
    # numpy's integer reader takes some non-ASCII characters for digits
    table = _interval_table(lines, n, d) if text.isascii() else None
    if table is None:
        return _parse_lines(lines, n, d)
    return BoxRepresentation(n, table[:, 1].reshape(d, n).copy(),
                             table[:, 2].reshape(d, n).copy())


def _interval_table(lines: list[str], n: int, d: int) -> np.ndarray | None:
    """The (d*n, 3) table of `v lo hi` rows of a well-formed body, else None."""
    rows = lines[1:1 + d * (n + 1)]
    if (n == 0 or len(rows) < d * (n + 1)
            or [s.strip() for s in rows[::n + 1]]
            != [f"dim {j}" for j in range(1, d + 1)]):
        return None
    del rows[::n + 1]
    if not rows[0].strip():  # loadtxt skips blank lines, and warns if all are
        return None
    try:
        table = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:  # a bad field, a ragged row or an int64 overflow
        return None
    if (table.shape != (d * n, 3)
            or (table[:, 0].reshape(d, n) != np.arange(n)).any()
            or (table[:, 1] > table[:, 2]).any()):
        return None
    return table


def _parse_lines(lines: list[str], n: int, d: int) -> BoxRepresentation:
    """Read the body after a valid header line by line, raising FormatError
    at the first line that breaks the format."""
    pos = 1
    lo, hi = [], []
    for j in range(1, d + 1):
        if pos >= len(lines) or lines[pos].strip() != f"dim {j}":
            raise FormatError(f"expected 'dim {j}' at line {pos + 1}")
        pos += 1
        for v in range(n):
            if pos >= len(lines):
                raise FormatError("truncated representation file")
            parts = lines[pos].split()
            if len(parts) != 3:
                raise FormatError(f"bad interval line {lines[pos]!r}")
            try:
                vid, a, b = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise FormatError(f"bad interval line {lines[pos]!r}") from exc
            if vid != v:
                raise FormatError(f"expected vertex {v} at line {pos + 1}")
            if b < a:
                raise FormatError(f"empty interval at line {pos + 1}")
            lo.append(a)
            hi.append(b)
            pos += 1
    if lo and (min(lo) < _INT64.min or max(hi) > _INT64.max):
        raise FormatError("interval endpoint outside the int64 range")
    shape = (d, n)
    return BoxRepresentation(n, np.array(lo, dtype=np.int64).reshape(shape),
                             np.array(hi, dtype=np.int64).reshape(shape))
