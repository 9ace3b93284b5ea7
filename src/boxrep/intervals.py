"""Box representations, the oracle that certifies them, and their pruning.

A box representation is an ordered list of interval assignments over the same
vertex set; its meaning is the intersection of the corresponding interval
graphs. Intervals are closed with integer endpoints, so touching intervals
intersect. A representation stores its endpoints as two int64 arrays `lo`
and `hi` of shape (d, n): row j is dimension j+1 and column v is vertex v.
The arrays are read-only, so representations and the combinators below share
rows without copying them. Endpoints must lie in the int64 range, and every
combinator below keeps them integral.

The oracle and `prune_dims` only compare endpoints of one row with each
other, so both read them narrowed by `_narrowed`: each row shifted to start
at 0 and cast to the smallest unsigned type that holds it, which keeps their
order. The oracle builds the flat (n, n) matrix of the pairs that meet in
every row, a chunk of rows at a time, and reads every edge from it with one
gather through `Graph.edge_index`; the witnesses cost extra work only when
the representation fails. `prune_dims` drops, last row first, every row
whose separated pairs other rows separate; its docstring proves that the
oracle's report does not change. Interval graphs on at most
RECOGNITION_LIMIT vertices are recognised by a search for an umbrella-free
vertex order.

The text format is written with one `%` template per dimension. It is read
back as one integer table, with a line scan as the fallback that decides
every text the table refuses and names its first bad line.
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
    SizeLimitExceeded,
    as_vertices,
)
from .graph import Graph, _integer_fields

RECOGNITION_LIMIT = 12

# bytes of the oracle's per-chunk temporary; bounds its memory for any d
ORACLE_CHUNK_BYTES = 1 << 24

# bytes that prune_dims may allocate; a larger call raises SizeLimitExceeded
PRUNE_MEMORY_LIMIT = 1 << 30

# pairs per compare in prune_dims, few enough to stay in cache
_PRUNE_TILE = 1 << 18

# d * n * n from which `_narrowed` pays for itself
_NARROW_FROM = 1 << 14

_INT64 = np.iinfo(np.int64)


def _endpoints(values, what: str) -> np.ndarray:
    arr = np.asarray(values)
    if arr.dtype != np.int64:
        if arr.dtype.kind not in "iu" or not np.can_cast(arr.dtype, np.int64):
            raise InvalidInputRep(f"{what} endpoints must be integers within int64")
        arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


def _narrowed(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`lo` and `hi` shifted so that each row starts at 0, in the smallest
    unsigned integer type that holds every shifted endpoint.

    A shift and a cast keep the order of the endpoints within a row, which is
    all that the oracle and `prune_dims` compare. The differences are taken
    in int64 and read as uint64: for int64 values x >= base, x - base wraps
    to its exact value modulo 2**64, which lies in [0, 2**64), so no span
    overflows, not even from the int64 minimum to the maximum. Below
    _NARROW_FROM compared pairs, d * n * n, these numpy calls cost more than
    the narrow compare saves, so such arrays are returned as they are.
    """
    d, n = lo.shape
    if d * n * n < _NARROW_FROM:
        return lo, hi
    base = lo.min(axis=1, keepdims=True)
    lo = (lo - base).view(np.uint64)
    hi = (hi - base).view(np.uint64)
    dtype = np.min_scalar_type(hi.max())
    return lo.astype(dtype, copy=False), hi.astype(dtype, copy=False)


@dataclass
class BoxRepresentation:
    """`d` interval assignments over the vertices 0..n-1.

    `lo[j, v]` and `hi[j, v]` are the endpoints of vertex v's interval in
    dimension j+1; both arrays have shape (d, n) with d >= 1 and hold int64
    values with lo <= hi. Integer arrays of another dtype are converted when
    every value fits in int64; anything else raises InvalidInputRep. The
    constructor takes int64 arrays over without copying and marks them
    read-only, so a representation may share its arrays with the one it was
    derived from. `_trusted` builds one from arrays that are valid by
    construction without these checks. `metadata` is free-form, not written
    to the text format, and set only by degenerate_rep (cover statistics)
    and acyclic_rep (colors).
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

    @classmethod
    def _trusted(cls, n: int, lo: np.ndarray, hi: np.ndarray,
                 metadata: dict | None = None) -> "BoxRepresentation":
        """A representation from int64 (d, n) arrays that are valid by
        construction, such as rows of a valid one, built without re-checking
        them; the arrays are marked read-only like the constructor's."""
        lo.setflags(write=False)
        hi.setflags(write=False)
        rep = object.__new__(cls)
        rep.n, rep.lo, rep.hi = n, lo, hi
        rep.metadata = {} if metadata is None else metadata
        return rep

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
    all j and lo[j, v] <= hi[j, u] for all j, so one (n, n) matrix `below`
    of the first condition, read against its transpose, gives the symmetric
    matrix `met` of the pairs that meet, kept flat in row-major order. The
    first chunk of dimensions sets `below` and each later chunk ANDs into
    it; a chunk's (chunk, n, n) comparison stays within ORACLE_CHUNK_BYTES.
    The comparison reads the endpoints narrowed by `_narrowed`, which keeps
    their order within each dimension, so it decides exactly what the int64
    endpoints decide while reading a quarter or less of their bytes.

    `g.edge_index` lists each edge's flat position u*n + v in lexicographic
    order, so one gather reads whether every edge is met, and the first edge
    it finds unmet is the smallest missing edge. Every vertex meets itself,
    so the representation is valid iff every edge is met and `met` holds
    exactly n + 2m true entries. Otherwise, with both positions of every
    edge and the diagonal cleared, the first true entry of `met` is the
    smallest uncovered non-edge: if it were (a, b) with b < a, then
    `met[b, a]` would be true and come first. `argmax` finds it without
    building an index array.
    """
    if rep.n != g.n:
        raise DimensionMismatch(f"representation over {rep.n} vertices, graph has {g.n}")
    if g.n < 2:
        return VerifyReport(True, None, None)  # no pair to check
    n = g.n
    lo, hi = _narrowed(rep.lo, rep.hi)
    step = max(1, ORACLE_CHUNK_BYTES // (n * n))
    below = (lo[:step, :, None] <= hi[:step, None, :]).all(axis=0)
    for start in range(step, rep.d, step):
        stop = start + step
        below &= (lo[start:stop, :, None] <= hi[start:stop, None, :]).all(axis=0)
    met = (below & below.T).ravel()
    edges = g.edge_index
    hit = met[edges]
    broken = g.m - np.count_nonzero(hit)
    if not broken and np.count_nonzero(met) == n + 2 * g.m:
        return VerifyReport(True, None, None)
    missing = divmod(int(edges[hit.argmin()]), n) if broken else None
    u, v = np.divmod(edges, n)
    met[edges] = met[v * n + u] = False
    met[::n + 1] = False
    first = int(met.argmax())
    return VerifyReport(False, missing, divmod(first, n) if met[first] else None)


def certify(g: Graph, rep: BoxRepresentation, what: str,
            error: type[BoxrepError]) -> BoxRepresentation:
    """Return `rep` when the oracle accepts it for `g`, raise otherwise.

    The one gate of every combinator, for each representation it is handed,
    and of both pipelines for their results. A combinator's output is
    covered by its docstring's proof. A rejected `rep` raises `error`,
    naming `what` and both witnesses.
    """
    report = verify_representation(g, rep)
    if report.valid:
        return rep
    raise error(
        f"{what} fails the oracle (missing_edge={report.missing_edge}, "
        f"uncovered_nonedge={report.uncovered_nonedge})")


# ---------------------------------------------------------------------------
# pruning


def _prune_bytes(d: int, n: int) -> int:
    """An upper bound on the bytes `prune_dims` allocates for d rows over n
    vertices, where one set of n*n bits takes `bits` bytes: the sets of a
    chunk, their prefix unions and the previous chunk's sets, at most
    max(ORACLE_CHUNK_BYTES, bits) each; the d.bit_length() count planes and
    eight more sets in flight; one tile's two boolean compares and its packed
    bits, under 3 * _PRUNE_TILE; and the narrowed and the kept endpoints,
    at most 32 bytes a vertex and row."""
    bits = (n * n + 7) // 8
    return (3 * max(ORACLE_CHUNK_BYTES, bits) + (d.bit_length() + 8) * bits
            + 3 * _PRUNE_TILE + 32 * d * n)


def _separated_sets(lo: np.ndarray, hi: np.ndarray, start: int, stop: int) -> list[int]:
    """Bitsets of the pairs rows start..stop-1 separate: bit u*n + v of entry
    i is set iff the intervals of u and v are disjoint in row start + i.

    Each compare covers at most _PRUNE_TILE pairs: several rows when n*n is
    that small, else blocks of a multiple of 8 vertices of one row, whose
    packed bits then join at byte boundaries.
    """
    n = lo.shape[1]
    rows = max(1, _PRUNE_TILE // (n * n))
    block = n if n * n <= _PRUNE_TILE else max(8, _PRUNE_TILE // n // 8 * 8)
    sets = []
    for first in range(start, stop, rows):
        a, b = lo[first:min(stop, first + rows)], hi[first:min(stop, first + rows)]
        packed = []
        for top in range(0, n, block):
            apart = a[:, None, :] > b[:, top:top + block, None]
            apart |= a[:, top:top + block, None] > b[:, None, :]
            packed.append(np.packbits(apart.reshape(len(a), -1), axis=1,
                                      bitorder="little"))
        packed = np.concatenate(packed, axis=1)
        raw, width = packed.tobytes(), packed.shape[1]
        sets.extend(int.from_bytes(raw[i * width:(i + 1) * width], "little")
                    for i in range(len(a)))
    return sets


def _count(planes: list[int], pairs: int, step: int) -> None:
    """Add `step` (1 or -1) to the bit-sliced count of every pair in `pairs`,
    `planes[k]` holding bit k of every count; a pair is only taken off a
    count it was added to."""
    for k, plane in enumerate(planes):
        if not pairs:
            return
        # a carry goes on where the bit was set, a borrow where it was clear
        planes[k] = plane ^ pairs
        pairs &= plane if step > 0 else planes[k]
    if pairs:
        planes.append(pairs)


def prune_dims(rep: BoxRepresentation) -> BoxRepresentation:
    """Drop, last row first, each row whose separated pairs other rows separate.

    Row j is dropped when every pair it separates is also separated by an
    earlier row or by a later row already kept. At least one row stays: when
    no row separates anything, as on a complete graph, row 1 is kept. The
    kept rows keep their order, and `rep` itself is returned when no row
    drops.

    The union U of the separated pairs is invariant. Before row j is visited,
    rows 1..j+1 and the kept rows together separate every pair of U: this
    holds before the first visit, and a dropped row only takes away pairs
    that rows 1..j or the kept rows still separate. So at the end the kept
    rows separate U, and being input rows they separate nothing else. The
    oracle reads a representation only through the pairs that meet in every
    dimension, the complement of U, so `verify_representation(g,
    prune_dims(rep)) == verify_representation(g, rep)` for every graph g on
    rep.n vertices, valid or not; a certificate stays a certificate and its
    d only falls.

    The separated sets are Python-int bitsets over the n*n ordered pairs,
    made one chunk of rows at a time by `_separated_sets` from the narrowed
    endpoints; a chunk's sets take at most ORACLE_CHUNK_BYTES, or one set
    when a set is larger. Within a chunk the rule reads prefix unions: the
    union of the rows before the chunk, extended by one row at a time. That
    union comes from bit-sliced counts, `planes[k]` holding bit k of the
    number of rows before the chunk that separate each pair: a first pass
    counts every chunk but the last, and the backward pass takes each
    earlier chunk's rows off the counts as it reaches it. One chunk, the
    common case, needs no counts. Memory is at most `_prune_bytes(d, n)`;
    above PRUNE_MEMORY_LIMIT the call raises SizeLimitExceeded before
    allocating.
    """
    d, n = rep.lo.shape
    if d == 1:
        return rep
    if n < 2:  # no pair to separate
        return BoxRepresentation._trusted(n, rep.lo[:1], rep.hi[:1])
    need = _prune_bytes(d, n)
    if need > PRUNE_MEMORY_LIMIT:
        raise SizeLimitExceeded(
            f"pruning {d} rows over {n} vertices needs {need} bytes, "
            f"limit {PRUNE_MEMORY_LIMIT}")
    lo, hi = _narrowed(rep.lo, rep.hi)
    step = max(1, 8 * ORACLE_CHUNK_BYTES // (n * n))
    chunks = [(start, min(d, start + step)) for start in range(0, d, step)]
    planes = []
    for start, stop in chunks[:-1]:
        for pairs in _separated_sets(lo, hi, start, stop):
            _count(planes, pairs, 1)

    keep, kept = [], 0
    for start, stop in reversed(chunks):
        sets = _separated_sets(lo, hi, start, stop)
        if stop < d:
            for pairs in sets:
                _count(planes, pairs, -1)
        before = 0
        for plane in planes:
            before |= plane
        prefixes = []
        for pairs in sets:
            prefixes.append(before)
            before |= pairs
        for j in range(stop - 1, start - 1, -1):
            pairs = sets[j - start]
            if pairs & (prefixes[j - start] | kept) != pairs or (j == 0 and not keep):
                keep.append(j)
                kept |= pairs
    if len(keep) == d:
        return rep
    keep.reverse()
    return BoxRepresentation._trusted(n, rep.lo[keep], rep.hi[keep])


# ---------------------------------------------------------------------------
# interval-graph recognition via umbrella-free vertex orderings


def interval_order(g: Graph) -> list[int] | None:
    """A vertex order in which no edge jumps over a non-neighbour, or None.

    Such an umbrella-free order exists iff `g` is interval (Olariu, IPL
    1991; see `exact.exact_boxicity`). Placing w after the set P of placed
    vertices keeps the order umbrella-free iff every non-neighbour of w in P
    is closed, that is has all its neighbours in P. Whether P extends to a
    full order depends on P alone, so a depth-first walk over the sets P
    that remembers the dead ones visits each of the 2^n sets at most once,
    hence the size guard.
    """
    if g.n > RECOGNITION_LIMIT:
        raise SizeLimitExceeded(
            f"interval recognition limited to n <= {RECOGNITION_LIMIT}")
    n = g.n
    nbrs = g.neighbor_masks()
    full = (1 << n) - 1
    dead = set()
    order = []

    def extend(placed: int) -> bool:
        if placed == full:
            return True
        if placed in dead:
            return False
        open_ = 0  # placed vertices with a neighbour still to come
        for u in range(n):
            if (placed >> u) & 1 and nbrs[u] & ~placed:
                open_ |= 1 << u
        for w in range(n):
            if (placed >> w) & 1 or open_ & ~nbrs[w]:
                continue
            order.append(w)
            if extend(placed | (1 << w)):
                return True
            order.pop()
        dead.add(placed)
        return False

    found = extend(0)
    del extend  # break the closure's reference cycle
    return order if found else None


# ---------------------------------------------------------------------------
# combinators


def extend_universal(rep: BoxRepresentation, members: Iterable[int],
                     n_total: int) -> BoxRepresentation:
    """Lift a representation on a vertex subset to the full set.

    `members[i]` is the original id of the subset vertex i: distinct ids
    that pass `as_vertices` for n_total, else InvalidInputRep. Every vertex
    not in `members` receives, per dimension, the interval spanning all
    existing endpoints of that dimension, making it adjacent to everything.
    """
    members = as_vertices(members, n_total, "the member list", InvalidInputRep)
    if len(members) != rep.n:
        raise InvalidInputRep("members must enumerate the representation's vertices")
    if rep.n == 0:
        raise InvalidInputRep("cannot extend an empty representation")
    if len(set(members)) != len(members):
        raise InvalidInputRep("members must be distinct")
    lo = np.empty((rep.d, n_total), dtype=np.int64)
    hi = np.empty((rep.d, n_total), dtype=np.int64)
    lo[:] = rep.lo.min(axis=1, keepdims=True)
    hi[:] = rep.hi.max(axis=1, keepdims=True)
    lo[:, members] = rep.lo
    hi[:, members] = rep.hi
    return BoxRepresentation(n_total, lo, hi)


def merge_components(reps: list[BoxRepresentation],
                     maps: list[tuple]) -> BoxRepresentation:
    """Combine per-component representations into one for the disjoint union.

    The maps must partition 0..n_total-1, n_total being their total length;
    their ids go through `as_vertices`, and any fault raises InvalidInputRep.
    Output has max(d_i) dimensions. Dimension 1 shifts each component into
    its own coordinate range so cross-component pairs are separated there;
    in higher dimensions a component either keeps its own intervals or, past
    its dimension count, pads with the global span of that dimension. When
    those ranges would pass the int64 limit, it raises InvalidInputRep.
    """
    if not reps:
        raise EmptyInput("no component representations")
    if len(reps) != len(maps):
        raise InvalidInputRep("one vertex map per representation required")
    if any(rep.n != len(mp) for rep, mp in zip(reps, maps)):
        raise InvalidInputRep("each vertex map must list its representation's vertices")
    n_total = sum(len(m) for m in maps)
    maps = [as_vertices(mp, n_total, "a component map", InvalidInputRep) for mp in maps]
    if len(set().union(*maps)) != n_total:
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
    for rep, cols in zip(reps, maps):
        lo[:rep.d, cols] = rep.lo
        hi[:rep.d, cols] = rep.hi
        lo[rep.d:, cols] = span_lo[rep.d:, None]
        hi[rep.d:, cols] = span_hi[rep.d:, None]
        # dimension 1: disjoint ranges, first component kept in place
        first, last = int(rep.lo[0].min()), int(rep.hi[0].max())
        shift = 0 if cursor is None else cursor - first
        if last + shift > _INT64.max:
            raise InvalidInputRep(
                "merged dimension 1 would pass the int64 limit "
                f"{_INT64.max}; the components span too wide a range")
        # the shifted ends fit in int64, so adding the shift modulo 2**64,
        # as int64 arithmetic does, gives them exactly
        wrapped = np.int64((shift - _INT64.min) % 2**64 + _INT64.min)
        lo[0, cols] += wrapped
        hi[0, cols] += wrapped
        cursor = last + shift + 1

    return BoxRepresentation(n_total, lo, hi)


# ---------------------------------------------------------------------------
# text format


def write_representation(rep: BoxRepresentation) -> str:
    """The text format read by `parse_representation`.

    One `%` template holds a whole dimension, so each dimension is a single
    format of one row of Python ints: its number, then the endpoints of
    every vertex interleaved.
    """
    d, n = rep.lo.shape
    template = "dim %d\n" + "".join([f"{v} %d %d\n" for v in range(n)])
    rows = np.empty((d, 2 * n + 1), dtype=np.int64)
    rows[:, 0] = np.arange(1, d + 1)
    rows[:, 1::2] = rep.lo
    rows[:, 2::2] = rep.hi
    body = "".join([template % tuple(row) for row in rows.tolist()])
    return f"boxrep {n} {d}\n{body}"


def parse_representation(text: str) -> BoxRepresentation:
    """Read the text format written by `write_representation`.

    The header `boxrep n d` is followed by d blocks; block j is the line
    `dim j` and then n lines `v lo hi` for v = 0..n-1, with integers lo <= hi
    in the int64 range. Fields are separated by whitespace, surrounding
    whitespace is ignored and lines after the last block are not read.

    A well-formed ASCII body is read as one integer table. Every text that
    this batch read refuses goes to the line scan `_parse_lines`, which
    decides it and names the first bad line, so both paths accept the same
    texts and return the same arrays. Both check every field the constructor
    would, so the representation is built through `_trusted`.
    """
    lines = text.splitlines()
    if not lines or not lines[0].startswith("boxrep "):
        raise FormatError("missing 'boxrep n d' header")
    n, d = _integer_fields(lines[0], 2, "header", skip=1)
    if n < 0 or d < 1:
        raise FormatError(f"bad header {lines[0]!r}")
    # numpy's integer reader takes some non-ASCII characters for digits
    ends = _interval_table(lines, n, d) if text.isascii() else None
    if ends is None:
        return _parse_lines(lines, n, d)
    return BoxRepresentation._trusted(n, ends[0], ends[1])


def _interval_table(lines: list[str], n: int, d: int) -> np.ndarray | None:
    """The endpoints of a well-formed body as one contiguous (2, d, n) array,
    `lo` then `hi`, else None.

    The `dim j` lines are compared as written first, and stripped only when
    that compare fails.
    """
    rows = lines[1:1 + d * (n + 1)]
    if n == 0 or len(rows) < d * (n + 1):
        return None
    heads, dims = rows[::n + 1], [f"dim {j}" for j in range(1, d + 1)]
    if heads != dims and [s.strip() for s in heads] != dims:
        return None
    del rows[::n + 1]
    if not rows[0].strip():  # loadtxt skips blank lines, and warns if all are
        return None
    try:
        table = np.loadtxt(rows, dtype=np.int64, comments=None, ndmin=2)
    except ValueError:  # a bad field, a ragged row or an int64 overflow
        return None
    if table.shape != (d * n, 3):
        return None
    ends = table[:, 1:].T.copy().reshape(2, d, n)
    if (np.count_nonzero(table[:, 0].reshape(d, n) != np.arange(n))
            or np.count_nonzero(ends[0] > ends[1])):
        return None
    return ends


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
            vid, a, b = _integer_fields(lines[pos], 3, "interval line")
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
    return BoxRepresentation._trusted(n, np.array(lo, dtype=np.int64).reshape(shape),
                                      np.array(hi, dtype=np.int64).reshape(shape))
