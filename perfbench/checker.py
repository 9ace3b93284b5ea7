"""Certificate checker that shares no code with the package's oracle.

It reads a representation from the text format `boxrep n d` / `dim j` /
`v lo hi` and checks it against an edge list with numpy, in chunks whose
temporaries stay within a fixed element budget, so that the checker never
sets the run's peak memory. Witnesses are the lexicographically smallest
violating pairs, as the package documents for its own oracle.
"""

from __future__ import annotations

import numpy as np

# elements per temporary array (8 bytes each): 16 MiB
CHUNK_ELEMENTS = 1 << 21


class CertificateError(ValueError):
    """The text is not a well-formed representation."""


def parse_certificate(text: str) -> tuple[int, np.ndarray, np.ndarray]:
    """Return (n, lo, hi), with lo and hi of shape (d, n)."""
    header_end = text.find("\n")
    head = text[:header_end].split()
    if len(head) != 3 or head[0] != "boxrep":
        raise CertificateError("missing 'boxrep n d' header")
    n, d = int(head[1]), int(head[2])
    if n < 0 or d < 1:
        raise CertificateError(f"bad header n={n} d={d}")
    lo = np.empty((d, n), dtype=np.int64)
    hi = np.empty((d, n), dtype=np.int64)
    ids = np.arange(n, dtype=np.int64)
    pos = header_end + 1
    for j in range(d):
        tag = f"dim {j + 1}\n"
        if not text.startswith(tag, pos):
            raise CertificateError(f"expected {tag.strip()!r}")
        pos += len(tag)
        nxt = text.find("dim ", pos) if j + 1 < d else len(text)
        if nxt < 0:
            raise CertificateError(f"truncated before dim {j + 2}")
        try:
            rows = np.fromstring(text[pos:nxt], dtype=np.int64, sep=" ")
        except ValueError as exc:
            raise CertificateError(f"bad interval line in dim {j + 1}") from exc
        if rows.size != 3 * n:
            raise CertificateError(f"dim {j + 1} has {rows.size} numbers, expected {3 * n}")
        rows = rows.reshape(n, 3)
        if not np.array_equal(rows[:, 0], ids):
            raise CertificateError(f"dim {j + 1} does not list vertices 0..n-1 in order")
        lo[j] = rows[:, 1]
        hi[j] = rows[:, 2]
        pos = nxt
    if np.any(lo > hi):
        raise CertificateError("empty interval (lo > hi)")
    return n, lo, hi


def check_certificate(n: int, edges, text: str):
    """Check a written certificate against the graph on 0..n-1 with `edges`.

    Returns (missing_edge, uncovered_nonedge); both are None when the
    certificate is valid. Raises CertificateError on malformed text or a
    vertex-count mismatch.
    """
    rep_n, lo, hi = parse_certificate(text)
    if rep_n != n:
        raise CertificateError(f"certificate over {rep_n} vertices, graph has {n}")
    return find_witnesses(n, edges, lo, hi)


def find_witnesses(n: int, edges, lo: np.ndarray, hi: np.ndarray):
    """Smallest edge whose boxes miss, and smallest non-edge whose boxes meet."""
    adjacent = np.zeros((n, n), dtype=bool)
    for u, v in edges:
        adjacent[u, v] = adjacent[v, u] = True
    # one row per vertex, so each comparison below reads contiguous memory
    lo_t, hi_t = np.ascontiguousarray(lo.T), np.ascontiguousarray(hi.T)
    step = max(1, CHUNK_ELEMENTS // max(1, lo.shape[0]))
    missing = uncovered = None
    for u in range(n):
        for start in range(u + 1, n, step):
            stop = min(n, start + step)
            meet = ((lo_t[u] <= hi_t[start:stop])
                    & (lo_t[start:stop] <= hi_t[u])).all(axis=1)
            edge = adjacent[u, start:stop]
            if missing is None and (bad := np.flatnonzero(edge & ~meet)).size:
                missing = (u, start + int(bad[0]))
            if uncovered is None and (bad := np.flatnonzero(~edge & meet)).size:
                uncovered = (u, start + int(bad[0]))
    return missing, uncovered
