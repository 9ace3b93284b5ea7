"""Adjacency posets and the dimension bound they satisfy."""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import FormatError, InvalidParams
from .graph import Graph


@dataclass
class FinitePoset:
    """A finite partial order on ground elements 0..ground_size-1.

    `strict` holds the strict comparabilities (a, b) meaning a < b; it must be
    irreflexive, antisymmetric and transitively closed.
    """

    ground_size: int
    strict: frozenset

    def __post_init__(self):
        if self.ground_size < 0:
            raise InvalidParams("ground set size must be nonnegative")
        self.strict = frozenset(self.strict)
        rel = self.strict
        above: dict[int, list[int]] = {}
        for a, b in rel:
            if a == b:
                raise InvalidParams("strict relation cannot be reflexive")
            if not (0 <= a < self.ground_size and 0 <= b < self.ground_size):
                raise InvalidParams(f"relation ({a}, {b}) outside ground set")
            if (b, a) in rel:
                raise InvalidParams(f"antisymmetry violated on ({a}, {b})")
            above.setdefault(a, []).append(b)
        for a, b in rel:
            for d in above.get(b, ()):
                if (a, d) not in rel:
                    raise InvalidParams(
                        f"relation is not transitively closed at ({a}, {d})")


@dataclass
class AdjacencyPoset(FinitePoset):
    """Height-2 poset on V and a disjoint copy V'.

    Elements 0..n-1 are the vertices, n..2n-1 their primed copies, and
    u < v' exactly when u and v are distinct adjacent vertices. No chain of
    three distinct elements exists, so the order axioms hold trivially.
    """

    n: int = 0


def adjacency_poset(g: Graph) -> AdjacencyPoset:
    strict = set()
    for u, v in g.edges:
        strict.add((u, g.n + v))
        strict.add((v, g.n + u))
    return AdjacencyPoset(2 * g.n, frozenset(strict), n=g.n)


def poset_dim_upper(box_dims: int, chi: int) -> int:
    """Upper bound 2*box_dims + chi + 4 on the adjacency poset dimension.

    Valid whenever `box_dims` is the size of a certified representation of
    the graph (any upper bound on the boxicity keeps the inequality true) and
    `chi` is its chromatic number.
    """
    if box_dims < 1 or chi < 1:
        raise InvalidParams("box_dims and chi must be at least 1")
    return 2 * box_dims + chi + 4


def write_poset(p: FinitePoset) -> str:
    lines = [f"poset {p.ground_size}"]
    lines.extend(f"{a} {b}" for a, b in sorted(p.strict))
    return "\n".join(lines) + "\n"


def parse_poset(text: str) -> FinitePoset:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("poset "):
        raise FormatError("missing 'poset N' header")
    try:
        size = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise FormatError(f"bad header {lines[0]!r}") from exc
    if size < 0:
        raise FormatError(f"bad header {lines[0]!r}")
    strict = set()
    for ln in lines[1:]:
        try:
            a, b = map(int, ln.split())
        except ValueError as exc:  # a non-integer or not exactly two of them
            raise FormatError(f"bad relation line {ln!r}") from exc
        strict.add((a, b))
    return FinitePoset(size, frozenset(strict))
