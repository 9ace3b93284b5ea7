"""Adjacency posets and the dimension bound they satisfy."""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import InvalidParams
from .graph import Graph


@dataclass
class FinitePoset:
    """A finite partial order on ground elements 0..ground_size-1.

    `strict` holds the strict comparabilities (a, b) meaning a < b; it must be
    irreflexive, antisymmetric and transitively closed. `ground_size` and the
    elements are converted with `operator.index`; anything else raises
    InvalidParams.
    """

    ground_size: int
    strict: frozenset

    def __post_init__(self):
        try:
            self.ground_size = operator.index(self.ground_size)
            self.strict = frozenset((operator.index(a), operator.index(b))
                                    for a, b in self.strict)
        except (TypeError, ValueError) as exc:
            raise InvalidParams("ground_size must be an integer and strict "
                                "pairs of integers") from exc
        if self.ground_size < 0:
            raise InvalidParams("ground set size must be nonnegative")
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

    @classmethod
    def _trusted(cls, ground_size: int, strict: frozenset) -> "FinitePoset":
        """A poset known to be valid, built without re-checking it."""
        p = object.__new__(cls)
        p.ground_size = ground_size
        p.strict = strict
        return p


def adjacency_poset(g: Graph) -> FinitePoset:
    """Height-2 poset on V and a disjoint copy V'.

    Elements 0..n-1 are the vertices, n..2n-1 their primed copies, and
    u < v' exactly when u and v are distinct adjacent vertices. No chain of
    three distinct elements exists, so the order axioms hold trivially, and
    the poset is built without re-checking them.
    """
    strict = set()
    for u, v in g.edges:
        strict.add((u, g.n + v))
        strict.add((v, g.n + u))
    return FinitePoset._trusted(2 * g.n, frozenset(strict))


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

