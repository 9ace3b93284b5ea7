"""Exception hierarchy shared across the toolkit, and its integer checks:
`as_index` for a parameter, `as_count` for one that must be nonnegative and
`as_vertices` for the vertex ids of a set, an order or a map. Each converts
with `operator.index`, so ints, bools and numpy integers pass, floats and
strings do not."""

import operator


class BoxrepError(Exception):
    """Base class for all toolkit errors."""


class InvalidParams(BoxrepError):
    """Arguments outside the documented domain of an operation."""


def as_index(value, name: str) -> int:
    """`operator.index(value)`; a value that is not an integer raises InvalidParams."""
    try:
        return operator.index(value)
    except TypeError as exc:
        raise InvalidParams(f"{name} must be an integer, got {value!r}") from exc


def as_count(value, name: str) -> int:
    """`as_index(value, name)`, which must be nonnegative (InvalidParams)."""
    value = as_index(value, name)
    if value < 0:
        raise InvalidParams(f"{name} must be nonnegative")
    return value


def as_vertices(values, n: int, what: str, error=InvalidParams) -> list[int]:
    """`values` through `operator.index`, in order, each a vertex 0..n-1.

    A value that is not an integer, or one outside 0..n-1, raises `error`
    naming `what`. Duplicates are kept; a caller that needs a set, a sorted
    list or a permutation makes it from the returned ids.
    """
    try:
        ids = list(map(operator.index, values))
    except TypeError as exc:
        raise error(f"{what} names a non-integer vertex") from exc
    if ids and not (0 <= min(ids) and max(ids) < n):
        raise error(f"{what} names a vertex outside the graph")
    return ids


class FormatError(BoxrepError):
    """Malformed text in one of the file formats."""


class SizeLimitExceeded(BoxrepError):
    """Input is larger than the configured limit of an exact routine."""


class DimensionMismatch(BoxrepError):
    """Representation and graph disagree on the vertex set."""


class InvalidInputRep(BoxrepError):
    """A representation handed to a combinator fails its own contract."""


class PreconditionViolation(BoxrepError):
    """A structural precondition (e.g. expected host graph) does not hold."""


class NotAForest(BoxrepError):
    """The input graph contains a cycle."""


class InvalidColoring(BoxrepError):
    """A coloring is not proper or not acyclic on the required subgraph."""


class InvalidOrder(BoxrepError):
    """A vertex order does not witness the claimed forward degeneracy."""


class EmptyInput(BoxrepError):
    """An aggregate operation received no items."""


class StructuralCheckFailed(BoxrepError):
    """A pipeline-stage structural assertion failed; carries the report."""

    def __init__(self, message, report=None):
        self.report = report
        super().__init__(message)
