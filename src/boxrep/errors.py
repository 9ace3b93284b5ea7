"""Exception hierarchy shared across the toolkit, and its integer check."""

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
