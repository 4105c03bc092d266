"""Exception types shared across the package."""


class GraphlabError(Exception):
    """Base class for all package errors."""


class ValidationError(GraphlabError):
    """Raised when graph or document data violates a structural invariant.

    Carries the full list of violations so callers can report all of them.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class DomainMismatchError(GraphlabError):
    """Function and graph do not share the same vertex set."""


class UnknownVertexError(GraphlabError):
    """A vertex identifier, given as its repr, is not present in the graph."""

    def __init__(self, vertex: str):
        super().__init__(f"unknown vertex {vertex}")


class InfiniteResistanceError(GraphlabError):
    """The two probe vertices cannot be coupled by any finite-energy potential."""


class SingularSystemError(GraphlabError):
    """A linear problem is singular beyond the expected constant-function kernel."""


class FamilyError(GraphlabError):
    """A graph family was requested with unsupported parameters."""


class ConsistencyError(GraphlabError):
    """An internal cross-check failed; indicates a bug, not bad input."""
