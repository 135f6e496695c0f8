"""Exception types shared across the package."""


class EqsketchError(Exception):
    """Base class for all package errors."""


class SourceTargetMismatch(EqsketchError):
    """Morphism composition attempted with mismatched endpoints."""


class NoMatch(EqsketchError):
    """A rule match is not a valid morphism from the hypothesis."""


class NotParallel(EqsketchError):
    """Term equality asked for terms with different dom or cod."""


class UnassignedPoint(EqsketchError):
    """A realization does not assign a set to a sketch point."""


class UnassignedArrow(EqsketchError):
    """A realization does not assign a function to a sketch arrow."""


class InvalidRealization(EqsketchError):
    """A realization fails the sketch checks where validity is required."""


class Unassigned(EqsketchError):
    """A model does not assign a carrier or function table."""


class InvalidAlpha(EqsketchError):
    """The chosen argument is not an element of the parameter carrier."""


class PurityViolation(EqsketchError):
    """A decorated morphism maps a pure term to a general one."""


class BudgetExceeded(EqsketchError):
    """Saturation exceeded the configured cap on the term universe."""


class SearchSpaceTooLarge(EqsketchError):
    """Model enumeration would exceed the configured candidate cap."""


class IncomparableCarrier(EqsketchError, TypeError):
    """A carrier's elements cannot be ordered with ``<``, so models over
    it have no ``canonical()`` order.  Also a ``TypeError``, which is
    what sorting such a carrier raises."""


class SyntaxError_(EqsketchError):
    """DSL parse error, carrying line/column information."""

    def __init__(self, message, line, col):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class DuplicateName(EqsketchError):
    """A DSL declaration reuses a name already declared."""
