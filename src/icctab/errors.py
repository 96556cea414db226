"""Exception hierarchy shared across the package.

Each class maps to a distinct process exit code in the command-line
front-end (see ``icctab.cli.EXIT_CODES``).
"""

from . import _EXPORTS

__all__ = _EXPORTS["errors"].split()


class IccTabError(Exception):
    """Base class for all errors raised by this package."""


class TableFormatError(IccTabError):
    """A file could not be parsed as a rectangular numeric table."""


class StructuralError(IccTabError):
    """A table or companion array violates a structural requirement."""


class NumericError(IccTabError):
    """A computation degenerated or failed to converge."""


class UnreachableTargetError(IccTabError):
    """The requested imputation target lies outside the attainable range."""

    def __init__(self, message: str, reachable: tuple[float, float] | None = None):
        super().__init__(message)
        self.reachable = reachable


class PreconditionError(IccTabError):
    """An operation was invoked on data that does not meet its preconditions."""
