"""Shared exception types."""

from __future__ import annotations


class SymtestError(Exception):
    """Base class for errors raised by this package."""


class DimensionError(SymtestError):
    """Incompatible operand dimensions, or a configured size cap was exceeded."""


class ConvergenceError(SymtestError):
    """An iterative numerical procedure failed to converge or to stabilize."""


class CheckError(SymtestError, ValueError):
    """A computed quantity broke a bound it must satisfy: a failed check."""


class ScenarioError(SymtestError):
    """A scenario document failed to parse or validate."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column
