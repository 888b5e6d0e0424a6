"""Exception types shared across the package."""

from __future__ import annotations


class CprocError(Exception):
    """Base class for all package-specific errors."""


class ParseError(CprocError):
    """Raised when a dataset directory or file cannot be parsed."""


class SplitError(CprocError):
    """Raised when a requested split would leave a required part empty."""


class ScoreIngestError(CprocError):
    """Raised when a scores CSV row fails validation."""


class NumericalError(CprocError):
    """Raised when an iterative numerical routine fails to converge."""


class StratumError(CprocError):
    """Raised when a label stratum is empty or below the configured minimum."""


class DegenerateTestError(CprocError):
    """Raised when the test part does not contain both classes."""


class SeparationWarning(UserWarning):
    """Emitted when a logistic fit shows signs of perfect separation."""
