"""Exception types raised across the package."""


class WordburstError(Exception):
    """Base class for all package errors."""


class CorpusFormatError(WordburstError, ValueError):
    """Raised on malformed corpus, matrix, or scan-log input files, and on
    inputs that contradict each other (a scan log for another horizon)."""


class EmptyCorpusError(WordburstError):
    """Raised when an operation is left with no usable data."""


class EmptySampleError(WordburstError):
    """Raised when a statistic needs more observations than it was given."""


class FitDidNotConverge(WordburstError):
    """Raised when an optimizer exhausts its budget, or when a fit's worker process dies.

    ``best`` carries the best iterate found so callers can inspect it.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class SpecValidationError(WordburstError):
    """Raised for invalid generator configurations; lists offending fields."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = list(fields)
