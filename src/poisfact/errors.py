"""Exception hierarchy shared by all poisfact modules.

Each class carries the process exit code the command-line tool maps it to,
so the mapping lives in one place and stays consistent.
"""


class PoisfactError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1


class ConfigError(PoisfactError):
    """Invalid configuration or flag value (usage error)."""

    exit_code = 2


class DataError(PoisfactError):
    """Unreadable, malformed, or empty input data."""

    exit_code = 3


class ParseError(DataError):
    """Malformed line in a delimited input stream; carries the line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class NumericFailureError(PoisfactError):
    """Non-finite values produced during optimization."""

    exit_code = 4


class DegenerateModelError(NumericFailureError):
    """Training collapsed to an all-zero factor matrix."""


class DataMismatchError(PoisfactError):
    """Inputs that do not belong together (dimensions, unknown ids)."""

    exit_code = 5


class EvaluationError(DataMismatchError):
    """Evaluation impossible: no test entries or evaluable users, or a model that does not fit the data."""
