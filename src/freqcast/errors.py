"""Exception types shared across the package, and the opener for user-named files."""


class FreqcastError(Exception):
    """Base class for all package errors."""


class ConfigError(FreqcastError):
    """A run configuration or plan is invalid (user-fixable)."""


class ContractError(FreqcastError):
    """An internal call violated a documented precondition."""


class DataError(FreqcastError):
    """A dataset file could not be ingested."""


class TrainingError(FreqcastError):
    """Training aborted (non-finite loss or gradient, empty batch)."""


def open_input(path: str, what: str, error: type[FreqcastError], mode: str = "r", **kwargs):
    """open() a file the user named; failure raises ``error`` naming the file and cause."""
    try:
        return open(path, mode, **kwargs)
    except OSError as e:
        raise error(f"cannot open {what} {path}: {e.strerror}") from e
