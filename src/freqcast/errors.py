"""Exception types shared across the package, and the openers for user-named paths."""

import io


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


def create_output(make, path: str, what: str, *args, **kwargs):
    """``make(path, ...)`` (``open`` or ``os.makedirs``) for an output the user named;
    failure raises ConfigError naming the path and cause."""
    try:
        return make(path, *args, **kwargs)
    except OSError as e:
        raise ConfigError(f"cannot create {what} {path}: {e.strerror}") from e


def open_text(path: str, what: str, error: type[FreqcastError], newline: str | None = None):
    """A user-named UTF-8 file as a text stream; a bad byte raises ``error`` with its offset."""
    with open_input(path, what, error, "rb") as fh:
        raw = fh.read()
    try:
        return io.StringIO(raw.decode("utf-8"), newline=newline)
    except UnicodeDecodeError as e:
        bad = f"byte {raw[e.start]:#04x} at offset {e.start}"
        raise error(f"{what} {path}: {bad} is not UTF-8") from e
