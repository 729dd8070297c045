"""Exception types shared across the toolkit, and the one reader of the
text files a user hands in.

The CLI maps these onto exit codes: ValidationError -> 1 (bad data or
bad request), SchemaError -> 2 (malformed/missing files, broken wiring).
"""

from pathlib import Path


class EdusentError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(EdusentError):
    """A domain precondition was violated (values, labels, shapes)."""


class SchemaError(EdusentError):
    """An input file is missing, malformed, or wired to the wrong model."""


def read_utf8(path) -> str:
    """The text of the file at `path`; bytes that are not UTF-8 are a
    SchemaError that names the file."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from exc
