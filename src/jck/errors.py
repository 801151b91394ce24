"""Shared exception types, and how their messages quote input."""


class JckError(Exception):
    """Base class for every error the toolkit raises on purpose."""


class ParseError(JckError):
    """Input text does not conform to the concrete grammar."""

    def __init__(self, message, position=None):
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class SortError(JckError):
    """A term or formula violates the sorting discipline."""


class ResourceError(JckError):
    """A configured resource cap (atom count, universe size) was exceeded."""


class InvalidInput(JckError):
    """An operation was called with input outside its contract."""


class UnknownWorld(JckError):
    """A world id is not part of the model at hand."""


QUOTE_LIMIT = 40


def quoted(text: str) -> str:
    """`text` as an error message quotes it: its repr, cut after
    QUOTE_LIMIT characters and followed by its length when longer, so an
    error line stays short whatever the input."""
    if len(text) <= QUOTE_LIMIT:
        return repr(text)
    return f"{text[:QUOTE_LIMIT]!r}... ({len(text)} characters)"
