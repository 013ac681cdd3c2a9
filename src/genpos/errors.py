"""Exception types shared across the package, and the one guard for
Python's digit limit."""

import sys
from contextlib import contextmanager


class InputError(ValueError):
    """Raised when an argument violates an operation's precondition."""


class ParseError(InputError):
    """Raised on malformed graph files; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset


@contextmanager
def digit_limit(what: str):
    """Turn the ValueError for an int longer than Python reads or prints
    (``sys.get_int_max_str_digits()``) into "<what> of more than N digits"."""
    try:
        yield
    except InputError:  # a ValueError too
        raise
    except ValueError:
        raise InputError(f"{what} of more than {sys.get_int_max_str_digits()} digits") from None
