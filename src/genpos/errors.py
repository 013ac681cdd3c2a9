"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an argument violates an operation's precondition."""


class ParseError(InputError):
    """Raised on malformed graph files; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at byte offset {offset})")
        self.offset = offset

