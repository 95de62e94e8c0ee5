"""Exception types raised across the package.

Everything derives from StakeSimError.  Bad input of any kind raises
InvalidInput, which is also a ValueError so generic callers can catch it;
the subclasses are the failures some caller handles on its own.
"""


class StakeSimError(Exception):
    """Base class for all stakesim errors."""


class InvalidInput(StakeSimError, ValueError):
    """An argument, stake vector, reward matrix or regime the operation
    cannot accept."""


class DegenerateBeta(InvalidInput):
    """A beta parameter would be zero (node holds nothing, or everything)."""


class ParseError(InvalidInput):
    """Config document is not valid JSON."""

    def __init__(self, line: int, message: str = "invalid JSON"):
        super().__init__(f"{message} (line {line})")
        self.line = line


class SchemaError(InvalidInput):
    """Config document or command-line argument violates the schema."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason
