"""Exception types raised across the package, and the input rules shared
by every module.

Everything derives from StakeSimError.  Bad input of any kind raises
InvalidInput, which is also a ValueError so generic callers can catch it;
the subclasses are the failures some caller handles on its own.
"""
import math
import numbers


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


def check_budget(value: float, name: str = "budget") -> float:
    """The per-slot budget rule, K finite and > 0, which the analytics
    also apply to an initial total S(0); returns the value as a float."""
    if not 0 < value < math.inf:  # also rejects nan
        raise InvalidInput(f"{name} must be finite and > 0, got {value!r}")
    return float(value)


def check_integer(value, name: str, minimum: int | None = None) -> int:
    """The count rule for counts, seeds, horizons and strides: any integral
    number but a bool, at least `minimum` when one is given, returned as a
    Python int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidInput(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if minimum is not None and value < minimum:
        raise InvalidInput(f"{name} must be >= {minimum}, got {value!r}")
    return value


def check_node(node, m: int, name: str = "node index") -> int:
    """The node-index rule: an integer by check_integer's rule (named
    "node"), in [0, m); `name` heads the out-of-range message."""
    node = check_integer(node, "node")
    if not 0 <= node < m:
        raise InvalidInput(f"{name} {node} out of range for {m} nodes")
    return node
