"""Shared exception types and CLI exit codes."""

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_FALSIFIED = 4


class ProdapError(Exception):
    """Base class for all library errors."""


class InputError(ProdapError):
    """Malformed or out-of-contract input (exit code 2)."""


class ShapeError(InputError):
    """A sequence expected to be an arithmetic progression is not one."""


class RepresentationError(InputError):
    """A target value has no representation as a product of two set elements."""

    def __init__(self, message, term=None):
        super().__init__(message)
        self.term = term


class FieldMismatchError(InputError):
    """Operands live in different quadratic fields."""


class DomainError(InputError):
    """Value outside an operation's mathematical domain."""


class CapacityError(ProdapError):
    """Request exceeds a configured capacity (exit code 3)."""

    def __init__(self, message, limit=None):
        super().__init__(message)
        self.limit = limit


class FalsificationError(ProdapError):
    """A mechanical sub-claim failed on a concrete instance (exit code 4).

    Carries a JSON-serializable payload describing the offending instance.
    Callers surface the payload as a first-class report; instances are never
    patched silently.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload if payload is not None else {}
