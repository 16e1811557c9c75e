"""Shared exception types and CLI exit codes.

A library error takes a str.format template and its values, never a finished
string: ``raise InputError("need n >= {}, got {}", 1, n)``.  The message then
names an int too long for str() by its bit length instead of raising.
"""

from fractions import Fraction

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_CAPACITY = 3
EXIT_FALSIFIED = 4


def digit_safe(x) -> str:
    """str(x), with each int past the digit limit on int-to-decimal
    conversion given by its bit length, also inside a Fraction, list, tuple
    or dict, so that building an error message or payload cannot raise in
    place of the error.  QuadElem's str formats its parts through this."""
    try:
        return str(x)
    except ValueError:
        if isinstance(x, int):
            return f"<{x.bit_length()}-bit integer>"
        if isinstance(x, Fraction):
            num = digit_safe(x.numerator)
            return num if x.denominator == 1 else f"{num}/{digit_safe(x.denominator)}"
        if isinstance(x, dict):
            return "{" + ", ".join(f"{_item(k)}: {_item(v)}" for k, v in x.items()) + "}"
        if isinstance(x, list):
            return "[" + ", ".join(map(_item, x)) + "]"
        if isinstance(x, tuple):
            return "(" + ", ".join(map(_item, x)) + ("," if len(x) == 1 else "") + ")"
        raise


def _item(x) -> str:
    """repr(x), as a container shows its items, through digit_safe when that
    raises."""
    try:
        return repr(x)
    except ValueError:
        return digit_safe(x)


class _Shown(str):
    """digit_safe's text for a value, shown as is by ``{}`` and ``{!r}``."""

    def __repr__(self) -> str:
        return str(self)


def _formattable(x):
    """x when str and repr both format it, else its digit_safe text."""
    try:
        str(x), repr(x)
        return x
    except ValueError:
        return _Shown(digit_safe(x))


class ProdapError(Exception):
    """Base class for all library errors.

    The message is ``template.format(*values)``.  Only when that meets an
    int past the digit limit does each value that str or repr cannot format
    give way to its digit_safe text, shown without quotes by ``{!r}`` as the
    value itself would be; every other value is formatted as given."""

    def __init__(self, template: str, *values):
        try:
            message = template.format(*values)
        except ValueError:
            message = template.format(*map(_formattable, values))
        super().__init__(message)


class InputError(ProdapError):
    """Malformed or out-of-contract input (exit code 2)."""


class ShapeError(InputError):
    """A sequence expected to be an arithmetic progression is not one."""


class RepresentationError(InputError):
    """A target value has no representation as a product of two set elements."""

    def __init__(self, template, *values, term=None):
        super().__init__(template, *values)
        self.term = term


class FieldMismatchError(InputError):
    """Operands live in different quadratic fields."""


class DomainError(InputError):
    """Value outside an operation's mathematical domain."""


class CapacityError(ProdapError):
    """Request exceeds a configured capacity (exit code 3)."""


class FalsificationError(ProdapError):
    """A mechanical sub-claim failed on a concrete instance (exit code 4).

    Carries a JSON-serializable payload describing the offending instance.
    Callers surface the payload as a first-class report; instances are never
    patched silently.
    """

    def __init__(self, template, *values, payload=None):
        super().__init__(template, *values)
        self.payload = payload if payload is not None else {}
