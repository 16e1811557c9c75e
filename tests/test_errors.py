"""Library errors: a message is a str.format template filled with values, so
an int past the digit limit on int-to-decimal conversion is named by its bit
length instead of turning the error into a ValueError."""

import ast
import string
from pathlib import Path

import pytest

import prodap
from prodap import errors, jsonio
from prodap.errors import InputError, RepresentationError

SRC = Path(prodap.__file__).parent
ERRORS = {
    name for name, obj in vars(errors).items()
    if isinstance(obj, type) and issubclass(obj, errors.ProdapError)
}


def error_calls():
    """(file:line, call) for every call in the package that builds an error."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id in ERRORS
            ):
                yield f"{path.name}:{node.lineno}", node


def builds_text(node) -> bool:
    """Whether node turns a value into text itself: an f-string, str(),
    repr(), % or .format."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.JoinedStr):
            return True
        if isinstance(sub, ast.BinOp) and isinstance(sub.op, ast.Mod):
            return True
        if isinstance(sub, ast.Call):
            f = sub.func
            if isinstance(f, ast.Name) and f.id in ("str", "repr"):
                return True
            if isinstance(f, ast.Attribute) and f.attr == "format":
                return True
    return False


def test_every_error_is_built_from_a_template_and_its_values():
    calls = list(error_calls())
    assert len(calls) > 100  # the walk sees the package's error sites
    bad = []
    for where, call in calls:
        template = call.args[0] if call.args else None
        if not (isinstance(template, ast.Constant) and isinstance(template.value, str)):
            bad.append(f"{where}: the first argument is not a string literal")
            continue
        if any(builds_text(arg) for arg in [*call.args, *(k.value for k in call.keywords)]):
            bad.append(f"{where}: an argument formats a value outside the template")
        fields = [name for _, name, _, _ in string.Formatter().parse(template.value)
                  if name is not None]
        values = call.args[1:]
        if any(fields) or any(isinstance(v, ast.Starred) for v in values) or len(fields) != len(values):
            bad.append(f"{where}: {len(fields)} fields for {len(values)} values")
    assert bad == []


class TestMessage:
    big = -(10**5000)

    def test_shape(self):
        exc = InputError("need n >= {}, got {}", 1, 0)
        assert str(exc) == "need n >= 1, got 0"
        assert exc.args == ("need n >= 1, got 0",)
        assert str(InputError("outside {{0, 1}}")) == "outside {0, 1}"

    def test_values_below_the_limit_are_formatted_as_given(self):
        assert str(InputError("tag {!r}, {!r}, {}", 5, True, "x")) == "tag 5, True, x"

    def test_an_int_past_the_limit_is_named_by_its_bit_length(self):
        assert str(InputError("got {} and {}", self.big, 3)) == "got <16610-bit integer> and 3"
        exc = RepresentationError("term {} of {}", 0, self.big, term=self.big)
        assert str(exc) == "term 0 of <16610-bit integer>" and exc.term == self.big

    def test_repr_fields_past_the_limit_match_those_below(self):
        # {!r} shows digit_safe's text as the value's own repr would be
        # shown, without quotes; a value that formats keeps its repr
        assert str(InputError("{!r} {}", "a", 10**5000)) == "'a' <16610-bit integer>"
        assert str(InputError("{!r}", [10**5000, "b"])) == "[<16610-bit integer>, 'b']"

    @pytest.mark.parametrize(
        "call, prefix",
        [(jsonio.dec_quad, "bad quadratic element"),
         (jsonio.descriptor_from_json, "bad descriptor")],
        ids=["dec_quad", "descriptor_from_json"],
    )
    def test_container_argument_messages(self, call, prefix):
        for value, shown in (([5], "[5]"), ([10**5000], "[<16610-bit integer>]")):
            with pytest.raises(InputError) as exc:
                call(value)
            assert str(exc.value) == f"{prefix} {shown}"
