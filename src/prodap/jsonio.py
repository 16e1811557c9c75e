"""JSON wire formats.

Big integers travel as decimal strings, rationals as "p/q" (or a bare decimal
string when integral), quadratic elements as {"a": ..., "b": ...} with the
field discriminant m carried once at instance level (an element-level "m" is
read, never written).  All report dumps are canonical: sorted keys, compact
separators, trailing newline, so identical inputs give identical bytes.

``enc_int`` and ``dec_int`` are the only int <-> decimal conversions of the
wire format.  Python caps those conversions at
``sys.get_int_max_str_digits()`` digits (4300 by default); an integer past the
cap in either direction is a CapacityError, not a malformed literal.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction

from .apcore import APDescriptor
from .errors import CapacityError, InputError
from .exactnum import QuadElem
from .prodset import RepGraph

# every subcommand that reads a descriptor materializes its L terms
MAX_DESCRIPTOR_TERMS = 10**6


def _digit_cap() -> int:
    """Python's int <-> str digit limit; 0 means none (Python < 3.10.7)."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def enc_int(x: int) -> str:
    x = int(x)
    try:
        return str(x)
    except ValueError as exc:  # the only way str(int) fails
        raise CapacityError(
            "integer of {} bits exceeds the {}-digit limit on int-to-decimal conversion",
            x.bit_length(), _digit_cap(),
        ) from exc


def dec_int(s) -> int:
    """A JSON int or a decimal string: ASCII digits after an optional leading
    "-", nothing else.  A float or boolean is not an integer literal, even
    when int() would truncate it, and neither is a string int() would also
    read, such as "1_000", " +12 " or non-ASCII digits."""
    if isinstance(s, bool) or not isinstance(s, (int, str)):
        raise InputError("bad integer literal {!r}", s)
    if isinstance(s, int):
        return int(s)
    digits = s[1:] if s.startswith("-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise InputError("bad integer literal {!r}", s)
    try:
        return int(s)
    except ValueError as exc:  # a well-formed literal past the digit cap
        raise CapacityError(
            "integer literal of {} digits exceeds the {}-digit limit on decimal-to-int conversion",
            len(digits), _digit_cap(),
        ) from exc


def enc_rat(x) -> str:
    x = Fraction(x)
    if x.denominator == 1:
        return enc_int(x.numerator)
    return f"{enc_int(x.numerator)}/{enc_int(x.denominator)}"


def dec_rat(s) -> Fraction:
    num, den = s.split("/", 1) if isinstance(s, str) and "/" in s else (s, 1)
    try:
        return Fraction(dec_int(num), dec_int(den))
    except ZeroDivisionError as exc:
        raise InputError("bad rational literal {!r}", s) from exc


def enc_quad(x: QuadElem) -> dict:
    return {"a": enc_rat(x.a), "b": enc_rat(x.b)}


def dec_quad(obj, m: int | None = None) -> QuadElem:
    if not isinstance(obj, dict) or "a" not in obj or "b" not in obj:
        raise InputError("bad quadratic element {!r}", obj)
    mm = dec_int(obj["m"]) if "m" in obj else m
    if mm is None:
        raise InputError("quadratic element without a field discriminant")
    if m is not None and "m" in obj and dec_int(obj["m"]) != m:
        raise InputError("element field {} conflicts with instance field {}", obj["m"], m)
    return QuadElem(dec_rat(obj["a"]), dec_rat(obj["b"]), mm)


def enc_value(x):
    if isinstance(x, QuadElem):
        return enc_quad(x)
    if isinstance(x, Fraction):
        return enc_rat(x)
    return enc_int(x)


def descriptor_to_json(desc: APDescriptor) -> dict:
    return {"D": enc_int(desc.D), "r": enc_int(desc.r), "d": enc_int(desc.d), "L": desc.L}


def descriptor_from_json(obj) -> APDescriptor:
    """Decode a descriptor; a length past MAX_DESCRIPTOR_TERMS is a
    CapacityError, raised before any term exists."""
    if not isinstance(obj, dict):
        raise InputError("bad descriptor {!r}", obj)
    try:
        desc = APDescriptor(
            dec_int(obj["D"]), dec_int(obj["r"]), dec_int(obj["d"]), dec_int(obj["L"])
        )
    except KeyError as exc:
        raise InputError("descriptor missing field {}", exc) from exc
    if desc.L > MAX_DESCRIPTOR_TERMS:
        raise CapacityError(
            "descriptor length {} exceeds the limit of {} terms", desc.L, MAX_DESCRIPTOR_TERMS
        )
    return desc


def graph_to_json(graph: RepGraph, field: str = "integer", m: int | None = None) -> dict:
    return {
        "field": field,
        "m": enc_int(m) if m is not None else None,
        "elements": [enc_value(x) for x in graph.elements],
        "edges": [
            {"u": u, "v": v, "index": index, "value": enc_value(value)}
            for u, v, index, value in zip(graph.us, graph.vs, graph.indices, graph.values)
        ],
    }


def dec_header(obj) -> tuple[str, int | None]:
    """The field tag and top-level m of an instance or graph file: an object
    with "field" and an "elements" list, a known tag, and a top-level m on
    quadratic files and only there."""
    if not isinstance(obj, dict) or "field" not in obj or "elements" not in obj:
        raise InputError("file needs 'field' and 'elements'")
    if not isinstance(obj["elements"], list):
        raise InputError("'elements' must be a list")
    field = obj["field"]
    if field not in ("integer", "rational", "quadratic"):
        raise InputError("unknown field tag {!r}", field)
    m = dec_int(obj["m"]) if obj.get("m") is not None else None
    if field == "quadratic" and m is None:
        raise InputError("quadratic file without top-level m")
    if field != "quadratic" and m is not None:
        raise InputError("{} file with a top-level m", field)
    return field, m


def dec_element(obj, field: str, m: int | None):
    """One element of a file whose header dec_header has checked."""
    if field == "integer":
        return dec_int(obj)
    if field == "rational":
        return dec_rat(obj)
    return dec_quad(obj, m)


def graph_from_json(obj) -> RepGraph:
    """The graph of a graph file.  Each edge is decoded whole, in file
    order, before the columns are formed, so a malformed file fails on its
    first bad edge."""
    field, m = dec_header(obj)
    try:
        elements = [dec_element(e, field, m) for e in obj["elements"]]
        edges = [
            (
                dec_int(e["u"]),
                dec_int(e["v"]),
                dec_int(e["index"]),
                dec_element(e["value"], field, m),
            )
            for e in obj["edges"]
        ]
    except (KeyError, TypeError) as exc:
        raise InputError("bad graph object: {}", exc) from exc
    # zip(*edges) of no edges gives no columns at all, not four empty ones
    return RepGraph(elements, *(zip(*edges) if edges else [()] * 4))


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError("{}: not a JSON document: {}", path, exc) from exc
    except RecursionError as exc:  # nesting past the decoder's depth limit
        raise InputError("{}: JSON nested too deeply: {}", path, exc) from exc
    except ValueError as exc:  # a bare JSON number past the digit limit
        raise CapacityError("{}: {}", path, exc) from exc
