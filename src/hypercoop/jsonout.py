"""The ``--format json`` writer.

`dumps(payload)` is ``json.dumps(payload, indent=2, default=format_rational)``
byte for byte, where ``format_rational`` writes a `Fraction` as its
``"p/q"`` string.  Given an ``indent``, `json` falls back from its C
encoder to a generator-based pure-Python one; this writer joins strings
recursively and leaves the quoting of each string to the C function.
"""

from __future__ import annotations

import json
from fractions import Fraction

_quote = json.encoder.encode_basestring_ascii


def dumps(value, indent: str = "\n") -> str:
    """`value` as indent-2 JSON.  It may hold exactly str, int, Fraction,
    list, tuple and dict (with str or int keys), bools and None; any other
    type, subclasses included, raises TypeError.  `indent` is the line
    break and indentation of `value`'s own level, for the recursion."""
    kind = type(value)
    if kind is Fraction:
        return f'"{value}"'
    if kind is str:
        return _quote(value)
    if kind is int:
        return repr(value)
    inner = indent + "  "
    if kind is list or kind is tuple:
        if not value:
            return "[]"
        return "[" + inner + ("," + inner).join([dumps(v, inner) for v in value]) + indent + "]"
    if kind is dict:
        if not value:
            return "{}"
        items = [f"{_key(k)}: {dumps(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _key(key) -> str:
    if type(key) is str:
        return _quote(key)
    if type(key) is int:
        return f'"{key}"'
    raise TypeError(f"keys must be str or int, not {type(key).__name__}")
