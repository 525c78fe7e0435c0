"""JSON text of reports: floats at 12 significant digits, in one walk.

The layout is ``json.dumps(..., indent=2, sort_keys=True)``'s, with each
float rounded as ``repr(float(format(v, ".12g")))``, written without the json
module's pure-Python encoder or a rounded copy of the document.  Every
rule of that layout lives here; ``cli`` only hands documents in.
"""

from __future__ import annotations

import math
import operator
from json.encoder import encode_basestring_ascii as _quote


def _float_text(x: float) -> str:
    """A float rounded to 12 significant digits, as the json module writes it."""
    if math.isfinite(x):
        return repr(float(format(x, ".12g")))
    return "NaN" if x != x else ("Infinity" if x > 0 else "-Infinity")


def _column_texts(values: list) -> list[str] | None:
    """Texts of a column of exact ints or of exact floats; None for any other column.

    A float column is formatted by one ``%`` call.  A normal double's
    12-digit decimal string s is its own shortest repr, so s is
    ``repr(float(s))`` wherever the two layouts agree: when s has a ``.``
    (repr writes an integral value as ``N.0``; ``inf`` and ``nan`` have none
    either), its exponent is not +12 to +15 (repr writes those in fixed
    notation) and the value is not subnormal (fewer digits round-trip; any
    ``e-3xx`` goes the per-value way).
    """
    kinds = set(map(type, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    if kinds != {float}:
        return None
    text = ("%.12g\n" * len(values)) % tuple(values)
    if text.count(".") == len(values) and "e+1" not in text and "e-3" not in text:
        return text.split("\n")[:-1]
    return list(map(_float_text, values))


def _row_texts(rows: list, indent: str) -> str | None:
    """Items of a list of flat dicts that share one set of string keys, each
    key's values all ints or all floats, joined as the recursive walk joins
    them: one row template per list, filled by one ``%`` call.  None for any
    other list, which the recursive walk writes instead."""
    first = rows[0] if rows else None
    if type(first) is not dict or not first or set(map(type, rows)) != {dict}:
        return None
    names = sorted(first)
    if set(map(type, names)) != {str} or set(map(len, rows)) != {len(names)}:
        return None
    try:
        columns = [_column_texts(list(map(operator.itemgetter(k), rows))) for k in names]
    except KeyError:  # a row with another key set of the same size
        return None
    if None in columns:
        return None
    inner = indent + "  "
    fields = ",\n".join(f"{inner}{_quote(k).replace('%', '%%')}: %s" for k in names)
    sep = f",\n{indent}"
    values = [None] * (len(names) * len(rows))
    for j, column in enumerate(columns):
        values[j::len(names)] = column
    return ((f"{{\n{fields}\n{indent}}}" + sep) * len(rows))[:-len(sep)] % tuple(values)


def _json_text(obj, indent: str = "") -> str:
    """JSON text of a report in one walk: floats at 12 significant digits.

    The layout is ``json.dumps(..., indent=2, sort_keys=True)``'s (keys
    sorted, non-ASCII escaped, NaN and infinities as ``NaN``/``Infinity``),
    without its pure-Python encoder or a rounded copy of the document.
    Keys must be strings; any value JSON has no form for raises TypeError.
    A list of rows (per-edge margins, thresholds) is written with one
    template per list (``_row_texts``).
    """
    if isinstance(obj, float):
        return _float_text(obj)
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        items = [f"{_quote(k)}: {_json_text(v, inner)}" for k, v in sorted(obj.items())]
        opening, closing = "{", "}"
    elif isinstance(obj, (list, tuple)):
        rows = _row_texts(obj, inner)
        if rows is not None:
            return f"[\n{inner}{rows}\n{indent}]"
        items = [_json_text(v, inner) for v in obj]
        opening, closing = "[", "]"
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"
