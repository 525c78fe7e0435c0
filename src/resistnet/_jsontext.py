"""JSON text of reports: floats at 12 significant digits, in one walk.

The layout is ``json.dumps(..., indent=2, sort_keys=True)``'s, with each
float rounded as ``repr(float(format(v, ".12g")))``, written without the json
module's pure-Python encoder or a rounded copy of the document.  Every
rule of that layout lives here; ``cli`` only hands documents in.

Per-edge rows (margins, thresholds) are handed in as a ``Table``: one list
per key instead of one dict per row.  Its text is the list of row dicts',
written column by column: each column is formatted once and the columns
are put together with the text between fields in one ``str.join``.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii as _quote


class Table:
    """Report rows held as columns: row i is ``{key: columns[key][i]}``.

    ``_json_text`` writes it as that list of row dicts; every column has
    one length, and a table with no keys has no rows.
    """

    __slots__ = ("columns",)

    def __init__(self, columns: dict[str, list]):
        self.columns = columns

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))


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


def _table_text(table: Table, indent: str) -> str:
    """JSON text of a table's row dicts, the list at ``indent``.

    Each column's texts come from ``_column_texts``, or value by value for
    a column of other values, and go into one list between the fixed text
    that leads each field (``,\n  "key": ``, or a new row's opening before
    the first key).
    """
    rows = len(table)
    if not rows:
        return "[]"
    inner = indent + "  "
    field = inner + "  "
    names = sorted(table.columns)
    leads = [f"\n{inner}}},\n{inner}{{\n{field}{_quote(names[0])}: "]
    leads += [f",\n{field}{_quote(k)}: " for k in names[1:]]
    width = 2 * len(names)
    parts = [None] * (width * rows)
    for j, (k, lead) in enumerate(zip(names, leads)):
        column = table.columns[k]
        texts = _column_texts(column)
        parts[2 * j::width] = [lead] * rows
        parts[2 * j + 1::width] = [_json_text(v, field) for v in column] if texts is None else texts
    parts[0] = f"[\n{inner}{{\n{field}{_quote(names[0])}: "
    parts.append(f"\n{inner}}}\n{indent}]")
    return "".join(parts)


def _json_text(obj, indent: str = "") -> str:
    """JSON text of a report in one walk: floats at 12 significant digits.

    The layout is ``json.dumps(..., indent=2, sort_keys=True)``'s (keys
    sorted, non-ASCII escaped, NaN and infinities as ``NaN``/``Infinity``),
    without its pure-Python encoder or a rounded copy of the document.
    Keys must be strings; any value JSON has no form for raises TypeError.
    A ``Table`` is written as its list of row dicts (``_table_text``).
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
        items = [_json_text(v, inner) for v in obj]
        opening, closing = "[", "]"
    elif isinstance(obj, Table):
        return _table_text(obj, indent)
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not items:
        return opening + closing
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"
