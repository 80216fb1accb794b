"""Report serialization: JSON-ready conversion, aligned text, CSV rows.

Exact rationals are serialized as ``"p/q"`` strings (plain ``"n"`` for
integers), never as floats, so values survive round trips.  Ordering is
deterministic everywhere: dicts render in insertion order, which report
builders keep canonical.  numpy arrays and scalars are converted by their
``tolist`` method, so this module never imports numpy.

:func:`render_json` writes ``json.dumps(jsonable(data), indent=2)`` byte for
byte in one recursive pass: exact ``str``, ``int``, ``float``, ``bool``,
``None``, ``dict``, ``list`` and ``tuple`` values are written directly, and
every other value goes through :func:`jsonable` first.  ``Fraction`` values
become their ``"p/q"`` text there, and a value that json cannot encode
raises ``TypeError`` as it would in json.  A list of integer rows, such as
a membership report's violation rows, is written by one ``%``-template
instead of one call per value: its items are all dicts with the same
``str`` keys in the same order, or all lists or tuples of one length, and
every value in them is an exact ``int``.
"""

from __future__ import annotations

import csv
import dataclasses
import enum
import io
import json
from fractions import Fraction
from itertools import chain


def jsonable(obj):
    """Recursively convert report objects to JSON-compatible data."""
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, enum.Enum):
        return obj.value
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [jsonable(v) for v in items]
    # numpy arrays become nested lists, and numpy scalars (np.bool_, integer
    # and float types) the Python bool, int or float of the same value
    tolist = getattr(obj, "tolist", None)
    if tolist is not None:
        return jsonable(tolist())
    return obj


_escape = json.encoder.encode_basestring_ascii
_INF = float("inf")


def _float_text(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


# Exact leaf types and their JSON text, as json.dumps writes them.
_LEAVES = {
    str: _escape,
    int: int.__repr__,
    float: _float_text,
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}
_DICT, _STR, _INT, _ARRAYS = {dict}, {str}, {int}, {list, tuple}


def _int_rows(rows: list | tuple, newline: str) -> str | None:
    """JSON text of ``rows``, a non-empty list, if it holds int rows of one shape; else None.

    The rows are either all ``dict`` with the same ``str`` keys in the same
    order, or all ``list``/``tuple`` of the same length, and every value is
    an exact ``int`` (not a ``bool`` or another subclass); empty rows are
    refused.  Such a list is written by one ``%``-template, filled with all
    of its values at once.
    """
    first = rows[0]
    # the first row's values turn away most other lists before any full pass
    if type(first) is dict:
        if {*map(type, first.values())} != _INT or {*map(type, rows)} != _DICT:
            return None
        keys = [*first]
        # no row can be longer than the first, since it would repeat a key, so
        # equal key sequences mean that every row has the first row's keys
        flat_keys = [*chain.from_iterable(rows)]
        if flat_keys != keys * len(rows) or {*map(type, flat_keys)} != _STR:
            return None
        values = tuple(chain.from_iterable(map(dict.values, rows)))
        fields = [_escape(k).replace("%", "%%") + ": %d" for k in keys]
        opening, closing = "{", "}"
    elif type(first) is list or type(first) is tuple:
        if (
            {*map(type, first)} != _INT
            or {*map(type, rows)} - _ARRAYS
            or {*map(len, rows)} != {len(first)}
        ):
            return None
        values = tuple(chain.from_iterable(rows))
        fields = ["%d"] * len(first)
        opening, closing = "[", "]"
    else:
        return None
    if {*map(type, values)} != _INT:
        return None
    inner = newline + "  "
    row = opening + inner + "  " + ("," + inner + "  ").join(fields) + inner + closing
    template = "[" + inner + ("," + inner).join([row] * len(rows)) + newline + "]"
    return template % values


def _json_text(obj, newline: str) -> str:
    """JSON text of ``jsonable(obj)``, nested lines indented as after ``newline``."""
    kind = type(obj)
    leaf = _LEAVES.get(kind)
    if leaf is not None:
        return leaf(obj)
    if kind is dict:
        if not obj:
            return "{}"
        if any(type(k) is not str for k in obj):
            obj = {str(k): v for k, v in obj.items()}
        inner = newline + "  "
        items = [_escape(k) + ": " + _json_text(v, inner) for k, v in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        text = _int_rows(obj, newline)
        if text is not None:
            return text
        inner = newline + "  "
        items = [_json_text(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    value = jsonable(obj)
    leaf = _LEAVES.get(type(value))
    if leaf is not None:
        return leaf(value)
    # json itself encodes (or rejects with TypeError) what jsonable left
    return json.dumps(value, indent=2).replace("\n", newline)


def render_json(data) -> str:
    """``json.dumps(jsonable(data), indent=2)``, written in one pass."""
    return _json_text(data, "\n")


def _render_table(rows: list[dict], indent: str) -> list[str]:
    headers = list(rows[0].keys())
    cells = [[_scalar_text(r.get(h)) for h in headers] for r in rows]
    widths = [
        max(len(h), *(len(row[i]) for row in cells)) for i, h in enumerate(headers)
    ]
    lines = [indent + "  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    for row in cells:
        lines.append(indent + "  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return lines


def _scalar_text(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.10g}"
    if isinstance(value, list):
        return "[" + ", ".join(_scalar_text(v) for v in value) + "]"
    return str(value)


def render_text(data, indent: int = 0) -> str:
    """Readable aligned rendering of a jsonable report."""
    data = jsonable(data)
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(data, dict):
        for key, value in data.items():
            if isinstance(value, dict):
                lines.append(f"{pad}{key}:")
                lines.append(render_text(value, indent + 1))
            elif isinstance(value, list) and value and all(
                isinstance(v, dict) for v in value
            ):
                lines.append(f"{pad}{key}:")
                lines.extend(_render_table(value, "  " * (indent + 1)))
            else:
                lines.append(f"{pad}{key}: {_scalar_text(value)}")
        return "\n".join(lines)
    if isinstance(data, list):
        if data and all(isinstance(v, dict) for v in data):
            return "\n".join(_render_table(data, pad))
        return "\n".join(f"{pad}{_scalar_text(v)}" for v in data)
    return f"{pad}{_scalar_text(data)}"


def render_csv(rows: list[dict] | dict) -> str:
    """CSV text of a list of dict rows, or of a dict of equal-length columns.

    A dict of columns writes its keys as the header and one row per index,
    each value through :func:`_scalar_text`, with no dict formed per row; a
    column holds plain ``int`` and ``float`` values, as ``jsonable`` leaves
    them, so it bypasses ``jsonable``.
    """
    if not rows:
        return ""
    buffer = io.StringIO()
    if isinstance(rows, dict):
        writer = csv.writer(buffer)
        writer.writerow(rows)
        writer.writerows(zip(*(map(_scalar_text, column) for column in rows.values())))
        return buffer.getvalue()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _scalar_text(jsonable(v)) for k, v in row.items()})
    return buffer.getvalue()


# The refusal of the CSV format for a report without rows.
NO_CSV_ROWS = "this report has no CSV row form"


def emit_report(data, fmt: str, out=None, csv_rows: list[dict] | dict | None = None) -> str:
    """Render a report in the requested format and write it (stdout or file)."""
    if fmt == "json":
        text = render_json(data)
    elif fmt == "text":
        text = render_text(data)
    elif fmt == "csv":
        if csv_rows is None:
            raise ValueError(NO_CSV_ROWS)
        text = render_csv(csv_rows)
    else:
        raise ValueError(f"unknown format {fmt!r}")
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    return text
