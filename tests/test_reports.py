"""``render_json`` writes exactly ``json.dumps(jsonable(x), indent=2)``, on
any report and on lists of integer rows (the one-template path) in
particular, and ``render_csv`` writes the same bytes for columns as for the
rows they hold."""

import dataclasses
import enum
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuroda.reports import _int_rows, jsonable, render_csv, render_json


GOLDEN = Path(__file__).resolve().parent / "golden"


class Color(enum.Enum):
    RED = "red"
    PAIR = (1, 2)
    NONE = None


class Odd(enum.Enum):
    # json cannot encode this value: jsonable does not convert enum values
    HALF = Fraction(1, 2)


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2**70


class Count(int):
    """An int subclass with its own text: json writes ``int.__repr__`` of it."""

    def __repr__(self):
        return f"Count({int(self)})"

    __str__ = __repr__


@dataclasses.dataclass(frozen=True)
class Point:
    label: object
    coords: object


def reference(x) -> str:
    return json.dumps(jsonable(x), indent=2)


# control characters, escapes, Latin-1, and astral-plane characters (surrogate pairs)
_text = st.text(
    st.one_of(
        st.characters(max_codepoint=0x1F),
        st.sampled_from('"\\/ \x7f'),
        st.characters(min_codepoint=0x80, max_codepoint=0x3FF),
        st.characters(min_codepoint=0x1F600, max_codepoint=0x1F64F),
        st.characters(),
    ),
    max_size=8,
)
_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324]),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**60), max_value=10**60),
    _floats,
    _text,
    st.fractions(max_denominator=10**12),
    st.sampled_from(Color),
    st.builds(np.float64, _floats),
    st.builds(np.int64, st.integers(-(2**63), 2**63 - 1)),
    st.builds(np.bool_, st.booleans()),
    st.lists(_floats, max_size=4).map(np.array),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), max_size=3).map(np.array),
    st.frozensets(st.integers(), max_size=4),
    st.sets(_text, max_size=4),
)
# keys of mixed types, so that str(k) can collide (1 and "1", None and "None")
_keys = st.one_of(
    _text, st.integers(-3, 3), st.booleans(), st.none(), st.sampled_from(["1", "None", "True"])
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_keys, children, max_size=4),
        st.builds(Point, children, children),
    )


_reports = st.recursive(_leaves, _containers, max_leaves=25)


@settings(max_examples=400, deadline=None)
@given(_reports)
def test_render_json_equals_json_dumps_of_jsonable(x):
    assert render_json(x) == reference(x)


@pytest.mark.parametrize(
    "x",
    [
        {},
        [],
        (),
        {"a": {}, "b": [[], {}]},
        [math.nan, math.inf, -math.inf, -0.0],
        {1: "int key", "1": "str key", None: 0, "None": 1},
        "\x00\x1fé \U0001F600",
        10**100,
        Fraction(-3, 4),
        Color.PAIR,
        np.arange(6).reshape(2, 3),
        Point(Fraction(1, 3), {"k": [Color.RED, {2, 1}]}),
    ],
)
def test_render_json_examples(x):
    assert render_json(x) == reference(x)


# exact ints of every size and sign; keys with template and json escapes
_row_ints = st.one_of(
    st.integers(-9, 9),
    st.integers(),
    st.sampled_from([2**64, 2**64 + 1, -(2**64) - 1, 10**40, -(10**40)]),
)
_row_keys = st.one_of(
    _text, st.sampled_from(["%", "%d", "%%s", "%(a)s", '"', "\\", "é", "\U0001F600", "r1"])
)
# what must not take the template: bools print true/false, int subclasses
# go through jsonable, and the rest is not an int at all
_row_misfits = st.one_of(
    st.booleans(),
    st.sampled_from(Level),
    st.builds(Count, _row_ints),
    st.builds(np.int64, st.integers(-9, 9)),
    _floats,
    st.fractions(max_denominator=9),
    st.none(),
    _text,
    st.lists(_row_ints, max_size=2),
)


@st.composite
def _int_row_lists(draw):
    """A list of 1..5 rows of one shape holding exact ints, then 0..2 deviations.

    The rows are dicts with the same keys, or lists and tuples of one width.
    A deviation puts a misfit value in a row, reverses a row's keys, drops a
    row's last entry or adds one.
    """
    n = draw(st.integers(1, 5))
    as_dicts = draw(st.booleans())
    if as_dicts:
        keys = draw(st.lists(_row_keys, max_size=4, unique=True))
        rows = [{k: draw(_row_ints) for k in keys} for _ in range(n)]
    else:
        width = draw(st.integers(0, 4))
        rows = [[draw(_row_ints) for _ in range(width)] for _ in range(n)]
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, n - 1))
        row = rows[i]
        change = draw(st.sampled_from(["misfit", "reverse", "drop", "add"]))
        if change == "misfit" and row:
            at = draw(st.sampled_from(list(row) if as_dicts else range(len(row))))
            row[at] = draw(_row_misfits)
        elif change == "reverse":
            rows[i] = dict(reversed(row.items())) if as_dicts else row[::-1]
        elif change == "drop" and row:
            row.popitem() if as_dicts else row.pop()
        elif change == "add":
            if as_dicts:
                row[draw(_row_keys)] = draw(_row_ints)
            else:
                row.append(draw(_row_ints))
    if not as_dicts:
        rows = [tuple(row) if draw(st.booleans()) else row for row in rows]
    return draw(st.sampled_from([list, tuple]))(rows)


_row_reports = st.recursive(
    st.one_of(_int_row_lists(), _leaves), _containers, max_leaves=8
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_int_row_lists(), _row_reports))
def test_render_json_of_int_rows_equals_json_dumps_of_jsonable(x):
    assert render_json(x) == reference(x)


@pytest.mark.parametrize(
    "rows",
    [
        [{"axis": 1, "r1": 2}],
        [[1, 2], (3, 4), [5, 6]],
        [{"a": 1, "b": True}, {"a": 2, "b": 3}],
        [[1, False], [2, 3]],
        [{"a": 1, "b": 2}, {"a": 3, "b": True}],
        [[1, 2], [3, 4.0]],
        [[1], [None]],
        [(1,), (Fraction(1, 2),)],
        [[1, 2], [3, "4"]],
        [[Level.LOW, 1], [Level.HIGH, 2]],
        [[Count(5)], [6]],
        [[2**64, -(2**70)], [-1, 0]],
        [{"%d": 1, "%": 2, '"q"': 3, "\\": 4, "é\U0001F600": 5}],
        [{}, {}],
        [[], ()],
        [{"a": 1, "b": 2}, {"b": 2, "a": 1}],
        [{"a": 1, "b": 2}, {"a": 1}],
        [{"a": 1}, {"a": 1, "b": 2}],
        [[1], [1, 2]],
        [[1, 2], [1]],
        [{"a": 1}, [1]],
        [[1], 1],
    ],
)
def test_render_json_int_row_examples(rows):
    for x in (rows, {"k": rows, "nested": [rows]}):
        assert render_json(x) == reference(x)


def test_member_rows_take_the_template():
    golden = json.loads((GOLDEN / "member_dense8.json").read_text(encoding="utf-8"))
    for key in ("star_violations", "oracle_violations"):
        rows = golden[key]
        assert len(rows) > 1
        assert _int_rows(rows, "\n") == json.dumps(rows, indent=2)
    assert render_json(golden) == reference(golden)


@settings(max_examples=100, deadline=None)
@given(_reports, st.sampled_from([object(), Odd.HALF, b"bytes", 1j]))
def test_render_json_rejects_what_json_rejects(x, bad):
    for doc in ([x, bad], {"k": x, "bad": bad}, Point(x, [bad]), bad):
        with pytest.raises(TypeError):
            reference(doc)
        with pytest.raises(TypeError):
            render_json(doc)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.integers(-10**20, 10**20), min_size=n, max_size=n),
    st.lists(st.floats(), min_size=n, max_size=n),
)))
def test_render_csv_of_columns_equals_render_csv_of_rows(columns):
    ks, values = columns
    rows = [{"k": k, "abs_value": v} for k, v in zip(ks, values)]
    assert render_csv({"k": ks, "abs_value": values}) == render_csv(rows)
