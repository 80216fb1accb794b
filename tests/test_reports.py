"""``render_json`` writes exactly ``json.dumps(jsonable(x), indent=2)``, and
``render_csv`` writes the same bytes for columns as for the rows they hold."""

import dataclasses
import enum
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kuroda.reports import jsonable, render_csv, render_json


class Color(enum.Enum):
    RED = "red"
    PAIR = (1, 2)
    NONE = None


class Odd(enum.Enum):
    # json cannot encode this value: jsonable does not convert enum values
    HALF = Fraction(1, 2)


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
