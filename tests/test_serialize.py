import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mugl.serialize import dumps, format_float, write_json


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_round_trips_exactly(x):
    assert float(format_float(x)) == x


def test_format_float_marks_integral_values():
    assert format_float(1.0) == "1.0"
    assert format_float(-3.0) == "-3.0"
    assert format_float(0.0) == "0.0"
    # huge magnitudes switch to exponent notation, still a float token
    assert "e" in format_float(1e300)


def test_format_float_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            format_float(bad)


def test_dumps_scalars():
    assert dumps(True) == "true"
    assert dumps(False) == "false"
    assert dumps(None) == "null"
    assert dumps(7) == "7"
    assert dumps("a\"b") == '"a\\"b"'
    assert dumps(0.1) == "0.10000000000000001"


def test_dumps_numpy_coercion():
    assert dumps(np.float64(2.0)) == "2.0"
    assert dumps(np.int32(5)) == "5"
    assert dumps(np.bool_(True)) == "true"
    assert dumps(np.array([1.0, 2.5])) == "[\n  1.0,\n  2.5\n]"


def test_dumps_nested_layout_and_key_order():
    doc = {"b": [1, {"x": None}], "a": {}}
    want = (
        '{\n'
        '  "b": [\n'
        '    1,\n'
        '    {\n'
        '      "x": null\n'
        '    }\n'
        '  ],\n'
        '  "a": {}\n'
        '}'
    )
    assert dumps(doc) == want


def test_dumps_empty_containers():
    assert dumps({}) == "{}"
    assert dumps([]) == "[]"


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps(object())


@given(st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-10**6, 10**6),
        st.floats(allow_nan=False, allow_infinity=False), st.text(max_size=8),
    ),
    lambda leaf: st.one_of(
        st.lists(leaf, max_size=4),
        st.dictionaries(st.text(max_size=6), leaf, max_size=4),
    ),
    max_leaves=12,
))
def test_dumps_is_valid_json(doc):
    parsed = json.loads(dumps(doc))
    assert _normalize(parsed) == _normalize(doc)


def _normalize(doc):
    if isinstance(doc, dict):
        return {k: _normalize(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_normalize(v) for v in doc]
    return doc


def test_write_json_ends_with_newline(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"k": 1.5})
    assert path.read_text() == '{\n  "k": 1.5\n}\n'
    assert json.loads(path.read_text()) == {"k": 1.5}


def test_write_json_leaves_no_file_when_serialization_fails(tmp_path):
    path = tmp_path / "doc.json"
    with pytest.raises(ValueError, match="non-finite"):
        write_json(path, {"k": [1.0, math.nan]})
    assert not path.exists()
