import json
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mugl import harness
from mugl.datagen import GraphSpec, SignalSpec
from mugl.serialize import dumps, format_float, write_json
from oracles import dumps_reference


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
    assert dumps(0.1) == "0.1"


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(-0.0)
@example(5e-324)
@example(sys.float_info.max)
def test_dumps_float_reads_back_to_the_same_bits(x):
    assert json.loads(dumps(x)).hex() == x.hex()


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
    with pytest.raises(ValueError, match="Out of range float values"):
        write_json(path, {"k": [1.0, math.nan]})
    assert not path.exists()


class _Dict(dict):
    pass


class _List(list):
    pass


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    # keys and values are written by their characters, not by str(), so a
    # subclass that renames itself shows if a writer calls str()
    def __str__(self):
        return "renamed"


# Every kind of value the writer dispatches on, exactly typed or not.
CORPUS = [
    {"a": {}, "b": [], "c": [[], {}, [[{}]]], "d": ()},
    (1, (2.5, ()), [None, True, False]),
    # numpy's float64, the type of the metrics' NMI, is a float subclass;
    # other numpy values are written after tolist()
    [np.float64(0.1), np.float64(-0.0), np.float64(2.0), np.float64(5e-324)],
    [np.array([1.0, 2.5]).tolist(), np.array([[1, 2], [3, 4]]).tolist(), np.array(3.25).tolist(),
     np.array([], dtype=float).tolist(), np.array([True, False]).tolist()],
    ["plain", "", "caf\u00e9", "\u2028\u2029\x85", "\U0001f600", "tab\tnl\ncr\r\x00\x1f\x7f",
     'quote " and \\ backslash'],
    {"\u00e9t\u00e9": 1, "ctrl\x01": 2, 3: "int key", 2.5: "float key", None: "none key",
     True: "bool key", _Str("sub"): "str-subclass key"},
    _Dict(x=_List([1, 2]), y=_Dict()),
    [_Float(2.0), _Float(0.1), _Int(5), _Str("sub\u00e9"), _List(), _Dict()],
    [0.0, -0.0, 1.0, -3.0, 1e16, 1e-300, 5e-324, 1.7976931348623157e308, 123456789.0, 0.5,
     2**53 + 1, -(10**30), 10**40, 0],
]


def _nested(doc, depth):
    """doc as the one item of depth nested lists, so the writer renders it
    at that depth's indentation."""
    for _ in range(depth):
        doc = [doc]
    return doc


@pytest.mark.parametrize("depth", [0, 1, 3])
@pytest.mark.parametrize("doc", CORPUS, ids=range(len(CORPUS)))
def test_dumps_matches_reference_writer_on_corpus(doc, depth):
    assert dumps(_nested(doc, depth)) == dumps_reference(_nested(doc, depth))


def test_dumps_matches_reference_writer_on_a_headline_summary():
    presets = [harness.ModelPreset(name) for name in harness.PRESET_NAMES]
    doc = harness.run_experiment(GraphSpec(family="gaussian", m=20, seed=0),
                                 SignalSpec(n=80, epsilon=0.1, seed=0), presets, 20)
    assert dumps(doc) == dumps_reference(doc)
    assert dumps(_nested(doc, 2)) == dumps_reference(_nested(doc, 2))


@pytest.mark.parametrize("doc", [
    math.nan, math.inf, -math.inf, np.float64(math.nan), np.float32(-math.inf), _Float(math.inf),
    {"k": [1.0, {"deep": math.nan}]}, np.array([1.0, math.inf]),
    object(), {1, 2}, b"bytes", 1j, np.complex128(1j), np.datetime64("2020-01-01"),
    [1, {"k": object()}], {"k": (1, {2})},
], ids=lambda doc: type(doc).__name__)
def test_dumps_raises_what_the_reference_writer_raises(doc):
    with pytest.raises(Exception) as want:
        dumps_reference(doc)
    with pytest.raises(want.type) as got:
        dumps(doc)
    assert str(got.value) == str(want.value)


@given(st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False, allow_infinity=False),
        st.text(), st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    ),
    lambda leaf: st.one_of(
        st.lists(leaf, max_size=4),
        st.lists(leaf, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), leaf, max_size=4),
    ),
    max_leaves=16,
), st.integers(0, 3))
def test_dumps_matches_reference_writer_on_random_documents(doc, depth):
    assert dumps(_nested(doc, depth)) == dumps_reference(_nested(doc, depth))
