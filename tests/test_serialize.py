import json
import math

import numpy as np
import pytest
from hypothesis import given
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


class _Dict(dict):
    pass


class _List(list):
    pass


class _Float(float):
    pass


class _Int(int):
    pass


class _Str(str):
    # keys are written as str(key) and string values by their characters,
    # so a subclass that renames itself shows which one the writer used
    def __str__(self):
        return "renamed"


# Every kind of value the writer dispatches on, exactly typed or not.
CORPUS = [
    {"a": {}, "b": [], "c": [[], {}, [[{}]]], "d": ()},
    (1, (2.5, ()), [None, True, False]),
    [np.float64(0.1), np.float64(-0.0), np.float32(1.5), np.int64(-7), np.int8(3), np.uint64(2**63),
     np.bool_(False), np.bool_(True)],
    [np.array([1.0, 2.5]), np.array([[1, 2], [3, 4]]), np.array(3.25), np.array([], dtype=float),
     np.array([True, False]), np.array(["x", "y"])],
    ["plain", "", "caf\u00e9", "\u2028\u2029\x85", "\U0001f600", "tab\tnl\ncr\r\x00\x1f\x7f",
     'quote " and \\ backslash'],
    {"\u00e9t\u00e9": 1, "ctrl\x01": 2, 3: "int key", 2.5: "float key", None: "none key",
     True: "bool key", _Str("sub"): "str-subclass key"},
    _Dict(x=_List([1, 2]), y=_Dict()),
    [_Float(2.0), _Float(0.1), _Int(5), _Str("sub\u00e9"), _List(), _Dict()],
    [0.0, -0.0, 1.0, -3.0, 1e16, 1e-300, 5e-324, 1.7976931348623157e308, 123456789.0, 0.5,
     2**53 + 1, -(10**30), 10**40, 0],
]


@pytest.mark.parametrize("indent", [0, 1, 3])
@pytest.mark.parametrize("doc", CORPUS, ids=range(len(CORPUS)))
def test_dumps_matches_reference_writer_on_corpus(doc, indent):
    assert dumps(doc, indent) == dumps_reference(doc, indent)


def test_dumps_matches_reference_writer_on_a_headline_summary():
    presets = [harness.ModelPreset(name) for name in harness.PRESET_NAMES]
    summary = harness.run_experiment(GraphSpec(family="gaussian", m=20, seed=0),
                                     SignalSpec(n=80, epsilon=0.1, seed=0), presets, 20)
    doc = harness.summary_doc(summary)
    assert dumps(doc) == dumps_reference(doc)
    assert dumps(doc, 2) == dumps_reference(doc, 2)


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
        st.integers(-2**63, 2**63 - 1).map(np.int64),
    ),
    lambda leaf: st.one_of(
        st.lists(leaf, max_size=4),
        st.lists(leaf, max_size=3).map(tuple),
        st.dictionaries(st.one_of(st.text(), st.integers()), leaf, max_size=4),
    ),
    max_leaves=16,
), st.integers(0, 3))
def test_dumps_matches_reference_writer_on_random_documents(doc, indent):
    assert dumps(doc, indent) == dumps_reference(doc, indent)
