"""Bulk readers and writers of signals CSVs and edge lists.

The writers must reproduce the pinned golden files byte for byte, and the
bulk readers must agree with the row-by-row readers on every file: the same
bits when both accept it, the same ValueError message when one rejects it.
"""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mugl.laplacian import (
    _load_edge_list_bulk,
    _read_edge_list_rows,
    edge_count,
    pair_indices,
    read_edge_list,
    write_edge_list,
)
from mugl.moments import (
    _load_signals_bulk,
    _read_signals_csv_rows,
    read_signals_csv,
    write_signals_csv,
)

DATA = Path(__file__).parent / "data"

# The values behind tests/data/signals_golden.csv and edges_golden.edges:
# signed zeros, subnormals, 1e+-300 and integral floats, and for the edge
# list zero weights, which the writer skips.
GOLDEN_SIGNALS = np.array([
    [-0.0, 5e-324, 1e300, 2.0, 0.1],
    [1e-300, -1e-300, 0.0, -2.5, 1 / 3],
    [2.2250738585072014e-308, -1e300, 3.0, 123456789.0, -7.0e-5],
]).T
GOLDEN_WEIGHTS = np.array([0.1, 0.0, 2.0, 1e300, 5e-324, 0.0, 1e-300, 1 / 3, -0.0, 7.0])


def bits(a):
    a = np.asarray(a)
    return a.dtype.str, a.shape, a.flags.f_contiguous, a.tobytes()


def outcome(read, path):
    """Bits of what a reader returns, or the message of its ValueError."""
    try:
        result = read(path)
    except ValueError as exc:
        return "error", str(exc)
    if isinstance(result, tuple):
        w, m = result
        return "ok", bits(w), m
    return "ok", bits(result)


def test_signals_writer_matches_golden_bytes(tmp_path):
    path = tmp_path / "signals.csv"
    write_signals_csv(path, GOLDEN_SIGNALS)
    assert path.read_bytes() == (DATA / "signals_golden.csv").read_bytes()


def test_edge_writer_matches_golden_bytes(tmp_path):
    path = tmp_path / "graph.edges"
    write_edge_list(path, GOLDEN_WEIGHTS, 5)
    assert path.read_bytes() == (DATA / "edges_golden.edges").read_bytes()


def test_golden_files_read_back_exactly():
    golden = DATA / "signals_golden.csv"
    assert bits(_load_signals_bulk(golden)) == bits(GOLDEN_SIGNALS)
    assert outcome(read_signals_csv, golden) == outcome(_read_signals_csv_rows, golden)
    # -0.0 is not written, so it reads back as +0.0
    expected = np.where(GOLDEN_WEIGHTS == 0, 0.0, GOLDEN_WEIGHTS)
    w, m = _load_edge_list_bulk(DATA / "edges_golden.edges")
    assert m == 5 and bits(w) == bits(expected)


def reference_signals_bytes(X):
    """Reference bytes: csv.writer with one f-string per value."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow([f"node_{i}" for i in range(1, X.shape[0] + 1)])
    for row in X.T:
        writer.writerow([f"{x:.17g}" for x in row])
    return buf.getvalue().encode()


def reference_edge_bytes(w, m):
    """Reference bytes: one f-string per edge, joined."""
    rows, cols = pair_indices(m)
    lines = [f"# m={m}"]
    for k in np.flatnonzero(w):
        lines.append(f"{rows[k] + 1} {cols[k] + 1} {w[k]:.17g}")
    return ("\n".join(lines) + "\n").encode()


@given(hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6)))
def test_signals_writer_matches_reference_loop(X):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "signals.csv"
        write_signals_csv(path, X)
        assert path.read_bytes() == reference_signals_bytes(X)


@given(st.integers(1, 8).flatmap(
    lambda m: st.tuples(st.just(m), hnp.arrays(np.float64, edge_count(m)))))
def test_edge_writer_matches_reference_loop(case):
    m, w = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.edges"
        write_edge_list(path, w, m)
        assert path.read_bytes() == reference_edge_bytes(w, m)


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6), elements=finite))
def test_signals_bulk_round_trip_matches_row_reader(X):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "signals.csv"
        write_signals_csv(path, X)
        assert bits(_load_signals_bulk(path)) == bits(X.T.copy().T)
        assert outcome(read_signals_csv, path) == outcome(_read_signals_csv_rows, path)


@given(st.integers(2, 8).flatmap(lambda m: st.tuples(
    st.just(m),
    hnp.arrays(np.float64, edge_count(m), elements=st.one_of(
        st.just(0.0), st.floats(min_value=0.0, allow_infinity=False))),
)))
def test_edge_bulk_round_trip_matches_row_reader(case):
    m, w = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "graph.edges"
        write_edge_list(path, w, m)
        got, got_m = _load_edge_list_bulk(path)
        assert got_m == m and bits(got) == bits(w + 0.0)  # -0.0 is never written
        assert outcome(read_edge_list, path) == outcome(_read_edge_list_rows, path)


EDGE_CORPUS = {
    # the cases of test_laplacian.py::test_read_edge_list_errors
    "no_header": "1 2 0.5\n",
    "bad_line": "# m=3\n2 1\n",
    "bad_number": "# m=3\n2 1 abc\n",
    "upper_pair": "# m=3\n1 2 0.5\n",
    "out_of_range": "# m=3\n4 1 0.5\n",
    "duplicate": "# m=3\n2 1 0.5\n2 1 0.25\n",
    "nan_weight": "# m=3\n2 1 nan\n",
    "negative_weight": "# m=3\n2 1 -5\n",
    # blank and whitespace-only lines
    "blank_lines": "# m=3\n\n2 1 0.5\n\n\n3 2 1\n\n",
    "whitespace_lines": "# m=3\n   \n2 1 0.5\n\t\n\xa0\n3 2 1\n",
    "tabs_and_runs": "# m=3\n2\t1   0.5\n \t3 2 1 \n",
    # fields the bulk parser cannot take as they stand
    "trailing_comma": "# m=3\n2 1 0.5,\n",
    "quoted_field": '# m=3\n2 1 "0.5"\n',
    "underscore_weight": "# m=3\n2 1 1_0\n",
    "underscore_label": "# m=12\n1_0 1 0.5\n",
    "unicode_digit_label": "# m=3\n\u0663 1 0.5\n",
    "inf_weight": "# m=3\n2 1 inf\n",
    "minus_zero_weight": "# m=3\n2 1 -0\n",
    "fractional_label": "# m=3\n2.5 1 0.5\n",
    "integral_float_label": "# m=3\n2.0 1 0.5\n",
    "exponent_label": "# m=3\n2e0 1 0.5\n",
    "huge_label": "# m=3\n99999999999999999999 1 0.5\n",
    "four_fields": "# m=3\n2 1 0.5 7\n3 1 0.5 7\n",
    "comment_line": "# m=3\n# note\n2 1 0.5\n",
    # line ends
    "bare_cr": "# m=3\r2 1 0.5\r3 2 1\r",
    "crlf": "# m=3\r\n2 1 0.5\r\n3 2 1\r\n",
    "form_feed_splits_line": "# m=3\n2 1\f0.5\n",
    "unit_separator": "# m=3\n2\x1f1 0.5\x1f\n",
    "line_separator": "# m=3\n2 1 0.5\u20283 2 1\n",
    "no_final_newline": "# m=3\n2 1 0.5",
    # headers
    "header_only": "# m=3\n",
    "header_only_no_newline": "# m=3",
    "header_then_blanks": "# m=3\n\n \n",
    "empty": "",
    "zero_nodes": "# m=0\n",
    "one_node": "# m=1\n",
    "one_node_no_newline": "# m=1",
    "bad_node_count": "# m=x\n2 1 0.5\n",
    "padded_node_count": "# m= 3 \n2 1 0.5\n",
}

SIGNALS_CORPUS = {
    # the cases of test_moments.py::test_signals_csv_errors
    "short_row": "node_1,node_2\n1.0\n",
    "non_numeric": "node_1,node_2\n1.0,x\n",
    "bad_header": "node_1,wrong\n1.0,2.0\n",
    "empty": "",
    "header_only": "node_1,node_2\n",
    # blank and whitespace-only lines
    "blank_lines": "node_1,node_2\r\n\r\n1,2\r\n\r\n3,4\r\n\r\n",
    "whitespace_line": "node_1,node_2\r\n1,2\r\n   \r\n3,4\r\n",
    "whitespace_line_one_column": "node_1\n1\n \t\n2\n",
    "blank_then_rows": "node_1,node_2\n\n1,2\n",
    "header_then_blanks": "node_1,node_2\n\n\n",
    "padded_fields": "node_1,node_2\n 1 ,\t2\xa0\n",
    # fields the bulk parser cannot take as they stand
    "trailing_comma": "node_1,node_2\n1,2,\n",
    "trailing_comma_one_column": "node_1\n1,\n",
    "quoted_field": 'node_1,node_2\n"1.5",2\n',
    "quoted_header": '"node_1",node_2\n1,2\n',
    "underscore": "node_1,node_2\n1_0,2\n",
    "unicode_digit": "node_1,node_2\n\u0663,2\n",
    "nan_inf": "node_1,node_2,node_3\nnan,inf,-inf\n-nan,Infinity,1e999\n",
    "overflowing_digits": "node_1,node_2\n1,2\n3," + "4" * 400 + "\n",
    "nan_after_rows": "node_1,node_2\n1,2\n3,4\nnan,5\n",
    "empty_field": "node_1,node_2\n1,,\n",
    "extra_field": "node_1,node_2\n1,2,3\n",
    # line ends
    "bare_cr": "node_1,node_2\r1,2\r3,4\r",
    "mixed_line_ends": "node_1,node_2\r\n1,2\n3,4\r5,6\r\n",
    "form_feed": "node_1,node_2\n1,\f2\n",
    "file_separator": "node_1,node_2\n1\x1c,2\n",
    "unit_separator_one_column": "node_1\n1\t\x1f\n",
    "no_final_newline": "node_1,node_2\n1,2",
    # headers
    "header_only_crlf": "node_1,node_2\r\n",
    "blank_header": "\n1,2\n",
    "short_header": "node_1\n1,2\n",
}


@pytest.mark.parametrize("name", sorted(EDGE_CORPUS))
def test_malformed_edge_lists_match_row_reader(tmp_path, name):
    path = tmp_path / f"{name}.edges"
    path.write_bytes(EDGE_CORPUS[name].encode())
    assert outcome(read_edge_list, path) == outcome(_read_edge_list_rows, path)


@pytest.mark.parametrize("name", sorted(SIGNALS_CORPUS))
def test_malformed_signals_match_row_reader(tmp_path, name):
    path = tmp_path / f"{name}.csv"
    path.write_bytes(SIGNALS_CORPUS[name].encode())
    assert outcome(read_signals_csv, path) == outcome(_read_signals_csv_rows, path)


def joined(parts, seps):
    """Strategy: items of ``parts`` joined by separators drawn from ``seps``."""
    return st.lists(st.tuples(parts, st.sampled_from(seps)), max_size=8).map(
        lambda pairs: "".join(p + s for p, s in pairs)
    )


TOKENS = st.sampled_from([
    "1", "2", "3", "5", "0", "-1", "+2", "2.0", "2.5", "0.5", "1e-300", "1e999",
    "-0", "nan", "inf", "1_0", "\u0663", "", " ", "x", '"1"', "#",
])
LINE_BREAKS = ["\n", "\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028"]


@given(
    st.sampled_from(["# m=3", "# m=5", "# m=1", "# m=0", "m=3", ""]),
    joined(joined(TOKENS, [" ", " ", "\t", "  ", "\xa0", "\x1f", ","]), LINE_BREAKS),
)
def test_random_edge_text_matches_row_reader(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.edges"
        path.write_bytes((header + "\n" + body).encode())
        assert outcome(read_edge_list, path) == outcome(_read_edge_list_rows, path)


@given(
    st.sampled_from(["node_1,node_2,node_3", "node_1", "node_2", ""]),
    joined(joined(TOKENS, [",", ",", ", ", "\t", "\x1c", "\x1f"]), LINE_BREAKS),
)
def test_random_signals_text_matches_row_reader(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_bytes((header + "\r\n" + body).encode())
        assert outcome(read_signals_csv, path) == outcome(_read_signals_csv_rows, path)
