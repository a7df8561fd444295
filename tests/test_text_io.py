"""Readers and writers of signals CSVs and edge lists.

The writers must reproduce the pinned golden files byte for byte.  Each
reader parses a file's body with one ``np.loadtxt`` call and, on a refusal,
bisects for the first bad line.  Every corpus case below pins the reader's
outcome: the bits it returns, or the start of its error message.  The row
reader that the tests match is ``oracles.first_refused_line``, which reads
a file's prefixes one line at a time: a refusal must name the same line.
"""

import csv
import io
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import first_refused_line

from mugl.laplacian import edge_count, pair_indices, pair_to_linear, read_edge_list, write_edge_list
from mugl.moments import read_signals_csv, write_signals_csv

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


def named_line(read, path):
    """The line number a reader's error names (``path:N:`` or ``path: row
    N``), or None when it accepts the file or names no line."""
    try:
        read(path)
    except ValueError as exc:
        match = re.match(r":(\d+): |: row (\d+) ", str(exc).removeprefix(str(path)))
        return int(match.group(1) or match.group(2)) if match else None
    return None


def test_signals_writer_matches_golden_bytes(tmp_path):
    path = tmp_path / "signals.csv"
    write_signals_csv(path, GOLDEN_SIGNALS)
    assert path.read_bytes() == (DATA / "signals_golden.csv").read_bytes()


def test_edge_writer_matches_golden_bytes(tmp_path):
    path = tmp_path / "graph.edges"
    write_edge_list(path, GOLDEN_WEIGHTS, 5)
    assert path.read_bytes() == (DATA / "edges_golden.edges").read_bytes()


def test_golden_files_read_back_exactly():
    assert bits(read_signals_csv(DATA / "signals_golden.csv")) == bits(GOLDEN_SIGNALS)
    # -0.0 is not written, so it reads back as +0.0
    expected = np.where(GOLDEN_WEIGHTS == 0, 0.0, GOLDEN_WEIGHTS)
    w, m = read_edge_list(DATA / "edges_golden.edges")
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
        assert bits(read_signals_csv(path)) == bits(X.T.copy().T)
        assert first_refused_line(read_signals_csv, path) is None


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
        got, got_m = read_edge_list(path)
        assert got_m == m and bits(got) == bits(w + 0.0)  # -0.0 is never written
        assert first_refused_line(read_edge_list, path) is None


# Each case maps to its outcome: (m, {(i, j): weight}) for an accepted edge
# list, the rows of an accepted signals file, or the start of the error
# message after the file's path.
EDGE_CORPUS = {
    # the cases of test_laplacian.py::test_read_edge_list_errors
    "no_header": ("1 2 0.5\n", ": missing '# m=<nodes>' header"),
    "bad_line": ("# m=3\n2 1\n", ":2: expected 'i j weight', got '2 1'"),
    "bad_number": ("# m=3\n2 1 abc\n", ":2: unparseable edge line '2 1 abc'"),
    "upper_pair": ("# m=3\n1 2 0.5\n", ":2: pair (1,2) invalid for m=3"),
    "out_of_range": ("# m=3\n4 1 0.5\n", ":2: pair (4,1) invalid for m=3"),
    "duplicate": ("# m=3\n2 1 0.5\n2 1 0.25\n", ":3: duplicate pair (2,1)"),
    "nan_weight": ("# m=3\n2 1 nan\n", ":2: weight must be finite and nonnegative"),
    "negative_weight": ("# m=3\n2 1 -5\n", ":2: weight must be finite and nonnegative"),
    # blank and whitespace-only lines
    "blank_lines": ("# m=3\n\n2 1 0.5\n\n\n3 2 1\n\n", (3, {(2, 1): 0.5, (3, 2): 1.0})),
    "whitespace_lines": ("# m=3\n   \n2 1 0.5\n\t\n\xa0\n3 2 1\n", (3, {(2, 1): 0.5, (3, 2): 1.0})),
    "tabs_and_runs": ("# m=3\n2\t1   0.5\n \t3 2 1 \n", (3, {(2, 1): 0.5, (3, 2): 1.0})),
    # spellings no writer produces; int() and float() take some of them,
    # loadtxt does not
    "trailing_comma": ("# m=3\n2 1 0.5,\n", ":2: unparseable edge line '2 1 0.5,'"),
    "quoted_field": ('# m=3\n2 1 "0.5"\n', ":2: unparseable edge line '2 1 \"0.5\"'"),
    "underscore_weight": ("# m=3\n2 1 1_0\n", ":2: unparseable edge line '2 1 1_0'"),
    "underscore_label": ("# m=12\n1_0 1 0.5\n", ":2: unparseable edge line '1_0 1 0.5'"),
    "unicode_digit_label": ("# m=3\n\u0663 1 0.5\n", ":2: unparseable edge line '\u0663 1 0.5'"),
    "inf_weight": ("# m=3\n2 1 inf\n", ":2: weight must be finite and nonnegative"),
    "minus_zero_weight": ("# m=3\n2 1 -0\n", (3, {(2, 1): -0.0})),
    "fractional_label": ("# m=3\n2.5 1 0.5\n", ":2: unparseable edge line '2.5 1 0.5'"),
    "integral_float_label": ("# m=3\n2.0 1 0.5\n", ":2: unparseable edge line '2.0 1 0.5'"),
    "exponent_label": ("# m=3\n2e0 1 0.5\n", ":2: unparseable edge line '2e0 1 0.5'"),
    # beyond int64, which loadtxt parses labels as
    "huge_label": ("# m=3\n99999999999999999999 1 0.5\n", ":2: unparseable edge line"),
    "four_fields": ("# m=3\n2 1 0.5 7\n3 1 0.5 7\n", ":2: expected 'i j weight'"),
    "comment_line": ("# m=3\n# note\n2 1 0.5\n", ":2: expected 'i j weight', got '# note'"),
    # line ends: only \n, \r\n and \r end a line; other breaks are whitespace
    "bare_cr": ("# m=3\r2 1 0.5\r3 2 1\r", (3, {(2, 1): 0.5, (3, 2): 1.0})),
    "crlf": ("# m=3\r\n2 1 0.5\r\n3 2 1\r\n", (3, {(2, 1): 0.5, (3, 2): 1.0})),
    "form_feed_splits_line": ("# m=3\n2 1\f0.5\n", (3, {(2, 1): 0.5})),
    "unit_separator": ("# m=3\n2\x1f1 0.5\x1f\n", (3, {(2, 1): 0.5})),
    "line_separator": ("# m=3\n2 1 0.5\u20283 2 1\n", ":2: expected 'i j weight'"),
    "no_final_newline": ("# m=3\n2 1 0.5", (3, {(2, 1): 0.5})),
    # headers
    "header_only": ("# m=3\n", (3, {})),
    "header_only_no_newline": ("# m=3", (3, {})),
    "header_then_blanks": ("# m=3\n\n \n", (3, {})),
    "empty": ("", ": missing '# m=<nodes>' header"),
    "zero_nodes": ("# m=0\n", ": node count must be at least 2, got 0"),
    "one_node": ("# m=1\n", ": node count must be at least 2, got 1"),
    "one_node_no_newline": ("# m=1", ": node count must be at least 2, got 1"),
    "bad_node_count": ("# m=x\n2 1 0.5\n", ": unparseable node count in header '# m=x'"),
    "padded_node_count": ("# m= 3 \n2 1 0.5\n", (3, {(2, 1): 0.5})),
    "header_underscore": ("# m=1_0\n2 1 0.5\n", ": unparseable node count in header '# m=1_0'"),
    "header_unicode_digit": ("# m=\u0663\n2 1 0.5\n",
                             ": unparseable node count in header '# m=\u0663'"),
}

SIGNALS_CORPUS = {
    # the cases of test_moments.py::test_signals_csv_errors
    "short_row": ("node_1,node_2\n1.0\n", ": row 2 has 1 fields, expected 2"),
    "non_numeric": ("node_1,node_2\n1.0,x\n", ": row 2 has a non-numeric field"),
    "bad_header": ("node_1,wrong\n1.0,2.0\n", ": bad header ['node_1', 'wrong']..."),
    "empty": ("", ": empty signals file"),
    "header_only": ("node_1,node_2\n", ": no observation rows"),
    # blank and whitespace-only lines: only an empty line is skipped
    "blank_lines": ("node_1,node_2\r\n\r\n1,2\r\n\r\n3,4\r\n\r\n", [[1, 2], [3, 4]]),
    "whitespace_line": ("node_1,node_2\r\n1,2\r\n   \r\n3,4\r\n", ": row 3 has 1 fields, expected 2"),
    "whitespace_line_one_column": ("node_1\n1\n \t\n2\n", ": row 3 has a non-numeric field"),
    "blank_then_rows": ("node_1,node_2\n\n1,2\n", [[1, 2]]),
    "header_then_blanks": ("node_1,node_2\n\n\n", ": no observation rows"),
    "padded_fields": ("node_1,node_2\n 1 ,\t2\xa0\n", [[1, 2]]),
    # spellings no writer produces; float() takes some of them, loadtxt does
    # not, and no data field is quoted
    "trailing_comma": ("node_1,node_2\n1,2,\n", ": row 2 has 3 fields, expected 2"),
    "trailing_comma_one_column": ("node_1\n1,\n", ": row 2 has 2 fields, expected 1"),
    "quoted_field": ('node_1,node_2\n"1.5",2\n', ": row 2 has a non-numeric field"),
    "quoted_header": ('"node_1",node_2\n1,2\n', [[1, 2]]),
    "underscore": ("node_1,node_2\n1_0,2\n", ": row 2 has a non-numeric field"),
    "unicode_digit": ("node_1,node_2\n\u0663,2\n", ": row 2 has a non-numeric field"),
    "nan_inf": ("node_1,node_2,node_3\nnan,inf,-inf\n-nan,Infinity,1e999\n",
                ": row 2 has a non-finite field"),
    "overflowing_digits": ("node_1,node_2\n1,2\n3," + "4" * 400 + "\n",
                           ": row 3 has a non-finite field"),
    "nan_after_rows": ("node_1,node_2\n1,2\n3,4\nnan,5\n", ": row 4 has a non-finite field"),
    "empty_field": ("node_1,node_2\n1,,\n", ": row 2 has 3 fields, expected 2"),
    "extra_field": ("node_1,node_2\n1,2,3\n", ": row 2 has 3 fields, expected 2"),
    # line ends: only \n, \r\n and \r end a line; other breaks are whitespace
    "bare_cr": ("node_1,node_2\r1,2\r3,4\r", [[1, 2], [3, 4]]),
    "mixed_line_ends": ("node_1,node_2\r\n1,2\n3,4\r5,6\r\n", [[1, 2], [3, 4], [5, 6]]),
    "form_feed": ("node_1,node_2\n1,\f2\n", [[1, 2]]),
    "file_separator": ("node_1,node_2\n1\x1c,2\n", [[1, 2]]),
    "unit_separator_one_column": ("node_1\n1\t\x1f\n", [[1]]),
    "no_final_newline": ("node_1,node_2\n1,2", [[1, 2]]),
    # headers
    "header_only_crlf": ("node_1,node_2\r\n", ": no observation rows"),
    "blank_header": ("\n1,2\n", ": row 2 has 2 fields, expected 0"),
    "short_header": ("node_1\n1,2\n", ": row 2 has 2 fields, expected 1"),
}


def expected_edges(m, pairs):
    w = np.zeros(edge_count(m))
    for (i, j), weight in pairs.items():
        w[pair_to_linear(i, j, m) - 1] = weight
    return w


@pytest.mark.parametrize("name", sorted(EDGE_CORPUS))
def test_malformed_edge_lists_match_row_reader(tmp_path, name):
    text, expected = EDGE_CORPUS[name]
    path = tmp_path / f"{name}.edges"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            read_edge_list(path)
        assert str(exc.value).startswith(f"{path}{expected}")
    else:
        w, m = read_edge_list(path)
        assert m == expected[0] and bits(w) == bits(expected_edges(*expected))
    assert named_line(read_edge_list, path) == first_refused_line(read_edge_list, path)


@pytest.mark.parametrize("name", sorted(SIGNALS_CORPUS))
def test_malformed_signals_match_row_reader(tmp_path, name):
    text, expected = SIGNALS_CORPUS[name]
    path = tmp_path / f"{name}.csv"
    path.write_bytes(text.encode())
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            read_signals_csv(path)
        assert str(exc.value).startswith(f"{path}{expected}")
    else:
        assert bits(read_signals_csv(path)) == bits(np.array(expected, dtype=float).T)
    assert named_line(read_signals_csv, path) == first_refused_line(read_signals_csv, path)


def test_edge_errors_name_the_first_bad_line(tmp_path):
    path = tmp_path / "g.edges"
    # an out-of-range pair on line 3 precedes a repeat of line 2 on line 6
    path.write_text("# m=3\n2 1 0.5\n4 1 0.5\n3 1 1\n3 2 1\n2 1 0.25\n")
    with pytest.raises(ValueError, match=r"\.edges:3: pair \(4,1\) invalid for m=3"):
        read_edge_list(path)
    # a repeated pair is refused at the repeat, however far it is from the first
    m = 100
    rows, cols = pair_indices(m)
    lines = [f"# m={m}"] + [f"{i + 1} {j + 1} 1" for i, j in zip(rows, cols)]
    lines.insert(3000, lines[17])
    path.write_text("\n".join(lines) + "\n")
    pair = re.escape(f"({rows[16] + 1},{cols[16] + 1})")
    with pytest.raises(ValueError, match=rf"\.edges:3001: duplicate pair {pair}$"):
        read_edge_list(path)


def test_signals_errors_name_the_first_bad_row(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("node_1,node_2\ninf,1\n1,2\n3\n")
    with pytest.raises(ValueError, match=r"\.csv: row 2 has a non-finite field$"):
        read_signals_csv(path)


def test_well_formed_files_take_one_loadtxt_call(tmp_path, monkeypatch):
    calls = []
    loadtxt = np.loadtxt

    def spy(*args, **kwargs):
        calls.append(args)
        return loadtxt(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", spy)
    X = np.random.default_rng(0).standard_normal((100, 400))
    write_signals_csv(tmp_path / "signals.csv", X)
    assert bits(read_signals_csv(tmp_path / "signals.csv")) == bits(X.T.copy().T)
    assert len(calls) == 1
    # 4,939 edges under the header make 4,940 lines
    w = np.arange(1.0, edge_count(100) + 1)
    w[::450] = 0.0
    write_edge_list(tmp_path / "graph.edges", w, 100)
    assert len((tmp_path / "graph.edges").read_text().splitlines()) == 4940
    got, m = read_edge_list(tmp_path / "graph.edges")
    assert m == 100 and bits(got) == bits(w)
    assert len(calls) == 2


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
        assert named_line(read_edge_list, path) == first_refused_line(read_edge_list, path)


@given(
    st.sampled_from(["node_1,node_2,node_3", "node_1", "node_2", ""]),
    joined(joined(TOKENS, [",", ",", ", ", "\t", "\x1c", "\x1f"]), LINE_BREAKS),
)
def test_random_signals_text_matches_row_reader(header, body):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.csv"
        path.write_bytes((header + "\r\n" + body).encode())
        assert named_line(read_signals_csv, path) == first_refused_line(read_signals_csv, path)
