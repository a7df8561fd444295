"""Readers and writers of signals CSVs and edge lists.

The writers must reproduce the pinned golden files byte for byte.  Each
reader parses a file's body with one ``np.loadtxt`` call and, on a refusal,
bisects for the first bad line.  Every corpus case below pins the reader's
outcome: the bits it returns, or the start of its error message.  The row
reader that the tests match is ``oracles.first_refused_line``, which reads
a file's prefixes one line at a time: a refusal must name the same line.
"""

import csv
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import first_refused_line

import mugl
from mugl import laplacian
from mugl.laplacian import (
    _G17_BLOCK,
    _format_g17,
    edge_count,
    pair_indices,
    pair_to_linear,
    read_edge_list,
    write_edge_list,
)
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


COMMA = (np.frombuffer(b",", np.uint8)[None], np.ones((1, 1), bool))


def g17_reference(x):
    return "".join("%.17g," % v for v in x.tolist()).encode()


def exponent_edges():
    """10**k and one ulp either side, for k = -5..17, with both signs."""
    powers = 10.0 ** np.arange(-5, 18)
    x = np.concatenate([np.nextafter(powers, 0), powers, np.nextafter(powers, np.inf)])
    return np.concatenate([x, -x])


def half_way_ties(rng, count):
    """x = t / 2**k = 5**k * t / 10**k for odd t < 2**53 with t * 5**k of 18
    digits: the last is a 5, so '%.17g' rounds an exact tie."""
    ties = []
    for k in range(2, 26):
        low, high = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        if low < high:
            ties.append((rng.integers(low, high, count) | 1) / 2.0**k)
    return np.concatenate(ties)


@pytest.mark.parametrize("case", ["bit_patterns", "exponent_edges", "carries", "ties", "log_uniform"])
def test_g17_kernel_matches_percent_format(case):
    rng = np.random.default_rng(40)
    if case == "bit_patterns":
        x = np.concatenate([
            rng.integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False).view(np.float64),
            np.array([0xFFF8000000000000, 0x7FF8000000000001, 1, 0x800FFFFFFFFFFFFF], np.uint64)
            .view(np.float64),  # NaN with the sign bit set, another NaN, two subnormals
            [np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308],
        ])
    elif case == "exponent_edges":
        x = exponent_edges()
    elif case == "carries":
        # no double in [1e-4, 1e16) rounds up to a power of ten at 17 digits;
        # these come closest, from below
        x = np.array([9.9999999999999999e-2, 0.09999999999999999, 0.9999999999999999,
                      9999999999999998.0, 0.00099999999999999991, 99.999999999999986])
    elif case == "ties":
        x = half_way_ties(rng, 200)
        x = np.concatenate([x, -x])
    else:
        x = 10.0 ** rng.uniform(-5, 17, 20000) * rng.choice([-1.0, 1.0], 20000)
    assert _format_g17(x, COMMA) == g17_reference(x)


def test_g17_kernel_formats_values_in_its_domain_without_the_fallback(monkeypatch):
    calls = []
    exceptional = laplacian._format_exceptional

    def counting(value):
        calls.append(value)
        return exceptional(value)

    monkeypatch.setattr(laplacian, "_format_exceptional", counting)
    rng = np.random.default_rng(41)
    inside = np.concatenate([
        10.0 ** rng.uniform(-4, 16, 5000) * rng.choice([-1.0, 1.0], 5000),
        half_way_ties(rng, 20),
        [1e-4, -1e-4, np.nextafter(1e16, 0), 0.5, 1.0, 123.0],
    ])
    inside = inside[(1e-4 <= np.abs(inside)) & (np.abs(inside) < 1e16)]
    assert _format_g17(inside, COMMA) == g17_reference(inside)
    assert calls == []
    outside = np.array([0.0, -0.0, np.nan, np.inf, np.nextafter(1e-4, 0), 1e16, -3e-300, 5e-324])
    assert _format_g17(outside, COMMA) == g17_reference(outside)
    assert len(calls) == outside.size


@pytest.mark.parametrize("n", [_G17_BLOCK - 1, _G17_BLOCK, _G17_BLOCK + 1, 3 * _G17_BLOCK])
def test_writers_match_reference_loops_across_blocks(tmp_path, n):
    rng = np.random.default_rng(n)
    # one column puts n values in n rows; with three, a block holds whole
    # rows, 3 * (_G17_BLOCK // 3) values
    for m in (1, 3):
        X = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-6, 18, (m, n))
        write_signals_csv(tmp_path / "signals.csv", X)
        assert (tmp_path / "signals.csv").read_bytes() == reference_signals_bytes(X)
    m = 160  # 12,720 pairs, n of them nonzero
    w = np.zeros(edge_count(m))
    w[rng.choice(w.size, n, replace=False)] = rng.uniform(0, 0.05, n)
    write_edge_list(tmp_path / "graph.edges", w, m)
    assert (tmp_path / "graph.edges").read_bytes() == reference_edge_bytes(w, m)


@pytest.mark.parametrize("shape", [(0, 0), (0, 1), (0, 5), (3, 0), (1, 0)])
def test_signals_writer_handles_empty_shapes(tmp_path, shape):
    # a zero-column matrix writes one bare CRLF per row
    X = np.zeros(shape)
    write_signals_csv(tmp_path / "signals.csv", X)
    assert (tmp_path / "signals.csv").read_bytes() == reference_signals_bytes(X)


# sha256 of the files `mugl generate` (ER m=100, n=400, seed 0) and
# `mugl learn` (log_model, trace on) write at the shape of the benchmark's
# cli_pipeline, recorded under one BLAS thread with the per-value '%.17g'
# writers that _format_g17 replaced.
PIPELINE_DIGESTS = {
    "signals.csv": "941f6abb633b0ffb2e9d1b90e5cb2bbabfcc05d1745a5773d08d0b82155d32a4",
    "graph.edges": "dc54b0124615630eb1a78ff412a5d197e89ac8332681169cde60217b68e27425",
    "learned.edges": "c42b25093bf6647814b1a4d827dc0743b25debe819b59a0845e284878613e5c8",
}


def test_pipeline_files_keep_their_bytes(tmp_path):
    (tmp_path / "gen.json").write_text(json.dumps(
        {"graph": {"family": "er", "m": 100}, "signals": {"n": 400, "epsilon": 0.1}}))
    (tmp_path / "learn.json").write_text(json.dumps(
        {"signals": str(tmp_path / "out" / "signals.csv"), "preset": {"name": "log_model"},
         "trace": True}))
    src = str(Path(mugl.__file__).resolve().parent.parent)
    # one BLAS thread: more can move the last bits of the covariance at m=100
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
           **dict.fromkeys(["OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"], "1")}
    for argv in (["generate", "--config", str(tmp_path / "gen.json"), "--seed", "0"],
                 ["learn", "--config", str(tmp_path / "learn.json")]):
        subprocess.run([sys.executable, "-m", "mugl", *argv, "--out", str(tmp_path / "out"), "--quiet"],
                       env=env, check=True, timeout=120)
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
               for name in PIPELINE_DIGESTS}
    assert digests == PIPELINE_DIGESTS


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
