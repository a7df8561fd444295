"""Edge-weight vectors, graph Laplacians, and the linear maps between them.

A weighted undirected graph on m nodes with no self-loops is fully described
by the m(m-1)/2 weights on its node pairs.  We keep those weights in a flat
vector ``w`` ordered column-by-column over the strictly-lower triangle:
(2,1), (3,1), ..., (m,1), (3,2), ..., (m,m-1) with 1-based node labels.
``expand`` turns such a vector into the combinatorial Laplacian
L = D - W, and ``adjoint`` is the transpose of that linear map, so that
trace(expand(w, m) @ M) == w @ adjoint(M) for every symmetric m x m M.

Constraining w to the scaled simplex {w >= 0, sum(w) = s} is equivalent to
constraining L to the set of Laplacians with trace 2s, which is how the
optimization modules use these maps.

Edge-list files carry w as text.  Their lines end at \\n, \\r\\n or \\r, and
``read_edge_list`` parses them in one ``np.loadtxt`` call; for a file it
refuses, ``_first_failing_line`` bisects for the first bad line to name.
"""

from __future__ import annotations

import math
import warnings
from functools import lru_cache, partial

import numpy as np

# Tolerance of validate_simplex: on each entry's sign, and on the sum
# relative to max(1, s).
VALIDATION_TOL = 1e-9

# Asymmetry beyond this (relative to max |entry|) triggers a warning in
# adjoint(); smaller asymmetry is silently symmetrized since floating-point
# products of symmetric factors routinely drift at round-off level.
SYMMETRY_WARN_RTOL = 1e-8


def edge_count(m: int) -> int:
    """Number of node pairs, m(m-1)/2."""
    if m < 1:
        raise ValueError(f"need at least one node, got m={m}")
    return m * (m - 1) // 2


@lru_cache(maxsize=None)
def pair_indices(m: int):
    """0-based (rows, cols) arrays of the pair ordering for m nodes.

    rows[k] > cols[k] for every k, and the pairs run column-major over the
    strictly-lower triangle.  Arrays are cached per m and marked read-only.
    """
    if m < 1:
        raise ValueError(f"need at least one node, got m={m}")
    upper_r, upper_c = np.triu_indices(m, 1)
    # Row-major upper-triangle pairs, transposed, are exactly the
    # column-major lower-triangle ordering.
    rows, cols = upper_c.copy(), upper_r.copy()
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


@lru_cache(maxsize=None)
def node_pairs(m: int) -> np.ndarray:
    """(m-1) x m table whose column j lists node j's pair indices in
    increasing order.

    Node j's pairs with smaller nodes, (j, c) for c < j, all precede its
    pairs with larger ones, (r, j) for r > j, in the column-major ordering.
    The table is C-contiguous, cached per m and marked read-only.
    """
    rows, cols = pair_indices(m)
    # A stable sort by node of the concatenated endpoints keeps each node's
    # row-side pairs first and every run in increasing pair index.
    order = np.argsort(np.concatenate([rows, cols]), kind="stable") % rows.size
    table = np.ascontiguousarray(order.reshape(m, m - 1).T)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _column_lengths(m: int) -> np.ndarray:
    """Pairs in each column of the ordering, m-1 down to 1; read-only."""
    lengths = np.arange(m - 1, 0, -1)
    lengths.flags.writeable = False
    return lengths


def degrees(w: np.ndarray, m: int) -> np.ndarray:
    """Weighted degree of each of the m nodes under pair weights w.

    numpy reduces axis 0 of a C-contiguous array one row at a time, so each
    degree adds its pair weights one by one in increasing pair index: the
    same additions, in the same order, as the row sums of the unsigned
    node-pair incidence matrix stored as CSR.  np.add.reduce(axis=0) is the
    routine behind ndarray.sum(axis=0), called without the method's Python
    wrapper; the order is the same.
    """
    return np.add.reduce(w[node_pairs(m)], axis=0)


def pair_sums(d: np.ndarray) -> np.ndarray:
    """d[cols[k]] + d[rows[k]] for every pair k = (rows[k], cols[k]) of a
    node vector d, i.e. the transposed incidence matrix applied to d.

    cols holds node c in one run of m-1-c entries, so repeating d[:-1] by
    the column lengths is d[cols] without the gather.
    """
    rows, _ = pair_indices(d.size)
    return d[:-1].repeat(_column_lengths(d.size)) + d[rows]


def pair_to_linear(i, j, m: int):
    """1-based linear index of the pair (i, j), j < i, under the column-major
    lower-triangle ordering: k = i - j + (j-1)(2m-j)/2.

    i and j are ints or equal-length integer arrays; every pair must be in range.
    """
    if not np.all((1 <= j) & (j < i) & (i <= m)):
        raise ValueError(f"pair ({i},{j}) invalid for m={m}: need 1 <= j < i <= m")
    return i - j + (j - 1) * (2 * m - j) // 2


def expand(w: np.ndarray, m: int) -> np.ndarray:
    """Laplacian L = D - W of the graph on m nodes with pair weights w.

    Off-diagonals are -w_k at the corresponding pair, diagonals are the
    weighted degrees.  The result is symmetric by construction and its rows
    sum to zero up to round-off.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ValueError(f"weight vector must be 1-d, got shape {w.shape}")
    if w.size != edge_count(m):
        raise ValueError(
            f"weight vector has {w.size} entries, expected {edge_count(m)} for m={m}"
        )
    rows, cols = pair_indices(m)
    L = np.zeros((m, m))
    L[rows, cols] = -w
    L[cols, rows] = -w
    L[np.arange(m), np.arange(m)] = degrees(w, m)
    return L


def adjoint(M: np.ndarray) -> np.ndarray:
    """Adjoint of expand applied to a symmetric matrix M.

    Entry k of the result is M_ii - M_ij - M_ji + M_jj for the pair (i, j)
    at linear position k, so an asymmetric M acts through its symmetric
    part; material asymmetry raises a warning.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    m = M.shape[0]
    sym_gap = np.abs(M - M.T).max() if m > 1 else 0.0
    if sym_gap > SYMMETRY_WARN_RTOL * max(1.0, np.abs(M).max()):
        warnings.warn(
            f"adjoint() input asymmetric (max gap {sym_gap:.3g}); symmetrizing",
            stacklevel=2,
        )
    rows, cols = pair_indices(m)
    d = np.diag(M)
    return d[rows] + d[cols] - (M[rows, cols] + M[cols, rows])


def validate_simplex(w: np.ndarray, s: float) -> bool:
    """True iff w >= -VALIDATION_TOL entrywise and |sum(w) - s| <=
    VALIDATION_TOL * max(1, s)."""
    w = np.asarray(w, dtype=float)
    if s <= 0:
        raise ValueError(f"simplex scale must be positive, got s={s}")
    if w.size == 0:
        return False
    return bool(w.min() >= -VALIDATION_TOL and abs(w.sum() - s) <= VALIDATION_TOL * max(1.0, s))


def write_edge_list(path, w: np.ndarray, m: int) -> None:
    """Write the nonzero pair weights as an edge-list text file.

    Format: a header line ``# m=<nodes>`` followed by one ``i j weight`` line
    per nonzero pair, 1-based with i > j, weights at 17 significant digits
    (``%.17g``) so the round-trip through text is exact.
    """
    w = np.asarray(w, dtype=float)
    if w.size != edge_count(m):
        raise ValueError(
            f"weight vector has {w.size} entries, expected {edge_count(m)} for m={m}"
        )
    rows, cols = pair_indices(m)
    k = np.flatnonzero(w)
    newline = (np.frombuffer(b"\n", np.uint8)[None], np.ones((1, 1), bool))
    with open(path, "wb") as fh:
        fh.write(f"# m={m}\n".encode())
        for s in range(0, k.size, _G17_BLOCK):
            pairs = k[s : s + _G17_BLOCK]
            labels = _edge_labels(rows[pairs] + 1, cols[pairs] + 1, len(str(m)))
            fh.write(_format_g17(w[pairs], newline, labels))


def _edge_labels(i: np.ndarray, j: np.ndarray, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(cells, keep) of the text ``f"{i} {j} "`` of each pair, for labels of
    at most ``width`` digits: each label right-aligned in ``width`` cells."""
    cells = np.full((i.size, 2 * width + 2), ord(" "), np.uint8)
    keep = np.ones(cells.shape, bool)
    for first, label in ((0, i), (width + 1, j)):
        for t in range(width):
            power = 10 ** (width - 1 - t)
            cells[:, first + t] = label // power % 10 + ord("0")
            keep[:, first + t] = label >= power
    return cells, keep


def read_edge_list(path) -> tuple[np.ndarray, int]:
    """Parse an edge-list file back into (weights, m).

    One ``np.loadtxt`` call reads the lines after the ``# m=<nodes>`` header.
    Unlisted pairs get weight zero.  Malformed headers or lines, out-of-range
    node labels, i <= j, duplicate pairs, and negative or non-finite weights
    all raise ValueError, naming the first bad line.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    header, _, body = text.partition("\n")
    if not header.startswith("# m="):
        raise ValueError(f"{path}: missing '# m=<nodes>' header")
    count = header[len("# m=") :]
    try:
        # int() alone also takes "1_0" and non-ASCII digits; the body refuses both
        m = int(count if count.isascii() and "_" not in count else "refused")
    except ValueError:
        raise ValueError(f"{path}: unparseable node count in header {_excerpt(header)}") from None
    if m < 2:
        raise ValueError(f"{path}: node count must be at least 2, got {m}")
    lines = body.split("\n")
    parse = partial(_parse_edges, m=m)
    try:
        return parse(lines), m
    except ValueError:
        k = _first_failing_line(parse, lines)
    raise ValueError(f"{path}:{k + 2}: {_edge_line_error(lines[k], m)}")


# Labels are parsed as integers, so "2.0" is refused.
_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


def _parse_edges(lines: list[str], m: int) -> np.ndarray:
    """Pair weights of the edge lines ``lines``; ValueError if any is bad."""
    w = np.zeros(edge_count(m))
    # loadtxt warns on input without data; an edgeless graph has none.
    if not any(map(str.strip, lines)):
        return w
    edges = np.loadtxt(lines, dtype=_EDGE_ROW, comments=None, ndmin=1)
    k = pair_to_linear(edges["i"], edges["j"], m) - 1
    if not np.all((0 <= edges["w"]) & (edges["w"] < math.inf)):
        raise ValueError("weight out of range")
    if np.bincount(k).max() > 1:
        raise ValueError("duplicate pair")
    w[k] = edges["w"]
    return w


def _edge_line_error(line: str, m: int) -> str:
    """Why _parse_edges refuses ``line``, the first line it refuses."""
    if len(line.split()) != 3:
        return f"expected 'i j weight', got {_excerpt(line)}"
    try:
        i, j, weight = np.loadtxt([line], dtype=_EDGE_ROW, comments=None).tolist()
    except ValueError:
        return f"unparseable edge line {_excerpt(line)}"
    if not 0 <= weight < math.inf:
        return f"weight must be finite and nonnegative, got {_excerpt(line)}"
    try:
        pair_to_linear(i, j, m)
    except ValueError as exc:
        return str(exc)
    return f"duplicate pair ({i},{j})"  # the one check that spans lines


def _first_failing_line(parse, lines: list[str]) -> int:
    """Index of the first of ``lines`` that ``parse`` refuses with ValueError:
    the last line of the shortest refused prefix, found by bisection.  Each
    check of ``parse`` applies to one line or, like a repeated pair, stays
    failed on every longer prefix, so the refused prefixes are contiguous."""
    good, bad = 0, len(lines)  # parse(lines[:good]) passes, parse(lines[:bad]) fails
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            parse(lines[:mid])
            good = mid
        except ValueError:
            bad = mid
    return good


# Values per _format_g17 call in the text writers.  Of 1,024, 2,048 and
# 4,096, 2,048 wrote a 100 x 400 signals CSV fastest, and a block's buffers
# (a few hundred kB) add to the peak memory of a process that writes one.
_G17_BLOCK = 2048

# Exact '%.17g' for a block of doubles (``_format_g17``).  10**q is an exact
# double for q <= 22, and Veltkamp's split into 26-bit halves lets Dekker's
# two-product give x * 10**q = p + e with no rounding error.
_POW10 = np.array([float(10**q) for q in range(23)])
_VELTKAMP = 2.0**27 + 1


def _veltkamp(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with hi + lo == a exactly, each of at most 26 significant bits."""
    c = _VELTKAMP * a
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _veltkamp(_POW10)
# The cells a value's text is picked from, and the offsets of the two copies
# of its 17 digits d0..d16 (d1 on a 4-byte boundary for the uint32 writes):
#   '-' '0' _ d0 | d1..d16 | '.' '0' '0' '0' | _ _ _ d0 | d1..d16
# (_ is never kept).  A value of decimal exponent k >= 0 keeps d0..dk from
# the first copy, then '.' and the fraction digits from the second; one with
# k < 0 keeps '0.', -k-1 zeros and the second copy.  Trailing zero digits
# are dropped.
_CELLS = np.frombuffer(b"-0" + b" " * 18 + b".000" + b" " * 20, np.uint8)
_INT, _FRAC = 3, 27


@lru_cache(maxsize=None)
def _g17_tables() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_format_g17's read-only tables (quad_text, quad_end, keep), built on
    first use, so that a process that writes no text file never builds them.

    - quad_text[r]: the four ASCII digits of r in 0..9999 as one uint32, in
      memory order.
    - quad_end[t, r]: one past the last nonzero digit when digits 4t+1..4t+4
      of the 17 are r, and 0 when r == 0 (1 for t == 0: d0 is never zero).
    - keep[((k + 4) * 18 + L) * 2 + (1 if negative else 0)]: which of _CELLS
      the text of a value keeps, as uint32 words, for its decimal exponent k
      in [-4, 15] and L, the count of its 17 digits up to the last nonzero.
    """
    quad = np.arange(10000, dtype=np.int16)
    quad_text = np.ascontiguousarray(
        np.indices((10, 10, 10, 10), np.uint8).reshape(4, -1).T + np.uint8(ord("0"))
    ).view(np.uint32)[:, 0]
    quad_end = np.where(
        quad == 0,
        np.uint8(0),
        np.arange(5, 21, 4, dtype=np.uint8)[:, None]
        - (quad % 10 == 0).astype(np.uint8) - (quad % 100 == 0) - (quad % 1000 == 0),
    )
    quad_end[0, 0] = 1

    k = np.arange(-4, 16)[:, None, None, None]
    last = np.arange(18)[:, None, None]
    i = np.arange(17)
    keep = np.zeros((20, 18, 2, _CELLS.size), bool)
    keep[..., 0] = np.arange(2)
    keep[..., 1] = (k < 0)[..., 0]
    keep[..., _INT : _INT + 17] = i <= k
    keep[..., _INT + 17] = (last > k + 1)[..., 0]
    keep[..., _INT + 18 : _INT + 21] = np.arange(3) < -k - 1
    keep[..., _FRAC : _FRAC + 17] = (k < i) & (i < last)
    tables = quad_text, quad_end, keep.reshape(-1, _CELLS.size).view(np.uint32)
    for table in tables:
        table.flags.writeable = False
    return tables


def _format_exceptional(value: float) -> bytes:
    """'%.17g' of one value outside _format_g17's exact domain."""
    return b"%.17g" % value


def _format_g17(x: np.ndarray, sep: tuple, head: tuple | None = None) -> bytes:
    """The bytes of head[r] + '%.17g' % x[r] + sep[r] for every value x[r] of
    the 1-d float64 block x, as CPython's correctly rounded '%' prints them.

    ``sep`` and ``head`` are (cells, keep) pairs of uint8 and bool arrays of
    shape (x.size or 1, width): row r's text is the cells its keep row marks.

    For 1e-4 <= |x| < 1e16, '%.17g' prints 17 significant digits in fixed
    notation, and its digits are round-half-even(|x| * 10**q) for q = 16 - k,
    k = floor(log10|x|).  The two-product gives x * 10**q = p + e exactly, and
    p >= 1e16 > 2**53 is an even integer, so the rounding is p + rint(e),
    ties to even included.  log10 can be one off near a power of ten, so a
    product outside [1e16, 1e17) is redone with k moved by one.  The rounding
    never carries to 1e17: the double nearest below each power of ten in the
    range lies more than half a unit of the 17th digit away.  Every other
    value (zeros, non-finite values, and those printed with an exponent)
    goes through _format_exceptional.
    """
    quad_text, quad_end, keep_table = _g17_tables()
    n = x.size
    head_cells, head_keep = head if head is not None else (np.empty((1, 0), np.uint8),) * 2
    start = -(-head_cells.shape[1] // 4) * 4  # the value's first cell, 4-aligned
    stop = start + _CELLS.size
    width = stop + -(-sep[0].shape[1] // 4) * 4
    frame = np.empty((n, width), np.uint8)
    keep = np.zeros((n, width), bool)
    frame[:, start - head_cells.shape[1] : start] = head_cells
    keep[:, start - head_cells.shape[1] : start] = head_keep
    frame[:, stop : stop + sep[0].shape[1]] = sep[0]
    keep[:, stop : stop + sep[0].shape[1]] = sep[1]
    words = frame.view(np.uint32)
    words[:, start // 4 : stop // 4] = _CELLS.view(np.uint32)

    a = np.abs(x)
    exact = (1e-4 <= a) & (a < 1e16)
    a = np.where(exact, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    a_hi, a_lo = _veltkamp(a)

    def two_product(rows):
        q = 16 - k[rows]
        p = a[rows] * _POW10[q]
        hi, lo = a_hi[rows], a_lo[rows]
        return p, ((hi * _POW10_HI[q] - p) + hi * _POW10_LO[q] + lo * _POW10_HI[q]) + lo * _POW10_LO[q]

    p, e = two_product(slice(None))
    below = (p < 1e16) | ((p == 1e16) & (e < 0))
    above = (p > 1e17) | ((p == 1e17) & (e >= 0))
    redo = np.flatnonzero(below | above)
    k[redo] += np.where(above[redo], 1, -1)
    p[redo], e[redo] = two_product(redo)
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)

    # four digits at a time, from d13..d16 up, into both copies
    last = None
    for t in range(3, -1, -1):
        rest = digits // 10000
        quad = digits - 10000 * rest
        words[:, (start + _INT + 1) // 4 + t] = words[:, (start + _FRAC + 1) // 4 + t] = quad_text[quad]
        end = quad_end[t, quad]
        last = end if last is None else np.maximum(last, end)
        digits = rest
    frame[:, start + _INT] = frame[:, start + _FRAC] = digits + ord("0")
    keep.view(np.uint32)[:, start // 4 : stop // 4] = keep_table[((k + 4) * 18 + last) * 2 + (x < 0)]

    for r in np.flatnonzero(~exact):
        text = _format_exceptional(float(x[r]))
        frame[r, start : start + len(text)] = np.frombuffer(text, np.uint8)
        keep[r, start:stop] = np.arange(_CELLS.size) < len(text)
    return frame[keep].tobytes()


def _excerpt(line: str) -> str:
    """repr of line for an error message, cut after 80 characters and then
    followed by the line's length, so a huge field cannot flood the message."""
    return repr(line) if len(line) <= 80 else f"{line[:80]!r}... ({len(line)} characters)"
