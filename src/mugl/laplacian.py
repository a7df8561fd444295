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
    edges = zip((rows[k] + 1).tolist(), (cols[k] + 1).tolist(), w[k].tolist())
    with open(path, "w") as fh:
        fh.write(f"# m={m}\n")
        fh.writelines("%d %d %.17g\n" % edge for edge in edges)


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


def _excerpt(line: str) -> str:
    """repr of line for an error message, cut after 80 characters and then
    followed by the line's length, so a huge field cannot flood the message."""
    return repr(line) if len(line) <= 80 else f"{line[:80]!r}... ({len(line)} characters)"
