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
"""

from __future__ import annotations

import io
import math
import re
import warnings
from functools import lru_cache

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
    at linear position k.  Inputs that are only asymmetric at round-off are
    symmetrized silently; material asymmetry additionally raises a warning.
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
    S = 0.5 * (M + M.T)
    rows, cols = pair_indices(m)
    d = np.diag(S)
    return d[rows] + d[cols] - 2.0 * S[rows, cols]


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

    Unlisted pairs get weight zero.  Malformed headers or lines, out-of-range
    node labels, i <= j, duplicate pairs, and negative or non-finite weights
    all raise ValueError with the offending line number.
    """
    try:
        return _load_edge_list_bulk(path)
    except ValueError:
        # Anything the bulk parser rejects is re-read line by line, which
        # either accepts it or names the failing line.
        return _read_edge_list_rows(path)


# Labels are parsed as integers, so "2.0" fails here as it fails int().
_EDGE_ROW = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])

# Line breaks of str.splitlines() other than "\n" ("\r" is already
# translated on reading).  loadtxt splits fields at them instead.
_OTHER_LINE_BREAKS = re.compile("[\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


def _has_other_line_break(text: str) -> bool:
    """True when text holds one of _OTHER_LINE_BREAKS.  ASCII text (a
    constant-time test) can hold only the first five, found by ``in``."""
    if text.isascii():
        return "\v" in text or "\f" in text or "\x1c" in text or "\x1d" in text or "\x1e" in text
    return _OTHER_LINE_BREAKS.search(text) is not None


def _load_edge_list_bulk(path) -> tuple[np.ndarray, int]:
    """Parse a well-formed edge list with one ``np.loadtxt`` call.

    Raises ValueError on every input it cannot vouch for; what it does return
    equals ``_read_edge_list_rows``'s result bit for bit.
    """
    with open(path) as fh:
        text = fh.read()
    header, _, body = text.partition("\n")
    if not header.startswith("# m=") or _has_other_line_break(text):
        raise ValueError("not a plain edge list")
    m = int(header[len("# m=") :])
    w = np.zeros(edge_count(m))
    # loadtxt warns on a body without data; an edgeless graph has none.
    if not body or body.isspace():
        return w, m
    edges = np.loadtxt(io.StringIO(body), dtype=_EDGE_ROW, comments=None, ndmin=1)
    k = pair_to_linear(edges["i"], edges["j"], m) - 1
    weight = edges["w"]
    if not np.all((0 <= weight) & (weight < math.inf)):
        raise ValueError("weight out of range")
    # O(p) duplicate test: k repeats a pair exactly when it marks fewer
    # distinct pairs than it has entries
    seen = np.zeros(w.size, dtype=bool)
    seen[k] = True
    if np.count_nonzero(seen) != k.size:
        raise ValueError("duplicate pair")
    w[k] = weight
    return w, m


def _excerpt(line: str) -> str:
    """repr of line for an error message, cut after 80 characters and then
    followed by the line's length, so a huge field cannot flood the message."""
    if len(line) <= 80:
        return repr(line)
    return f"{line[:80]!r}... ({len(line)} characters)"


def _read_edge_list_rows(path) -> tuple[np.ndarray, int]:
    """Line-by-line parse of an edge list, citing the line of any error."""
    with open(path) as fh:
        raw = fh.read().splitlines()
    if not raw or not raw[0].startswith("# m="):
        raise ValueError(f"{path}: missing '# m=<nodes>' header")
    try:
        m = int(raw[0][len("# m=") :])
    except ValueError:
        raise ValueError(
            f"{path}: unparseable node count in header {_excerpt(raw[0])}"
        ) from None
    if m < 1:
        raise ValueError(f"{path}: node count must be positive, got {m}")
    w = np.zeros(edge_count(m))
    seen = set()
    for lineno, line in enumerate(raw[1:], start=2):
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'i j weight', got {_excerpt(line)}")
        try:
            i, j, weight = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: unparseable edge line {_excerpt(line)}") from None
        if not 0 <= weight < math.inf:
            raise ValueError(
                f"{path}:{lineno}: weight must be finite and nonnegative, "
                f"got {_excerpt(line)}"
            )
        try:
            k = pair_to_linear(i, j, m)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
        if k in seen:
            raise ValueError(f"{path}:{lineno}: duplicate pair ({i},{j})")
        seen.add(k)
        w[k - 1] = weight
    return w, m
