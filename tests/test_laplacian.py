import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from mugl.laplacian import (
    adjoint,
    degrees,
    edge_count,
    expand,
    node_pairs,
    pair_indices,
    pair_sums,
    pair_to_linear,
    read_edge_list,
    validate_simplex,
    write_edge_list,
)
from oracles import (
    degrees_in_pair_order,
    is_laplacian,
    linear_to_pair,
    pair_sums_in_pair_order,
    spread_weights,
)


def test_edge_count():
    assert [edge_count(m) for m in range(1, 6)] == [0, 1, 3, 6, 10]
    with pytest.raises(ValueError):
        edge_count(0)


def test_pair_to_linear_examples():
    assert pair_to_linear(2, 1, 3) == 1
    assert pair_to_linear(3, 2, 3) == 3
    assert pair_to_linear(3, 1, 4) == 2
    k = pair_to_linear(np.array([2, 3, 3]), np.array([1, 2, 1]), 4)
    assert k.tolist() == [1, 4, 2]


def test_pair_to_linear_rejects_bad_pairs():
    for i, j in [(1, 1), (2, 3), (5, 1)]:
        with pytest.raises(ValueError):
            pair_to_linear(i, j, 4)
        with pytest.raises(ValueError):
            pair_to_linear(np.array([3, i]), np.array([1, j]), 4)


def test_index_bijection_round_trip():
    for m in range(2, 9):
        seen = set()
        for j in range(1, m):
            for i in range(j + 1, m + 1):
                k = pair_to_linear(i, j, m)
                assert 1 <= k <= edge_count(m)
                assert linear_to_pair(k, m) == (i, j)
                seen.add(k)
        assert len(seen) == edge_count(m)


def test_pair_indices_are_column_major_and_read_only():
    rows, cols = pair_indices(4)
    assert list(zip(rows + 1, cols + 1)) == [(2, 1), (3, 1), (4, 1), (3, 2), (4, 2), (4, 3)]
    with pytest.raises(ValueError):
        rows[0] = 9


def test_node_pairs_lists_each_nodes_pairs_in_increasing_order_and_is_read_only():
    # pairs of m=4 in order: (2,1) (3,1) (4,1) (3,2) (4,2) (4,3), 1-based
    table = node_pairs(4)
    assert table.tolist() == [[0, 0, 1, 2], [1, 3, 3, 4], [2, 4, 5, 5]]
    assert table.flags.c_contiguous
    assert node_pairs(4) is table
    with pytest.raises(ValueError):
        table[0, 0] = 9


@pytest.mark.parametrize("m", [2, 3, 20, 101, 300])
def test_degrees_and_pair_sums_match_pair_order_oracle(m):
    rng = np.random.default_rng(m)
    for _ in range(3):
        w = spread_weights(rng, edge_count(m))
        assert np.array_equal(degrees(w, m), degrees_in_pair_order(w, m))
        d = spread_weights(rng, m) * rng.choice([-1.0, 1.0], m)
        assert np.array_equal(pair_sums(d), pair_sums_in_pair_order(d))


def test_expand_single_edge():
    L = expand(np.array([1.0, 0.0, 0.0]), 3)
    assert np.array_equal(L, [[1, -1, 0], [-1, 1, 0], [0, 0, 0]])


def test_expand_empty_graph():
    assert np.array_equal(expand(np.zeros(3), 3), np.zeros((3, 3)))


def test_expand_weighted_triangle():
    L = expand(np.array([1.0, 2.0, 3.0]), 3)
    assert np.array_equal(L, [[3, -1, -2], [-1, 4, -3], [-2, -3, 5]])


def test_expand_rejects_bad_lengths():
    with pytest.raises(ValueError, match="4 entries, expected 3 for m=3"):
        expand(np.zeros(4), 3)
    with pytest.raises(ValueError, match="3 entries, expected 6 for m=4"):
        expand(np.zeros(3), 4)
    with pytest.raises(ValueError, match=r"must be 1-d, got shape \(3, 1\)"):
        expand(np.zeros((3, 1)), 3)


def test_adjoint_identity():
    assert np.array_equal(adjoint(np.eye(3)), [2.0, 2.0, 2.0])


def test_adjoint_off_diagonal():
    assert np.array_equal(adjoint(np.array([[0.0, 1.0], [1.0, 0.0]])), [-2.0])


def test_adjoint_warns_on_material_asymmetry():
    M = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.warns(UserWarning):
        out = adjoint(M)
    # symmetrized to [[0, .5], [.5, 0]]
    assert np.allclose(out, [-1.0])


def test_adjoint_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match=r"square matrix, got shape \(2, 3\)"):
        adjoint(np.zeros((2, 3)))
    with pytest.raises(ValueError, match=r"square matrix, got shape \(3,\)"):
        adjoint(np.zeros(3))


def test_adjointness_identity_random():
    rng = np.random.default_rng(7)
    for m in range(2, 11):
        for _ in range(100):
            w = rng.standard_normal(edge_count(m))
            M = rng.standard_normal((m, m))
            M = M + M.T
            lhs = float(np.trace(expand(w, m) @ M))
            rhs = float(w @ adjoint(M))
            assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@given(m=st.sampled_from([2, 3, 4, 5]), data=st.data())
def test_expand_linearity_and_trace(m, data):
    w = data.draw(hnp.arrays(np.float64, edge_count(m), elements=st.floats(-5, 5, allow_nan=False)))
    a, b = 0.7, -1.3
    w2 = np.ones_like(w)
    assert np.allclose(expand(a * w + b * w2, m), a * expand(w, m) + b * expand(w2, m), atol=1e-12)
    assert np.isclose(np.trace(expand(w, m)), 2.0 * w.sum(), atol=1e-9 * max(1.0, abs(w).sum()))


def test_membership_equivalence():
    rng = np.random.default_rng(11)
    s = 2.5
    for _ in range(50):
        w = rng.random(6)
        w *= s / w.sum()
        L = expand(w, 4)
        assert validate_simplex(w, s)
        assert is_laplacian(L)
        assert np.isclose(np.trace(L), 2 * s)
    # negative weight breaks both sides
    w_bad = np.array([3.0, -0.5, 0.0, 0.0, 0.0, 0.0])
    assert not validate_simplex(w_bad, s)
    assert not is_laplacian(expand(w_bad, 4))


def test_frobenius_lower_bound_on_simplex():
    rng = np.random.default_rng(13)
    for m in (3, 5, 8):
        s = 4.0
        for _ in range(50):
            w = rng.random(edge_count(m))
            w *= s / w.sum()
            assert np.linalg.norm(expand(w, m)) >= 2 * s / np.sqrt(m) - 1e-12


def test_validate_simplex_examples():
    assert validate_simplex(np.array([0.5, 0.5, 0.0]), 1.0)
    assert not validate_simplex(np.array([0.5, 0.6, 0.0]), 1.0)
    assert not validate_simplex(np.array([1.0, -1e-3, 0.0]), 0.999)
    with pytest.raises(ValueError):
        validate_simplex(np.array([1.0]), 0.0)
    assert not validate_simplex(np.zeros(0), 1.0)


def test_is_laplacian_rejects_positive_off_diagonal():
    L = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert not is_laplacian(L)
    assert not is_laplacian(np.zeros((2, 3)))


@given(
    idx=st.lists(st.integers(0, 9), min_size=0, max_size=6, unique=True),
    vals=st.lists(st.floats(1e-3, 1e3), min_size=6, max_size=6),
)
def test_edge_list_round_trip(tmp_path_factory, idx, vals):
    w = np.zeros(10)
    for k, x in zip(idx, vals):
        w[k] = x
    path = tmp_path_factory.mktemp("edges") / "g.edges"
    write_edge_list(path, w, 5)
    w2, m2 = read_edge_list(path)
    assert m2 == 5
    assert np.array_equal(w, w2)


def test_edge_list_format(tmp_path):
    path = tmp_path / "g.edges"
    write_edge_list(path, np.array([0.25, 0.0, 1.0]), 3)
    lines = path.read_text().splitlines()
    assert lines[0] == "# m=3"
    assert lines[1].split() == ["2", "1", "0.25"]
    assert lines[2].split() == ["3", "2", "1"]


def test_write_edge_list_rejects_a_size_mismatch(tmp_path):
    path = tmp_path / "g.edges"
    with pytest.raises(ValueError, match="4 entries, expected 3 for m=3"):
        write_edge_list(path, np.zeros(4), 3)
    assert not path.exists()


def test_read_edge_list_errors(tmp_path):
    cases = {
        "no_header.edges": ("1 2 0.5\n", "header"),
        "bad_line.edges": ("# m=3\n2 1\n", "expected"),
        "bad_number.edges": ("# m=3\n2 1 abc\n", "unparseable"),
        "upper_pair.edges": ("# m=3\n1 2 0.5\n", "invalid"),
        "out_of_range.edges": ("# m=3\n4 1 0.5\n", "invalid"),
        "duplicate.edges": ("# m=3\n2 1 0.5\n2 1 0.25\n", "duplicate"),
        "nan_weight.edges": ("# m=3\n2 1 nan\n", "finite and nonnegative"),
        "negative_weight.edges": ("# m=3\n2 1 -5\n", "finite and nonnegative"),
    }
    for name, (text, needle) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ValueError, match=needle):
            read_edge_list(path)


@pytest.mark.parametrize("pad", ["", "\xa0"], ids=["ascii", "non_ascii"])
@pytest.mark.parametrize("brk", list("\v\f\x1c\x1d\x1e\x85\u2028\u2029"))
def test_read_edge_list_splits_lines_at_every_line_break(tmp_path, brk, pad):
    # str.splitlines() ends the line at brk, leaving two short lines; the
    # whitespace split of the bulk parser alone would see one valid edge
    path = tmp_path / "g.edges"
    path.write_text(f"# m=3\n2 1{brk}0.5{pad}\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r":2: expected 'i j weight'"):
        read_edge_list(path)


def test_read_edge_list_cites_line_numbers(tmp_path):
    path = tmp_path / "dup.edges"
    path.write_text("# m=3\n2 1 0.5\n\n2 1 0.25\n")
    with pytest.raises(ValueError, match=r":4:"):
        read_edge_list(path)


@pytest.mark.parametrize("text, where", [
    ("# m=" + "x" * 200_000 + "\n", ": unparseable node count"),
    ("# m=3\n2 1 " + "1" * 200_000 + "\n", ":2: weight must be finite"),
    ("# m=3\n2 1 " + "x" * 200_000 + "\n", ":2: unparseable edge line"),
    ("# m=3\n2 1 0.5 " + "7" * 200_000 + "\n", ":2: expected 'i j weight'"),
], ids=["header", "weight", "unparseable", "fields"])
def test_read_edge_list_quotes_a_bounded_excerpt(tmp_path, text, where):
    path = tmp_path / "big.edges"
    path.write_text(text)
    with pytest.raises(ValueError) as exc:
        read_edge_list(path)
    message = str(exc.value)
    assert message.startswith(f"{path}{where}")
    assert f"... ({len(text.splitlines()[-1])} characters)" in message
    assert len(message) < 300
