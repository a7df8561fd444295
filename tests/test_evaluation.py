import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mugl.evaluation import binarize, metric_record, nmi
from oracles import indicator_pair


def counts(pred, truth):
    """(tp, fp, fn, tn) of metric_record on boolean indicator vectors."""
    record = metric_record(pred, truth)
    return record["tp"], record["fp"], record["fn"], record["tn"]


def scores(tp, fp, fn, tn):
    """metric_record on indicator vectors with these confusion counts."""
    return metric_record(*indicator_pair(tp, fp, fn, tn))


def test_binarize_examples():
    assert binarize(np.array([1.0, 0.0, 0.0])).tolist() == [True, False, False]
    assert binarize(np.zeros(4)).tolist() == [False] * 4
    assert binarize(np.array([1.0, 0.5, 0.004])).tolist() == [True, True, False]


def test_binarize_threshold_is_strict():
    # entries exactly at rel_threshold * max are dropped
    assert binarize(np.array([1.0, 0.01]), rel_threshold=0.01).tolist() == [True, False]


def test_binarize_rejects_bad_threshold():
    for tau in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            binarize(np.ones(3), rel_threshold=tau)


def test_confusion_examples():
    pred = np.array([True, True, False])
    truth = np.array([True, False, True])
    assert counts(pred, truth) == (1, 1, 1, 0)
    assert counts(truth, truth) == (2, 0, 0, 1)
    assert counts(~truth, truth) == (0, 1, 2, 0)
    # the builder the ratio tests score
    for c in [(2, 1, 1, 3), (0, 0, 5, 2), (5, 0, 0, 2), (0, 4, 0, 0), (3, 0, 2, 0)]:
        assert counts(*indicator_pair(*c)) == c


def test_confusion_matches_four_reductions():
    # fp, fn and tn come by subtraction from tp, |pred| and |truth|
    rng = np.random.default_rng(3)
    for p in (1, 10, 190, 4950):
        for _ in range(20):
            pred = rng.random(p) < rng.random()
            truth = rng.random(p) < rng.random()
            want = (
                int(np.sum(pred & truth)),
                int(np.sum(pred & ~truth)),
                int(np.sum(~pred & truth)),
                int(np.sum(~pred & ~truth)),
            )
            assert counts(pred, truth) == want


def test_confusion_length_mismatch():
    with pytest.raises(ValueError, match=r"shape mismatch: pred \(3,\) vs truth \(4,\)"):
        metric_record(np.ones(3, bool), np.ones(4, bool))


def test_prf_examples():
    record = scores(tp=2, fp=1, fn=1, tn=3)
    assert record["precision"] == pytest.approx(2 / 3)
    assert record["recall"] == pytest.approx(2 / 3)
    assert record["f_measure"] == pytest.approx(2 / 3)
    assert not record["degenerate"]

    perfect = scores(tp=5, fp=0, fn=0, tn=2)
    assert (perfect["precision"], perfect["recall"], perfect["f_measure"]) == (1.0, 1.0, 1.0)

    empty_pred = scores(tp=0, fp=0, fn=5, tn=2)
    assert empty_pred["precision"] == 0.0
    assert empty_pred["recall"] == 0.0
    assert empty_pred["f_measure"] == 0.0
    assert empty_pred["degenerate"]


@pytest.mark.parametrize("tp, fp, fn, tn, degenerate", [
    (0, 0, 5, 2, True),  # empty prediction: precision and F are 0/0
    (0, 3, 0, 4, True),  # empty truth: recall and F are 0/0
    (0, 3, 2, 4, True),  # disjoint prediction: F is 0/0
    (1, 3, 2, 4, False),  # one shared edge: every ratio is defined
])
def test_undefined_ratios_read_zero_and_flag_the_record(tp, fp, fn, tn, degenerate):
    record = scores(tp, fp, fn, tn)
    assert record["degenerate"] is degenerate
    if degenerate:
        assert (record["precision"], record["recall"], record["f_measure"]) == (0.0, 0.0, 0.0)
    else:
        assert (record["precision"], record["recall"]) == (0.25, 1 / 3)
        assert record["f_measure"] == pytest.approx(2 / 7)


def test_prf_harmonic_identity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tp, fp, fn = (int(v) for v in rng.integers(0, 20, size=3))
        record = scores(tp, fp, fn, tn=0)
        precision, recall = record["precision"], record["recall"]
        if precision + recall > 0:
            want = 2 * precision * recall / (precision + recall)
            assert record["f_measure"] == pytest.approx(want)
        for value in (precision, recall, record["f_measure"]):
            assert 0.0 <= value <= 1.0


def test_nmi_identical_labelings():
    both = np.array([True, True, False, False, True])
    assert nmi(*counts(both, both)) == pytest.approx(1.0)
    # zero-entropy convention: identical constant labelings score 1
    flat = np.zeros(6, bool)
    assert nmi(*counts(flat, flat)) == 1.0
    assert nmi(*counts(~flat, flat)) == 0.0


def test_nmi_rejects_an_empty_confusion():
    with pytest.raises(ValueError, match="empty indicator vectors"):
        nmi(0, 0, 0, 0)


def test_nmi_independent_labelings():
    pred = np.array([True, True, False, False])
    truth = np.array([True, False, True, False])
    assert nmi(*counts(pred, truth)) == pytest.approx(0.0, abs=1e-12)


def test_nmi_balanced_uniform_table_is_zero():
    pred = np.array([True] * 8 + [False] * 8)
    truth = np.array(([True] * 4 + [False] * 4) * 2)
    # joint counts are [[4, 4], [4, 4]], so the labelings share nothing
    assert nmi(*counts(pred, truth)) == pytest.approx(0.0, abs=1e-12)


def test_nmi_matches_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pred = rng.random(30) < rng.random()
        truth = rng.random(30) < rng.random()
        table = np.array([
            [np.sum(~pred & ~truth), np.sum(~pred & truth)],
            [np.sum(pred & ~truth), np.sum(pred & truth)],
        ], dtype=float)
        p = table / table.sum()
        px, py = p.sum(axis=1), p.sum(axis=0)
        hx = -sum(v * math.log(v) for v in px if v > 0)
        hy = -sum(v * math.log(v) for v in py if v > 0)
        mi = sum(
            p[i, j] * math.log(p[i, j] / (px[i] * py[j]))
            for i in range(2) for j in range(2) if p[i, j] > 0
        )
        if hx > 0 and hy > 0:
            assert nmi(*counts(pred, truth)) == pytest.approx(2 * mi / (hx + hy), abs=1e-12)


def test_nmi_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pred = rng.random(25) < 0.4
        truth = rng.random(25) < 0.6
        assert abs(nmi(*counts(pred, truth)) - nmi(*counts(truth, pred))) <= 1e-12


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40),
       st.randoms(use_true_random=False))
def test_nmi_permutation_invariant(pairs, rand):
    pred = np.array([a for a, _ in pairs])
    truth = np.array([b for _, b in pairs])
    order = list(range(len(pairs)))
    rand.shuffle(order)
    base = nmi(*counts(pred, truth))
    assert nmi(*counts(pred[order], truth[order])) == pytest.approx(base, abs=1e-12)


def test_metric_record_contents():
    w_true = np.array([1.0, 0.0, 0.8])
    w_learned = np.array([0.9, 0.2, 0.0])
    record = metric_record(w_learned, binarize(w_true))
    assert list(record) == [
        "precision", "recall", "f_measure", "nmi", "tp", "fp", "fn", "tn", "threshold", "degenerate",
    ]
    assert record["tp"] == 1 and record["fp"] == 1 and record["fn"] == 1
    assert record["tn"] == 0
    assert record["threshold"] == pytest.approx(0.01)
    assert record["precision"] == pytest.approx(0.5)
    assert record["recall"] == pytest.approx(0.5)
    assert record["f_measure"] == pytest.approx(0.5)
    assert record["degenerate"] is False
    assert 0.0 <= record["nmi"] <= 1.0
