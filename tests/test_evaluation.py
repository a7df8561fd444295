import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mugl.evaluation import EdgeConfusion, binarize, confusion, metric_record, nmi, prf


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
    assert confusion(pred, truth) == EdgeConfusion(tp=1, fp=1, fn=1, tn=0)
    assert confusion(truth, truth) == EdgeConfusion(tp=2, fp=0, fn=0, tn=1)
    assert confusion(~truth, truth) == EdgeConfusion(tp=0, fp=1, fn=2, tn=0)


def test_confusion_matches_four_reductions():
    # fp, fn and tn come by subtraction from tp, |pred| and |truth|
    rng = np.random.default_rng(3)
    for p in (1, 10, 190, 4950):
        for _ in range(20):
            pred = rng.random(p) < rng.random()
            truth = rng.random(p) < rng.random()
            want = EdgeConfusion(
                tp=int(np.sum(pred & truth)),
                fp=int(np.sum(pred & ~truth)),
                fn=int(np.sum(~pred & truth)),
                tn=int(np.sum(~pred & ~truth)),
            )
            assert confusion(pred, truth) == want


def test_confusion_length_mismatch():
    with pytest.raises(ValueError):
        confusion(np.ones(3, bool), np.ones(4, bool))


def test_prf_examples():
    scores = prf(EdgeConfusion(tp=2, fp=1, fn=1, tn=3))
    assert scores.precision == pytest.approx(2 / 3)
    assert scores.recall == pytest.approx(2 / 3)
    assert scores.f_measure == pytest.approx(2 / 3)
    assert not scores.degenerate

    perfect = prf(EdgeConfusion(tp=5, fp=0, fn=0, tn=2))
    assert (perfect.precision, perfect.recall, perfect.f_measure) == (1.0, 1.0, 1.0)

    empty_pred = prf(EdgeConfusion(tp=0, fp=0, fn=5, tn=2))
    assert empty_pred.precision == 0.0
    assert empty_pred.recall == 0.0
    assert empty_pred.f_measure == 0.0
    assert empty_pred.degenerate


def test_prf_harmonic_identity():
    rng = np.random.default_rng(0)
    for _ in range(200):
        tp, fp, fn = (int(v) for v in rng.integers(0, 20, size=3))
        scores = prf(EdgeConfusion(tp, fp, fn, tn=0))
        if scores.precision + scores.recall > 0:
            want = 2 * scores.precision * scores.recall / (scores.precision + scores.recall)
            assert scores.f_measure == pytest.approx(want)
        for value in (scores.precision, scores.recall, scores.f_measure):
            assert 0.0 <= value <= 1.0


def test_nmi_identical_labelings():
    both = np.array([True, True, False, False, True])
    assert nmi(both, both) == pytest.approx(1.0)
    # zero-entropy convention: identical constant labelings score 1
    flat = np.zeros(6, bool)
    assert nmi(flat, flat) == 1.0
    assert nmi(~flat, flat) == 0.0


def test_nmi_independent_labelings():
    pred = np.array([True, True, False, False])
    truth = np.array([True, False, True, False])
    assert nmi(pred, truth) == pytest.approx(0.0, abs=1e-12)


def test_nmi_balanced_uniform_table_is_zero():
    pred = np.array([True] * 8 + [False] * 8)
    truth = np.array(([True] * 4 + [False] * 4) * 2)
    # joint counts are [[4, 4], [4, 4]], so the labelings share nothing
    assert nmi(pred, truth) == pytest.approx(0.0, abs=1e-12)


def test_nmi_matches_direct_formula():
    rng = np.random.default_rng(7)
    for _ in range(100):
        pred = rng.random(30) < rng.random()
        truth = rng.random(30) < rng.random()
        counts = np.array([
            [np.sum(~pred & ~truth), np.sum(~pred & truth)],
            [np.sum(pred & ~truth), np.sum(pred & truth)],
        ], dtype=float)
        p = counts / counts.sum()
        px, py = p.sum(axis=1), p.sum(axis=0)
        hx = -sum(v * math.log(v) for v in px if v > 0)
        hy = -sum(v * math.log(v) for v in py if v > 0)
        mi = sum(
            p[i, j] * math.log(p[i, j] / (px[i] * py[j]))
            for i in range(2) for j in range(2) if p[i, j] > 0
        )
        if hx > 0 and hy > 0:
            assert nmi(pred, truth) == pytest.approx(2 * mi / (hx + hy), abs=1e-12)


def test_nmi_symmetry():
    rng = np.random.default_rng(11)
    for _ in range(50):
        pred = rng.random(25) < 0.4
        truth = rng.random(25) < 0.6
        assert abs(nmi(pred, truth) - nmi(truth, pred)) <= 1e-12


@given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=40),
       st.randoms(use_true_random=False))
def test_nmi_permutation_invariant(pairs, rand):
    pred = np.array([a for a, _ in pairs])
    truth = np.array([b for _, b in pairs])
    order = list(range(len(pairs)))
    rand.shuffle(order)
    base = nmi(pred, truth)
    assert nmi(pred[order], truth[order]) == pytest.approx(base, abs=1e-12)


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
