"""Edge-recovery scoring: binarization, confusion counts, precision/recall/F,
and normalized mutual information between edge indicators.

All metrics see the graph as a set of m(m-1)/2 binary pair decisions.
Learned weight vectors are binarized relative to their largest entry, so the
rule is scale-free.  Degenerate 0/0 ratios are reported as 0 together with a
flag rather than raising, since empty predictions are a legitimate solver
outcome worth recording.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_REL_THRESHOLD = 0.01


def check_threshold(rel_threshold: float) -> None:
    """Raise ValueError unless rel_threshold lies in [0, 1)."""
    if not 0 <= rel_threshold < 1:
        raise ValueError(f"relative threshold must lie in [0, 1), got {rel_threshold}")


def binarize(w: np.ndarray, rel_threshold: float = DEFAULT_REL_THRESHOLD) -> np.ndarray:
    """Edge indicators: True where w_k strictly exceeds rel_threshold * max(w).

    An all-zero vector yields no edges.
    """
    w = np.asarray(w, dtype=float)
    check_threshold(rel_threshold)
    return w > rel_threshold * float(w.max(initial=0.0))


def nmi(tp: int, fp: int, fn: int, tn: int) -> float:
    """Normalized mutual information 2 I / (H(truth) + H(pred)), natural log,
    between the indicator vectors behind the confusion counts.

    When either indicator has zero entropy the ratio is defined by
    convention: 1 if the vectors are identical (exactly when fp == fn == 0),
    else 0.
    """
    total = tp + fp + fn + tn
    if total == 0:
        raise ValueError("empty indicator vectors")
    joint = np.array([[tn, fn], [fp, tp]], dtype=float) / total
    p_pred = joint.sum(axis=1)
    p_truth = joint.sum(axis=0)
    h_pred = _entropy(p_pred)
    h_truth = _entropy(p_truth)
    if h_pred == 0.0 or h_truth == 0.0:
        return 1.0 if fp == fn == 0 else 0.0
    mi = 0.0
    for a in range(2):
        for b in range(2):
            if joint[a, b] > 0:
                mi += joint[a, b] * math.log(joint[a, b] / (p_pred[a] * p_truth[b]))
    return 2.0 * mi / (h_truth + h_pred)


def _entropy(p: np.ndarray) -> float:
    nz = p[p > 0]
    return float(-(nz * np.log(nz)).sum())


def metric_record(
    w_pred: np.ndarray,
    truth_mask: np.ndarray,
    rel_threshold: float = DEFAULT_REL_THRESHOLD,
) -> dict:
    """Flat record of every edge-recovery metric for a learned weight vector.

    Three reductions count tp, |pred| and |truth|; fp, fn and tn follow by
    subtraction.  A 0/0 ratio reads 0 and sets degenerate.
    """
    pred = binarize(w_pred, rel_threshold)
    truth = np.asarray(truth_mask, dtype=bool)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    tn = pred.size - tp - fp - fn
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    if precision + recall > 0:
        f_measure = 2.0 * precision * recall / (precision + recall)
    else:
        f_measure = 0.0
    return {
        "precision": precision,
        "recall": recall,
        "f_measure": f_measure,
        "nmi": nmi(tp, fp, fn, tn),
        "tp": tp,
        "fp": fp,
        "fn": fn,
        "tn": tn,
        "threshold": rel_threshold,
        # tp == 0 makes F 0/0, and precision or recall too where its denominator is 0
        "degenerate": tp == 0,
    }
