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
from dataclasses import dataclass

import numpy as np

DEFAULT_REL_THRESHOLD = 0.01


@dataclass(frozen=True)
class EdgeConfusion:
    tp: int
    fp: int
    fn: int
    tn: int


@dataclass(frozen=True)
class PrfScores:
    precision: float
    recall: float
    f_measure: float
    degenerate: bool


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


def confusion(pred: np.ndarray, truth: np.ndarray) -> EdgeConfusion:
    """Pairwise confusion counts between boolean indicator vectors.

    Three reductions count tp, |pred| and |truth|; fp, fn and tn follow by
    subtraction.
    """
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape} vs truth {truth.shape}")
    tp = int(np.count_nonzero(pred & truth))
    fp = int(np.count_nonzero(pred)) - tp
    fn = int(np.count_nonzero(truth)) - tp
    return EdgeConfusion(tp, fp, fn, pred.size - tp - fp - fn)


def prf(c: EdgeConfusion) -> PrfScores:
    """Precision, recall, and F-measure with explicit 0/0 handling."""
    degenerate = False
    if c.tp + c.fp > 0:
        precision = c.tp / (c.tp + c.fp)
    else:
        precision, degenerate = 0.0, True
    if c.tp + c.fn > 0:
        recall = c.tp / (c.tp + c.fn)
    else:
        recall, degenerate = 0.0, True
    if precision + recall > 0:
        f_measure = 2.0 * precision * recall / (precision + recall)
    else:
        f_measure, degenerate = 0.0, True
    return PrfScores(precision, recall, f_measure, degenerate)


def nmi(pred: np.ndarray, truth: np.ndarray) -> float:
    """Normalized mutual information 2 I / (H(truth) + H(pred)), natural log.

    When either indicator has zero entropy the ratio is defined by
    convention: 1 if the vectors are identical, else 0.
    """
    return _nmi(confusion(pred, truth))


def _nmi(c: EdgeConfusion) -> float:
    """nmi from the confusion counts; the indicator vectors are identical
    exactly when fp == fn == 0."""
    total = c.tp + c.fp + c.fn + c.tn
    if total == 0:
        raise ValueError("empty indicator vectors")
    joint = np.array([[c.tn, c.fn], [c.fp, c.tp]], dtype=float) / total
    p_pred = joint.sum(axis=1)
    p_truth = joint.sum(axis=0)
    h_pred = _entropy(p_pred)
    h_truth = _entropy(p_truth)
    if h_pred == 0.0 or h_truth == 0.0:
        return 1.0 if c.fp == c.fn == 0 else 0.0
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
    """Flat record of every edge-recovery metric for a learned weight vector,
    all from one confusion count."""
    c = confusion(binarize(w_pred, rel_threshold), truth_mask)
    scores = prf(c)
    return {
        "precision": scores.precision,
        "recall": scores.recall,
        "f_measure": scores.f_measure,
        "nmi": _nmi(c),
        "tp": c.tp,
        "fp": c.fp,
        "fn": c.fn,
        "tn": c.tn,
        "threshold": rel_threshold,
        "degenerate": scores.degenerate,
    }
