"""ROC curve and AUC via a descending-threshold sweep.

Tied scores collapse into a single threshold step, which makes the
trapezoid area equal to the pairwise probability
P(score_pos > score_neg) + 0.5 * P(equal).
"""
from __future__ import annotations

import numpy as np


def roc_auc(scores, labels) -> tuple[list[tuple[float, float]], float]:
    """ROC points ((fpr, tpr) from (0,0) to (1,1)) and the trapezoid AUC.

    ``labels`` are truthy for the positive class; raises on single-class
    input.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels).astype(bool)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-D and the same length")
    if np.isnan(scores).any():
        # NaN equals no threshold, so the sweep below would never advance
        raise ValueError("ROC needs scores that are not NaN")
    pos = int(labels.sum())
    neg = int(labels.size - pos)
    if pos == 0 or neg == 0:
        raise ValueError("ROC needs at least one positive and one negative")

    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    points = [(0.0, 0.0)]
    auc = 0.0
    tp = fp = 0
    k = 0
    while k < s.size:
        j = k
        while j < s.size and s[j] == s[k]:
            j += 1
        tp_step = int(y[k:j].sum())
        fp_step = (j - k) - tp_step
        prev_fpr, prev_tpr = points[-1]
        tp += tp_step
        fp += fp_step
        fpr, tpr = fp / neg, tp / pos
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        points.append((fpr, tpr))
        k = j
    return points, auc


def auc_or_none(scores, labels) -> float | None:
    """ROC AUC, or None when the labels hold a single class.

    ``scores`` may be an iterator: it is consumed only when the AUC is
    defined, so a caller can skip scoring a single-class set.
    """
    if len(set(labels)) < 2:
        return None
    return roc_auc(list(scores), labels)[1]
