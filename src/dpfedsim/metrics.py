"""A confusion matrix of predictions and its scores: accuracy, macro recall
and macro F1, from one call."""

from __future__ import annotations

import numpy as np


def accumulate(predictions, labels, num_classes: int) -> np.ndarray:
    """Build a (K, K) int64 confusion matrix, rows = true class, cols = predicted."""
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (labels, predictions), 1)
    return cm


def scores(cm: np.ndarray) -> tuple[float, float, float]:
    """(accuracy, macro recall, macro F1) of a confusion matrix.

    Both macro means run over the classes present in the truth.  Per-class
    F1 is the harmonic mean of precision and recall, taken as 0 when both
    are 0, and a class never predicted has precision 0.
    """
    diag = np.diag(cm).astype(np.float64)
    row = cm.sum(axis=1).astype(np.float64)
    col = cm.sum(axis=0).astype(np.float64)
    present = row > 0
    recall = diag[present] / row[present]
    # a class never predicted has no true positive either: 0 / 1
    precision = diag[present] / np.maximum(col[present], 1.0)
    pr = precision + recall
    f1 = 2 * precision * recall / np.where(pr > 0, pr, 1.0)
    return float(np.trace(cm) / cm.sum()), float(recall.mean()), float(f1.mean())
