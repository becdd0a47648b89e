"""A confusion matrix of predictions and its scores: accuracy, macro recall
and macro F1, from one call."""

from __future__ import annotations

import numpy as np


def accumulate(predictions, labels, num_classes: int) -> np.ndarray:
    """Build a (K, K) int64 confusion matrix, rows = true class, cols = predicted.

    Out-of-range entries are a hard error rather than being dropped.
    """
    preds = np.asarray(predictions, dtype=np.int64)
    labs = np.asarray(labels, dtype=np.int64)
    if preds.shape != labs.shape or preds.ndim != 1:
        raise ValueError(
            f"predictions and labels must be equal-length 1-D sequences, "
            f"got shapes {preds.shape} and {labs.shape}"
        )
    if num_classes < 1:
        raise ValueError("num_classes must be >= 1")
    for name, arr in (("prediction", preds), ("label", labs)):
        if arr.size and (arr.min() < 0 or arr.max() >= num_classes):
            raise ValueError(f"{name} out of range [0, {num_classes})")
    cm = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(cm, (labs, preds), 1)
    return cm


def scores(cm: np.ndarray) -> tuple[float, float, float]:
    """(accuracy, macro recall, macro F1) of a confusion matrix.

    Both macro means run over the classes present in the truth.  Per-class
    F1 is the harmonic mean of precision and recall, taken as 0 when both
    are 0, and a class never predicted has precision 0.
    """
    cm = np.asarray(cm)
    if cm.ndim != 2 or cm.shape[0] != cm.shape[1]:
        raise ValueError(f"confusion matrix must be square, got shape {cm.shape}")
    if cm.sum() < 1:
        raise ValueError("confusion matrix is empty (no observations)")
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
