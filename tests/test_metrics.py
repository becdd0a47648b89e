import numpy as np
import pytest

from dpfedsim.metrics import accumulate, scores


def brute_force(preds, labels, num_classes):
    """Metrics straight from the definitions, no confusion matrix."""
    preds = list(preds)
    labels = list(labels)
    n = len(labels)
    acc = sum(p == l for p, l in zip(preds, labels)) / n
    recalls, f1s = [], []
    for c in range(num_classes):
        tp = sum(1 for p, l in zip(preds, labels) if p == c and l == c)
        fn = sum(1 for p, l in zip(preds, labels) if p != c and l == c)
        fp = sum(1 for p, l in zip(preds, labels) if p == c and l != c)
        if tp + fn == 0:
            continue  # class absent from the truth: skipped by macro averaging
        recall = tp / (tp + fn)
        precision = tp / (tp + fp) if tp + fp else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        recalls.append(recall)
        f1s.append(f1)
    return acc, float(np.mean(recalls)), float(np.mean(f1s))


def test_hand_worked_example():
    # true labels: 0,0,1 — predictions: 0,1,1
    cm = accumulate([0, 1, 1], [0, 0, 1], 2)
    np.testing.assert_array_equal(cm, [[1, 1], [0, 1]])
    accuracy, macro_recall, macro_f1 = scores(cm)
    assert accuracy == pytest.approx(2 / 3)
    assert macro_recall == pytest.approx(0.75)
    assert macro_f1 == pytest.approx(2 / 3)


def test_perfect_predictions():
    cm = accumulate([0, 1, 2], [0, 1, 2], 3)
    assert scores(cm) == (1.0, 1.0, 1.0)


def test_single_class_truth_ignores_absent_classes():
    cm = accumulate([0, 0, 1], [0, 0, 0], 3)
    accuracy, macro_recall, _ = scores(cm)
    assert accuracy == pytest.approx(2 / 3)
    assert macro_recall == pytest.approx(2 / 3)  # only class 0 present


def test_matches_brute_force_on_random_scenarios():
    rng = np.random.default_rng(99)
    for _ in range(100):
        k = int(rng.integers(2, 8))
        n = int(rng.integers(1, 200))
        labels = rng.integers(0, k, size=n)
        preds = rng.integers(0, k, size=n)
        cm = accumulate(preds, labels, k)
        acc, rec, f1 = brute_force(preds, labels, k)
        accuracy, macro_recall, macro_f1 = scores(cm)
        assert abs(accuracy - acc) <= 1e-12
        assert abs(macro_recall - rec) <= 1e-12
        assert abs(macro_f1 - f1) <= 1e-12


def test_accumulate_validation():
    with pytest.raises(ValueError, match="equal-length"):
        accumulate([0, 1], [0], 2)
    with pytest.raises(ValueError, match="out of range"):
        accumulate([0, 2], [0, 1], 2)
    with pytest.raises(ValueError, match="out of range"):
        accumulate([0, 1], [0, -1], 2)


def test_empty_matrix_rejected():
    empty = np.zeros((3, 3), dtype=np.int64)
    with pytest.raises(ValueError, match="empty"):
        scores(empty)


def test_non_square_rejected():
    with pytest.raises(ValueError, match="square"):
        scores(np.zeros((2, 3)))
