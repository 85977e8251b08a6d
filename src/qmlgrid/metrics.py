"""Binary classification metrics. Class 1 is the positive class."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .pipeline import zero_one


def precision_score(tp: int, fp: int) -> float:
    return tp / (tp + fp) if tp + fp else 0.0


def recall_score(tp: int, fn: int) -> float:
    return tp / (tp + fn) if tp + fn else 0.0


def f1_score(precision: float, recall: float) -> float:
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    fn: int
    tn: int
    precision: float
    recall: float
    f1: float

    @staticmethod
    def from_counts(tp: int, fp: int, fn: int, tn: int) -> "Metrics":
        p = precision_score(tp, fp)
        r = recall_score(tp, fn)
        return Metrics(tp, fp, fn, tn, p, r, f1_score(p, r))


def evaluate(y_true, y_pred) -> Metrics:
    """Confusion counts and scores of 0/1 predictions against 0/1 labels.
    Any other value is a UsageError (pipeline.zero_one): counts that
    skipped it would fall short of the split."""
    t, p = zero_one(y_true), zero_one(y_pred, "predictions")
    if t.shape != p.shape:
        raise UsageError(f"shape mismatch: {t.shape} vs {p.shape}")
    # cell 2 * label + prediction
    tn, fp, fn, tp = np.bincount((2 * t + p).ravel(), minlength=4).tolist()
    return Metrics.from_counts(tp, fp, fn, tn)
