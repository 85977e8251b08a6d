import numpy as np
import pytest

from qmlgrid.errors import UsageError
from qmlgrid.metrics import (Metrics, evaluate, f1_score, precision_score,
                             recall_score)


def test_counts():
    m = evaluate([1, 1, 0, 0, 1, 0], [1, 0, 0, 1, 1, 0])
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 2)


def test_perfect_prediction():
    m = evaluate([0, 1, 1, 0], [0, 1, 1, 0])
    assert m.precision == m.recall == m.f1 == 1.0


def test_zero_denominators_give_zero():
    assert precision_score(0, 0) == 0.0
    assert recall_score(0, 0) == 0.0
    assert f1_score(0.0, 0.0) == 0.0
    # all-negative predictions on all-negative truth: no positives anywhere
    m = evaluate([0, 0, 0], [0, 0, 0])
    assert m.f1 == 0.0


def test_f1_is_harmonic_mean():
    # frozen reference point: P=0.64, R=0.83
    assert f1_score(0.64, 0.83) == pytest.approx(0.72272, abs=5e-6)
    p, r = 0.3, 0.9
    assert f1_score(p, r) == pytest.approx(2 / (1 / p + 1 / r), rel=1e-12)


def test_from_counts_matches_evaluate():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=200)
    pred = rng.integers(0, 2, size=200)
    m = evaluate(y, pred)
    assert m == Metrics.from_counts(m.tp, m.fp, m.fn, m.tn)
    assert m.tp + m.fp + m.fn + m.tn == 200


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        evaluate([1, 0], [1, 0, 1])


@pytest.mark.parametrize("bad", [2, -1, 0.5, float("nan"), "a", None])
def test_values_outside_0_1_refused(bad):
    # a 2 once fell in no confusion cell, so the counts fell short; a
    # string or None failed in the cast to int with a bare ValueError or
    # TypeError (UsageError is a ValueError)
    with pytest.raises(UsageError, match="labels must be 0 or 1"):
        evaluate([0, 1, bad], [0, 1, 1])
    with pytest.raises(UsageError, match="predictions must be 0 or 1"):
        evaluate([0, 1, 1], [0, bad, 1])


def test_counts_equal_four_mask_counts():
    rng = np.random.default_rng(4)
    for n in (0, 1, 7, 300):
        y = rng.integers(0, 2, size=n)
        pred = rng.integers(0, 2, size=n)
        m = evaluate(y, pred)
        want = [int(np.sum((y == t) & (pred == p)))
                for t, p in ((1, 1), (0, 1), (1, 0), (0, 0))]
        assert [m.tp, m.fp, m.fn, m.tn] == want
        assert m == evaluate(y.astype(bool), pred.astype(float))
