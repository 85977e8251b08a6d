"""Reference classifiers: logistic regression, CART tree, random forest.

All three honor the same class weighting as the quantum models: a sample
of class c carries weight class_weights[c] in the loss / impurity, and
ties in votes or leaf counts resolve to class 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import TrainingDivergedError, UsageError


def _check_xy(X, y):
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    if X.ndim != 2 or y.ndim != 1 or len(X) != len(y):
        raise UsageError(f"bad training data shapes: {X.shape}, {y.shape}")
    if not np.all(np.isin(y, (0, 1))):
        raise UsageError("labels must be 0/1")
    return X, y


# ---------------------------------------------------------------- logistic

@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    losses: list


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


def fit_logistic(X, y, class_weights=(1.0, 1.0)) -> LogisticModel:
    """Full-batch gradient descent from zero weights, no regularization:
    1000 steps at learning rate 0.1. Aborts if the weighted loss
    increases 10 iterations in a row."""
    X, y = _check_xy(X, y)
    w = np.zeros(X.shape[1])
    b = 0.0
    sw = np.asarray(class_weights, dtype=np.float64)[y]
    n = len(y)
    losses = []
    rising = 0
    for it in range(1000):
        p = _sigmoid(X @ w + b)
        p = np.clip(p, 1e-12, 1.0 - 1e-12)
        loss = float(np.mean(-sw * (y * np.log(p) + (1 - y) * np.log(1 - p))))
        if losses and loss > losses[-1]:
            rising += 1
            if rising >= 10:
                raise TrainingDivergedError(
                    f"loss rose for 10 straight iterations (iteration {it}, "
                    f"loss {loss:.6g}); lower the learning rate")
        else:
            rising = 0
        losses.append(loss)
        residual = sw * (p - y)
        w = w - 0.1 * (X.T @ residual) / n
        b = b - 0.1 * float(residual.sum()) / n
    return LogisticModel(w, b, losses)


def predict_logistic(model: LogisticModel, X) -> np.ndarray:
    p = _sigmoid(np.asarray(X, dtype=np.float64) @ model.weights + model.bias)
    return (p >= 0.5).astype(int)


# -------------------------------------------------------------------- tree

@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None
    label: int = 0

    def is_leaf(self) -> bool:
        return self.left is None


def _weighted_gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0.0:
        return 0.0
    frac = counts / total
    return 1.0 - float(frac @ frac)


def _leaf_label(counts: np.ndarray) -> int:
    # weighted majority; exact tie resolves to class 1
    return 1 if counts[1] >= counts[0] else 0


def _best_split(X, y, w, features):
    """Split minimizing weighted child Gini; candidates are midpoints
    between consecutive distinct sorted values. Zero-gain splits are kept
    (an XOR node needs one to make progress); None only when no feature
    has two distinct values."""
    total = np.array([w[y == 0].sum(), w[y == 1].sum()])
    parent = _weighted_gini(total)
    grand = total.sum()
    best = None
    for feat in features:
        order = np.argsort(X[:, feat], kind="stable")
        vals = X[order, feat]
        wy = w[order]
        one = y[order] == 1
        # prefix sums give left-child class masses for every cut point
        left1 = np.cumsum(np.where(one, wy, 0.0))[:-1]
        left0 = np.cumsum(np.where(one, 0.0, wy))[:-1]
        valid = vals[:-1] != vals[1:]
        if not valid.any():
            continue
        ls = left0 + left1
        rs = grand - ls
        right0 = total[0] - left0
        right1 = total[1] - left1
        gini_l = 1.0 - (left0 ** 2 + left1 ** 2) / ls ** 2
        gini_r = 1.0 - (right0 ** 2 + right1 ** 2) / rs ** 2
        gain = np.where(valid, parent - (ls * gini_l + rs * gini_r) / grand,
                        -np.inf)
        i = int(np.argmax(gain))
        if best is None or gain[i] > best[0] + 1e-15:
            best = (gain[i], feat, 0.5 * (vals[i] + vals[i + 1]))
    return best


def fit_tree(X, y, class_weights=(1.0, 1.0),
             max_features: int | None = None,
             rng: np.random.Generator | None = None) -> TreeNode:
    """CART with weighted Gini, grown until leaves are pure (or no split
    helps). max_features with an rng samples candidate features per split
    (the forest path); by default every feature is considered."""
    X, y = _check_xy(X, y)
    w = np.asarray(class_weights, dtype=np.float64)[y]
    n_features = X.shape[1]

    def build(idx):
        sub_y = y[idx]
        counts = np.array([w[idx][sub_y == 0].sum(), w[idx][sub_y == 1].sum()])
        node = TreeNode(label=_leaf_label(counts))
        if counts.min() == 0.0:
            return node
        if max_features is not None and max_features < n_features:
            feats = np.sort(rng.choice(n_features, size=max_features,
                                       replace=False))
        else:
            feats = range(n_features)
        found = _best_split(X[idx], sub_y, w[idx], feats)
        if found is None:
            return node
        _, feat, thr = found
        mask = X[idx, feat] <= thr
        if mask.all():
            # the midpoint of two adjacent floats can round onto the upper
            # one and leave the right child empty
            return node
        node.feature, node.threshold = feat, thr
        node.left = build(idx[mask])
        node.right = build(idx[~mask])
        return node

    return build(np.arange(len(y)))


def predict_tree(node: TreeNode, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(len(X), dtype=int)
    for i, row in enumerate(X):
        cur = node
        while not cur.is_leaf():
            cur = cur.left if row[cur.feature] <= cur.threshold else cur.right
        out[i] = cur.label
    return out


# ------------------------------------------------------------------ forest

@dataclass
class ForestModel:
    trees: list


def fit_forest(X, y, class_weights=(1.0, 1.0), seed: int = 0) -> ForestModel:
    """100 bagged trees: same-size bootstrap resamples, ceil(sqrt(d))
    feature candidates per split, per-tree rng derived from the seed."""
    X, y = _check_xy(X, y)
    max_features = math.ceil(math.sqrt(X.shape[1]))
    trees = []
    for t in range(100):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, len(y), len(y))
        trees.append(fit_tree(X[idx], y[idx], class_weights,
                              max_features=max_features, rng=rng))
    return ForestModel(trees)


def predict_forest(model: ForestModel, X) -> np.ndarray:
    votes = np.stack([predict_tree(tree, X) for tree in model.trees])
    ones = votes.sum(axis=0)
    # majority vote, exact tie resolves to class 1
    return (2 * ones >= len(model.trees)).astype(int)
