"""Dataset ingestion and preprocessing.

The chain applied to every dataset: standardize per feature, project with
PCA, rescale each component to [-1, 1], all fitted on the training split
only. Splitting is stratified 20% test, then 20% of the remainder to
validation (64/16/20 overall), rounded to nearest per class. The chain
runs once over every row at all d components, and a model at k reads the
first k columns. A split and its features are a function of the dataset
and the seed, so nothing about them is saved: a run that needs one
recomputes it. Features, labels and class weights enter here, and so do
the rules every model checks them by: feature_matrix, zero_one, weight_pair.
"""
from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IngestionError, UsageError


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        X = feature_matrix(self.features)
        y = np.asarray(self.labels)
        if y.ndim != 1 or len(X) != len(y):
            raise UsageError(f"misaligned dataset: {X.shape} vs {y.shape}")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", zero_one(y))

    @property
    def n_rows(self) -> int:
        return len(self.labels)

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def positive_count(self) -> int:
        return int(self.labels.sum())


def load_csv(path, label_column: str, positive_value,
             drop_columns=()) -> Dataset:
    """Reads a headered CSV. The label column is mapped to 1 exactly where
    the stripped cell equals str(positive_value); every other column must
    parse as a float. Errors name the offending data row and column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = [h.strip() for h in next(reader)]
        except StopIteration:
            raise IngestionError(f"{path}: empty file, expected a header row")
        if label_column not in header:
            raise IngestionError(
                f"{path}: no column {label_column!r} in header {header}")
        dropped = set(drop_columns) | {label_column}
        unknown = set(drop_columns) - set(header)
        if unknown:
            raise IngestionError(f"{path}: drop_columns not in header: "
                                 f"{sorted(unknown)}")
        label_pos = header.index(label_column)
        keep = [i for i, h in enumerate(header) if h not in dropped]
        positive = str(positive_value).strip()

        rows, labels = [], []
        for r, cells in enumerate(reader, start=1):
            if not cells:
                continue
            if len(cells) != len(header):
                raise IngestionError(
                    f"{path}: row {r} has {len(cells)} cells, expected "
                    f"{len(header)}")
            raw_label = cells[label_pos].strip()
            if raw_label == "":
                raise IngestionError(
                    f"{path}: row {r}: missing value in label column "
                    f"{label_column!r}")
            labels.append(1 if raw_label == positive else 0)
            row = []
            for i in keep:
                cell = cells[i].strip()
                try:
                    row.append(float(cell))
                except ValueError:
                    raise IngestionError(
                        f"{path}: row {r}, column {header[i]!r}: cannot "
                        f"parse {cell!r} as a number") from None
            rows.append(row)
    if not rows:
        raise IngestionError(f"{path}: no data rows")
    return Dataset(np.array(rows), np.array(labels))


# -------------------------------------------------------------- transforms

def standardize_fit(X):
    """Per-feature mean/std from the training split; constant columns get
    std 1 so they standardize to all zeros."""
    X = np.asarray(X, dtype=np.float64)
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    return mean, std


def standardize_apply(X, mean, std):
    return (np.asarray(X, dtype=np.float64) - mean) / std


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray
    components: np.ndarray      # rows are unit eigenvectors, variance order
    eigenvalues: np.ndarray
    cumulative_ratio: np.ndarray


def pca_fit(X) -> PcaModel:
    X = np.asarray(X, dtype=np.float64)
    if len(X) < 2:
        raise UsageError("PCA needs at least 2 rows")
    mean = X.mean(axis=0)
    cov = np.cov(X, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    vals, vecs = np.linalg.eigh(cov)
    order = np.argsort(vals)[::-1]
    vals = np.clip(vals[order], 0.0, None)
    comps = vecs[:, order].T
    # sign convention: largest-magnitude entry of each component positive
    for row in comps:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    total = vals.sum()
    ratio = np.cumsum(vals) / total if total > 0 else np.ones_like(vals)
    return PcaModel(mean, comps, vals, ratio)


def pca_transform(model: PcaModel, X):
    return (np.asarray(X, dtype=np.float64) - model.mean) @ model.components.T


def minmax_fit(X):
    X = np.asarray(X, dtype=np.float64)
    return X.min(axis=0), X.max(axis=0)


def minmax_apply(X, lo, hi):
    """Affine map of the train range onto [-1, 1]; out-of-range values are
    clipped, constant components map to 0."""
    X = np.asarray(X, dtype=np.float64)
    span = hi - lo
    safe = np.where(span == 0.0, 1.0, span)
    out = 2.0 * (X - lo) / safe - 1.0
    out = np.where(span == 0.0, 0.0, out)
    return np.clip(out, -1.0, 1.0)


def feature_matrix(X) -> np.ndarray:
    """X as a float array, once it is 2-D with every entry finite."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise UsageError(f"features must be a 2-D matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise UsageError("features must be finite")
    return X


def zero_one(y, name: str = "labels") -> np.ndarray:
    """y as an int array, once every entry is 0 or 1: checked before any
    cast, which would read 0.5 as 0. An int array is not copied."""
    y = np.asarray(y)
    if y.dtype.kind in "biu":
        bits = y.astype(int, copy=False)
        if not np.count_nonzero(bits >> 1):     # -1 >> 1 is -1
            return bits
    elif y.dtype.kind not in "fc":  # str != 0 is one scalar before numpy 1.25
        y = y.astype(object)        # objects compare elementwise
    wrong = (y != 0) & (y != 1)
    if np.any(wrong):
        bad = sorted({repr(v) for v in y[wrong].tolist()})
        raise UsageError(f"{name} must be 0 or 1, got {', '.join(bad)}")
    return y.astype(int)


def weight_pair(class_weights) -> np.ndarray:
    """The class weights (class 0, class 1) as a float array, once they
    are two finite, positive numbers (an SVM box of 0 cannot move)."""
    try:
        weights = np.asarray(class_weights, dtype=np.float64)
    except (TypeError, ValueError):
        weights = np.empty(0)
    if weights.shape != (2,) or not np.all((0 < weights) & (weights < np.inf)):
        raise UsageError("class weights must be a pair of finite, positive "
                         f"numbers (class 0, class 1), not {class_weights}")
    return weights


def class_weights(labels):
    """Each class is weighted by the opposite class's share of the data,
    so the minority class gets the larger weight."""
    y = zero_one(labels)
    n, n1 = y.size, int(y.sum())
    if n1 in (0, n):
        raise UsageError("class weights need both classes present")
    return (n1 / n, (n - n1) / n)


# ------------------------------------------------------------------ splits

def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True, eq=False)   # hashed by identity, as a memo key
class SplitBundle:
    """A seed's split, transformed once: the rows of every split stacked
    in SPLITS order, at all d components of the train-fitted chain."""
    seed: int
    index: np.ndarray       # dataset row of each stacked row
    rows: dict              # split -> its slice of the stack
    stack: np.ndarray = field(repr=False)     # (rows, d), read-only
    y: np.ndarray = field(repr=False)         # read-only
    pca: PcaModel = field(repr=False)

    SPLITS = ("train", "val", "test")

    def indices(self, split: str) -> np.ndarray:
        if split not in self.rows:
            raise UsageError(f"unknown split {split!r}")
        return self.index[self.rows[split]]

    def labels(self, split: str) -> np.ndarray:
        return self.y[self.rows[split]]

    def features(self, k: int) -> np.ndarray:
        """The read-only (rows, k) view of the stack's first k columns."""
        d = self.stack.shape[1]
        if not 1 <= k <= d:
            raise UsageError(f"k must be in 1..{d}, got {k}")
        return self.stack[:, :k]

    def class_weights(self):
        return class_weights(self.labels("train"))


def stratified_split(dataset: Dataset, seed: int) -> SplitBundle:
    """20% of each class to test, then 20% of each class's remainder to
    validation, nearest-integer per class. One generator drives both class
    shuffles (class 0 first), so membership is a function of seed alone.
    The chain is fitted on the train rows and applied to every row."""
    y = dataset.labels
    rng = np.random.default_rng(seed)
    parts = {s: [] for s in SplitBundle.SPLITS}
    for cls in (0, 1):
        idx = np.flatnonzero(y == cls)
        if len(idx) < 3:
            raise UsageError(f"class {cls} has {len(idx)} samples, need >= 3")
        perm = rng.permutation(idx)
        n_test = _round_half_up(0.2 * len(idx))
        n_val = _round_half_up(0.2 * (len(idx) - n_test))
        parts["test"].append(perm[:n_test])
        parts["val"].append(perm[n_test:n_test + n_val])
        parts["train"].append(perm[n_test + n_val:])
    picked = [np.sort(np.concatenate(v)) for v in parts.values()]
    ends = [0, *itertools.accumulate(map(len, picked))]
    rows = {s: slice(a, b)
            for s, a, b in zip(SplitBundle.SPLITS, ends, ends[1:])}
    index = np.concatenate(picked)
    tr = rows["train"]

    raw = dataset.features[index]
    mean, std = standardize_fit(raw[tr])
    z = standardize_apply(raw, mean, std)
    pca = pca_fit(z[tr])
    proj = pca_transform(pca, z)
    stack = minmax_apply(proj, *minmax_fit(proj[tr]))
    labels = y[index]
    for shared in (index, stack, labels):
        shared.flags.writeable = False
    return SplitBundle(seed, index, rows, stack, labels, pca)
