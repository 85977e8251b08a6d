"""Built-in dataset profiles.

The three benchmark datasets are public downloads we do not redistribute.
A profile is the one place that holds a fact about its dataset: where to
get the file, how to ingest it, the row/positive counts used to verify a
download, the grid's feature sweep, the QNN train-F1 gate, the PCA
variance target and the synthetic stand-in's spec. When no local copy
exists, `resolve` falls back to that deterministic stand-in, which has
the same shape, imbalance, and a comparable principal-variance profile,
so every pipeline stage stays runnable offline.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IngestionError, UsageError
from .pipeline import Dataset, load_csv

DATA_DIR_ENV = "QMLGRID_DATA_DIR"


@dataclass(frozen=True)
class SurrogateSpec:
    """Low-rank factor model with a class-dependent factor shift.

    Features are x = A z + noise, A built from an orthonormal frame with
    decaying column scales so the standardized covariance spectrum matches
    the profiled dataset's cumulative-variance curve. delta controls class
    separation along a random factor direction; spread widens the positive
    class. Constants were tuned against the pipeline's acceptance bands
    and are part of the frozen surrogate definition.
    """
    m: int
    scales: tuple
    noise: float
    delta: float
    spread: float = 1.0
    tail: float = 0.0
    seed: int = 0


@dataclass(frozen=True)
class DatasetProfile:
    title: str
    filename: str
    label_column: str
    positive_value: str
    n_rows: int
    n_positive: int
    n_features: int
    source: str
    surrogate: SurrogateSpec
    feature_range: tuple    # inclusive feature-count sweep of the grid
    qnn_train_f1: float     # train-F1 gate on QNN candidates
    pca_target: tuple       # (k, ratio): k components explain >= ratio
    drop_columns: tuple = ()
    # real files occasionally differ from the documented feature count
    # (e.g. whether follow-up time is counted); accept these widths
    accepted_feature_counts: tuple = None

    def accepted(self):
        return self.accepted_feature_counts or (self.n_features,)


PROFILES = {
    "heart_failure": DatasetProfile(
        title="Heart Failure",
        filename="heart_failure_clinical_records_dataset.csv",
        label_column="DEATH_EVENT",
        positive_value="1",
        n_rows=299,
        n_positive=96,
        n_features=13,
        accepted_feature_counts=(13, 12),
        source=("UCI ML repository 'Heart failure clinical records' "
                "(also on Kaggle as andrewmvd/heart-failure-clinical-data)"),
        surrogate=SurrogateSpec(m=5, scales=(2.4, 2.0, 1.7, 1.4, 1.2),
            noise=0.33, delta=1.35, spread=1.25, tail=1.0, seed=20_01),
        feature_range=(2, 5), qnn_train_f1=0.50, pca_target=(5, 0.90),
    ),
    "diabetes": DatasetProfile(
        title="Diabetes",
        filename="diabetes.csv",
        label_column="Outcome",
        positive_value="1",
        n_rows=768,
        n_positive=268,
        n_features=8,
        source=("Pima Indians Diabetes Database "
                "(Kaggle uciml/pima-indians-diabetes-database)"),
        surrogate=SurrogateSpec(m=6, scales=(1.9, 1.6, 1.35, 1.15, 1.0, 0.85),
            noise=0.6, delta=1.4, spread=1.1, tail=0.9, seed=20_02),
        feature_range=(2, 6), qnn_train_f1=0.65, pca_target=(6, 0.90),
    ),
    "prostate": DatasetProfile(
        title="Prostate Cancer",
        filename="Prostate_Cancer.csv",
        label_column="diagnosis_result",
        positive_value="M",
        n_rows=100,
        n_positive=62,
        n_features=8,
        drop_columns=("id",),
        source="Kaggle sajidsaifi/prostate-cancer",
        surrogate=SurrogateSpec(m=4, scales=(2.2, 1.8, 1.3, 0.9),
            noise=0.08, delta=2.1, spread=1.0, tail=1.2, seed=20_03),
        feature_range=(2, 6), qnn_train_f1=0.75, pca_target=(6, 0.99),
    ),
}


def fetch_instructions(key: str) -> str:
    p = profile(key)
    return (
        f"{p.title}: download {p.filename!r} from {p.source} and place it\n"
        f"in the directory pointed to by ${DATA_DIR_ENV}. Expected shape:\n"
        f"{p.n_rows} rows, {' or '.join(map(str, p.accepted()))} feature "
        f"columns, label column\n"
        f"{p.label_column!r} with {p.n_positive} rows equal to "
        f"{p.positive_value!r}."
    )


def profile(key: str) -> DatasetProfile:
    try:
        return PROFILES[key]
    except KeyError:
        raise UsageError(
            f"unknown dataset {key!r}; known: {sorted(PROFILES)}") from None


def data_dir():
    """The $QMLGRID_DATA_DIR directory, None when unset; a value that
    is not a directory raises UsageError."""
    value = os.environ.get(DATA_DIR_ENV, "")
    if value and not os.path.isdir(value):
        raise UsageError(f"${DATA_DIR_ENV}={value!r} is not a directory")
    return Path(value) if value else None


def load_real(key: str) -> Dataset:
    """Loads and verifies a locally downloaded copy of a profiled dataset
    from the $QMLGRID_DATA_DIR directory."""
    p = profile(key)
    directory = data_dir()
    if directory is None:
        raise IngestionError(
            f"no data directory; set ${DATA_DIR_ENV}.\n"
            + fetch_instructions(key))
    path = directory / p.filename
    if not path.exists():
        raise IngestionError(
            f"{path} not found.\n" + fetch_instructions(key))
    ds = load_csv(path, p.label_column, p.positive_value,
                  drop_columns=p.drop_columns)
    if ds.n_rows != p.n_rows or ds.positive_count() != p.n_positive:
        raise IngestionError(
            f"{path}: got {ds.n_rows} rows / {ds.positive_count()} "
            f"positives, expected {p.n_rows} / {p.n_positive}")
    if ds.n_features not in p.accepted():
        raise IngestionError(
            f"{path}: got {ds.n_features} feature columns, expected one "
            f"of {p.accepted()}")
    return ds


def synthetic(key: str) -> Dataset:
    """Deterministic stand-in dataset for a profile; same call, same bytes."""
    p = profile(key)
    spec = p.surrogate
    rng = np.random.default_rng([7_417, spec.seed])
    n, d, m = p.n_rows, p.n_features, spec.m

    frame, _ = np.linalg.qr(rng.normal(size=(d, m)))
    mixing = frame * np.asarray(spec.scales)
    direction = rng.normal(size=m)
    direction /= np.linalg.norm(direction)

    labels = (rng.permutation(n) < p.n_positive).astype(int)
    factors = rng.normal(size=(n, m))
    pos = labels == 1
    factors[pos] *= spec.spread
    balance = p.n_positive / (n - p.n_positive)
    shift = np.where(pos, spec.delta, -spec.delta * balance)[:, None] * direction

    # lognormal per-row scale gives the heavy tails typical of clinical
    # measurements; the class shift stays absolute so separation survives
    row_scale = np.exp(spec.tail * rng.normal(size=(n, 1)))
    core = factors @ mixing.T + spec.noise * rng.normal(size=(n, d))
    X = core * row_scale + shift @ mixing.T
    # arbitrary per-column units so ingestion-side scaling actually matters
    col_scale = 10.0 ** rng.uniform(-0.5, 2.0, size=d)
    col_shift = rng.uniform(-3.0, 3.0, size=d) * col_scale
    X = X * col_scale + col_shift

    return Dataset(X, labels)


def resolve(key: str):
    """Returns (dataset, origin) where origin is 'real' or 'synthetic'.
    A verified download in the $QMLGRID_DATA_DIR directory wins whenever
    one is there."""
    p = profile(key)
    directory = data_dir()
    if directory is not None and (directory / p.filename).exists():
        return load_real(key), "real"
    return synthetic(key), "synthetic"
