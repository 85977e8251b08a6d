"""Grid-search orchestration, run settings, the record store, selection,
and reports.

A record store is one append-only file of line-delimited JSON records,
one per grid cell, written in deterministic enumeration order so two runs
with the same master seed produce byte-identical stores. Wall-clock
timings never enter the store (they would break that guarantee); they go
to a sidecar file next to it.

A settings file is flat `key = value` text whose keys are RunSettings
fields and whose values are JSON. Every value is checked before a run
appends anything, so bad input leaves the store untouched.
"""
from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import re
import time
import warnings
from dataclasses import dataclass, field, fields

import numpy as np

from . import baselines, qnn, svm
from .circuit import ANSATZ_ROTATIONS, AXES, FEATURE_MAPS, feature_map
from .errors import (ConfigurationError, IngestionError,
                     TrainingDivergedError, UsageError)
from .fusion import FUSE_MAX_QUBITS
from .metrics import Metrics, evaluate
from .pipeline import SplitBundle, stratified_split
from .qkernel import cross_gram, embed, gram_matrix

FAMILIES = ("qnn", "qsvm", "classical")

# train-set F1 gate applied to QNN candidates per dataset
THRESHOLDS = {"heart_failure": 0.50, "diabetes": 0.65, "prostate": 0.75}

# inclusive feature-count sweep per dataset
FEATURE_RANGES = {"heart_failure": (2, 5), "diabetes": (2, 6),
                  "prostate": (2, 6)}

ENCODING_LABELS = {"angle": "Angle", "z": "Z", "zz_a": "ZZ",
                   "zz_b": "ZZ-qiskit"}

MODEL_LABELS = {"logistic": "LogisticRegression", "tree": "DecisionTree",
                "forest": "RandomForest"}

# soft-margin C of every SVM cell, quantum and classical
SVM_C = 1.0


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cell_seed(master_seed: int, dataset: str, family: str, config: dict,
              split_seed: int) -> int:
    payload = f"{master_seed}|{split_seed}|{dataset}|{family}|{canonical(config)}"
    return int.from_bytes(
        hashlib.sha256(payload.encode()).digest()[:8], "big")


# ------------------------------------------------------------------- grids

def axis_sequences():
    """All 15 ordered non-repeating subsets of the rotation axes."""
    out = []
    for r in (1, 2, 3):
        out.extend("".join(p) for p in itertools.permutations(AXES, r))
    return out


def qnn_grid():
    return [{"sequence": seq, "reupload": ru, "ansatz": a}
            for seq in axis_sequences()
            for ru in (False, True)
            for a in ANSATZ_ROTATIONS]


def qsvm_grid():
    return [{"encoding": e, "repetitions": r}
            for e in ("angle", *FEATURE_MAPS)
            for r in (1, 2, 3)]


def classical_grid():
    cells = [{"model": m} for m in ("logistic", "tree", "forest")]
    cells += [{"model": "svm", "kernel": k}
              for k in ("linear", "poly3", "rbf", "sigmoid")]
    return cells


GRIDS = {"qnn": qnn_grid, "qsvm": qsvm_grid, "classical": classical_grid}


# ----------------------------------------------------------------- records

def metrics_dict(m: Metrics) -> dict:
    return {"tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn,
            "precision": m.precision, "recall": m.recall, "f1": m.f1}


def metrics_from_dict(d) -> Metrics:
    return Metrics(**d) if d is not None else None


_OR_NULL = type(None)
_RECORD_TYPES = {"dataset": str, "family": str, "k": int, "split_seed": int,
                 "seed": int, "n_parameters": int, "config": dict,
                 "extra": dict, "error": (str, _OR_NULL),
                 "train": (dict, _OR_NULL), "val": (dict, _OR_NULL),
                 "test": (dict, _OR_NULL)}


@dataclass
class ExperimentRecord:
    dataset: str
    family: str
    k: int
    config: dict
    split_seed: int
    seed: int
    n_parameters: int = 0
    train: Metrics = None
    val: Metrics = None
    test: Metrics = None
    extra: dict = field(default_factory=dict)
    error: str = None
    wall_clock: float = None    # sidecar only, never serialized

    def key(self) -> str:
        return canonical([self.dataset, self.family, self.k, self.config,
                          self.split_seed])

    def to_line(self) -> str:
        return canonical({
            "dataset": self.dataset, "family": self.family, "k": self.k,
            "config": self.config, "split_seed": self.split_seed,
            "seed": self.seed, "n_parameters": self.n_parameters,
            "train": metrics_dict(self.train) if self.train else None,
            "val": metrics_dict(self.val) if self.val else None,
            "test": metrics_dict(self.test) if self.test else None,
            "extra": self.extra, "error": self.error,
        })

    @staticmethod
    def from_line(line: str) -> "ExperimentRecord":
        d = json.loads(line)
        for key, kind in _RECORD_TYPES.items():
            value = d[key]
            # bool is an int subclass, and json true is no count or seed
            if not isinstance(value, kind) or isinstance(value, bool):
                raise TypeError(f"{key!r} may not be {type(value).__name__}")
        return ExperimentRecord(
            dataset=d["dataset"], family=d["family"], k=d["k"],
            config=d["config"], split_seed=d["split_seed"], seed=d["seed"],
            n_parameters=d["n_parameters"],
            train=metrics_from_dict(d["train"]),
            val=metrics_from_dict(d["val"]),
            test=metrics_from_dict(d["test"]),
            extra=d["extra"], error=d["error"])


class RecordStore:
    """Append-only line store; loading an existing file makes reruns skip
    completed cells. Errored records stay in the file but do not count as
    done, so a rerun retries their cells. A torn last line is cut off with
    a warning; a malformed complete line raises IngestionError and leaves
    the file as it is."""

    def __init__(self, path):
        self.path = str(path)
        self._records = []
        self._keys = set()
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        whole = data.rfind(b"\n") + 1
        for n, line in enumerate(data[:whole].splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = ExperimentRecord.from_line(line.decode())
            except (ValueError, KeyError, TypeError) as exc:
                raise IngestionError(f"{self.path}: line {n}: not a record: "
                                     f"{type(exc).__name__}: {exc}") from None
            self._append_memory(record)
        if whole < len(data):
            # a crash mid-append leaves an unterminated last line
            os.truncate(self.path, whole)
            warnings.warn(f"{self.path}: dropped an unterminated last line "
                          f"of {len(data) - whole} bytes")

    def _append_memory(self, record):
        self._records.append(record)
        if record.error is None:
            self._keys.add(record.key())

    def __len__(self):
        return len(self._records)

    def cell_counts(self) -> tuple:
        """(completed cells, errored cells still to retry); a cell that
        failed on several runs counts once."""
        errored = {r.key() for r in self._records if r.error is not None}
        return len(self._keys), len(errored - self._keys)

    def records(self):
        return list(self._records)

    def has(self, record_key: str) -> bool:
        return record_key in self._keys

    def append(self, record: ExperimentRecord) -> None:
        with open(self.path, "a") as fh:
            fh.write(record.to_line() + "\n")
        if record.wall_clock is not None:
            with open(self.path + ".timings", "a") as fh:
                fh.write(f"{record.key()}\t{record.wall_clock:.3f}\n")
        self._append_memory(record)


# ---------------------------------------------------------------- settings

_KEY = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _read_document(path) -> dict:
    """Parses a flat `key = value` file: one JSON value per line, blank
    lines and `#` comments skipped."""
    out = {}
    with open(path) as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, raw = line.partition("=")
            key = key.strip()
            if not sep or not _KEY.match(key):
                raise IngestionError(f"{path}: line {n}: expected 'key = "
                                     f"value', got {line!r}")
            try:
                out[key] = json.loads(raw.strip())
            except json.JSONDecodeError as exc:
                raise IngestionError(
                    f"{path}: line {n}: bad value for {key!r}: {exc}") from None
    return out


@dataclass(frozen=True)
class RunSettings:
    """What a grid run may vary; model constants live in their modules
    (SVM_C here, qnn.LEARNING_RATE, qnn.BATCH_SIZE, qnn.PATIENCE)."""
    master_seed: int = 0
    qnn_epochs: int = 100
    qnn_start_layers: int = 2
    qnn_max_layers: int = 100

    def __post_init__(self):
        lowest = {"master_seed": 0, "qnn_epochs": 1, "qnn_start_layers": 1,
                  "qnn_max_layers": self.qnn_start_layers}
        for f in fields(self):
            value = getattr(self, f.name)
            if type(value) is not int:      # bool and float are refused
                raise UsageError(f"{f.name} must be an integer, got "
                                 f"{value!r}")
            if value < lowest[f.name]:
                raise UsageError(f"{f.name} must be >= {lowest[f.name]}, "
                                 f"got {value}")

    @staticmethod
    def from_document(path) -> "RunSettings":
        doc = _read_document(path)
        known = set(RunSettings.__dataclass_fields__)
        bad = set(doc) - known
        if bad:
            raise UsageError(f"{path}: unknown settings {sorted(bad)}, "
                             f"known: {sorted(known)}")
        return RunSettings(**doc)


# ------------------------------------------------------------------- cells

# what a cell may fail with and still be a result; anything else is a bug
CELL_ERRORS = (ConfigurationError, UsageError, IngestionError,
               TrainingDivergedError, np.linalg.LinAlgError)


def _split_arrays(bundle: SplitBundle, k: int):
    return {s: (bundle.features(s, k), bundle.labels(s))
            for s in SplitBundle.SPLITS}


def _svm_eval(gram, ytr, rows_by_split, labels_by_split, weights):
    ypm = np.where(ytr == 1, 1, -1)
    model = svm.solve_dual(svm.SvmProblem(gram, ypm, SVM_C, weights))
    out = {}
    for split, rows in rows_by_split.items():
        pred = (svm.predict(model, rows) > 0).astype(int)
        out[split] = evaluate(labels_by_split[split], pred)
    extra = {"converged": bool(model.converged), "sweeps": int(model.sweeps)}
    return len(model.support), out, extra


def run_cell(dataset_key: str, bundle: SplitBundle, family: str,
             config: dict, k: int, seed: int,
             settings: RunSettings) -> ExperimentRecord:
    record = ExperimentRecord(dataset_key, family, k, config,
                              bundle.seed, seed)
    started = time.perf_counter()
    try:
        arrays = _split_arrays(bundle, k)
        (Xtr, ytr) = arrays["train"]
        weights = bundle.class_weights()
        labels_by_split = {s: arrays[s][1] for s in arrays}

        if family == "qsvm":
            encoding = feature_map(config["encoding"], k,
                                   config["repetitions"])
            states = {s: embed(encoding, X) for s, (X, _) in arrays.items()}
            gram = gram_matrix(states["train"])
            rows = {"train": gram,
                    "val": cross_gram(states["val"], states["train"]),
                    "test": cross_gram(states["test"], states["train"])}
            n_par, split_metrics, extra = _svm_eval(
                gram, ytr, rows, labels_by_split, weights)

        elif family == "classical":
            model_kind = config["model"]
            if model_kind == "svm":
                kind = config["kernel"]
                gram = svm.kernel_matrix(kind, Xtr, Xtr)
                rows = {"train": gram,
                        "val": svm.kernel_matrix(kind, arrays["val"][0], Xtr),
                        "test": svm.kernel_matrix(kind, arrays["test"][0], Xtr)}
                n_par, split_metrics, extra = _svm_eval(
                    gram, ytr, rows, labels_by_split, weights)
            elif model_kind == "logistic":
                model = baselines.fit_logistic(Xtr, ytr, weights)
                split_metrics = {s: evaluate(y, baselines.predict_logistic(model, X))
                                 for s, (X, y) in arrays.items()}
                n_par, extra = k + 1, {}
            elif model_kind in ("tree", "forest"):
                model = (baselines.fit_tree(Xtr, ytr, weights)
                         if model_kind == "tree" else
                         baselines.fit_forest(Xtr, ytr, weights, seed=seed))
                split_metrics = {s: evaluate(y, baselines.predict_forest(model, X))
                                 for s, (X, y) in arrays.items()}
                n_par, extra = model.n_splits(), {}
            else:
                raise UsageError(f"unknown classical model {model_kind!r}")

        elif family == "qnn":
            cfg = qnn.QnnConfig(
                n_features=k,
                encoding_sequence=tuple(config["sequence"]),
                reupload=config["reupload"],
                ansatz=config["ansatz"],
                n_layers=settings.qnn_start_layers,
                seed=seed)
            growth = qnn.grow_layers(
                cfg, weights, arrays["train"], arrays["val"],
                start_layers=settings.qnn_start_layers,
                max_layers=settings.qnn_max_layers,
                epochs=settings.qnn_epochs)
            best = growth.best_trial()
            model = best.model
            split_metrics = {s: evaluate(y, qnn.predict(model, X))
                             for s, (X, y) in arrays.items()}
            n_par = len(model.parameters)
            extra = {"n_layers": growth.best_n_layers,
                     "layer_trials": len(growth.trials),
                     "best_epoch": best.report.best_epoch}
        else:
            raise UsageError(f"unknown family {family!r}")

        record.n_parameters = int(n_par)
        record.train = split_metrics["train"]
        record.val = split_metrics["val"]
        record.test = split_metrics["test"]
        record.extra = extra
    except CELL_ERRORS as exc:         # cell failures are data; bugs raise
        record.error = f"{type(exc).__name__}: {exc}"
    record.wall_clock = time.perf_counter() - started
    return record


def variance_record(dataset_key: str, bundle: SplitBundle) -> ExperimentRecord:
    """PCA curve for the split's train covariance, stored alongside model
    cells so reports need nothing but the store."""
    return ExperimentRecord(
        dataset_key, "pca", 0, {}, bundle.seed, 0,
        extra={"cumulative_ratio": [float(v)
                                    for v in bundle.pca.cumulative_ratio]})


def run_grid(dataset_key: str, dataset, store: RecordStore,
             settings: RunSettings, families=FAMILIES,
             feature_range: tuple = None, split_seed: int = None,
             progress=None) -> list:
    """Runs every (k, family, config) cell not already in the store, in
    a fixed enumeration order, and returns the new records."""
    unknown = set(families) - set(FAMILIES)
    if unknown:
        raise UsageError(f"unknown families {sorted(unknown)}")
    if split_seed is None:
        split_seed = settings.master_seed
    if split_seed < 0:
        raise UsageError(f"split seed must be >= 0, got {split_seed}")
    if feature_range is None:
        feature_range = FEATURE_RANGES.get(
            dataset_key, (2, min(6, dataset.n_features)))
    lo, hi = feature_range
    if not 1 <= lo <= hi <= dataset.n_features:
        raise UsageError(f"bad feature range {feature_range} for "
                         f"{dataset.n_features} features")
    if "qnn" in families and hi > FUSE_MAX_QUBITS:
        raise UsageError(f"QNN cells take at most {FUSE_MAX_QUBITS} "
                         f"features, got feature range {feature_range}")

    for r in store.records():
        if (r.dataset == dataset_key and r.split_seed == split_seed
                and r.family != "pca"
                and r.seed != cell_seed(settings.master_seed, dataset_key,
                                        r.family, r.config, split_seed)):
            raise UsageError(f"{store.path}: {r.key()} was run under another "
                             f"master seed; rerun with that seed or a new store")

    bundle = stratified_split(dataset, split_seed)
    new_records = []

    def keep(record):
        store.append(record)
        new_records.append(record)
        if progress is not None:
            progress(record)

    meta = variance_record(dataset_key, bundle)
    if not store.has(meta.key()):
        keep(meta)
    for k in range(lo, hi + 1):
        for family in (f for f in FAMILIES if f in families):
            for config in GRIDS[family]():
                probe = ExperimentRecord(dataset_key, family, k, config,
                                         split_seed, 0)
                if store.has(probe.key()):
                    continue
                seed = cell_seed(settings.master_seed, dataset_key, family,
                                 config, split_seed)
                keep(run_cell(dataset_key, bundle, family, config, k, seed,
                              settings))
    return new_records


# --------------------------------------------------------------- selection

def select_best(records, train_f1_threshold: float = 0.5):
    """Argmax validation F1 over the error-free records whose solver
    converged (an SVM stopped by its step cap has extra.converged False).
    QNN records below the train-F1 threshold are dropped first; the
    paper's table captions gate the QNN sweep only, so other families are
    never gated. Ties go to the model with fewer parameters, then the
    lexicographically smaller config."""
    survivors = [r for r in records
                 if r.error is None and r.val is not None
                 and r.extra.get("converged") is not False
                 and not (r.family == "qnn"
                          and r.train.f1 < train_f1_threshold)]
    if not survivors:
        return None
    return min(survivors, key=lambda r: (-r.val.f1, r.n_parameters,
                                         canonical(r.config)))


# ----------------------------------------------------------------- reports

def _fmt(v) -> str:
    return f"{v:.4f}"


def _config_columns(record: ExperimentRecord):
    c = record.config
    if record.family == "qsvm":
        return [ENCODING_LABELS[c["encoding"]], c["repetitions"]]
    if record.family == "qnn":
        return [c["sequence"], "yes" if c["reupload"] else "no", c["ansatz"],
                record.extra.get("n_layers", "")]
    label = MODEL_LABELS.get(c["model"], c["model"])
    if c["model"] == "svm":
        label = f"SVM-{c['kernel']}"
    return [label]


_HEADERS = {
    "qsvm": ["Feat", "Encoding", "Reps"],
    "qnn": ["Feat", "Encoding", "Reupload", "Ansatz", "Layers"],
    "classical": ["Feat", "Model"],
}
_METRIC_COLS = ["TrainP", "TrainR", "ValP", "ValR", "TestP", "TestR"]


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def emit_reports(records, out_dir, datasets=None) -> list:
    """Writes, per dataset: one CSV per model family, a best-model
    comparison table (test precision/recall of each family's winner per
    feature count), and the PCA cumulative-variance curve."""
    os.makedirs(out_dir, exist_ok=True)
    if datasets is None:
        datasets = sorted({r.dataset for r in records})
    written = []

    for dataset_key in datasets:
        rows_of = [r for r in records if r.dataset == dataset_key]
        for family in FAMILIES:
            fam = [r for r in rows_of
                   if r.family == family and r.error is None]
            out_rows = []
            for r in fam:
                metric_cells = [_fmt(v) for m in (r.train, r.val, r.test)
                                for v in (m.precision, m.recall)]
                out_rows.append([r.k] + _config_columns(r) + metric_cells)
            path = os.path.join(out_dir, f"{dataset_key}_{family}.csv")
            _write_csv(path, _HEADERS[family] + _METRIC_COLS, out_rows)
            written.append(path)

        threshold = THRESHOLDS.get(dataset_key, 0.5)
        ks = sorted({r.k for r in rows_of if r.family in FAMILIES})
        comp_rows = []
        for k in ks:
            cells = [k]
            for family in FAMILIES:
                winner = select_best(
                    [r for r in rows_of
                     if r.family == family and r.k == k], threshold)
                if winner is None:
                    cells += ["", ""]
                else:
                    cells += [_fmt(winner.test.precision),
                              _fmt(winner.test.recall)]
            comp_rows.append(cells)
        path = os.path.join(out_dir, f"{dataset_key}_comparison.csv")
        _write_csv(path, ["Feat", "QnnP", "QnnR", "QsvmP", "QsvmR",
                          "ClassicalP", "ClassicalR"], comp_rows)
        written.append(path)

        curves = [r for r in rows_of if r.family == "pca"]
        curve_rows = []
        if curves:
            ratios = curves[0].extra["cumulative_ratio"]
            curve_rows = [[i + 1, _fmt(v)] for i, v in enumerate(ratios)]
        path = os.path.join(out_dir, f"{dataset_key}_pca_variance.csv")
        _write_csv(path, ["Component", "CumulativeRatio"], curve_rows)
        written.append(path)
    return written
