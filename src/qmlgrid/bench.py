"""Grid-search orchestration, run settings, the record store, selection,
and reports.

A record store is one append-only file of line-delimited JSON records,
one per grid cell, written in deterministic enumeration order so two runs
with the same master seed produce byte-identical stores. Wall-clock
timings never enter the store (they would break that guarantee); they go
to a sidecar file next to it. A line holds every ExperimentRecord field
but wall_clock, each of the JSON type _RECORD_TYPES gives it.

A grid's split bundle holds the train, val and test rows stacked once at
every component; a cell at k takes the first k columns of that stack,
and its splits as slices of them.

A settings file is flat `key = value` text whose keys are RunSettings
fields and whose values are JSON. Every value is checked before a run
appends anything, so bad input leaves the store untouched.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import os
import re
import time
import warnings
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import get_type_hints

import numpy as np

from . import baselines, qnn, svm
from .circuit import (ANSATZ_ROTATIONS, AXES, FEATURE_MAPS, FUSE_MAX_QUBITS,
                      encode)
from .errors import (ConfigurationError, IngestionError,
                     TrainingDivergedError, UsageError)
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
    """Sorted compact JSON; a nested Metrics is written by its fields."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      default=vars)


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

_OR_NULL = type(None)
_RECORD_TYPES = {"dataset": str, "family": str, "k": int, "split_seed": int,
                 "seed": int, "n_parameters": int, "config": dict,
                 "extra": dict, "error": (str, _OR_NULL),
                 "train": (dict, _OR_NULL), "val": (dict, _OR_NULL),
                 "test": (dict, _OR_NULL)}
_METRIC_TYPES = get_type_hints(Metrics)


def _check_types(d: dict, types: dict, prefix: str = "") -> None:
    """Refuses d unless it has exactly the keys of types, typed as given."""
    for key, kind in types.items():
        value = d[key]
        # bool is an int subclass, and json true is no count or seed
        if not isinstance(value, kind) or isinstance(value, bool):
            raise TypeError(f"{prefix + key!r} may not be "
                            f"{type(value).__name__}")
    unknown = sorted(prefix + key for key in d.keys() - types.keys())
    if unknown:
        raise ValueError(f"unknown fields {unknown}")


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
        return canonical({name: value for name, value in vars(self).items()
                          if name != "wall_clock"})

    @staticmethod
    def from_line(line: str) -> "ExperimentRecord":
        """The record of a store line. The reports read every config key,
        so a record without error must hold a cell of its family's grid,
        or {} for "pca"; other families are refused."""
        d = json.loads(line)
        _check_types(d, _RECORD_TYPES)
        for split in ("train", "val", "test"):
            if d[split] is not None:
                _check_types(d[split], _METRIC_TYPES, split + ".")
                d[split] = Metrics(**d[split])
        family = d["family"]
        if family != "pca" and family not in GRIDS:
            raise ValueError(f"unknown family {family!r}")
        if d["error"] is None and d["config"] not in (
                GRIDS[family]() if family in GRIDS else [{}]):
            raise ValueError(f"{family} config {d['config']} is not on "
                             f"the grid")
        return ExperimentRecord(**d)


class RecordStore:
    """Append-only line store; loading an existing file makes reruns skip
    completed cells. Errored records stay in the file but do not count as
    done, so a rerun retries their cells. A torn last line is cut off with
    a warning; a malformed complete line, or a second error-free record
    of one cell (two stores joined, say), raises IngestionError and
    leaves the file as it is, and append refuses such a second record
    before writing it."""

    def __init__(self, path):
        self.path = str(path)
        self._records = []
        self._keys = set()
        self._files = None      # suffix -> open file, inside writing()
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as fh:
            data = fh.read()
        whole = data.rfind(b"\n") + 1
        done_at = {}        # key -> line of its error-free record
        for n, line in enumerate(data[:whole].splitlines(), start=1):
            if not line.strip():
                continue
            try:
                record = ExperimentRecord.from_line(line.decode())
            except (ValueError, KeyError, TypeError) as exc:
                raise IngestionError(f"{self.path}: line {n}: not a record: "
                                     f"{type(exc).__name__}: {exc}") from None
            key = record.key()
            if record.error is None:
                first = done_at.setdefault(key, n)
                if first != n:
                    raise IngestionError(
                        f"{self.path}: line {n}: repeats the cell of line "
                        f"{first}: {key}")
            self._append_memory(record, key)
        if whole < len(data):
            # a crash mid-append leaves an unterminated last line
            os.truncate(self.path, whole)
            warnings.warn(f"{self.path}: dropped an unterminated last line "
                          f"of {len(data) - whole} bytes")

    def _append_memory(self, record, key):
        self._records.append(record)
        if record.error is None:
            self._keys.add(key)

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
        """Writes the record; an error-free record of a cell already done
        raises IngestionError and writes nothing, as the store would then
        refuse to load."""
        key = record.key()
        if record.error is None and key in self._keys:
            raise IngestionError(f"{self.path}: the cell is already done: "
                                 f"{key}")
        with self.writing():
            self._write("", record.to_line())
            if record.wall_clock is not None:
                self._write(".timings", f"{key}\t{record.wall_clock:.6f}")
        self._append_memory(record, key)

    @contextlib.contextmanager
    def writing(self):
        """Keeps the files that appends open (the store, and its timings
        sidecar once a timed record comes) until the block ends, so a
        grid opens each once; every line is flushed as it is written, so
        another open() reads it at once. Blocks nest."""
        if self._files is not None:
            yield
            return
        self._files = {}
        try:
            yield
        finally:
            files, self._files = self._files, None
            for fh in files.values():
                fh.close()

    def _write(self, suffix: str, line: str) -> None:
        fh = self._files.get(suffix)
        if fh is None:
            fh = self._files[suffix] = open(self.path + suffix, "a")
        fh.write(line + "\n")
        fh.flush()


# ---------------------------------------------------------------- settings

_KEY = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _read_document(path) -> dict:
    """Parses a flat `key = value` file: one JSON value per line, blank
    lines and `#` comments skipped; a key set twice is refused."""
    out = {}
    lines = {}          # key -> line that set it
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
            if key in lines:
                raise IngestionError(f"{path}: line {n}: repeats {key!r} of "
                                     f"line {lines[key]}")
            lines[key] = n
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


# A grid runs every cell of one k in a row, and the QNN grid puts the
# ansaetze of one encoding layout side by side, so the memo holds one
# entry. Its key holds the bundle itself (hashed by identity), so a freed
# bundle's id can never hit, and its arrays are read-only, as every cell
# of the key shares them.

@lru_cache(maxsize=1)
def _qnn_encoding(bundle: SplitBundle, k: int, sequence: tuple,
                  reupload: bool):
    """One circuit.encode of the bundle's features at k, for the QNNs of
    this width, encoding sequence and re-upload setting. A split is a
    slice of it, equal bit for bit to an encode of that split alone, as
    encoding is elementwise per row, so one pass predicts every split."""
    return encode(qnn.QnnConfig(k, sequence, reupload), bundle.features(k))


def _svm_predictions(gram, kernel_rows, y, rows, weights):
    """(support size, split -> 0/1 predictions, extra) of the SVM fit on
    the train Gram; kernel_rows(r) gives stack rows r against train."""
    tr = rows["train"]
    model = svm.solve_dual(svm.SvmProblem(
        gram, np.where(y[tr] == 1, 1, -1), SVM_C, weights))
    preds = {s: (svm.predict(model, gram if s == "train" else
                             kernel_rows(r)) > 0).astype(int)
             for s, r in rows.items()}
    extra = {"converged": bool(model.converged), "sweeps": int(model.sweeps)}
    return len(model.support), preds, extra


def run_cell(dataset_key: str, bundle: SplitBundle, family: str,
             config: dict, k: int, seed: int,
             settings: RunSettings) -> ExperimentRecord:
    """The record of one grid cell; a failure in CELL_ERRORS becomes its
    error. Every family takes each split as a slice of the bundle's
    features at k, or of a QNN's encoding of them; a memo of the last QNN
    layout encodes each once per grid. A QSVM cell embeds
    the stack in one qkernel.embed; a QNN cell grows layers from
    settings.qnn_start_layers and predicts it with the best trial's
    model in one qnn.forward_batch. Each family's per-split 0/1
    predictions are scored here."""
    record = ExperimentRecord(dataset_key, family, k, config,
                              bundle.seed, seed)
    started = time.perf_counter()
    try:
        X, y, rows = bundle.features(k), bundle.y, bundle.rows
        tr = rows["train"]
        weights = bundle.class_weights()

        if family == "qsvm":
            states = embed(config["encoding"], X, config["repetitions"])
            train = states[tr]
            n_par, preds, extra = _svm_predictions(
                gram_matrix(train), lambda r: cross_gram(states[r], train),
                y, rows, weights)

        elif family == "classical":
            model_kind = config["model"]
            Xtr = X[tr]
            if model_kind == "svm":
                kind = config["kernel"]
                n_par, preds, extra = _svm_predictions(
                    svm.kernel_matrix(kind, Xtr, Xtr),
                    lambda r: svm.kernel_matrix(kind, X[r], Xtr),
                    y, rows, weights)
            elif model_kind == "logistic":
                model = baselines.fit_logistic(Xtr, y[tr], weights)
                preds = {s: baselines.predict_logistic(model, X[r])
                         for s, r in rows.items()}
                n_par, extra = k + 1, {}
            elif model_kind in ("tree", "forest"):
                model = (baselines.fit_tree(Xtr, y[tr], weights)
                         if model_kind == "tree" else
                         baselines.fit_forest(Xtr, y[tr], weights, seed=seed))
                preds = {s: baselines.predict_forest(model, X[r])
                         for s, r in rows.items()}
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
            encoded = _qnn_encoding(bundle, k, cfg.encoding_sequence,
                                    cfg.reupload)
            va = rows["val"]
            growth = qnn.grow_layers(
                cfg, weights, (encoded[tr], y[tr]), (encoded[va], y[va]),
                max_layers=settings.qnn_max_layers,
                epochs=settings.qnn_epochs)
            best = growth.best
            probs = qnn.forward_batch(best.model, encoded)
            preds = {s: qnn.predict(probs[r]) for s, r in rows.items()}
            n_par = len(best.model.parameters)
            extra = {"n_layers": best.model.config.n_layers,
                     "layer_trials": len(growth.trials),
                     "best_epoch": best.report.best_epoch}
        else:
            raise UsageError(f"unknown family {family!r}")

        record.n_parameters = int(n_par)
        for split, r in rows.items():
            setattr(record, split, evaluate(y[r], preds[split]))
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
    if lo < 2 and {"qnn", "qsvm"} & set(families):
        raise UsageError(f"QNN and QSVM cells take at least 2 features, got "
                         f"feature range {feature_range}")
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
    with store.writing():
        if not store.has(meta.key()):
            keep(meta)
        for k in range(lo, hi + 1):
            for family in (f for f in FAMILIES if f in families):
                for config in GRIDS[family]():
                    probe = ExperimentRecord(dataset_key, family, k, config,
                                             split_seed, 0)
                    if store.has(probe.key()):
                        continue
                    seed = cell_seed(settings.master_seed, dataset_key,
                                     family, config, split_seed)
                    keep(run_cell(dataset_key, bundle, family, config, k,
                                  seed, settings))
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
