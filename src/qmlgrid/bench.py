"""Grid-search orchestration, run settings, the record store, selection,
and reports. A dataset's default feature sweep and QNN train-F1 gate
are read from its datasets.PROFILES entry.

A record store is one append-only file of line-delimited JSON records,
one per completed grid cell, written in deterministic enumeration order
so two runs with the same master seed produce byte-identical stores. A
cell that raises writes nothing, so a rerun retries it. Wall-clock
timings never enter the store (they would break that guarantee); they go
to a sidecar file next to it. A line holds every ExperimentRecord field
but wall_clock, each of the JSON type _RECORD_TYPES gives it.

A grid's split bundle holds the train, val and test rows stacked once at
every component; a cell at k takes the first k columns of that stack,
and its splits as slices of them.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import itertools
import json
import os
import time
import warnings
from dataclasses import dataclass, field, fields
from functools import wraps
from typing import get_type_hints

import numpy as np

from . import baselines, qnn, svm
from .circuit import ANSATZ_ROTATIONS, AXES, FUSE_MAX_QUBITS, encode
from .datasets import profile
from .errors import ConfigurationError, IngestionError, UsageError
from .metrics import Metrics, evaluate
from .pipeline import SplitBundle, stratified_split
from .qkernel import KINDS, cross_gram, embed, gram_matrix

FAMILIES = ("qnn", "qsvm", "classical")

ENCODING_LABELS = {"angle": "Angle", "z": "Z", "zz_a": "ZZ",
                   "zz_b": "ZZ-qiskit"}

MODEL_LABELS = {"logistic": "LogisticRegression", "tree": "DecisionTree",
                "forest": "RandomForest"}


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
            for e in KINDS
            for r in (1, 2, 3)]


def classical_grid():
    cells = [{"model": m} for m in ("logistic", "tree", "forest")]
    cells += [{"model": "svm", "kernel": k}
              for k in svm.KERNEL_KINDS]
    return cells


GRIDS = {"qnn": qnn_grid, "qsvm": qsvm_grid, "classical": classical_grid}


# ----------------------------------------------------------------- records

_OR_NULL = type(None)
_RECORD_TYPES = {"dataset": str, "family": str, "k": int, "split_seed": int,
                 "seed": int, "n_parameters": int, "config": dict,
                 "extra": dict, "error": _OR_NULL,
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
    # always None: every store line holds the key, and perfbench reads it
    error: None = None
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
        so a record must hold a cell of its family's grid, or {} for
        "pca"; other families are refused. A grid cell's record holds
        the metrics of every split, and a "pca" record none."""
        d = json.loads(line)
        _check_types(d, _RECORD_TYPES)
        family = d["family"]
        if family != "pca" and family not in GRIDS:
            raise ValueError(f"unknown family {family!r}")
        for split in SplitBundle.SPLITS:
            if (d[split] is None) != (family == "pca"):
                raise ValueError(f"{split} must be null in a pca record "
                                 f"and only there")
            if d[split] is not None:
                _check_types(d[split], _METRIC_TYPES, split + ".")
                d[split] = Metrics(**d[split])
        if d["config"] not in (GRIDS[family]() if family in GRIDS else [{}]):
            raise ValueError(f"{family} config {d['config']} is not on "
                             f"the grid")
        return ExperimentRecord(**d)


def read_store(path) -> tuple:
    """(records, torn) of a store file: the records of its whole lines,
    and the count of bytes after its last newline, which a crash
    mid-append leaves. Reads the file and leaves it as it is. A
    malformed whole line, or a second record of one cell (two stores
    joined, say), raises IngestionError naming path."""
    with open(path, "rb") as fh:
        data = fh.read()
    whole = data.rfind(b"\n") + 1
    records = []
    line_of = {}        # key -> line of its record
    for n, line in enumerate(data[:whole].splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = ExperimentRecord.from_line(line.decode())
        except (ValueError, KeyError, TypeError) as exc:
            raise IngestionError(f"{path}: line {n}: not a record: "
                                 f"{type(exc).__name__}: {exc}") from None
        key = record.key()
        first = line_of.setdefault(key, n)
        if first != n:
            raise IngestionError(f"{path}: line {n}: repeats the cell "
                                 f"of line {first}: {key}")
        records.append(record)
    return records, len(data) - whole


class RecordStore:
    """Append-only line store; loading an existing file makes reruns skip
    the cells it holds. A torn last line is cut off with a warning, as
    appends go on after it; a store that read_store refuses raises
    IngestionError and is left as it is, and append refuses a second
    record of a cell before writing it."""

    def __init__(self, path):
        self.path = str(path)
        self._records = []
        self._keys = set()
        self._files = None      # suffix -> open file, inside writing()
        if not os.path.exists(self.path):
            return
        records, torn = read_store(self.path)
        for record in records:
            self._append_memory(record, record.key())
        if torn:
            os.truncate(self.path, os.path.getsize(self.path) - torn)
            warnings.warn(f"{self.path}: dropped an unterminated last line "
                          f"of {torn} bytes")

    def _append_memory(self, record, key):
        self._records.append(record)
        self._keys.add(key)

    def __len__(self):
        return len(self._records)

    def completed_cells(self) -> int:
        """The grid cells held; a PCA record is no cell."""
        return sum(1 for r in self._records if r.family != "pca")

    def records(self):
        return list(self._records)

    def has(self, record_key: str) -> bool:
        return record_key in self._keys

    def append(self, record: ExperimentRecord) -> None:
        """Writes the record; a record of a cell already held raises
        IngestionError and writes nothing, as the store would then refuse
        to load."""
        key = record.key()
        if key in self._keys:
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

@dataclass(frozen=True)
class RunSettings:
    """What a grid run may vary; model constants live in their modules
    (qnn.LEARNING_RATE, qnn.BATCH_SIZE, qnn.PATIENCE; an SVM sample's
    box is its class weight)."""
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


# ------------------------------------------------------------------- cells

# A grid runs every cell of one k in a row. The QSVM grid puts the
# cells of one feature map side by side, repetitions 1 to 3, so one
# memo holds the last (k, feature map)'s embedding at every repetition
# count, built at its first cell, and each cell reads its count's
# entry. The QNN grid puts the four cells of one encoding sequence
# (re-upload off and on, each with both ansaetze) side by side, so one
# memo holds the last (k, sequence)'s encoding with its re-upload
# payload, which all four read. Their keys hold the bundle itself
# (hashed by identity), so a freed bundle's id can never hit, and their
# arrays are read-only, as every cell of the key shares them. A memo
# lets go of its last arrays before it computes the next key's, and
# run_grid clears the memos as it ends.
# The QSVM stack is the largest: (3, rows, 2**k) complex128, 117 MB on
# heart_failure's 299 rows at k = 13, three times the one repetition
# count's states a cell would embed for itself.

def _last_call(fn):
    """fn memoized on its last call alone, as lru_cache(maxsize=1), but
    the last value is dropped before a new key's is computed, so two
    keys' arrays are never held at once; clear() drops it outright."""
    last = {}

    @wraps(fn)
    def memo(*key):
        if key not in last:
            last.clear()
            last[key] = fn(*key)
        return last[key]
    memo.clear = last.clear
    return memo


@_last_call
def _qsvm_states(bundle: SplitBundle, k: int, encoding: str):
    """qkernel.embed of the bundle's features at k under this feature
    map, up to the QSVM grid's largest repetition count: entry r - 1
    serves the cells at r repetitions."""
    return embed(encoding, bundle.features(k),
                 max(c["repetitions"] for c in qsvm_grid()))


@_last_call
def _qnn_encoding(bundle: SplitBundle, k: int, sequence: tuple):
    """The circuit.encode of the bundle's features at k for this
    encoding sequence, with the re-upload payload, so it serves both
    re-upload settings. A split is a slice of it, equal bit for bit to
    an encode of that split alone, as encoding is elementwise per row,
    so one pass predicts every split."""
    return encode(qnn.QnnConfig(k, sequence, reupload=True),
                  bundle.features(k))


def _svm_predictions(gram, kernel_rows, y, rows, weights):
    """(support size, split -> 0/1 predictions, extra) of the SVM fit on
    the train Gram; kernel_rows(r) gives stack rows r against train."""
    tr = rows["train"]
    model = svm.solve_dual(svm.SvmProblem(gram, y[tr], weights))
    preds = {s: svm.predict(model, gram if s == "train" else kernel_rows(r))
             for s, r in rows.items()}
    extra = {"converged": bool(model.converged), "sweeps": int(model.sweeps)}
    return len(model.support), preds, extra


def run_cell(dataset_key: str, bundle: SplitBundle, family: str,
             config: dict, k: int, seed: int,
             settings: RunSettings) -> ExperimentRecord:
    """The record of one grid cell; whatever the cell raises propagates,
    as no cell of the grids on valid data fails. Every family takes
    each split as a slice of the bundle's features at k, or of their
    embedding or QNN encoding; memos of the last feature map and
    encoding sequence embed or encode each once per k. A QSVM cell
    reads its repetition count's entry of the stack's one
    qkernel.embed; a QNN cell grows layers from
    settings.qnn_start_layers and predicts it with the best trial's
    model in one qnn.forward_batch. An SVM cell's extra holds its
    solver's converged flag and sweeps, a logistic cell's its fit's
    converged flag and Newton steps. Each family's per-split 0/1
    predictions are scored here."""
    started = time.perf_counter()
    X, y, rows = bundle.features(k), bundle.y, bundle.rows
    tr = rows["train"]
    weights = bundle.class_weights()

    if family == "qsvm":
        stack = _qsvm_states(bundle, k, config["encoding"])
        reps = config["repetitions"]
        if not 1 <= reps <= len(stack):
            raise ConfigurationError(f"repetitions must be in "
                                     f"1..{len(stack)}, got {reps}")
        states = stack[reps - 1]
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
            n_par = k + 1
            extra = {"converged": model.converged, "steps": model.steps}
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
        encoded = _qnn_encoding(bundle, k, cfg.encoding_sequence)
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

    scores = {split: evaluate(y[r], preds[split]) for split, r in rows.items()}
    return ExperimentRecord(dataset_key, family, k, config, bundle.seed, seed,
                            n_parameters=int(n_par), extra=extra,
                            wall_clock=time.perf_counter() - started,
                            **scores)


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
    a fixed enumeration order, and returns the new records. A cell that
    raises ends the grid, with the records before it kept, so a rerun
    starts at that cell. An unknown
    dataset_key is refused before anything is written; the feature range
    defaults to the key's profile's."""
    default_range = profile(dataset_key).feature_range
    feature_range = feature_range or default_range
    unknown = set(families) - set(FAMILIES)
    if unknown:
        raise UsageError(f"unknown families {sorted(unknown)}")
    if split_seed is None:
        split_seed = settings.master_seed
    if split_seed < 0:
        raise UsageError(f"split seed must be >= 0, got {split_seed}")
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
    try:
        with store.writing():
            if not store.has(meta.key()):
                keep(meta)
            for k in range(lo, hi + 1):
                for family in (f for f in FAMILIES if f in families):
                    for config in GRIDS[family]():
                        probe = ExperimentRecord(dataset_key, family, k,
                                                 config, split_seed, 0)
                        if store.has(probe.key()):
                            continue
                        seed = cell_seed(settings.master_seed, dataset_key,
                                         family, config, split_seed)
                        keep(run_cell(dataset_key, bundle, family, config,
                                      k, seed, settings))
    finally:
        # every memo key holds this grid's bundle, which no later call sees
        for memo in (_qsvm_states, _qnn_encoding):
            memo.clear()
    return new_records


def record_differences(expected, actual,
                       sides: tuple = ("expected", "actual")) -> list:
    """Lines telling two record lists apart, matched by key(): each cell
    that only one list holds, named by its list's entry in `sides`,
    then each cell both hold whose fields (wall_clock aside) differ as
    written to a store line, with every such field as expected ->
    actual. Empty when every cell's line is byte-equal; a cell listed
    twice counts its last record."""
    ours = {r.key(): r for r in expected}
    theirs = {r.key(): r for r in actual}
    lines = [f"only in {side}: {key}"
             for side, a, b in ((sides[0], ours, theirs),
                                (sides[1], theirs, ours))
             for key in a if key not in b]
    for key, record in ours.items():
        other = theirs.get(key)
        if other is None:
            continue
        changed = [f"{name} {value!r} -> {getattr(other, name)!r}"
                   for name, value in vars(record).items()
                   if name != "wall_clock"
                   and canonical(value) != canonical(getattr(other, name))]
        if changed:
            lines.append(f"{key}: " + "; ".join(changed))
    return lines


# --------------------------------------------------------------- selection

def select_best(records):
    """Argmax validation F1 over the grid-cell records whose solver
    converged (an SVM stopped by its step cap, or a logistic fit stopped
    unconverged, has extra.converged False).
    QNN records whose train F1 is below their dataset profile's
    qnn_train_f1 are dropped first; the paper's table captions gate the
    QNN sweep only, so other families are never gated. Ties go to the
    model with fewer parameters, then the lexicographically smaller
    config."""
    survivors = [r for r in records
                 if r.extra.get("converged") is not False
                 and not (r.family == "qnn" and r.train.f1
                          < profile(r.dataset).qnn_train_f1)]
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
            fam = [r for r in rows_of if r.family == family]
            out_rows = []
            for r in fam:
                metric_cells = [_fmt(v) for m in (r.train, r.val, r.test)
                                for v in (m.precision, m.recall)]
                out_rows.append([r.k] + _config_columns(r) + metric_cells)
            path = os.path.join(out_dir, f"{dataset_key}_{family}.csv")
            _write_csv(path, _HEADERS[family] + _METRIC_COLS, out_rows)
            written.append(path)

        ks = sorted({r.k for r in rows_of if r.family in FAMILIES})
        comp_rows = []
        for k in ks:
            cells = [k]
            for family in FAMILIES:
                winner = select_best(
                    [r for r in rows_of
                     if r.family == family and r.k == k])
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
