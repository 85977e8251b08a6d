"""Acceptance gate: ten end-to-end checks against independent oracles
and published reference numbers. Each test prints one PASS/FAIL line
with its measured values and wall clock, visible even under capture.

Checks 1-5 are the property suite that `qmlgrid verify` runs, at its
default instance counts and seeds. Checks 5-8 use the real clinical CSV files when the data directory holds
them and fall back to the packaged synthetic stand-ins otherwise; the
printed line names which source was used.
"""
import csv
import time

import numpy as np

from qmlgrid import bench, datasets, qnn, verify
from qmlgrid.bench import RecordStore, RunSettings
from qmlgrid.cli import main
from qmlgrid.pipeline import stratified_split


def stamp(capsys, index, name, ok, detail, elapsed, budget):
    flag = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"\nCRITERION {index} {name}: {flag} "
              f"[{elapsed:.1f}s / budget {budget:.0f}s] {detail}")
    assert ok, f"criterion {index} ({name}): {detail}"
    assert elapsed < budget, \
        f"criterion {index} over budget: {elapsed:.1f}s >= {budget}s"


def stamp_check(capsys, index, name, result, budget):
    stamp(capsys, index, name, result.passed, result.detail, result.elapsed,
          budget)


def test_criterion_1_simulator_matches_unitary_oracle(capsys):
    stamp_check(capsys, 1, "simulator-oracle", verify.check_simulator(), 10.0)


def test_criterion_2_parameter_shift_matches_finite_differences(capsys):
    stamp_check(capsys, 2, "gradient-check", verify.check_gradients(), 60.0)


def test_criterion_3_kernel_properties(capsys):
    stamp_check(capsys, 3, "kernel-properties",
                verify.check_kernel_properties(), 120.0)


def test_criterion_4_svm_solver_matches_projected_gradient(capsys):
    stamp_check(capsys, 4, "svm-oracle", verify.check_svm_oracle(), 30.0)


def test_criterion_5_pca_explained_variance_thresholds(capsys):
    stamp_check(capsys, 5, "pca-variance", verify.check_pca(), 5.0)


def _qsvm_test_f1(dataset_key, dataset, k, encoding, reps, split_seed):
    bundle = stratified_split(dataset, split_seed)
    rec = bench.run_cell(dataset_key, bundle, "qsvm",
                         {"encoding": encoding, "repetitions": reps},
                         k, 0, RunSettings())
    return rec.test.f1


def test_criterion_6_reference_qsvm_bands(capsys):
    started = time.perf_counter()
    diabetes, dia_origin = datasets.resolve("diabetes")
    prostate, pro_origin = datasets.resolve("prostate")

    dia_f1 = [_qsvm_test_f1("diabetes", diabetes, 6, "z", 2, s)
              for s in range(5)]
    dia_mean = float(np.mean(dia_f1))
    dia_ok = 0.62 <= dia_mean <= 0.82

    pro_f1 = [_qsvm_test_f1("prostate", prostate, 4, "angle", 3, s)
              for s in range(5)]
    pro_hits = sum(f >= 0.75 for f in pro_f1)
    pro_ok = pro_hits >= 3

    detail = (f"diabetes[{dia_origin}] k=6 Z reps2 mean test F1 "
              f"{dia_mean:.3f} in [0.62, 0.82] "
              f"(per seed {[f'{f:.2f}' for f in dia_f1]}); "
              f"prostate[{pro_origin}] k=4 Angle reps3 {pro_hits}/5 seeds "
              f">= 0.75 (per seed {[f'{f:.2f}' for f in pro_f1]})")
    stamp(capsys, 6, "qsvm-reference-bands", dia_ok and pro_ok, detail,
          time.perf_counter() - started, 1800.0)


def test_criterion_7_selection_protocol_and_reports(capsys, tmp_path):
    started = time.perf_counter()
    picked_k = {"heart_failure": 4, "diabetes": 6, "prostate": 4}
    settings = RunSettings()
    store = RecordStore(tmp_path / "grid.jsonl")
    origins = {}
    for key, k in picked_k.items():
        dataset, origins[key] = datasets.resolve(key)
        bench.run_grid(key, dataset, store, settings,
                       families=("qsvm", "classical"),
                       feature_range=(k, k))

    out = tmp_path / "reports"
    bench.emit_reports(store.records(), out)

    problems = []
    winners = []
    for key, k in picked_k.items():
        recs = [r for r in store.records() if r.dataset == key]
        best = bench.select_best([r for r in recs if r.family == "qsvm"])
        if best is None:
            problems.append(f"{key}: no QSVM winner after filter")
            continue
        winners.append(f"{key}[{origins[key]}] k={k} "
                       f"{best.config['encoding']}/r{best.config['repetitions']}"
                       f" val F1 {best.val.f1:.3f}")
        with open(out / f"{key}_comparison.csv") as fh:
            rows = list(csv.reader(fh))
        if rows[0] != ["Feat", "QnnP", "QnnR", "QsvmP", "QsvmR",
                       "ClassicalP", "ClassicalR"]:
            problems.append(f"{key}: bad comparison header {rows[0]}")
        elif len(rows) != 2 or rows[1][0] != str(k):
            problems.append(f"{key}: comparison rows wrong: {rows[1:]}")
        elif rows[1][3] == "" or rows[1][5] == "":
            problems.append(f"{key}: empty QSVM/classical cells")
    detail = "; ".join(problems) if problems else "; ".join(winners)
    stamp(capsys, 7, "selection-protocol", not problems, detail,
          time.perf_counter() - started, 1200.0)


def test_criterion_8_heart_failure_noninferiority(capsys, tmp_path):
    started = time.perf_counter()
    dataset, origin = datasets.resolve("heart_failure")
    settings = RunSettings()
    store = RecordStore(tmp_path / "hf.jsonl")
    quantum, classical = [], []
    for seed in range(5):
        bench.run_grid("heart_failure", dataset, store, settings,
                       families=("qsvm", "classical"), feature_range=(4, 4),
                       split_seed=seed)
        recs = [r for r in store.records() if r.split_seed == seed]
        bq = bench.select_best([r for r in recs if r.family == "qsvm"])
        bc = bench.select_best([r for r in recs if r.family == "classical"])
        quantum.append(bq.test.f1)
        classical.append(bc.test.f1)
    mq, mc = float(np.mean(quantum)), float(np.mean(classical))
    ok = mq >= mc - 0.05
    stamp(capsys, 8, "imbalance-noninferiority", ok,
          f"heart_failure[{origin}] k=4, 5 seeds: mean best-quantum test F1 "
          f"{mq:.4f} vs mean best-classical {mc:.4f} "
          f"(gap {mq - mc:+.4f}, floor -0.05)",
          time.perf_counter() - started, 1800.0)


def test_criterion_9_run_determinism(capsys, tmp_path):
    started = time.perf_counter()
    stores = []
    for tag in ("a", "b"):
        store = tmp_path / f"{tag}.jsonl"
        code = main(["run", "--dataset", "prostate", "--features", "2..3",
                     "--families", "qsvm,classical",
                     "--store", str(store), "--seed", "17"])
        assert code == 0
        stores.append(store.read_bytes())
    identical = stores[0] == stores[1]
    stamp(capsys, 9, "run-determinism", identical,
          f"two `run` invocations, master seed 17: stores "
          f"{'byte-identical' if identical else 'DIFFER'} "
          f"({len(stores[0])} bytes)",
          time.perf_counter() - started, 600.0)


def test_criterion_10_qnn_grid_through_run_grid(capsys, tmp_path):
    started = time.perf_counter()
    dataset, origin = datasets.resolve("heart_failure")
    # small stated setting: 2 epochs, layer growth from 2 to 3
    settings = RunSettings(qnn_epochs=2, qnn_start_layers=2,
                           qnn_max_layers=3)
    stores = []
    for tag in ("a", "b"):
        store = RecordStore(tmp_path / f"{tag}.jsonl")
        bench.run_grid("heart_failure", dataset, store, settings,
                       families=("qnn",), feature_range=(4, 4))
        stores.append((tmp_path / f"{tag}.jsonl").read_bytes())
    cells = [r for r in store.records() if r.family == "qnn"]
    problems = []
    if len(cells) != 60:
        problems.append(f"{len(cells)} QNN cells, expected 60")
    layers = [r.extra["n_layers"] for r in cells]
    if not set(layers) <= {2, 3}:
        problems.append(f"best layer counts {sorted(set(layers))} "
                        f"outside 2..3")
    wrong_size = [r.key() for r in cells if
                  r.n_parameters != qnn.QnnConfig(
                      4, tuple(r.config["sequence"]), r.config["reupload"],
                      r.config["ansatz"], r.extra["n_layers"]).n_parameters()]
    if wrong_size:
        problems.append(f"n_parameters disagrees with QnnConfig on "
                        f"{len(wrong_size)} cells, first {wrong_size[0]}")
    if stores[0] != stores[1]:
        problems.append("two runs wrote different store bytes")
    detail = "; ".join(problems) if problems else (
        f"heart_failure[{origin}] k=4, {len(cells)} QNN cells at 2 epochs, "
        f"layers 2..3: 0 errors, n_parameters match QnnConfig, best layers "
        f"{layers.count(2)}x2 / {layers.count(3)}x3, two runs "
        f"byte-identical ({len(stores[0])} bytes)")
    stamp(capsys, 10, "qnn-grid", not problems, detail,
          time.perf_counter() - started, 60.0)
