import csv
import importlib
import json
import os

import numpy as np
import pytest

from qmlgrid import bench, datasets, qkernel, qnn, svm
from qmlgrid.bench import (ExperimentRecord, RecordStore, RunSettings,
                           canonical, cell_seed, select_best)
from qmlgrid.errors import IngestionError, UsageError
from qmlgrid.metrics import Metrics
from qmlgrid.pipeline import stratified_split


def fake_metrics(f1, precision=0.5, recall=0.5):
    return Metrics(1, 1, 1, 1, precision, recall, f1)


def fake_record(family="qsvm", config=None, f1=0.8, train_f1=0.9,
                n_parameters=10, error=None, k=4):
    m = fake_metrics(f1)
    return ExperimentRecord(
        "toy", family, k, config or {"encoding": "z", "repetitions": 1},
        0, 0, n_parameters=n_parameters,
        train=fake_metrics(train_f1), val=m, test=m, error=error)


def retyped(key, value) -> str:
    """A record line with one field's value replaced."""
    d = json.loads(fake_record(k=2).to_line())
    d[key] = value
    return json.dumps(d)


class TestGrids:
    def test_sizes(self):
        assert len(bench.qnn_grid()) == 60
        assert len(bench.qsvm_grid()) == 12
        assert len(bench.classical_grid()) == 7

    def test_axis_sequences_order(self):
        seqs = bench.axis_sequences()
        assert len(seqs) == len(set(seqs)) == 15
        assert seqs[:6] == ["X", "Y", "Z", "XY", "XZ", "YX"]
        assert seqs[-1] == "ZYX"

    def test_qsvm_grid_covers_all_pairs(self):
        cells = bench.qsvm_grid()
        assert {(c["encoding"], c["repetitions"]) for c in cells} == {
            (e, r) for e in ("angle", "z", "zz_a", "zz_b") for r in (1, 2, 3)}

    def test_classical_grid_models(self):
        models = [c.get("kernel", c["model"]) for c in bench.classical_grid()]
        assert models == ["logistic", "tree", "forest",
                          "linear", "poly3", "rbf", "sigmoid"]


class TestCellSeed:
    def test_deterministic_and_key_order_free(self):
        a = cell_seed(0, "d", "qsvm", {"encoding": "z", "repetitions": 2}, 1)
        b = cell_seed(0, "d", "qsvm", {"repetitions": 2, "encoding": "z"}, 1)
        assert a == b

    def test_sensitive_to_every_field(self):
        base = cell_seed(0, "d", "qsvm", {"encoding": "z"}, 0)
        assert cell_seed(1, "d", "qsvm", {"encoding": "z"}, 0) != base
        assert cell_seed(0, "e", "qsvm", {"encoding": "z"}, 0) != base
        assert cell_seed(0, "d", "qnn", {"encoding": "z"}, 0) != base
        assert cell_seed(0, "d", "qsvm", {"encoding": "x"}, 0) != base
        assert cell_seed(0, "d", "qsvm", {"encoding": "z"}, 1) != base

    def test_fits_in_uint64(self):
        s = cell_seed(0, "d", "qsvm", {}, 0)
        assert 0 <= s < 2 ** 64


class TestRecordLines:
    def test_round_trip(self):
        rec = fake_record()
        rec.extra = {"converged": True, "sweeps": 12}
        line = rec.to_line()
        back = ExperimentRecord.from_line(line)
        assert back.to_line() == line
        assert back.key() == rec.key()
        assert back.val.f1 == rec.val.f1

    def test_wall_clock_never_serialized(self):
        rec = fake_record()
        rec.wall_clock = 12.5
        assert "12.5" not in rec.to_line()
        assert "wall" not in rec.to_line()

    def test_key_ignores_results(self):
        a = fake_record(f1=0.1)
        b = fake_record(f1=0.9)
        assert a.key() == b.key()

    def test_error_record_round_trip(self):
        rec = ExperimentRecord("toy", "qsvm", 4, {}, 0, 0,
                               error="UsageError: boom")
        back = ExperimentRecord.from_line(rec.to_line())
        assert back.error == "UsageError: boom"
        assert back.train is None and back.test is None


class TestRecordStore:
    def test_append_and_reload(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = RecordStore(path)
        rec = fake_record()
        rec.wall_clock = 0.25
        store.append(rec)
        assert len(store) == 1 and store.has(rec.key())

        reopened = RecordStore(path)
        assert len(reopened) == 1
        assert reopened.records()[0].to_line() == rec.to_line()

    def test_timings_go_to_sidecar(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = RecordStore(path)
        rec = fake_record()
        rec.wall_clock = 0.25
        store.append(rec)
        assert "0.25" not in path.read_text()
        sidecar = tmp_path / "s.jsonl.timings"
        assert sidecar.exists() and "0.250" in sidecar.read_text()

    def test_missing_file_is_empty(self, tmp_path):
        assert len(RecordStore(tmp_path / "none.jsonl")) == 0

    def test_torn_last_line_is_dropped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        full = fake_record(k=2).to_line()
        torn = fake_record(k=3).to_line()
        path.write_text(full + "\n" + torn[:len(torn) // 2])
        with pytest.warns(UserWarning, match="unterminated"):
            store = RecordStore(path)
        assert len(store) == 1
        assert path.read_text() == full + "\n"
        store.append(fake_record(k=3))
        assert len(RecordStore(path)) == 2

    def test_malformed_complete_line_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(fake_record().to_line()[:-3] + "\n")
        with pytest.raises(IngestionError, match="line 1"):
            RecordStore(path)

    @pytest.mark.parametrize("bad", [
        '{"dataset": "x"}', "[1, 2]", '"text"', "\udcff",
        retyped("k", "2"), retyped("seed", 1.5), retyped("config", []),
        retyped("n_parameters", True), retyped("error", 3),
        retyped("test", [1])],
        ids=["missing-keys", "list", "string", "not-utf8", "text-k",
             "float-seed", "list-config", "bool-count", "number-error",
             "list-metrics"])
    def test_line_that_is_no_record_names_its_line(self, tmp_path, bad):
        path = tmp_path / "s.jsonl"
        data = (fake_record(k=2).to_line() + "\n\n" + bad + "\n").encode(
            errors="surrogateescape")
        path.write_bytes(data + b'{"torn')
        with pytest.raises(IngestionError, match="line 3"):
            RecordStore(path)
        assert path.read_bytes() == data + b'{"torn'


class TestRunSettings:
    def test_document_round_trip(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("master_seed = 7\nqnn_epochs = 3\n")
        s = RunSettings.from_document(path)
        assert (s.master_seed, s.qnn_epochs) == (7, 3)
        assert s.qnn_max_layers == 100     # defaults fill the rest

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("master_sneed = 7\n")
        with pytest.raises(Exception, match="master_sneed"):
            RunSettings.from_document(path)

    def test_comments_and_blanks_skipped(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("# header\n\nmaster_seed = 1\n  # indented "
                        "comment\nqnn_epochs = 2\n")
        assert RunSettings.from_document(path) == RunSettings(
            master_seed=1, qnn_epochs=2)

    def test_missing_equals_names_line(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("master_seed = 1\njunk line\n")
        with pytest.raises(IngestionError, match="line 2"):
            RunSettings.from_document(path)

    def test_bad_json_value_names_key(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text("master_seed = {not json\n")
        with pytest.raises(IngestionError, match="'master_seed'"):
            RunSettings.from_document(path)

    def test_equals_inside_value_survives(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text('s = "a = b"\n')
        assert bench._read_document(path) == {"s": "a = b"}


class TestSelectBest:
    def test_argmax_val_f1(self):
        recs = [fake_record(f1=0.6), fake_record(f1=0.9), fake_record(f1=0.7)]
        assert select_best(recs) is recs[1]

    def test_error_and_missing_metrics_skipped(self):
        bad = fake_record(f1=0.99, error="boom")
        empty = ExperimentRecord("toy", "qsvm", 4, {}, 0, 0)
        good = fake_record(f1=0.5)
        assert select_best([bad, empty, good]) is good

    def test_train_gate_applies_only_to_listed_families(self):
        weak_qnn = fake_record(family="qnn", f1=0.9, train_f1=0.3,
                               config={"sequence": "Y"})
        ok_qsvm = fake_record(family="qsvm", f1=0.5, train_f1=0.3)
        pick = select_best([weak_qnn, ok_qsvm], train_f1_threshold=0.5)
        assert pick is ok_qsvm

    def test_tie_prefers_fewer_parameters(self):
        big = fake_record(f1=0.8, n_parameters=50)
        small = fake_record(f1=0.8, n_parameters=5)
        assert select_best([big, small]) is small

    def test_full_tie_breaks_on_config_text(self):
        a = fake_record(config={"encoding": "angle", "repetitions": 1})
        b = fake_record(config={"encoding": "z", "repetitions": 1})
        assert select_best([b, a]) is a

    def test_empty_gives_none(self):
        assert select_best([]) is None

    def test_unconverged_solve_is_skipped(self):
        # an SVM cell whose solve hit its step cap keeps its metrics but
        # says converged=False; selection passes over it
        rng = np.random.default_rng(6)
        X = rng.normal(size=(12, 3))
        labels = np.where(np.arange(12) % 2 == 0, 1, -1)
        model = svm.solve_dual(svm.SvmProblem(
            svm.kernel_matrix("rbf", X, X), labels), max_iter=1)
        assert not model.converged
        config = {"model": "svm", "kernel": "rbf"}
        capped = fake_record("classical", config, f1=0.9)
        capped.extra = {"converged": model.converged, "sweeps": model.sweeps}
        done = fake_record("classical", config, f1=0.6)
        done.extra = {"converged": True, "sweeps": 40}
        assert select_best([capped, done]) is done
        assert select_best([capped]) is None


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """One tiny real grid shared by the integration tests below."""
    ds = datasets.synthetic("prostate")
    td = tmp_path_factory.mktemp("bench")
    path = td / "store.jsonl"
    store = RecordStore(path)
    settings = RunSettings()
    new = bench.run_grid("prostate", ds, store, settings,
                         families=("qsvm", "classical"),
                         feature_range=(2, 2))
    return ds, path, store, settings, new


class TestRunGrid:
    def test_cell_count(self, small_run):
        _, _, store, _, new = small_run
        # 12 qsvm + 7 classical + 1 pca meta record
        assert len(new) == 20 and len(store) == 20

    def test_all_cells_clean(self, small_run):
        _, _, store, _, _ = small_run
        assert [r.error for r in store.records()] == [None] * 20

    def test_pca_meta_record_present(self, small_run):
        _, _, store, _, _ = small_run
        meta = [r for r in store.records() if r.family == "pca"]
        assert len(meta) == 1
        curve = meta[0].extra["cumulative_ratio"]
        assert len(curve) == 8
        assert curve[-1] == pytest.approx(1.0)
        assert all(b >= a - 1e-12 for a, b in zip(curve, curve[1:]))

    def test_rerun_is_byte_identical(self, small_run, tmp_path):
        ds, path, _, settings, _ = small_run
        other = tmp_path / "other.jsonl"
        bench.run_grid("prostate", ds, RecordStore(other), settings,
                       families=("qsvm", "classical"), feature_range=(2, 2))
        assert other.read_bytes() == path.read_bytes()

    def test_resume_skips_done_cells(self, small_run):
        ds, path, _, settings, _ = small_run
        before = path.read_bytes()
        again = bench.run_grid("prostate", ds, RecordStore(path), settings,
                               families=("qsvm", "classical"),
                               feature_range=(2, 2))
        assert again == []
        assert path.read_bytes() == before

    def test_progress_streams_each_record(self, small_run, tmp_path):
        ds, _, _, settings, _ = small_run
        store = RecordStore(tmp_path / "p.jsonl")
        seen = []
        bench.run_grid("prostate", ds, store, settings,
                       families=("classical",), feature_range=(2, 2),
                       progress=lambda record: seen.append(len(store)))
        assert seen == list(range(1, len(store) + 1))

    def test_resume_retries_errored_cell(self, small_run, tmp_path):
        ds, _, _, settings, _ = small_run
        path = tmp_path / "retry.jsonl"
        config = {"model": "logistic"}
        failed = ExperimentRecord(
            "prostate", "classical", 2, config, 0,
            cell_seed(0, "prostate", "classical", config, 0),
            error="LinAlgError: boom")
        RecordStore(path).append(failed)

        store = RecordStore(path)
        assert not store.has(failed.key())
        new = bench.run_grid("prostate", ds, store, settings,
                             families=("classical",), feature_range=(2, 2))
        redone = [r for r in new if r.key() == failed.key()]
        assert len(redone) == 1 and redone[0].error is None
        assert redone[0].test is not None
        # 7 classical cells + pca meta, on top of the errored record
        assert len(new) == 8 and len(RecordStore(path)) == 9

        before = path.read_bytes()
        again = bench.run_grid("prostate", ds, RecordStore(path), settings,
                               families=("classical",), feature_range=(2, 2))
        assert again == []
        assert path.read_bytes() == before

    def test_resume_under_another_master_seed_is_refused(self, small_run,
                                                         tmp_path):
        ds, path, _, settings, _ = small_run
        before = path.read_bytes()
        other = RunSettings(master_seed=settings.master_seed + 5)
        with pytest.raises(UsageError, match="another master seed"):
            bench.run_grid("prostate", ds, RecordStore(path), other,
                           families=("classical",), feature_range=(2, 3),
                           split_seed=0)
        assert path.read_bytes() == before
        # another split seed is another set of cells
        fresh = tmp_path / "fresh.jsonl"
        fresh.write_bytes(before)
        new = bench.run_grid("prostate", ds, RecordStore(fresh), other,
                             families=("classical",), feature_range=(2, 2),
                             split_seed=1)
        assert len(new) == 8

    def test_unknown_family_rejected(self, small_run, tmp_path):
        ds, _, _, settings, _ = small_run
        with pytest.raises(Exception, match="families"):
            bench.run_grid("prostate", ds,
                           RecordStore(tmp_path / "x.jsonl"), settings,
                           families=("qsvm", "quantum_forest"))

    def test_bad_feature_range_rejected(self, small_run, tmp_path):
        ds, _, _, settings, _ = small_run
        with pytest.raises(Exception, match="feature range"):
            bench.run_grid("prostate", ds,
                           RecordStore(tmp_path / "y.jsonl"), settings,
                           feature_range=(2, 99))


class TestRunCell:
    def test_failure_becomes_error_record(self, small_run):
        ds, _, _, settings, _ = small_run
        bundle = stratified_split(ds, 0)
        rec = bench.run_cell("prostate", bundle, "classical",
                             {"model": "perceptron"}, 2, 0, settings)
        assert rec.error is not None and "perceptron" in rec.error
        assert rec.test is None
        assert rec.wall_clock is not None

    def test_gradient_bug_raises_out_of_run_grid(self, small_run, tmp_path,
                                                 monkeypatch):
        ds, _, _, _, _ = small_run

        def broken(*args, **kwargs):
            raise IndexError("bug")

        monkeypatch.setattr(qnn, "parameter_shift_gradient", broken)
        store = RecordStore(tmp_path / "qnn.jsonl")
        with pytest.raises(IndexError):
            bench.run_grid("prostate", ds, store,
                           RunSettings(qnn_epochs=1, qnn_max_layers=2),
                           families=("qnn",), feature_range=(2, 2))
        assert [r.family for r in store.records()] == ["pca"]

    def test_solver_failure_becomes_error_record(self, small_run,
                                                 monkeypatch):
        ds, _, _, settings, _ = small_run
        bundle = stratified_split(ds, 0)

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(bench.svm, "solve_dual", singular)
        rec = bench.run_cell("prostate", bundle, "qsvm",
                             {"encoding": "z", "repetitions": 1}, 2, 0,
                             settings)
        assert rec.error == "LinAlgError: singular"

    def test_qnn_cell_smoke(self, small_run):
        ds, _, _, _, _ = small_run
        bundle = stratified_split(ds, 0)
        fast = RunSettings(qnn_epochs=3, qnn_max_layers=2)
        rec = bench.run_cell(
            "prostate", bundle, "qnn",
            {"sequence": "Y", "reupload": False, "ansatz": "basic"},
            2, 11, fast)
        assert rec.error is None
        assert rec.n_parameters == 4       # basic ansatz, 2 qubits, 2 layers
        assert rec.extra["n_layers"] == 2
        assert rec.train is not None and rec.test is not None

    def test_qsvm_parameters_are_support_count(self, small_run):
        _, _, store, _, _ = small_run
        for r in store.records():
            if r.family == "qsvm":
                assert 0 < r.n_parameters <= 64    # train split size


class TestReports:
    def test_emitted_files_and_schema(self, small_run, tmp_path):
        _, _, store, _, _ = small_run
        out = tmp_path / "reports"
        files = bench.emit_reports(store.records(), out)
        names = {os.path.basename(f) for f in files}
        assert names == {"prostate_qnn.csv", "prostate_qsvm.csv",
                         "prostate_classical.csv", "prostate_comparison.csv",
                         "prostate_pca_variance.csv"}

        with open(out / "prostate_qsvm.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Feat", "Encoding", "Reps", "TrainP", "TrainR",
                           "ValP", "ValR", "TestP", "TestR"]
        assert len(rows) == 13
        labels = {r[1] for r in rows[1:]}
        assert labels == {"Angle", "Z", "ZZ", "ZZ-qiskit"}

        with open(out / "prostate_comparison.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Feat", "QnnP", "QnnR", "QsvmP", "QsvmR",
                           "ClassicalP", "ClassicalR"]
        assert rows[1][0] == "2"
        assert rows[1][1] == rows[1][2] == ""      # no qnn cells in this run
        assert rows[1][3] != "" and rows[1][5] != ""

    def test_metric_cells_are_4dp_of_record_values(self, small_run, tmp_path):
        _, _, store, _, _ = small_run
        out = tmp_path / "r2"
        bench.emit_reports(store.records(), out)
        recs = {canonical(r.config): r for r in store.records()
                if r.family == "classical"}
        with open(out / "prostate_classical.csv") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            vals = [float(v) for v in row[-6:]]
            assert all(abs(round(v, 4) - v) < 1e-12 for v in vals)
        # spot check one known cell against the store
        logistic = next(r for r in store.records()
                        if r.config.get("model") == "logistic")
        want = [f"{v:.4f}" for m in (logistic.train, logistic.val,
                                     logistic.test)
                for v in (m.precision, m.recall)]
        assert any(row[-6:] == want for row in rows[1:])

    def test_headers_only_when_no_records(self, tmp_path):
        out = tmp_path / "empty"
        files = bench.emit_reports([], out, datasets=["prostate"])
        assert len(files) == 5
        for f in files:
            lines = open(f).read().splitlines()
            assert len(lines) == 1

    def test_pca_curve_rows(self, small_run, tmp_path):
        _, _, store, _, _ = small_run
        out = tmp_path / "r3"
        bench.emit_reports(store.records(), out)
        with open(out / "prostate_pca_variance.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Component", "CumulativeRatio"]
        assert len(rows) == 9
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-4)


PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         os.pardir, "perfbench")


def test_perfbench_tracer_binds_every_site(monkeypatch):
    # the traced benchmark wraps these names from outside the package; a
    # deletion or rename that breaks it should fail here first
    monkeypatch.syspath_prepend(PERFBENCH)
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()    # raises if a BINDING_SITES entry stayed unwrapped
        for fn in (qkernel.embed, svm.kkt_violation,
                   qnn.parameter_shift_gradient, qnn.expectations):
            assert hasattr(fn, "__wrapped__"), fn.__name__
    finally:
        tracer.uninstall()
    assert not hasattr(qkernel.gram_matrix, "__wrapped__")
