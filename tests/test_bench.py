import csv
import importlib
import json
import os

import numpy as np
import pytest

from qmlgrid import baselines, bench, datasets, qkernel, qnn, svm
from qmlgrid.bench import (ExperimentRecord, RecordStore, RunSettings,
                           canonical, cell_seed, select_best)
from qmlgrid.circuit import encode
from qmlgrid.errors import IngestionError, UsageError
from qmlgrid.metrics import Metrics, evaluate
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


def retyped(key, value, split=None) -> str:
    """A record line with one field's value replaced, or with one field
    of a split's metrics replaced."""
    d = json.loads(fake_record(k=2).to_line())
    (d if split is None else d[split])[key] = value
    return json.dumps(d)


def split_copy(bundle, split, k):
    """A contiguous copy of a split's features at k."""
    return np.array(bundle.features(k)[bundle.rows[split]])


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

    def test_line_is_the_field_by_field_formula(self):
        # the line each field was once written into by hand
        def metrics(m):
            return {"tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn,
                    "precision": m.precision, "recall": m.recall,
                    "f1": m.f1}

        full = ExperimentRecord(
            "toy", "classical", 3, {"model": "svm", "kernel": "rbf"}, 2, 7,
            n_parameters=11, train=Metrics.from_counts(5, 1, 2, 9),
            val=Metrics.from_counts(1, 2, 0, 4),
            test=Metrics.from_counts(0, 0, 3, 6),
            extra={"converged": True, "sweeps": 12}, wall_clock=0.5)
        failed = ExperimentRecord("toy", "qsvm", 4, {}, 0, 0,
                                  error="UsageError: boom", wall_clock=0.5)
        for rec in (full, failed):
            want = json.dumps({
                "dataset": rec.dataset, "family": rec.family, "k": rec.k,
                "config": rec.config, "split_seed": rec.split_seed,
                "seed": rec.seed, "n_parameters": rec.n_parameters,
                "train": metrics(rec.train) if rec.train else None,
                "val": metrics(rec.val) if rec.val else None,
                "test": metrics(rec.test) if rec.test else None,
                "extra": rec.extra, "error": rec.error,
            }, sort_keys=True, separators=(",", ":"))
            assert rec.to_line() == want


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

    def test_sidecar_times_to_the_microsecond(self, tmp_path):
        store = RecordStore(tmp_path / "s.jsonl")
        rec = fake_record()
        rec.wall_clock = 0.0123456
        store.append(rec)
        line = (tmp_path / "s.jsonl.timings").read_text()
        assert line == f"{rec.key()}\t0.012346\n"

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

    def test_repeated_cell_is_refused_naming_both_lines(self, tmp_path):
        # a store joined with itself (cat s.jsonl s.jsonl) would list
        # every row twice in the reports
        path = tmp_path / "s.jsonl"
        lines = [fake_record(k=2).to_line(), fake_record(k=3).to_line()]
        path.write_text("\n".join(lines + lines) + "\n")
        before = path.read_bytes()
        with pytest.raises(IngestionError,
                           match="line 3: repeats the cell of line 1"):
            RecordStore(path)
        assert path.read_bytes() == before

    def test_append_refuses_a_done_cell_before_writing(self, tmp_path):
        # a repeat would stop the next load of the store
        path = tmp_path / "s.jsonl"
        store = RecordStore(path)
        done = fake_record(k=2)
        done.wall_clock = 0.5
        store.append(done)
        before = path.read_bytes(), (tmp_path / "s.jsonl.timings").read_bytes()
        with pytest.raises(IngestionError, match="already done") as info:
            store.append(done)
        assert done.key() in str(info.value)
        assert (path.read_bytes(),
                (tmp_path / "s.jsonl.timings").read_bytes()) == before
        assert len(store) == 1
        store.append(fake_record(k=2, error="UsageError: no"))
        assert len(RecordStore(path)) == 2

    def test_errored_records_may_repeat(self, tmp_path):
        # a cell that failed on two runs, then succeeded on a third
        path = tmp_path / "s.jsonl"
        failed = fake_record(k=2, error="UsageError: no").to_line()
        path.write_text("\n".join([failed, failed,
                                   fake_record(k=2).to_line()]) + "\n")
        store = RecordStore(path)
        assert len(store) == 3
        assert store.cell_counts() == (1, 0)

    def test_malformed_complete_line_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text(fake_record().to_line()[:-3] + "\n")
        with pytest.raises(IngestionError, match="line 1"):
            RecordStore(path)

    @pytest.mark.parametrize("bad", [
        '{"dataset": "x"}', "[1, 2]", '"text"', "\udcff",
        retyped("k", "2"), retyped("seed", 1.5), retyped("config", []),
        retyped("n_parameters", True), retyped("error", 3),
        retyped("test", [1]), retyped("precision", "0.5", "val"),
        retyped("tp", True, "train"), retyped("family", "qsv"),
        retyped("config", {"repetitions": 1}),
        retyped("config", {"encoding": "zz", "repetitions": 1})],
        ids=["missing-keys", "list", "string", "not-utf8", "text-k",
             "float-seed", "list-config", "bool-count", "number-error",
             "list-metrics", "text-ratio", "bool-metric-count",
             "unknown-family", "config-without-encoding",
             "unknown-encoding"])
    def test_line_that_is_no_record_names_its_line(self, tmp_path, bad):
        path = tmp_path / "s.jsonl"
        data = (fake_record(k=2).to_line() + "\n\n" + bad + "\n").encode(
            errors="surrogateescape")
        path.write_bytes(data + b'{"torn')
        with pytest.raises(IngestionError, match="line 3"):
            RecordStore(path)
        assert path.read_bytes() == data + b'{"torn'

    @pytest.mark.parametrize("key, split", [
        ("note", None), ("auc", "test"), ("wall_clock", None)],
        ids=["record-field", "metric-field", "wall-clock"])
    def test_unknown_field_is_refused_naming_its_line(self, tmp_path, key,
                                                      split):
        # a field from_line would drop, or wall_clock, which lives in the
        # timings sidecar only; the first line holds another cell
        path = tmp_path / "s.jsonl"
        path.write_text(fake_record(k=3).to_line() + "\n\n"
                        + retyped(key, 0.5, split) + "\n")
        name = key if split is None else f"{split}.{key}"
        with pytest.raises(IngestionError, match=f"line 3: .*'{name}'"):
            RecordStore(path)


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

    def test_repeated_key_names_both_lines(self, tmp_path):
        # a key set twice would otherwise keep its last value unseen
        path = tmp_path / "run.conf"
        path.write_text("qnn_epochs = 1\n# note\nqnn_epochs = 7\n")
        with pytest.raises(IngestionError,
                           match="line 3: repeats 'qnn_epochs' of line 1"):
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

    def test_each_line_reads_at_once_from_another_open(self, small_run,
                                                       tmp_path, monkeypatch):
        # the store and its timings sidecar open once for the grid, every
        # line flushed before progress sees its record, and both closed
        # when run_grid returns
        ds, _, _, settings, _ = small_run
        path = tmp_path / "p.jsonl"
        sidecar = tmp_path / "p.jsonl.timings"
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        monkeypatch.setattr(bench, "open", tracking_open, raising=False)
        store = RecordStore(path)
        reads = []

        def progress(record):
            with open(path) as fh:
                lines = fh.read().splitlines()
            timings = (sidecar.read_text().splitlines() if sidecar.exists()
                       else [])
            reads.append((lines, timings))

        new = bench.run_grid("prostate", ds, store, settings,
                             families=("classical",), feature_range=(2, 2),
                             progress=progress)
        assert len(new) == 8
        for i, (lines, timings) in enumerate(reads):
            assert lines == [r.to_line() for r in new[:i + 1]]
            assert [t.split("\t")[0] for t in timings] == [
                r.key() for r in new[:i + 1] if r.wall_clock is not None]
        assert len(opened) == 2 and all(fh.closed for fh in opened)

    def test_files_close_when_the_grid_raises(self, small_run, tmp_path,
                                              monkeypatch):
        ds, _, _, settings, _ = small_run
        path = tmp_path / "p.jsonl"
        opened = []

        def tracking_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        def progress(record):
            if len(store) == 3:
                raise KeyboardInterrupt

        monkeypatch.setattr(bench, "open", tracking_open, raising=False)
        store = RecordStore(path)
        with pytest.raises(KeyboardInterrupt):
            bench.run_grid("prostate", ds, store, settings,
                           families=("classical",), feature_range=(2, 2),
                           progress=progress)
        assert opened and all(fh.closed for fh in opened)
        assert len(RecordStore(path)) == 3

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

    @pytest.mark.parametrize("families", [("qsvm",), ("qnn",),
                                          ("qsvm", "qnn", "classical")])
    def test_quantum_range_below_two_refused_before_appending(
            self, small_run, tmp_path, families):
        # a one-qubit QNN and a one-qubit ZZ map fail in every cell, and
        # each rerun would retry them all
        ds, _, _, settings, _ = small_run
        path = tmp_path / "one.jsonl"
        with pytest.raises(UsageError, match="at least 2 features"):
            bench.run_grid("prostate", ds, RecordStore(path), settings,
                           families=families, feature_range=(1, 2))
        assert not path.exists()

    def test_classical_range_may_start_at_one(self, small_run, tmp_path):
        ds, _, _, settings, _ = small_run
        new = bench.run_grid("prostate", ds,
                             RecordStore(tmp_path / "c.jsonl"), settings,
                             families=("classical",), feature_range=(1, 1))
        assert len(new) == 8 and all(r.error is None for r in new)

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


class TestCellInputs:
    def test_memoized_inputs_are_read_only(self, small_run):
        # every cell of a bundle, a QSVM encoding or a QNN layout
        # shares them
        bundle = stratified_split(small_run[0], 0)
        for shared in (bundle.stack, bundle.features(2), bundle.y,
                       bundle.index, bundle.indices("val")):
            with pytest.raises(ValueError, match="read-only"):
                shared[0] = 0
        with pytest.raises(AttributeError):
            bundle.stack = bundle.stack.copy()
        encoded = bench._qnn_encoding(bundle, 2, ("X", "Z"), True)
        for payload in (encoded.product, *encoded.local,
                        encoded[3:].product):
            with pytest.raises(ValueError, match="read-only"):
                payload[0] = 0

    def test_slices_tile_the_stack_in_split_order(self, small_run):
        ds = small_run[0]
        bundle = stratified_split(ds, 0)
        X, y, rows = bundle.stack, bundle.y, bundle.rows
        assert list(rows) == list(bundle.SPLITS)
        start = 0
        for split, r in rows.items():
            idx = bundle.indices(split)
            n = len(idx)
            assert (r.start, r.stop, r.step) == (start, start + n, None)
            np.testing.assert_array_equal(idx, np.sort(idx))
            np.testing.assert_array_equal(bundle.index[r], idx)
            np.testing.assert_array_equal(y[r], ds.labels[idx])
            start += n
        assert start == len(X) == len(y) == len(ds.labels)
        assert X.shape[1] == ds.n_features

    def test_memos_never_serve_another_bundle_or_k(self, small_run):
        ds = small_run[0]
        first = stratified_split(ds, 0)
        encoded = bench._qnn_encoding(first, 2, ("Y",), False)
        # the same split, so equal values, but not the same arrays
        twin = stratified_split(ds, 0)
        for name in ("index", "stack", "y"):
            a, b = getattr(first, name), getattr(twin, name)
            np.testing.assert_array_equal(a, b)
            assert not np.shares_memory(a, b), name
        assert not np.shares_memory(first.pca.components,
                                    twin.pca.components)
        assert bench._qnn_encoding(twin, 2, ("Y",), False) is not encoded
        other = stratified_split(ds, 1)
        assert not np.array_equal(other.features(2)[other.rows["train"]],
                                  first.features(2)[first.rows["train"]])
        assert first.features(3).shape == (len(ds.labels), 3)
        assert bench._qnn_encoding(first, 3, ("Y",), False).layout[0] == 3
        assert bench._qnn_encoding(first, 2, ("Y",), True).local

    def test_a_cell_past_the_last_component_is_an_error(self, small_run):
        # X[:, :k] past d would quietly give d columns
        ds = small_run[0]
        d = ds.n_features
        rec = bench.run_cell("prostate", stratified_split(ds, 0),
                             "classical", {"model": "logistic"}, d + 1, 0,
                             RunSettings())
        assert rec.error == f"UsageError: k must be in 1..{d}, got {d + 1}"
        assert (rec.train, rec.val, rec.test) == (None, None, None)

    def test_a_qsvm_cell_embeds_the_stacked_splits_once(
            self, small_run, tmp_path, monkeypatch):
        # one embed per cell, over the rows of every split at once, in
        # SplitBundle.SPLITS order
        ds = small_run[0]
        calls = []
        real = bench.embed

        def spy(kind, X, repetitions=1):
            calls.append((kind, X, repetitions))
            return real(kind, X, repetitions)

        monkeypatch.setattr(bench, "embed", spy)
        new = bench.run_grid("prostate", ds,
                             RecordStore(tmp_path / "q.jsonl"), RunSettings(),
                             families=("qsvm",), feature_range=(2, 3))
        assert [r.error for r in new] == [None] * 25
        assert [(kind, reps) for kind, _, reps in calls] == [
            (c["encoding"], c["repetitions"]) for _ in (2, 3)
            for c in bench.qsvm_grid()]
        bundle = stratified_split(ds, 0)
        for (_, X, _), k in zip(calls, [2] * 12 + [3] * 12):
            np.testing.assert_array_equal(X, bundle.features(k))

    def test_qsvm_cells_match_per_split_embeds(self):
        # the record equals one built from a fresh embed per split, as
        # cells were run before the stacked memo
        bundle = stratified_split(datasets.synthetic("heart_failure"), 0)
        config = {"encoding": "zz_b", "repetitions": 3}
        rec = bench.run_cell("heart_failure", bundle, "qsvm", config, 4, 0,
                             RunSettings())
        states = {s: qkernel.embed("zz_b", split_copy(bundle, s, 4), 3)
                  for s in bundle.SPLITS}
        gram = qkernel.gram_matrix(states["train"])
        ytr = bundle.labels("train")
        model = svm.solve_dual(svm.SvmProblem(
            gram, np.where(ytr == 1, 1, -1), bench.SVM_C,
            bundle.class_weights()))
        for split, X in states.items():
            rows = (gram if split == "train" else
                    qkernel.cross_gram(X, states["train"]))
            pred = (svm.predict(model, rows) > 0).astype(int)
            assert getattr(rec, split) == evaluate(bundle.labels(split), pred)
        assert rec.extra == {"converged": bool(model.converged),
                             "sweeps": int(model.sweeps)}

    def test_classical_cells_match_per_split_fits(self):
        # the records equal ones fit and scored on a contiguous copy of
        # each split, so strided column views of the stack give the bits
        # of copies
        bundle = stratified_split(datasets.synthetic("diabetes"), 1)
        k = 5
        sets = {s: (split_copy(bundle, s, k), bundle.labels(s))
                for s in bundle.SPLITS}
        assert not bundle.features(k).flags.c_contiguous
        Xtr, ytr = sets["train"]
        weights = bundle.class_weights()
        for config in bench.classical_grid():
            seed = cell_seed(0, "diabetes", "classical", config, 1)
            rec = bench.run_cell("diabetes", bundle, "classical", config, k,
                                 seed, RunSettings())
            model_kind = config["model"]
            if model_kind == "svm":
                kind = config["kernel"]
                model = svm.solve_dual(svm.SvmProblem(
                    svm.kernel_matrix(kind, Xtr, Xtr),
                    np.where(ytr == 1, 1, -1), bench.SVM_C, weights))
                preds = {s: (svm.predict(model, svm.kernel_matrix(
                             kind, X, Xtr)) > 0).astype(int)
                         for s, (X, _) in sets.items()}
                n_par, extra = len(model.support), {
                    "converged": bool(model.converged),
                    "sweeps": int(model.sweeps)}
            elif model_kind == "logistic":
                model = baselines.fit_logistic(Xtr, ytr, weights)
                preds = {s: baselines.predict_logistic(model, X)
                         for s, (X, _) in sets.items()}
                n_par, extra = k + 1, {}
            else:
                model = (baselines.fit_tree(Xtr, ytr, weights)
                         if model_kind == "tree" else
                         baselines.fit_forest(Xtr, ytr, weights, seed=seed))
                preds = {s: baselines.predict_forest(model, X)
                         for s, (X, _) in sets.items()}
                n_par, extra = model.n_splits(), {}
            for split, (_, y) in sets.items():
                assert getattr(rec, split) == evaluate(y, preds[split]), (
                    config, split)
            assert (rec.n_parameters, rec.extra) == (n_par, extra), config

    @pytest.mark.parametrize("kept", [1, 2, 3, 5, 9])
    def test_qsvm_store_resumed_mid_encoding_is_byte_identical(
            self, small_run, tmp_path, kept):
        # a resumed grid starts an encoding at a repetition above 1
        ds = small_run[0]
        full = tmp_path / "full.jsonl"
        bench.run_grid("prostate", ds, RecordStore(full), RunSettings(),
                       families=("qsvm",), feature_range=(2, 2))
        lines = full.read_bytes().splitlines(keepends=True)
        part = tmp_path / "part.jsonl"
        part.write_bytes(b"".join(lines[:1 + kept]))     # pca + kept cells
        new = bench.run_grid("prostate", ds, RecordStore(part),
                             RunSettings(), families=("qsvm",),
                             feature_range=(2, 2))
        assert len(new) == 12 - kept
        assert part.read_bytes() == full.read_bytes()

    @pytest.mark.parametrize("k", [2, 6])
    def test_qnn_cell_matches_per_split_passes(self, k):
        # the record equals one built with a fresh encode and a forward
        # pass per split, as cells were run before the memos; at k = 6
        # the re-upload payload is split into a high and a low factor
        bundle = stratified_split(datasets.synthetic("diabetes"), 0)
        settings = RunSettings(qnn_epochs=2, qnn_start_layers=1,
                               qnn_max_layers=3)
        rec = bench.run_cell("diabetes", bundle, "qnn",
                             {"sequence": "XZ", "reupload": True,
                              "ansatz": "strongly"}, k, 5, settings)
        cfg = qnn.QnnConfig(k, ("X", "Z"), True, "strongly", 1, seed=5)
        sets = {s: (encode(cfg, split_copy(bundle, s, k)), bundle.labels(s))
                for s in bundle.SPLITS}
        growth = qnn.grow_layers(cfg, bundle.class_weights(), sets["train"],
                                 sets["val"], max_layers=3, epochs=2)
        model = growth.best.model
        for split, (E, y) in sets.items():
            want = evaluate(y, qnn.predict(qnn.forward_batch(model, E)))
            assert getattr(rec, split) == want
        assert rec.extra["layer_trials"] == len(growth.trials)


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
                   qnn.parameter_shift_gradient):
            assert hasattr(fn, "__wrapped__"), fn.__name__
    finally:
        tracer.uninstall()
    assert not hasattr(qkernel.gram_matrix, "__wrapped__")
