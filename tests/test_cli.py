import json
import os

import pytest

from qmlgrid import baselines, datasets
from qmlgrid.cli import main, parse_feature_range
from qmlgrid.errors import ConfigurationError


class TestFeatureRange:
    def test_range(self):
        assert parse_feature_range("2..6") == (2, 6)

    def test_single(self):
        assert parse_feature_range("4") == (4, 4)

    def test_garbage_rejected(self):
        with pytest.raises(Exception, match="feature range"):
            parse_feature_range("2-6")


class TestRunAndReport:
    def test_run_then_report(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        code = main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "classical", "--store", str(store)])
        assert code == 0
        text = capsys.readouterr().out
        assert "8 new records (0 failed)" in text    # 7 cells + pca meta

        # resume: nothing new
        code = main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "classical", "--store", str(store)])
        assert code == 0
        assert "0 new records" in capsys.readouterr().out

        out_dir = tmp_path / "rep"
        assert main(["report", "--store", str(store),
                     "--out", str(out_dir)]) == 0
        assert sorted(os.listdir(out_dir)) == [
            "prostate_classical.csv", "prostate_comparison.csv",
            "prostate_pca_variance.csv", "prostate_qnn.csv",
            "prostate_qsvm.csv"]

    def test_resume_counts_a_failing_cell_once(self, tmp_path, capsys,
                                               monkeypatch):
        def broken(*args, **kwargs):
            raise ConfigurationError("logistic cell broken on purpose")

        monkeypatch.setattr(baselines, "fit_logistic", broken)
        store = tmp_path / "s.jsonl"
        argv = ["run", "--dataset", "prostate", "--features", "2",
                "--families", "classical", "--store", str(store)]
        resumes = []
        for _ in range(3):
            assert main(argv) == 0
            text = capsys.readouterr().out
            # the cell is retried each run
            assert ("(1 failed), store now 7 completed cells, 1 errored"
                    in text)
            resumes += [line for line in text.splitlines()
                        if "resuming" in line]
        # the store holds one error line per run, but the cell counts once
        assert len(store.read_text().splitlines()) == 10
        assert resumes == [
            f"store {store}: 7 completed cells, 1 errored to retry, resuming"
        ] * 2

    def test_config_file_sets_master_seed(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("master_seed = 9\n")
        store = tmp_path / "s9.jsonl"
        code = main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "classical", "--store", str(store),
                     "--config", str(conf)])
        assert code == 0
        first = json.loads(store.read_text().splitlines()[0])
        assert first["split_seed"] == 9

    def test_bad_csv_is_reported_not_raised(self, tmp_path, capsys,
                                            monkeypatch):
        (tmp_path / "Prostate_Cancer.csv").write_text(
            "id,radius,diagnosis_result\n1,10,M\n2,11\n")
        monkeypatch.setenv(datasets.DATA_DIR_ENV, str(tmp_path))
        assert main(["run", "--dataset", "prostate", "--features", "2",
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("conf, flags", [
        ("qnn_epochs = 2.5", []),
        ("qnn_epochs = 0", []),
        ("qnn_max_layers = 1", []),
        ('master_seed = "x"', []),
        (None, ["--seed", "-1"]),
        (None, ["--split-seed", "-3"]),
        (None, ["--dataset", "heart_failure", "--features", "9"]),
    ], ids=["float-epochs", "zero-epochs", "cap-below-start", "text-seed",
            "negative-seed", "negative-split-seed", "qnn-wider-than-fused"])
    def test_bad_input_is_refused_before_the_store(self, tmp_path, capsys,
                                                   conf, flags):
        store = tmp_path / "s.jsonl"
        argv = ["run", "--dataset", "prostate", "--features", "2",
                "--families", "qnn", "--store", str(store)] + flags
        if conf is not None:
            (tmp_path / "run.conf").write_text(conf + "\n")
            argv += ["--config", str(tmp_path / "run.conf")]
        assert main(argv) == 2
        assert "error:" in capsys.readouterr().err
        assert not store.exists()

    def test_removed_surface_is_refused(self, tmp_path, capsys):
        conf = tmp_path / "run.conf"
        conf.write_text("svm_c = 2.0\n")
        assert main(["run", "--dataset", "prostate", "--config", str(conf),
                     "--store", str(tmp_path / "s.jsonl")]) == 2
        assert "unknown settings ['svm_c']" in capsys.readouterr().err
        for command in ("prepare", "pca-variance"):
            with pytest.raises(SystemExit) as exc:
                main([command])
            assert exc.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_corrupt_store_is_refused(self, tmp_path, capsys):
        wrong_type = ('{"config":{},"dataset":"prostate","error":null,'
                      '"extra":{},"family":"qsvm","k":"2","n_parameters":0,'
                      '"seed":0,"split_seed":0,"test":null,"train":null,'
                      '"val":null}\n')
        for text in ('{"bad json\n', '{"dataset": "x"}\n', wrong_type):
            store = tmp_path / "s.jsonl"
            store.write_text(text)
            for argv in (["report", "--out", str(tmp_path / "rep")],
                         ["run", "--dataset", "prostate", "--features", "2",
                          "--families", "classical"]):
                assert main(argv + ["--store", str(store)]) == 2
                err = capsys.readouterr().err
                assert "error:" in err and "line 1" in err
                assert store.read_text() == text

    def test_resume_under_another_seed_is_refused(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        argv = ["run", "--dataset", "prostate", "--features", "2",
                "--families", "classical", "--store", str(store),
                "--split-seed", "0"]
        assert main(argv + ["--seed", "0"]) == 0
        before = store.read_bytes()
        capsys.readouterr()
        assert main(argv + ["--seed", "5"]) == 2
        assert "another master seed" in capsys.readouterr().err
        assert store.read_bytes() == before
        assert main(argv + ["--seed", "0"]) == 0
        assert "0 new records" in capsys.readouterr().out

    def test_unknown_dataset_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--dataset", "lungs",
                     "--store", str(tmp_path / "x.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestVerifyCommand:
    def test_fast_suite_passes(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6 and "FAIL" not in out


class TestDatasetsCommand:
    def test_lists_profiles(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for key in datasets.PROFILES:
            assert key in out

    def test_fetch_instructions(self, capsys):
        assert main(["datasets", "--fetch"]) == 0
        assert "kaggle" in capsys.readouterr().out.lower()
