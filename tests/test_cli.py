import json
import os

import pytest

from qmlgrid import baselines, datasets
from qmlgrid.cli import main, parse_feature_range
from qmlgrid.errors import ConfigurationError


def write_toy_csv(path):
    rows = ["a,b,label"]
    for i in range(30):
        rows.append(f"{i},{i % 7},{'yes' if i % 3 == 0 else 'no'}")
    path.write_text("\n".join(rows) + "\n")


class TestFeatureRange:
    def test_range(self):
        assert parse_feature_range("2..6") == (2, 6)

    def test_single(self):
        assert parse_feature_range("4") == (4, 4)

    def test_garbage_rejected(self):
        with pytest.raises(Exception, match="feature range"):
            parse_feature_range("2-6")


class TestPrepare:
    def test_csv_prepare_writes_manifest(self, tmp_path, capsys):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        out = tmp_path / "m.json"
        code = main(["prepare", str(csv_path), "--label", "label",
                     "--positive", "yes", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        manifest = json.loads(out.read_text())
        assert manifest["seed"] == 1
        text = capsys.readouterr().out
        assert "train:" in text and "class weights" in text

    def test_profile_prepare(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["prepare", "--profile", "prostate", "--seed", "2"])
        assert code == 0
        assert os.path.exists(tmp_path / "prostate_split_2.json")
        assert "synthetic" in capsys.readouterr().out

    def test_missing_label_is_usage_error(self, tmp_path, capsys):
        csv_path = tmp_path / "toy.csv"
        write_toy_csv(csv_path)
        assert main(["prepare", str(csv_path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_csv_is_reported_not_raised(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("a,label\n1,yes\n2\n")
        assert main(["prepare", str(bad), "--label", "label",
                     "--positive", "yes"]) == 2
        assert "error:" in capsys.readouterr().err


class TestPcaVariance:
    def test_stdout_table(self, capsys):
        assert main(["pca-variance", "--dataset", "prostate"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "Component,CumulativeRatio" in lines
        assert lines[-1].startswith("8,1.0000")

    def test_out_file(self, tmp_path):
        out = tmp_path / "pca.csv"
        assert main(["pca-variance", "--dataset", "prostate",
                     "--out", str(out)]) == 0
        assert out.read_text().startswith("Component,CumulativeRatio")


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
