import json
import os

import pytest

from qmlgrid import baselines, datasets, verify
from qmlgrid.bench import ExperimentRecord, canonical
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
        # 7 cells + pca meta
        assert "8 new records, store now 7 completed cells" in text

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

    def test_a_cell_that_raises_exits_2_and_is_retried(self, tmp_path,
                                                        capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ConfigurationError("logistic cell broken on purpose")

        store, whole = tmp_path / "s.jsonl", tmp_path / "whole.jsonl"
        argv = ["run", "--dataset", "prostate", "--features", "2",
                "--families", "classical", "--store"]
        with monkeypatch.context() as patch:
            patch.setattr(baselines, "fit_logistic", broken)
            assert main(argv + [str(store)]) == 2
        assert capsys.readouterr().err == (
            "error: logistic cell broken on purpose\n")
        assert [json.loads(line)["family"]
                for line in store.read_text().splitlines()] == ["pca"]

        assert main(argv + [str(store)]) == 0
        out = capsys.readouterr().out
        assert f"store {store}: 0 completed cells, resuming" in out
        assert "7 new records, store now 7 completed cells" in out
        assert main(argv + [str(whole)]) == 0
        assert store.read_bytes() == whole.read_bytes()

    def test_seed_flag_sets_master_seed(self, tmp_path, capsys):
        store = tmp_path / "s9.jsonl"
        code = main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "classical", "--store", str(store),
                     "--seed", "9"])
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

    @pytest.mark.parametrize("flags, by_argparse", [
        (["--qnn-epochs", "2.5"], True),
        (["--qnn-epochs", "0"], False),
        (["--qnn-max-layers", "1"], False),
        (["--seed", "x"], True),
        (["--seed", "-1"], False),
        (["--split-seed", "-3"], False),
        (["--dataset", "heart_failure", "--features", "9"], False),
    ], ids=["float-epochs", "zero-epochs", "cap-below-start", "text-seed",
            "negative-seed", "negative-split-seed", "qnn-wider-than-fused"])
    def test_bad_input_is_refused_before_the_store(self, tmp_path, capsys,
                                                   flags, by_argparse):
        store = tmp_path / "s.jsonl"
        argv = ["run", "--dataset", "prostate", "--features", "2",
                "--families", "qnn", "--store", str(store)] + flags
        if by_argparse:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert "invalid int value" in capsys.readouterr().err
        else:
            assert main(argv) == 2
            assert capsys.readouterr().err.startswith("error:")
        assert not store.exists()

    def test_removed_surface_is_refused(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        run = ["run", "--dataset", "prostate", "--store", str(store)]
        for argv, message in (
                (run + ["--svm-c", "2.0"], "unrecognized arguments"),
                (run + ["--config", "run.conf"], "unrecognized arguments"),
                (["prepare"], "invalid choice"),
                (["pca-variance"], "invalid choice")):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize("flags", [
        ["--qnn-e", "1"], ["--se", "4"], ["--qnn-max", "2"],
        ["--sto", "t.jsonl"]])
    def test_abbreviated_flag_is_refused(self, tmp_path, capsys,
                                         monkeypatch, flags):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--dataset", "prostate", "--features", "2",
                  "--families", "qnn", "--store", "s.jsonl"] + flags)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_report_leaves_a_torn_store_as_it_is(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        assert main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "classical", "--store", str(store)]) == 0
        data = store.read_bytes() + b'{"torn'
        store.write_bytes(data)
        capsys.readouterr()
        out_dir = tmp_path / "rep"
        assert main(["report", "--store", str(store),
                     "--out", str(out_dir)]) == 0
        assert (f"store {store}: skipped an unterminated last line of 6 "
                f"bytes") in capsys.readouterr().err
        assert store.read_bytes() == data
        with open(out_dir / "prostate_classical.csv") as fh:
            assert len(fh.read().splitlines()) == 1 + 7    # header, cells

    def test_report_writes_a_repeated_dataset_once(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        assert main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "classical", "--store", str(store)]) == 0
        capsys.readouterr()
        assert main(["report", "--store", str(store), "--out",
                     str(tmp_path / "rep"), "--dataset", "prostate",
                     "--dataset", "prostate"]) == 0
        assert capsys.readouterr().out.count("wrote ") == 5

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

    def test_store_in_a_missing_directory_is_refused(self, tmp_path, capsys):
        store = tmp_path / "no" / "such" / "s.jsonl"
        assert main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "classical", "--store", str(store)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(store) in err
        assert "Traceback" not in err
        assert not (tmp_path / "no").exists()

    def test_report_refuses_a_missing_store(self, tmp_path, capsys):
        out_dir = tmp_path / "rep"
        store = tmp_path / "typo.jsonl"
        assert main(["report", "--store", str(store),
                     "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(store) in err
        assert not store.exists() and not out_dir.exists()
        # a store that exists but holds no record still reports
        store.write_text("")
        assert main(["report", "--store", str(store),
                     "--out", str(out_dir)]) == 0
        assert f"store {store} is empty" in capsys.readouterr().err

    def test_report_refuses_a_dataset_the_store_lacks(self, tmp_path,
                                                       capsys):
        store = tmp_path / "s.jsonl"
        assert main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "classical", "--store", str(store)]) == 0
        capsys.readouterr()
        out_dir = tmp_path / "rep"
        for names in (["prostat"], ["prostate", "prostat"]):
            argv = ["report", "--store", str(store), "--out", str(out_dir)]
            for name in names:
                argv += ["--dataset", name]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: store {store} holds no "
                                  f"['prostat'], only ['prostate']")
            assert not out_dir.exists()

    def test_report_refuses_a_dataset_without_a_profile(self, tmp_path,
                                                         capsys):
        store = tmp_path / "s.jsonl"
        assert main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "classical", "--store", str(store)]) == 0
        capsys.readouterr()
        lines = store.read_text().splitlines(keepends=True)
        alien = json.loads(lines[1])
        alien["dataset"] = "lungs"
        store.write_text("".join(lines) + canonical(alien) + "\n")
        out_dir = tmp_path / "rep"
        for names in ([], ["prostate"]):
            argv = ["report", "--store", str(store), "--out", str(out_dir)]
            for name in names:
                argv += ["--dataset", name]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: store {store} holds datasets no "
                                  f"profile names: ['lungs']")
            assert not out_dir.exists()

    def test_unknown_dataset_is_usage_error(self, tmp_path, capsys):
        assert main(["run", "--dataset", "lungs",
                     "--store", str(tmp_path / "x.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err


class TestCompareCommand:
    def test_names_what_moved(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        assert main(["run", "--dataset", "prostate", "--features", "2",
                     "--families", "qsvm,classical", "--store",
                     str(store)]) == 0
        capsys.readouterr()
        assert main(["compare", str(store), str(store)]) == 0
        assert capsys.readouterr().out == (
            f"0 differences: {store} (20 records) vs {store} (20 records)\n")

        lines = store.read_text().splitlines(keepends=True)
        moved = json.loads(lines[5])
        assert canonical(moved) + "\n" == lines[5]
        moved["test"]["tp"] += 1
        key = ExperimentRecord.from_line(lines[5]).key()
        copy = tmp_path / "moved.jsonl"
        copy.write_text("".join(lines[:5] + [canonical(moved) + "\n"]
                                + lines[6:]))
        assert main(["compare", str(store), str(copy)]) == 1
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 2 and out[0].startswith(f"{key}: test Metrics(")
        assert out[1].startswith("1 differences:")

        copy.write_text("".join(lines[:5] + lines[6:]))
        assert main(["compare", str(store), str(copy)]) == 1
        assert f"only in {store}: {key}" in capsys.readouterr().out

        copy.write_text("".join(lines[:5] + lines[6:] + lines[5:6]))
        assert main(["compare", str(store), str(copy)]) == 1
        assert "differ in order" in capsys.readouterr().out

    def test_a_torn_last_line_differs_and_stays(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        store.write_text(ExperimentRecord("toy", "pca", 2, {}, 0, 0)
                         .to_line() + "\n")
        torn = tmp_path / "torn.jsonl"
        data = store.read_bytes() + b'{"torn'
        torn.write_bytes(data)
        assert main(["compare", str(store), str(torn)]) == 1
        out = capsys.readouterr().out
        assert f"{torn}: an unterminated last line of 6 bytes" in out
        assert torn.read_bytes() == data

    def test_refuses_a_missing_store(self, tmp_path, capsys):
        store = tmp_path / "s.jsonl"
        store.write_text("")
        assert main(["compare", str(store), str(tmp_path / "typo")]) == 2
        assert "typo does not exist" in capsys.readouterr().err
        assert not (tmp_path / "typo").exists()


class TestVerifyCommand:
    CHECKS = ("check_simulator", "check_gradients",
              "check_kernel_properties", "check_svm_oracle", "check_pca",
              "check_trees")

    @pytest.mark.parametrize("failing", [None, "check_svm_oracle"])
    def test_exit_code_follows_the_checks(self, capsys, monkeypatch,
                                          failing):
        for name in self.CHECKS:
            result = verify.CheckResult(name, name != failing, "stub", 0.0)
            monkeypatch.setattr(verify, name, lambda r=result: r)
        assert main(["verify"]) == (1 if failing else 0)
        out = capsys.readouterr().out.splitlines()
        assert len(out) == 6
        assert [line.split()[0] for line in out].count("FAIL") == (
            1 if failing else 0)
        if failing:
            assert any(line.startswith("FAIL  check_svm_oracle")
                       for line in out)


    def test_a_bad_data_directory_is_refused_before_any_check(
            self, tmp_path, capsys, monkeypatch):
        called = []

        def check(name):
            called.append(name)
            return verify.CheckResult(name, True, "stub", 0.0)

        for name in self.CHECKS:
            monkeypatch.setattr(verify, name, lambda n=name: check(n))
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("")
        monkeypatch.setenv(datasets.DATA_DIR_ENV, str(not_a_dir))
        assert main(["verify"]) == 2
        assert called == []
        out, err = capsys.readouterr()
        assert out == ""
        assert err == (f"error: ${datasets.DATA_DIR_ENV}="
                       f"{str(not_a_dir)!r} is not a directory\n")


class TestDatasetsCommand:
    def test_lists_profiles(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        for key in datasets.PROFILES:
            assert key in out

    def test_data_directory_that_is_not_a_directory(self, tmp_path, capsys,
                                                    monkeypatch):
        missing = tmp_path / "no" / "such"
        monkeypatch.setenv(datasets.DATA_DIR_ENV, str(missing))
        store = tmp_path / "s.jsonl"
        for argv in (["run", "--dataset", "prostate", "--features", "2",
                      "--families", "classical", "--store", str(store)],
                     ["datasets"]):
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err == (f"error: ${datasets.DATA_DIR_ENV}="
                           f"{str(missing)!r} is not a directory\n")
        assert not store.exists()

    def test_fetch_instructions(self, capsys, monkeypatch):
        monkeypatch.delenv(datasets.DATA_DIR_ENV, raising=False)
        assert main(["datasets"]) == 0
        assert "kaggle" in capsys.readouterr().out.lower()

    def test_instructions_only_for_absent_files(self, tmp_path, capsys,
                                                monkeypatch):
        (tmp_path / "Prostate_Cancer.csv").write_text("")
        monkeypatch.setenv(datasets.DATA_DIR_ENV, str(tmp_path))
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "real file present" in out
        assert "download 'Prostate_Cancer.csv'" not in out
        assert "download 'diabetes.csv'" in out
