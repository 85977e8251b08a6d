import csv

import numpy as np
import pytest

from qmlgrid.datasets import (
    DATA_DIR_ENV,
    PROFILES,
    fetch_instructions,
    load_real,
    profile,
    resolve,
    synthetic,
)
from qmlgrid.errors import IngestionError, UsageError
from qmlgrid.pipeline import Dataset, load_csv


def save_csv(dataset, path, label_column="label"):
    """Writes a dataset the way the real downloads look: a header row,
    then one row per sample with the label in the last column."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"c{i + 1}" for i in range(dataset.n_features)]
                        + [label_column])
        for row, label in zip(dataset.features, dataset.labels):
            writer.writerow([repr(float(v)) for v in row] + [int(label)])


class TestProfiles:
    def test_registry_keys(self):
        assert set(PROFILES) == {"heart_failure", "diabetes", "prostate"}

    def test_documented_shapes(self):
        assert PROFILES["heart_failure"].n_rows == 299
        assert PROFILES["heart_failure"].n_positive == 96
        assert PROFILES["diabetes"].n_rows == 768
        assert PROFILES["diabetes"].n_features == 8
        assert PROFILES["prostate"].n_positive == 62

    def test_unknown_key(self):
        with pytest.raises(UsageError):
            profile("mystery")

    def test_fetch_instructions_name_file_and_env(self):
        text = fetch_instructions("diabetes")
        assert "diabetes.csv" in text
        assert DATA_DIR_ENV in text
        assert "768 rows, 8 feature columns" in text
        # every width load_real accepts is named
        text = fetch_instructions("heart_failure")
        assert "299 rows, 13 or 12 feature columns" in text


class TestSynthetic:
    def test_matches_profile_shape(self):
        for key, p in PROFILES.items():
            ds = synthetic(key)
            assert ds.features.shape == (p.n_rows, p.n_features)
            assert ds.positive_count() == p.n_positive

    def test_deterministic(self):
        a = synthetic("prostate")
        b = synthetic("prostate")
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_profiles_differ(self):
        assert not np.array_equal(synthetic("diabetes").labels[:100],
                                  synthetic("prostate").labels)


class TestCsvRoundTrip:
    def test_save_then_load_is_exact(self, tmp_path):
        ds = synthetic("prostate")
        path = tmp_path / "prostate.csv"
        save_csv(ds, path, label_column="diagnosis")
        back = load_csv(path, "diagnosis", "1")
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)


class TestLoadReal:
    def test_loads_verified_file(self, monkeypatch, tmp_path):
        p = PROFILES["heart_failure"]
        ds = synthetic("heart_failure")
        save_csv(ds, tmp_path / p.filename, label_column=p.label_column)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        got = load_real("heart_failure")
        assert got.n_rows == p.n_rows
        assert got.positive_count() == p.n_positive

    def test_rejects_wrong_counts(self, monkeypatch, tmp_path):
        p = PROFILES["heart_failure"]
        ds = synthetic("heart_failure")
        short = Dataset(ds.features[:150], ds.labels[:150])
        save_csv(short, tmp_path / p.filename, label_column=p.label_column)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        with pytest.raises(IngestionError, match="expected 299"):
            load_real("heart_failure")

    def test_missing_file_mentions_instructions(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        with pytest.raises(IngestionError, match="not found"):
            load_real("diabetes")

    def test_no_directory_configured(self, monkeypatch):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        with pytest.raises(IngestionError, match=DATA_DIR_ENV):
            load_real("diabetes")


class TestResolve:
    def test_falls_back_to_synthetic(self, monkeypatch, tmp_path):
        monkeypatch.delenv(DATA_DIR_ENV, raising=False)
        ds, origin = resolve("diabetes")
        assert origin == "synthetic"
        assert ds.n_rows == 768

    def test_prefers_local_file(self, monkeypatch, tmp_path):
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        assert resolve("diabetes")[1] == "synthetic"
        p = PROFILES["diabetes"]
        save_csv(synthetic("diabetes"), tmp_path / p.filename,
                 label_column=p.label_column)
        ds, origin = resolve("diabetes")
        assert origin == "real"

    def test_refuses_a_data_directory_that_is_not_one(self, monkeypatch,
                                                      tmp_path):
        regular = tmp_path / "file.csv"
        regular.write_text("")
        for value in (tmp_path / "absent", regular):
            monkeypatch.setenv(DATA_DIR_ENV, str(value))
            with pytest.raises(UsageError, match=DATA_DIR_ENV):
                resolve("prostate")

    def test_env_var_is_honored(self, monkeypatch, tmp_path):
        p = PROFILES["heart_failure"]
        save_csv(synthetic("heart_failure"), tmp_path / p.filename,
                 label_column=p.label_column)
        monkeypatch.setenv(DATA_DIR_ENV, str(tmp_path))
        ds, origin = resolve("heart_failure")
        assert origin == "real"
