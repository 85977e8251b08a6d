import numpy as np
import pytest

from qmlgrid.datasets import synthetic
from qmlgrid.errors import IngestionError, UsageError
from qmlgrid.pipeline import (
    Dataset,
    class_weights,
    load_csv,
    minmax_apply,
    minmax_fit,
    pca_fit,
    pca_transform,
    standardize_apply,
    standardize_fit,
    stratified_split,
)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadCsv:
    def test_parses_features_and_label(self, tmp_path):
        path = write(tmp_path, "a,b,outcome\n1.5,2,M\n3,4.25,B\n")
        ds = load_csv(path, "outcome", "M")
        assert np.allclose(ds.features, [[1.5, 2.0], [3.0, 4.25]])
        assert list(ds.labels) == [1, 0]

    def test_numeric_positive_value(self, tmp_path):
        path = write(tmp_path, "x,y\n0.1,1\n0.2,0\n")
        ds = load_csv(path, "y", 1)
        assert list(ds.labels) == [1, 0]

    def test_drop_columns(self, tmp_path):
        path = write(tmp_path, "id,x,y\n7,0.1,1\n8,0.2,0\n")
        ds = load_csv(path, "y", "1", drop_columns=("id",))
        assert np.array_equal(ds.features, [[0.1], [0.2]])
        assert list(ds.labels) == [1, 0]

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = write(tmp_path, "x,y\n0.1,1\noops,0\n")
        with pytest.raises(IngestionError, match=r"row 2.*'x'.*'oops'"):
            load_csv(path, "y", "1")

    def test_missing_label_cell(self, tmp_path):
        path = write(tmp_path, "x,y\n0.1,\n0.2,0\n")
        with pytest.raises(IngestionError, match=r"row 1.*missing.*'y'"):
            load_csv(path, "y", "1")

    def test_missing_label_column(self, tmp_path):
        path = write(tmp_path, "x,y\n0.1,1\n")
        with pytest.raises(IngestionError, match="no column 'z'"):
            load_csv(path, "z", "1")

    def test_ragged_row(self, tmp_path):
        path = write(tmp_path, "x,y\n0.1,1,9\n")
        with pytest.raises(IngestionError, match="row 1 has 3 cells"):
            load_csv(path, "y", "1")

    def test_empty_file(self, tmp_path):
        with pytest.raises(IngestionError, match="empty file"):
            load_csv(write(tmp_path, ""), "y", "1")

    def test_header_only(self, tmp_path):
        with pytest.raises(IngestionError, match="no data rows"):
            load_csv(write(tmp_path, "x,y\n"), "y", "1")


class TestDataset:
    def test_labels_must_be_exactly_0_or_1(self):
        # checked before the cast to int, which would read 0.5 as 0
        with pytest.raises(UsageError, match="labels must be 0/1"):
            Dataset(np.zeros((4, 2)), [0.5, 1.7, 0.0, 1.0])
        ds = Dataset(np.zeros((3, 2)), [1.0, 0.0, True])
        assert ds.labels.tolist() == [1, 0, 1]
        assert ds.labels.dtype == int


class TestStandardize:
    def test_train_moments(self):
        rng = np.random.default_rng(0)
        X = rng.normal(3.0, 2.5, size=(200, 4))
        mean, std = standardize_fit(X)
        Z = standardize_apply(X, mean, std)
        assert np.all(np.abs(Z.mean(axis=0)) < 1e-10)
        assert np.allclose(Z.std(axis=0), 1.0)

    def test_constant_column_maps_to_zero(self):
        X = np.array([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        mean, std = standardize_fit(X)
        Z = standardize_apply(X, mean, std)
        assert np.all(Z[:, 1] == 0.0)

    def test_test_point_at_train_mean(self):
        X = np.array([[1.0], [3.0]])
        mean, std = standardize_fit(X)
        assert standardize_apply(np.array([[2.0]]), mean, std)[0, 0] == 0.0


class TestPca:
    def setup_method(self):
        rng = np.random.default_rng(5)
        base = rng.normal(size=(150, 3)) * [3.0, 1.5, 0.4]
        self.X = base @ rng.normal(size=(3, 6))
        self.X += 0.01 * rng.normal(size=self.X.shape)

    def test_orthonormal_components(self):
        model = pca_fit(self.X)
        eye = model.components @ model.components.T
        assert np.max(np.abs(eye - np.eye(6))) < 1e-10

    def test_eigenvalues_nonincreasing(self):
        model = pca_fit(self.X)
        assert np.all(np.diff(model.eigenvalues) <= 1e-12)

    def test_cumulative_ratio_shape(self):
        model = pca_fit(self.X)
        r = model.cumulative_ratio
        assert np.all(np.diff(r) >= -1e-12)
        assert abs(r[-1] - 1.0) < 1e-10

    def test_reconstruction_with_all_components(self):
        model = pca_fit(self.X)
        proj = pca_transform(model, self.X)
        back = proj @ model.components + model.mean
        assert np.max(np.abs(back - self.X)) < 1e-8

    def test_projection_variance_matches_eigenvalue(self):
        model = pca_fit(self.X)
        proj = pca_transform(model, self.X)
        assert np.var(proj[:, 0], ddof=1) == pytest.approx(
            model.eigenvalues[0], rel=1e-10)

    def test_collinear_data_is_rank_one(self):
        t = np.linspace(0, 1, 40)
        X = np.c_[t, 2 * t]
        model = pca_fit(X)
        assert model.cumulative_ratio[0] == pytest.approx(1.0, abs=1e-10)

    def test_sign_convention(self):
        model = pca_fit(self.X)
        for row in model.components:
            assert row[np.argmax(np.abs(row))] > 0



class TestMinmax:
    def test_endpoints_and_midpoint(self):
        X = np.array([[1.0], [2.0], [5.0]])
        lo, hi = minmax_fit(X)
        out = minmax_apply(X, lo, hi)
        assert out[0, 0] == -1.0 and out[2, 0] == 1.0
        assert minmax_apply(np.array([[3.0]]), lo, hi)[0, 0] == 0.0

    def test_clips_out_of_range(self):
        lo, hi = minmax_fit(np.array([[0.0], [1.0]]))
        out = minmax_apply(np.array([[-5.0], [9.0]]), lo, hi)
        assert list(out[:, 0]) == [-1.0, 1.0]

    def test_constant_component(self):
        lo, hi = minmax_fit(np.array([[2.0], [2.0]]))
        assert minmax_apply(np.array([[2.0], [7.0]]), lo, hi)[0, 0] == 0.0


class TestClassWeights:
    def test_minority_gets_majority_share(self):
        y = np.array([0] * 203 + [1] * 96)
        w0, w1 = class_weights(y)
        assert w0 == pytest.approx(96 / 299)
        assert w1 == pytest.approx(203 / 299)

    def test_balanced(self):
        assert class_weights([0, 1, 0, 1]) == (0.5, 0.5)

    def test_single_class_rejected(self):
        with pytest.raises(UsageError):
            class_weights([1, 1, 1])


def toy_dataset(n=120, pos=40, seed=9):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 5))
    y = (rng.permutation(n) < pos).astype(int)
    return Dataset(X, y)


class TestStratifiedSplit:
    def test_partition_is_exact(self):
        ds = toy_dataset()
        b = stratified_split(ds, 3)
        merged = np.sort(np.concatenate([b.indices(s) for s in b.SPLITS]))
        assert np.array_equal(merged, np.arange(ds.n_rows))
        with pytest.raises(UsageError, match="unknown split 'dev'"):
            b.indices("dev")

    def test_deterministic(self):
        ds = toy_dataset()
        a = stratified_split(ds, 3)
        b = stratified_split(ds, 3)
        assert np.array_equal(a.index, b.index)
        assert a.rows == b.rows
        assert np.array_equal(a.stack, b.stack)

    def test_seed_changes_membership(self):
        ds = toy_dataset()
        a = stratified_split(ds, 3)
        b = stratified_split(ds, 4)
        assert not np.array_equal(a.indices("test"), b.indices("test"))

    def test_documented_split_counts(self):
        dia = synthetic("diabetes")
        b = stratified_split(dia, 0)
        assert [len(b.indices(s)) for s in b.SPLITS] == [491, 123, 154]
        assert int(b.labels("test").sum()) == 54
        assert int(b.labels("val").sum()) == 43

        hf = synthetic("heart_failure")
        b = stratified_split(hf, 0)
        assert int(b.labels("test").sum()) == 19
        assert int(b.labels("val").sum()) == 15

    def test_stratification_within_three_points(self):
        for key in ("heart_failure", "diabetes", "prostate"):
            ds = synthetic(key)
            share = ds.positive_count() / ds.n_rows
            for seed in range(3):
                b = stratified_split(ds, seed)
                for split in ("train", "val", "test"):
                    y = b.labels(split)
                    assert abs(y.mean() - share) <= 0.03

    def test_small_class_rejected(self):
        X = np.zeros((6, 2))
        y = np.array([0, 0, 0, 0, 1, 1])
        with pytest.raises(UsageError):
            stratified_split(Dataset(X, y), 0)

    def test_outputs_stay_in_unit_box(self):
        ds = synthetic("heart_failure")
        b = stratified_split(ds, 1)
        F = b.features(4)
        assert F.shape == (ds.n_rows, 4)
        assert np.all(F >= -1.0) and np.all(F <= 1.0)
        # the train rows span [-1, 1] in every component
        train = b.stack[b.rows["train"]]
        assert np.all(train.min(axis=0) == -1.0)
        assert np.all(train.max(axis=0) == 1.0)

    def test_features_refuse_k_outside_1_to_d(self):
        # features at k view the first k of the d components
        b = stratified_split(toy_dataset(), 0)
        assert b.stack.shape == (120, 5)
        for k in (1, 5):
            assert np.shares_memory(b.features(k), b.stack)
            np.testing.assert_array_equal(b.features(k), b.stack[:, :k])
        for k in (0, 6):
            with pytest.raises(UsageError, match=rf"in 1\.\.5, got {k}$"):
                b.features(k)

    def test_no_leakage_from_held_out_rows(self):
        # the fitted chain must be a pure function of the train rows:
        # corrupting every val/test row changes no train feature, and
        # corrupting the val rows changes no test feature
        ds = toy_dataset()
        b1 = stratified_split(ds, 7)

        def corrupted(*splits):
            X2 = ds.features.copy()
            held = np.concatenate([b1.indices(s) for s in splits])
            X2[held] *= 100.0
            X2[held] += 5.0
            return stratified_split(Dataset(X2, ds.labels), 7)

        b2 = corrupted("val", "test")
        tr = b1.rows["train"]
        assert np.array_equal(b1.index, b2.index) and b1.rows == b2.rows
        assert b1.stack[tr].tobytes() == b2.stack[tr].tobytes()
        assert not np.array_equal(b1.stack[b1.rows["val"]],
                                  b2.stack[b2.rows["val"]])
        for name in ("mean", "components", "eigenvalues", "cumulative_ratio"):
            assert (getattr(b1.pca, name).tobytes()
                    == getattr(b2.pca, name).tobytes()), name

        b3 = corrupted("val")
        te = b1.rows["test"]
        assert b1.stack[te].tobytes() == b3.stack[te].tobytes()

    def test_split_weights_match_train_labels(self):
        ds = toy_dataset()
        b = stratified_split(ds, 0)
        y = b.labels("train")
        w0, w1 = b.class_weights()
        assert w0 == pytest.approx(y.mean())
