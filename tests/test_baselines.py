import numpy as np
import pytest

from qmlgrid import baselines, bench, datasets, reference, svm, verify
from qmlgrid.baselines import (
    COUNT_SHIFT,
    ForestModel,
    _candidates,
    _check_packing,
    _grow,
    _mass_tables,
    _node_gini,
    LogisticModel,
    fit_forest,
    fit_logistic,
    fit_tree,
    predict_forest,
    predict_logistic,
)
from qmlgrid.errors import UsageError
from qmlgrid.metrics import evaluate
from qmlgrid.pipeline import stratified_split


def blobs(n=80, seed=3, gap=2.0):
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack([
        rng.normal(-gap / 2, 1.0, (half, 2)),
        rng.normal(+gap / 2, 1.0, (n - half, 2)),
    ])
    y = np.concatenate([np.zeros(half, dtype=int), np.ones(n - half, dtype=int)])
    return X, y


@pytest.mark.parametrize("fit", [fit_logistic, fit_tree, fit_forest])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_fits_refuse_non_finite_features(fit, bad):
    X, y = blobs(n=12)
    X[5, 1] = bad
    with pytest.raises(UsageError, match="finite"):
        fit(X, y)


@pytest.mark.parametrize("fit", [fit_logistic, fit_tree, fit_forest])
@pytest.mark.parametrize("rows, weights", [
    (40, (np.inf, 1.0)), (40, (-1.0, 1.0)), (40, (np.nan, 1.0)),
    (40, (1.0,)), (40, (0.0, 0.0)), (40, ("a", 1.0)), (0, (1.0, 1.0))],
    ids=["inf", "negative", "nan", "one", "zero-sum", "text", "no-rows"])
def test_fits_refuse_bad_weights_and_empty_sets(fit, rows, weights):
    # unchecked, these raised IndexError, TypeError or ZeroDivisionError,
    # returned a NaN bias, or grew trees of no splits or one leaf
    X, y = blobs(n=40)
    with pytest.raises(UsageError):
        fit(X[:rows], y[:rows], weights)


def _column_3_fits():
    """(rows, predictor -> (model, predict)): a logistic fit, a tree, a
    forest and an rbf SVM on 4 columns whose labels follow column 3, so
    the trees split on it."""
    rng = np.random.default_rng(17)
    X = rng.normal(size=(60, 4))
    y = (X[:, 3] > 0.0).astype(int)
    svm_model = svm.solve_dual(svm.SvmProblem(
        svm.kernel_matrix("rbf", X, X), 2.0 * y - 1.0))
    return X, {"logistic": (fit_logistic(X, y), predict_logistic),
               "tree": (fit_tree(X, y), predict_forest),
               "forest": (fit_forest(X, y, seed=3), predict_forest),
               "svm": (svm_model, svm.predict)}


def _with_nan(X):
    X = X.copy()
    X[7, 2] = np.nan
    return X


@pytest.mark.parametrize("predictor, probe", [
    ("logistic", lambda X: X[:, :3]), ("logistic", lambda X: X[None]),
    ("logistic", lambda X: X[0]), ("logistic", _with_nan),
    ("logistic", lambda X: np.hstack([X, X[:, :1]])),
    ("tree", lambda X: X[:, :3]), ("tree", lambda X: X[None]),
    ("tree", lambda X: X[0]), ("tree", _with_nan),
    ("forest", lambda X: X[:, :3]), ("forest", lambda X: X[None]),
    ("forest", lambda X: X[0]), ("forest", _with_nan),
    ("svm", lambda X: _with_nan(svm.kernel_matrix("rbf", X, X)))],
    ids=["logistic-narrow", "logistic-3d", "logistic-1d", "logistic-nan",
         "logistic-wide", "tree-narrow", "tree-3d", "tree-1d", "tree-nan",
         "forest-narrow", "forest-3d", "forest-1d", "forest-nan",
         "svm-nan-kernel-row"])
def test_predictors_refuse_rows_they_cannot_read(predictor, probe):
    # unchecked, a narrow row that reached a column-3 split read the
    # next row's first value (the last one raised IndexError), a 3-D
    # batch got one forest prediction, and a NaN row got a label
    X, fits = _column_3_fits()
    model, predict = fits[predictor]
    with pytest.raises(UsageError):
        predict(model, probe(X))


def test_forest_reads_up_to_its_highest_split_feature():
    X, fits = _column_3_fits()
    model, predict = fits["forest"]
    assert model.feature.max() == 3
    wide = np.hstack([X, np.ones((len(X), 2))])
    assert np.array_equal(predict(model, wide), predict(model, X))


@pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
def test_fit_forest_refuses_bad_seed(seed):
    X, y = blobs(n=20)
    with pytest.raises(UsageError, match="seed"):
        fit_forest(X, y, seed=seed)


def test_fit_forest_takes_numpy_and_cell_seeds():
    X, y = blobs(n=20)
    probe = np.random.default_rng(1).normal(size=(30, 2))
    votes = predict_forest(fit_forest(X, y, seed=4), probe)
    assert np.array_equal(
        predict_forest(fit_forest(X, y, seed=np.int64(4)), probe), votes)
    fit_forest(X, y, seed=2 ** 64 - 1)      # cell_seed's largest


class TestLogistic:
    def test_learns_separated_blobs(self):
        X, y = blobs(gap=4.0)
        model = fit_logistic(X, y)
        assert evaluate(y, predict_logistic(model, X)).f1 >= 0.95

    def test_gradient_matches_finite_difference(self):
        # one hand-rolled GD step against numeric partials of the loss
        rng = np.random.default_rng(7)
        X = rng.normal(size=(12, 3))
        y = (rng.random(12) > 0.4).astype(int)
        cw = (0.4, 0.6)
        sw = np.asarray(cw)[y]

        def loss_at(w, b):
            z = X @ w + b
            p = np.clip(1 / (1 + np.exp(-z)), 1e-12, 1 - 1e-12)
            return np.mean(-sw * (y * np.log(p) + (1 - y) * np.log(1 - p)))

        w0 = rng.normal(size=3)
        b0 = 0.3
        p = 1 / (1 + np.exp(-(X @ w0 + b0)))
        residual = sw * (p - y)
        grad_w = X.T @ residual / len(y)
        grad_b = residual.sum() / len(y)
        eps = 1e-6
        for k in range(3):
            step = np.zeros(3)
            step[k] = eps
            num = (loss_at(w0 + step, b0) - loss_at(w0 - step, b0)) / (2 * eps)
            assert abs(num - grad_w[k]) < 1e-6
        num_b = (loss_at(w0, b0 + eps) - loss_at(w0, b0 - eps)) / (2 * eps)
        assert abs(num_b - grad_b) < 1e-6

    def test_zero_weight_class_ignored(self):
        # class 0 has weight 0, so a constant column aligned with class 1
        # dominates and everything lands in class 1
        X, y = blobs(gap=0.0, seed=11)
        model = fit_logistic(X, y, class_weights=(0.0, 1.0))
        assert np.all(predict_logistic(model, X) == 1)

    @staticmethod
    def gradient(model, X, y, class_weights=(1.0, 1.0)):
        """The gradient of the weighted mean log-loss at the model's
        weights and bias, in that order."""
        Z = np.hstack([X, np.ones((len(y), 1))])
        p = 1 / (1 + np.exp(-(Z @ np.append(model.weights, model.bias))))
        return Z.T @ (np.asarray(class_weights)[y] * (p - y)) / len(y)

    @pytest.mark.parametrize("k", range(2, 7))
    def test_grid_fits_reach_the_tolerance(self, k):
        # the train splits of the classical_diabetes grid
        bundle = stratified_split(datasets.synthetic("diabetes"), 0)
        X = bundle.features(k)[bundle.rows["train"]]
        y, cw = bundle.labels("train"), bundle.class_weights()
        model = fit_logistic(X, y, cw)
        assert model.converged and 0 < model.steps < baselines.MAX_STEPS
        assert np.abs(self.gradient(model, X, y, cw)).max() <= baselines.TOL

    def test_overlapping_blobs_reach_the_tolerance(self):
        X, y = blobs()
        model = fit_logistic(X, y, (0.4, 0.6))
        assert model.converged
        assert (np.abs(self.gradient(model, X, y, (0.4, 0.6))).max()
                <= baselines.TOL)

    def test_a_rising_step_is_halved(self):
        # the full Newton step from the fifth iterate raises the loss by
        # 1.75; taking every full step runs away to |weights| ~ 1e8
        X = np.array([[0.2, -1.3], [44.2, 0.2], [0.0, -24.8], [0.8, -2.2],
                      [-2.8, 1.2], [0.1, -0.5]])
        y = np.array([0, 1, 1, 1, 0, 1])
        model = fit_logistic(X, y)
        assert model.converged
        assert np.abs(self.gradient(model, X, y)).max() <= baselines.TOL

    def test_a_step_lost_in_round_off_is_taken(self):
        # at max |gradient| ~ 1e-8 a Newton step changes the loss by less
        # than its round-off; refusing every step whose loss rounds
        # higher halts this fit at the step cap, its gradient above TOL
        X = np.array([[0.0], [11.9], [3.9], [5.1], [-2.1], [-0.5], [1.1]])
        y = np.array([0, 1, 1, 0, 0, 1, 1])
        model = fit_logistic(X, y)
        assert model.converged
        assert np.abs(self.gradient(model, X, y)).max() <= baselines.TOL

    def test_separable_rows_are_unconverged(self):
        # no finite optimum: Newton steps drive the gradient below TOL
        # only once the probabilities saturate, so the fit stops at the
        # first iterate that separates the rows
        X = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([0, 0, 1, 1])
        model = fit_logistic(X, y)
        assert not model.converged
        assert np.all(predict_logistic(model, X) == y)

    def test_separation_ignores_zero_weight_rows(self):
        # the class-0 row at 3 breaks separation unless it is ignored
        X = np.array([[-2.0], [-1.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 1, 1, 0])
        assert fit_logistic(X, y).converged
        X, y = X[[0, 2, 3, 4]], y[[0, 2, 3, 4]]
        assert not fit_logistic(X, y, class_weights=(0.0, 1.0)).converged

    def test_every_split_converges_or_separates(self):
        # train splits of every dataset, split seeds 0-9, every grid k:
        # a fit reaches TOL, or its weights separate the rows, which only
        # six prostate splits allow
        unconverged = []
        for key, p in datasets.PROFILES.items():
            lo, hi = p.feature_range
            ds = datasets.synthetic(key)
            for split in range(10):
                bundle = stratified_split(ds, split)
                y, cw = bundle.labels("train"), bundle.class_weights()
                for k in range(lo, hi + 1):
                    X = bundle.features(k)[bundle.rows["train"]]
                    model = fit_logistic(X, y, cw)
                    if model.converged:
                        assert (np.abs(self.gradient(model, X, y, cw)).max()
                                <= baselines.TOL), (key, split, k)
                    else:
                        assert np.all(predict_logistic(model, X) == y)
                        unconverged.append((key, split, k))
        assert unconverged == [("prostate", 0, 5), ("prostate", 0, 6),
                               ("prostate", 1, 6), ("prostate", 5, 6),
                               ("prostate", 9, 5), ("prostate", 9, 6)]

    def test_singular_hessian_takes_the_least_squares_step(self,
                                                            monkeypatch):
        # a duplicated column makes every Hessian singular: solve raises
        # LinAlgError on some, and the fit takes a least-squares step
        # there; the fit is the one without the copy, each weight shared
        # between a column and its copy
        solve, singular = np.linalg.solve, []

        def spy(a, b):
            try:
                return solve(a, b)
            except np.linalg.LinAlgError:
                singular.append(a)
                raise
        monkeypatch.setattr(np.linalg, "solve", spy)
        X, y = blobs()
        model = fit_logistic(np.hstack([X, X]), y)
        alone = fit_logistic(X, y)
        assert singular
        assert model.converged
        assert np.allclose(model.weights[:2] + model.weights[2:],
                           alone.weights)
        assert np.isclose(model.bias, alone.bias)

    def test_rejects_bad_labels(self):
        X, _ = blobs(n=10)
        with pytest.raises(UsageError):
            fit_logistic(X, np.full(10, 2))

    def test_decision_boundary_at_half(self):
        model = LogisticModel(np.array([1.0]), 0.0, True, 0)
        assert predict_logistic(model, [[0.0]])[0] == 1   # p = 0.5 exactly
        assert predict_logistic(model, [[-0.1]])[0] == 0


class TestTree:
    def test_solves_xor(self):
        X = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=float)
        y = np.array([0, 1, 1, 0])
        tree = fit_tree(X, y)
        assert list(predict_forest(tree, X)) == [0, 1, 1, 0]

    def test_pure_training_fit(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) > 0.5).astype(int)
        tree = fit_tree(X, y)
        assert np.array_equal(predict_forest(tree, X), y)

    def test_threshold_is_midpoint(self):
        X = np.array([[1.0], [3.0], [5.0], [7.0]])
        y = np.array([0, 0, 1, 1])
        tree = fit_tree(X, y)
        assert tree.threshold[0] == pytest.approx(4.0)

    def test_weighted_majority_leaf(self):
        # 3 zeros vs 1 one on identical rows: unweighted leaf says 0,
        # minority weighting flips it
        X = np.zeros((4, 1))
        y = np.array([0, 0, 0, 1])
        plain = fit_tree(X, y)
        weighted = fit_tree(X, y, class_weights=(0.2, 0.8))
        assert plain.label[0] == 0
        assert weighted.label[0] == 1

    def test_midpoint_rounding_onto_upper_value_gives_leaf(self):
        # adjacent floats whose midpoint rounds onto the upper one: the
        # only cut would leave the right child empty
        a = 1.0 + 2.0 ** -52
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b
        tree = fit_tree(np.array([[a], [b]]), np.array([0, 1]))
        assert tree.feature[0] == -1
        assert tree.n_splits() == 0


class TestForest:
    def test_deterministic_given_seed(self):
        X, y = blobs(seed=9)
        a = fit_forest(X, y, seed=4)
        b = fit_forest(X, y, seed=4)
        probe = np.random.default_rng(1).normal(size=(30, 2))
        assert np.array_equal(predict_forest(a, probe), predict_forest(b, probe))

    def test_seed_changes_model(self):
        X, y = blobs(seed=9, gap=0.5)
        a = fit_forest(X, y, seed=4)
        b = fit_forest(X, y, seed=5)
        probe = np.random.default_rng(1).normal(size=(200, 2))
        assert not np.array_equal(predict_forest(a, probe),
                                  predict_forest(b, probe))

    def test_learns_blobs(self):
        X, y = blobs(gap=3.0)
        forest = fit_forest(X, y, seed=0)
        Xt, yt = blobs(gap=3.0, seed=8)
        assert evaluate(yt, predict_forest(forest, Xt)).f1 >= 0.9

    def test_tie_votes_positive(self):
        # two one-leaf trees voting 0 and 1
        forest = ForestModel(feature=np.array([-1, -1]),
                             threshold=np.zeros(2), left=np.array([-1, -1]),
                             label=np.array([0, 1]), n_trees=2)
        assert predict_forest(forest, [[0.5], [-3.0]]).tolist() == [1, 1]


def _caterpillar(depth: int):
    """(model, tree): one tree as a ForestModel and as a reference.TreeNode
    chain. Inner node i cuts column 1 at i + 0.5 and sends the rows below
    to a leaf of label i % 2, so a row at x = i stops at depth i + 1."""
    feature, threshold, left, label = [], [], [], []
    for i in range(depth):
        # inner node at 2i; its leaf at 2i + 1 beside the next inner node
        feature += [1, -1]
        threshold += [i + 0.5, 0.0]
        left += [2 * i + 1, -1]
        label += [0, i % 2]
    feature.append(-1)
    threshold.append(0.0)
    left.append(-1)
    label.append(depth % 2)
    model = ForestModel(np.array(feature), np.array(threshold),
                        np.array(left), np.array(label), n_trees=1)
    tree = reference.TreeNode(label=depth % 2)
    for i in reversed(range(depth)):
        tree = reference.TreeNode(1, i + 0.5,
                                  reference.TreeNode(label=i % 2), tree)
    return model, tree


class TestPredictForest:
    """predict_forest steps only the (row, tree) pairs still at an inner
    node; it votes as the recursive reference.predict_trees."""

    def test_zero_rows(self):
        X, y = blobs(seed=9)
        forest = fit_forest(X, y, seed=4)
        wants = reference.grow_forest(X, y, seed=4)
        empty = np.zeros((0, 2))
        got = predict_forest(forest, empty)
        assert got.shape == (0,)
        assert np.array_equal(got, reference.predict_trees(wants, empty))

    @pytest.mark.parametrize("label", [0, 1])
    def test_root_only_tree(self, label):
        X, _ = blobs(seed=9)
        y = np.full(len(X), label)
        tree, want = fit_tree(X, y), reference.grow_tree(X, y)
        assert tree.n_splits() == 0 and want.left is None
        probe = np.random.default_rng(2).normal(size=(30, 2))
        got = predict_forest(tree, probe)
        assert np.array_equal(got, reference.predict_trees([want], probe))
        assert np.array_equal(got, np.full(30, label))

    def test_rows_stop_at_very_different_depths(self):
        depth = 40
        model, want = _caterpillar(depth)
        x = np.random.default_rng(3).permutation(np.arange(-2, depth + 3))
        probe = np.column_stack([np.sin(x), x]).astype(float)
        got = predict_forest(model, probe)
        assert np.array_equal(got, reference.predict_trees([want], probe))
        assert np.array_equal(got, np.where(x < depth, np.maximum(x, 0) % 2,
                                            depth % 2))
        # beside a one-leaf tree voting 0, the tree's vote decides, as a
        # tie goes to class 1; the leaf is root 0 and every caterpillar
        # node moves up by one
        forest = ForestModel(np.append(-1, model.feature),
                             np.append(0.0, model.threshold),
                             np.append(-1, np.where(model.left >= 0,
                                                    model.left + 1, -1)),
                             np.append(0, model.label), n_trees=2)
        leaf = reference.TreeNode(label=0)
        assert np.array_equal(predict_forest(forest, probe),
                              reference.predict_trees([leaf, want], probe))
        assert np.array_equal(predict_forest(forest, probe), got)


class TestCandidates:
    """_candidates gives the sorted results of successive rng.choice calls
    and leaves the rng where those calls would."""

    @pytest.mark.parametrize("d", range(2, 14))
    def test_matches_successive_choice_calls(self, d):
        for k in range(1, d):
            for seed in range(4):
                want_rng = np.random.default_rng([seed, d, k])
                got_rng = np.random.default_rng([seed, d, k])
                # an odd number of 32-bit draws leaves half of a 64-bit
                # output buffered, as a bootstrap resample can
                for rng in (want_rng, got_rng):
                    rng.integers(0, 491, 2 * seed + 1)
                want = [np.sort(want_rng.choice(d, k, replace=False))
                        for _ in range(9)]
                got = _candidates(got_rng, d, k, 9)
                assert np.array_equal(got, want), (d, k, seed)
                assert ((got_rng.integers(2 ** 31), got_rng.random())
                        == (want_rng.integers(2 ** 31), want_rng.random())), \
                    (d, k, seed)


class TestStepBound:
    """How many nodes a step takes changes no tree."""

    @pytest.mark.parametrize("k", [3, 6])
    def test_one_node_and_every_node_per_step(self, k, monkeypatch):
        bundle = stratified_split(datasets.synthetic("diabetes"), 0)
        weights = bundle.class_weights()
        X = bundle.features(k)[bundle.rows["train"]]
        y = bundle.labels("train")
        probe = bundle.features(k)[bundle.rows["test"]]
        seed = bench.cell_seed(0, "diabetes", "classical",
                               {"model": "forest"}, 0)
        want = reference.grow_tree(X, y, weights)
        wants = reference.grow_forest(X, y, weights, seed=seed)
        want_votes = reference.predict_trees(wants, probe)
        for rows in (1, 10 ** 9):
            monkeypatch.setattr(baselines, "STEP_ROWS", rows)
            tree = fit_tree(X, y, weights)
            assert verify.same_tree(tree, 0, want), rows
            assert np.array_equal(predict_forest(tree, probe),
                                  reference.predict_trees([want], probe))
            forest = fit_forest(X, y, weights, seed=seed)
            assert all(verify.same_tree(forest, root, w)
                       for root, w in enumerate(wants)), rows
            assert np.array_equal(predict_forest(forest, probe), want_votes)


class TestMultiplicities:
    """A tree grows on its resample's distinct rows, each carrying its
    multiplicity, and still grows the recursion's tree on the resample
    rows themselves."""

    @staticmethod
    def assert_forest_matches(X, y, weights, seed):
        forest = fit_forest(X, y, weights, seed=seed)
        wants = reference.grow_forest(X, y, weights, seed=seed)
        assert all(verify.same_tree(forest, root, want)
                   for root, want in enumerate(wants))
        probe = np.vstack([X, X + 0.25])
        assert np.array_equal(predict_forest(forest, probe),
                              reference.predict_trees(wants, probe))

    def test_heavy_duplicates(self):
        # few levels per column, every row twice, conflicting labels on
        # equal rows: nodes that cannot split, cuts with many copies
        rng = np.random.default_rng(21)
        half = rng.integers(0, 3, size=(40, 3)) / 2.0
        X = np.vstack([half, half])
        y = rng.integers(0, 2, size=80)
        weights = (0.7, 1.9)
        self.assert_forest_matches(X, y, weights, seed=5)
        tree = fit_tree(X, y, weights)
        assert verify.same_tree(tree, 0, reference.grow_tree(X, y, weights))

    def test_resample_past_a_power_of_two(self):
        rng = np.random.default_rng(22)
        X = rng.integers(0, 4, size=(1100, 3)).astype(float)
        y = ((X[:, 0] + rng.integers(0, 3, size=1100)) > 3).astype(int)
        self.assert_forest_matches(X, y, (0.6, 1.4), seed=9)

    def test_multiplicity_past_a_power_of_two(self):
        # one row drawn 1024 times: a multiplicity field narrower than
        # the resample length would spill into the label bit
        X = np.array([[0.0, 2.0], [1.0, 1.0], [1.0, 0.0], [2.0, 2.0],
                      [3.0, 1.0], [3.0, 0.0]])
        y = np.array([0, 1, 0, 1, 1, 0])
        mult = np.array([[1024, 1, 3, 2, 1, 5], [2, 1500, 0, 1, 1, 3]])
        weights = (0.8, 1.3)
        forest = _grow(X, y, weights, mult)
        for root, counts in enumerate(mult):
            rows = np.repeat(np.arange(len(y)), counts)
            want = reference.grow_tree(X[rows], y[rows], weights)
            assert verify.same_tree(forest, root, want)

    def test_packing_guard(self):
        top = 1 << 63
        # the largest sort key is (groups * width << bits) - 1
        _check_packing(1, top >> 11, 11, 1)
        _check_packing(top >> 20, 1, 20, 1)
        with pytest.raises(UsageError, match="int64"):
            _check_packing(1, (top >> 11) + 1, 11, 1)
        with pytest.raises(UsageError, match="int64"):
            _check_packing(3, top >> 12, 11, 1)
        # packed counts hold rows below and above COUNT_SHIFT
        rows = (1 << (63 - COUNT_SHIFT)) - 1
        _check_packing(1, 1, 1, rows)
        with pytest.raises(UsageError, match="int64"):
            _check_packing(1, 1, 1, rows + 1)


class TestAgainstRecursiveReference:
    """The lockstep builder grows the trees that the recursive
    reference.grow_tree / grow_forest grow, split for split."""

    @pytest.mark.parametrize("dataset_key",
                             ["prostate", "heart_failure", "diabetes"])
    def test_grid_datasets_at_two_cell_seeds(self, dataset_key):
        bundle = stratified_split(datasets.synthetic(dataset_key), 0)
        weights = bundle.class_weights()
        y = bundle.labels("train")
        for k in range(2, 7):
            X = bundle.features(k)[bundle.rows["train"]]
            probe = bundle.features(k)[bundle.rows["test"]]
            tree, want = fit_tree(X, y, weights), reference.grow_tree(X, y,
                                                                      weights)
            assert verify.same_tree(tree, 0, want), k
            assert np.array_equal(predict_forest(tree, probe),
                                  reference.predict_trees([want], probe))
            for master in (0, 1):
                seed = bench.cell_seed(master, dataset_key, "classical",
                                       {"model": "forest"}, 0)
                forest = fit_forest(X, y, weights, seed=seed)
                wants = reference.grow_forest(X, y, weights, seed=seed)
                assert forest.n_trees == len(wants) == 100
                for root, want in enumerate(wants):
                    assert verify.same_tree(forest, root, want), (k, master)
                assert np.array_equal(predict_forest(forest, probe),
                                      reference.predict_trees(wants, probe))
                assert forest.n_splits() == sum(
                    _splits(want) for want in wants)

    def test_node_gini_is_bit_identical_to_the_recursion(self):
        rng = np.random.default_rng(12)
        t0, t1 = rng.uniform(0.01, 300.0, size=(2, 20_000))
        want = [reference._gini(np.array([a, b])) for a, b in zip(t0, t1)]
        assert np.array_equal(_node_gini(t0, t1), want)

    def test_mass_tables_are_shared_and_read_only(self):
        totals, prefixes = _mass_tables(0.7, 1.3, 40)
        again = _mass_tables(0.7, 1.3, 40)
        assert again[0] is totals and again[1] is prefixes
        assert not totals.flags.writeable and not prefixes.flags.writeable

    def test_property_suite_check(self):
        result = verify.check_trees()
        assert result.passed, result.detail

    def test_same_tree_sees_a_changed_threshold(self):
        X = np.array([[1.0], [3.0], [5.0], [7.0]])
        y = np.array([0, 0, 1, 1])
        tree, want = fit_tree(X, y), reference.grow_tree(X, y)
        assert verify.same_tree(tree, 0, want)
        tree.threshold[0] = np.nextafter(tree.threshold[0], 5.0)
        assert not verify.same_tree(tree, 0, want)


def _splits(node) -> int:
    if node.left is None:
        return 0
    return 1 + _splits(node.left) + _splits(node.right)
