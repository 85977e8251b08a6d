import numpy as np
import pytest

from qmlgrid import baselines, bench, datasets, reference, verify
from qmlgrid.baselines import (
    ForestModel,
    _candidates,
    _mass_tables,
    _node_gini,
    LogisticModel,
    fit_forest,
    fit_logistic,
    fit_tree,
    predict_forest,
    predict_logistic,
)
from qmlgrid.errors import TrainingDivergedError, UsageError
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


class TestLogistic:
    def test_learns_separated_blobs(self):
        X, y = blobs(gap=4.0)
        model = fit_logistic(X, y)
        assert evaluate(y, predict_logistic(model, X)).f1 >= 0.95

    def test_loss_decreases(self):
        X, y = blobs()
        model = fit_logistic(X, y)
        assert model.losses[-1] < model.losses[0]

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

    def test_divergence_aborts(self):
        # conflicting labels at one point, step size past the stable range:
        # iterates overshoot the minimum by a growing margin every step
        X = np.array([[10.0], [10.0]])
        y = np.array([0, 1])
        with pytest.raises(TrainingDivergedError):
            fit_logistic(X, y, class_weights=(1.0, 1.02))

    @staticmethod
    def stepwise_fit(X, y, class_weights):
        """fit_logistic as a loss and a divergence check after every
        step; (weights, bias, losses), or the divergence message."""
        w, b = np.zeros(X.shape[1]), 0.0
        sw = np.asarray(class_weights, dtype=np.float64)[y]
        losses, rising = [], 0
        for it in range(1000):
            p = np.clip(0.5 * (1.0 + np.tanh(0.5 * (X @ w + b))),
                        1e-12, 1.0 - 1e-12)
            loss = float(np.mean(-sw * (y * np.log(p)
                                        + (1 - y) * np.log(1 - p))))
            if losses and loss > losses[-1]:
                rising += 1
                if rising >= 10:
                    return (f"loss rose for 10 straight iterations "
                            f"(iteration {it}, loss {loss:.6g}); lower the "
                            f"learning rate")
            else:
                rising = 0
            losses.append(loss)
            residual = sw * (p - y)
            w = w - 0.1 * (X.T @ residual) / len(y)
            b = b - 0.1 * float(residual.sum()) / len(y)
        return w, b, losses

    @pytest.mark.parametrize("k", range(2, 7))
    def test_blocked_losses_equal_a_check_after_every_step(self, k):
        bundle = stratified_split(datasets.synthetic("diabetes"), 0)
        X = bundle.features(k)[bundle.rows["train"]]
        y = bundle.labels("train")
        w, b, losses = self.stepwise_fit(X, y, bundle.class_weights())
        model = fit_logistic(X, y, bundle.class_weights())
        assert model.weights.tobytes() == w.tobytes()
        assert model.bias == b
        assert model.losses == losses

    def test_divergence_names_the_stepwise_iteration_and_loss(self):
        X = np.array([[10.0], [10.0]])
        y = np.array([0, 1])
        want = self.stepwise_fit(X, y, (1.0, 1.02))
        with pytest.raises(TrainingDivergedError) as info:
            fit_logistic(X, y, class_weights=(1.0, 1.02))
        assert str(info.value) == want

    def test_rejects_bad_labels(self):
        X, _ = blobs(n=10)
        with pytest.raises(UsageError):
            fit_logistic(X, np.full(10, 2))

    def test_decision_boundary_at_half(self):
        model = LogisticModel(np.array([1.0]), 0.0, [])
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
        assert tree.threshold[tree.roots[0]] == pytest.approx(4.0)

    def test_weighted_majority_leaf(self):
        # 3 zeros vs 1 one on identical rows: unweighted leaf says 0,
        # minority weighting flips it
        X = np.zeros((4, 1))
        y = np.array([0, 0, 0, 1])
        plain = fit_tree(X, y)
        weighted = fit_tree(X, y, class_weights=(0.2, 0.8))
        assert plain.label[plain.roots[0]] == 0
        assert weighted.label[weighted.roots[0]] == 1

    def test_midpoint_rounding_onto_upper_value_gives_leaf(self):
        # adjacent floats whose midpoint rounds onto the upper one: the
        # only cut would leave the right child empty
        a = 1.0 + 2.0 ** -52
        b = np.nextafter(a, 2.0)
        assert 0.5 * (a + b) == b
        tree = fit_tree(np.array([[a], [b]]), np.array([0, 1]))
        assert tree.feature[tree.roots[0]] == -1
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
        leaves = np.array([0, 1])
        forest = ForestModel(feature=np.array([-1, -1]),
                             threshold=np.zeros(2), left=leaves,
                             right=leaves, label=np.array([0, 1]),
                             roots=leaves)
        assert predict_forest(forest, [[0.5], [-3.0]]).tolist() == [1, 1]


def _caterpillar(depth: int):
    """(model, tree): one tree as a ForestModel and as a reference.TreeNode
    chain. Inner node i cuts column 1 at i + 0.5 and sends the rows below
    to a leaf of label i % 2, so a row at x = i stops at depth i + 1."""
    feature, threshold, left, right, label = [], [], [], [], []
    for i in range(depth):          # inner node at 2i, its leaf at 2i + 1
        feature += [1, -1]
        threshold += [i + 0.5, 0.0]
        left += [2 * i + 1, 2 * i + 1]
        right += [2 * i + 2, 2 * i + 1]
        label += [0, i % 2]
    feature.append(-1)
    threshold.append(0.0)
    left.append(2 * depth)
    right.append(2 * depth)
    label.append(depth % 2)
    model = ForestModel(np.array(feature), np.array(threshold),
                        np.array(left), np.array(right), np.array(label),
                        roots=np.array([0]))
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
        # tie goes to class 1
        nodes = len(model.feature)
        forest = ForestModel(np.append(model.feature, -1),
                             np.append(model.threshold, 0.0),
                             np.append(model.left, nodes),
                             np.append(model.right, nodes),
                             np.append(model.label, 0),
                             roots=np.array([nodes, 0]))
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
            assert verify.same_tree(tree, tree.roots[0], want), rows
            assert np.array_equal(predict_forest(tree, probe),
                                  reference.predict_trees([want], probe))
            forest = fit_forest(X, y, weights, seed=seed)
            assert all(verify.same_tree(forest, root, w)
                       for root, w in zip(forest.roots, wants)), rows
            assert np.array_equal(predict_forest(forest, probe), want_votes)


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
            assert verify.same_tree(tree, tree.roots[0], want), k
            assert np.array_equal(predict_forest(tree, probe),
                                  reference.predict_trees([want], probe))
            for master in (0, 1):
                seed = bench.cell_seed(master, dataset_key, "classical",
                                       {"model": "forest"}, 0)
                forest = fit_forest(X, y, weights, seed=seed)
                wants = reference.grow_forest(X, y, weights, seed=seed)
                assert len(forest.roots) == len(wants) == 100
                for root, want in zip(forest.roots, wants):
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
