import numpy as np
import pytest

from qmlgrid import bench, datasets, reference
from qmlgrid.errors import UsageError
from qmlgrid.pipeline import stratified_split
from qmlgrid.qkernel import embed, gram_matrix
from qmlgrid.svm import (KERNEL_KINDS, SvmModel, SvmProblem,
                         decision_function, kernel_matrix, kkt_violation,
                         predict, solve_dual)


def dual_objective(problem, alphas):
    return reference.dual_objective(problem.gram, problem.labels, alphas)


def random_problem(rng, n_max=8):
    n = int(rng.integers(4, n_max + 1))
    while True:
        y = rng.choice([-1.0, 1.0], size=n)
        if (y > 0).any() and (y < 0).any():
            break
    X = rng.normal(size=(n, 3))
    # rbf with gamma = 1/3 on X scaled by sqrt(3 g) is the rbf kernel at g
    X = X * np.sqrt(3.0 * float(rng.uniform(0.2, 1.5)))
    gram = kernel_matrix("rbf", X, X)
    return SvmProblem(gram, y, class_weights=folded_weights(rng))


def folded_weights(rng):
    """Two class weights in [0.4, 1.6), each times one soft-margin C in
    [0.5, 4), drawn C first."""
    C = float(rng.uniform(0.5, 4.0))
    return (C * float(rng.uniform(0.4, 1.6)),
            C * float(rng.uniform(0.4, 1.6)))


class TestClassicalKernels:
    def test_values_match_formulas(self):
        # gamma is 1 / n_features = 1/3 and coef0 is 0
        rng = np.random.default_rng(41)
        A = rng.normal(size=(4, 3))
        B = rng.normal(size=(5, 3))
        gamma = 1.0 / 3.0
        lin = kernel_matrix("linear", A, B)
        poly = kernel_matrix("poly3", A, B)
        rbf = kernel_matrix("rbf", A, B)
        sig = kernel_matrix("sigmoid", A, B)
        for i in range(4):
            for j in range(5):
                dot = A[i] @ B[j]
                assert abs(lin[i, j] - dot) < 1e-12
                assert abs(poly[i, j] - (gamma * dot) ** 3) < 1e-12
                d2 = np.sum((A[i] - B[j]) ** 2)
                assert abs(rbf[i, j] - np.exp(-gamma * d2)) < 1e-12
                assert abs(sig[i, j] - np.tanh(gamma * dot)) < 1e-12

    def test_default_gamma_is_one_over_features(self):
        # rows of eye(4) are sqrt(2) apart, so the rbf kernel at gamma = 1/4
        # is exactly exp(-0.5) off the diagonal
        A = np.eye(4)
        got = kernel_matrix("rbf", A, A)
        want = np.exp(-0.25 * (2.0 - 2.0 * np.eye(4)))
        np.testing.assert_array_equal(got, want)

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            kernel_matrix("cubic", np.eye(2), np.eye(2))


class TestSolverOnKnownProblem:
    def test_four_point_line(self):
        # points -2,-1,1,2; the margin sits at +-1: alphas (0,.5,.5,0),
        # bias 0, dual objective 0.5
        x = np.array([[-2.0], [-1.0], [1.0], [2.0]])
        y = np.array([-1.0, -1.0, 1.0, 1.0])
        problem = SvmProblem(kernel_matrix("linear", x, x), y,
                             class_weights=(10.0, 10.0))
        model = solve_dual(problem)
        np.testing.assert_allclose(model.alphas, [0, 0.5, 0.5, 0], atol=1e-6)
        assert abs(model.bias) < 1e-6
        assert abs(dual_objective(problem, model.alphas) - 0.5) < 1e-6
        assert model.converged
        assert list(model.support) == [1, 2]

    def test_weighted_boxes(self):
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        problem = SvmProblem(np.eye(4), y, class_weights=(0.5, 1.5))
        np.testing.assert_array_equal(problem.box(), [0.5, 1.5, 1.5, 0.5])


class TestSolverAgainstOracle:
    def test_matches_projected_gradient(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            problem = random_problem(rng)
            model = solve_dual(problem)
            box = problem.box()
            oracle = reference.solve_dual_projected_gradient(
                problem.gram, problem.labels, box)
            ours = dual_objective(problem, model.alphas)
            best = dual_objective(problem, oracle)
            assert ours >= best - 1e-4
            # same training predictions
            oracle_bias = reference.bias_from_alpha(
                problem.gram, problem.labels, oracle, box)
            ours_pred = predict(model, problem.gram)
            oracle_dec = problem.gram @ (oracle * problem.labels) + oracle_bias
            np.testing.assert_array_equal(ours_pred,
                                          np.where(oracle_dec >= 0, 1.0, -1.0))

    def test_invariants_hold(self):
        rng = np.random.default_rng(43)
        for _ in range(12):
            problem = random_problem(rng)
            model = solve_dual(problem)
            box = problem.box()
            assert np.all(model.alphas >= -1e-12)
            assert np.all(model.alphas <= box + 1e-12)
            assert abs(model.alphas @ problem.labels) <= 1e-8
            assert kkt_violation(problem, model) <= 1e-4 + 1e-9


def project_200_steps(v, labels, box):
    """reference.project_box_equality without its early exit."""
    span = float(np.abs(v).sum() + box.sum() + 1.0)
    lo, hi = -span, span
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.clip(v - mid * labels, 0.0, box) @ labels) > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return np.clip(v - lam * labels, 0.0, box)


class TestProjectionOracle:
    def test_early_exit_is_bit_identical_on_random_points(self):
        rng = np.random.default_rng(49)
        for trial in range(300):
            n = int(rng.integers(1, 13))
            # one-class label vectors included
            labels = (rng.choice([-1.0, 1.0], size=n) if trial % 10
                      else np.full(n, (-1.0, 1.0)[trial % 20 // 10]))
            v = rng.normal(scale=10.0 ** rng.uniform(-3, 2), size=n)
            box = rng.uniform(0.1, 3.0, size=n)
            np.testing.assert_array_equal(
                reference.project_box_equality(v, labels, box),
                project_200_steps(v, labels, box))

    def test_early_exit_is_bit_identical_on_grid_gram_ascent(self):
        problem = grid_problem("heart_failure", 4, "angle", 3)
        y, box = problem.labels, problem.box()
        q = (y[:, None] * y[None, :]) * problem.gram
        step = 1.0 / float(np.linalg.eigvalsh(q)[-1])
        alpha = np.zeros(len(y))
        for _ in range(40):
            v = alpha + step * (1.0 - q @ alpha)
            alpha = reference.project_box_equality(v, y, box)
            np.testing.assert_array_equal(alpha, project_200_steps(v, y, box))


def grid_problem(dataset_key, k, encoding, repetitions):
    """The QSVM cell's training problem at split seed 0."""
    bundle = stratified_split(datasets.synthetic(dataset_key), 0)
    X = bundle.features(k)[bundle.rows["train"]]
    y = np.where(bundle.labels("train") == 1, 1.0, -1.0)
    gram = gram_matrix(embed(encoding, X, repetitions)[-1])
    return SvmProblem(gram, y, bundle.class_weights())


class TestSolverOnGridGrams:
    @pytest.mark.parametrize("dataset_key,k", [("heart_failure", 4),
                                               ("diabetes", 6)])
    def test_every_qsvm_gram_converges(self, dataset_key, k):
        for config in bench.qsvm_grid():
            problem = grid_problem(dataset_key, k, config["encoding"],
                                   config["repetitions"])
            model = solve_dual(problem)
            assert model.converged, config
            assert kkt_violation(problem, model) <= 1e-4, config

    def test_reaches_oracle_objective_where_sweeps_stalled(self):
        # the Gram where a sweep-capped SMO left its largest KKT violation
        problem = grid_problem("heart_failure", 4, "angle", 3)
        model = solve_dual(problem)
        oracle = reference.solve_dual_projected_gradient(
            problem.gram, problem.labels, problem.box(), max_iter=20_000)
        assert model.converged
        assert (dual_objective(problem, model.alphas)
                >= dual_objective(problem, oracle) - 1e-6)


def classical_problem(k, kind):
    """The classical SVM cell's training problem on diabetes at split 0."""
    bundle = stratified_split(datasets.synthetic("diabetes"), 0)
    X = bundle.features(k)[bundle.rows["train"]]
    y = np.where(bundle.labels("train") == 1, 1.0, -1.0)
    return SvmProblem(kernel_matrix(kind, X, X), y, bundle.class_weights())


def assert_same_iterates(problem, **kwargs):
    """solve_dual and the reference loop agree bit for bit."""
    model = solve_dual(problem, **kwargs)
    want = reference.solve_dual_mvp(problem, **kwargs)
    assert np.array_equal(model.alphas, want.alphas)
    assert model.bias == want.bias
    assert model.sweeps == want.sweeps
    assert model.converged == want.converged
    return model


class TestSolverMatchesReferenceLoop:
    def test_heart_failure_qsvm_grams(self):
        for config in bench.qsvm_grid():
            assert_same_iterates(grid_problem(
                "heart_failure", 4, config["encoding"], config["repetitions"]))

    @pytest.mark.parametrize("dataset_key", ["prostate", "diabetes"])
    def test_qsvm_grams_at_k6(self, dataset_key):
        for config in bench.qsvm_grid():
            assert_same_iterates(grid_problem(
                dataset_key, 6, config["encoding"], config["repetitions"]))

    def test_diabetes_classical_grams(self):
        for k in range(2, 7):
            for kind in KERNEL_KINDS:
                assert_same_iterates(classical_problem(k, kind))

    def test_random_rbf_and_sigmoid_problems(self):
        rng = np.random.default_rng(46)
        floored = 0
        for trial in range(40):
            kind = ("rbf", "sigmoid")[trial % 2]
            n = int(rng.integers(6, 41))
            while True:
                y = rng.choice([-1.0, 1.0], size=n)
                if (y > 0).any() and (y < 0).any():
                    break
            X = rng.normal(scale=float(rng.uniform(0.5, 3.0)), size=(n, 3))
            gram = kernel_matrix(kind, X, X)
            d = np.diagonal(gram)
            curv = d[:, None] + d[None, :] - 2.0 * gram
            floored += int(np.any(curv[~np.eye(n, dtype=bool)] <= 0.0))
            assert_same_iterates(SvmProblem(
                gram, y, class_weights=folded_weights(rng)))
        # the sigmoid Grams are not PSD: their pairs reach the _TAU floor
        assert floored >= 10

    def test_samples_leave_and_reenter_their_sets(self):
        # small boxes and skewed weights put many a_t at 0 or at their box,
        # so i and j leave I_up or I_low and come back; a returning
        # sample's g is read from the other buffer
        rng = np.random.default_rng(51)
        at_zero = at_box = free = reentries = 0
        for _ in range(30):
            n = int(rng.integers(20, 61))
            y = np.where(np.arange(n) % 3 == 0, 1.0, -1.0)
            X = rng.normal(scale=float(rng.uniform(0.5, 2.0)), size=(n, 3))
            heavy = float(rng.uniform(2.0, 8.0))
            weights = (1.0, heavy) if rng.random() < 0.5 else (heavy, 1.0)
            C = float(rng.uniform(0.01, 0.2))
            problem = SvmProblem(kernel_matrix("rbf", X, X), y,
                                 class_weights=(C * weights[0],
                                                C * weights[1]))
            model = assert_same_iterates(problem)
            box = problem.box()
            at_zero += int(np.sum(model.alphas == 0.0))
            at_box += int(np.sum(model.alphas == box))
            free += int(np.sum((model.alphas > 0.0) & (model.alphas < box)))
            # memberships after every step, from the capped iterates
            was_up = was_low = np.zeros(n, dtype=bool)
            left_up = left_low = np.zeros(n, dtype=bool)
            for steps in range(model.sweeps + 1):
                a = solve_dual(problem, max_iter=steps).alphas
                below, above = a < box, a > 0.0
                in_up = np.where(y > 0, below, above)
                in_low = np.where(y > 0, above, below)
                reentries += int(np.sum(left_up & in_up)
                                 + np.sum(left_low & in_low))
                left_up = (left_up | (was_up & ~in_up)) & ~in_up
                left_low = (left_low | (was_low & ~in_low)) & ~in_low
                was_up, was_low = in_up, in_low
        assert at_zero and at_box and free
        assert reentries >= 5

    def test_near_duplicate_points(self):
        # rows 1e-9 apart put curvatures in (0, _TAU), which stay unfloored
        rng = np.random.default_rng(50)
        for _ in range(20):
            X = np.repeat(rng.normal(size=(6, 3)), 4, axis=0)
            X *= 1.0 + 1e-9 * rng.normal(size=(24, 1))
            y = rng.choice([-1.0, 1.0], size=24)
            y[:2] = (-1.0, 1.0)
            assert_same_iterates(SvmProblem(kernel_matrix("rbf", X, X), y,
                                            class_weights=(2.0, 2.0)))

    def test_non_symmetric_gram(self):
        rng = np.random.default_rng(47)
        problem = random_problem(rng, n_max=12)
        gram = problem.gram + 0.05 * rng.normal(size=problem.gram.shape)
        assert not np.array_equal(gram, gram.T)
        assert_same_iterates(SvmProblem(gram, problem.labels,
                                        problem.class_weights))

    @pytest.mark.parametrize("max_iter", [0, 1, 5])
    def test_capped_runs(self, max_iter):
        model = assert_same_iterates(classical_problem(4, "rbf"),
                                     max_iter=max_iter)
        assert model.sweeps == max_iter and not model.converged


class TestSolverBehavior:
    def test_non_convergence_returns_flagged_iterate(self):
        rng = np.random.default_rng(44)
        problem = random_problem(rng)
        model = solve_dual(problem, max_iter=1)
        assert not model.converged
        assert model.sweeps == 1

    @pytest.mark.parametrize("max_iter", [-1, -5])
    def test_rejects_negative_max_iter(self, max_iter):
        problem = random_problem(np.random.default_rng(44))
        with pytest.raises(UsageError, match="max_iter"):
            solve_dual(problem, max_iter=max_iter)

    def test_rejects_single_class(self):
        with pytest.raises(UsageError):
            SvmProblem(np.eye(3), np.ones(3))

    def test_rejects_bad_labels(self):
        with pytest.raises(UsageError):
            SvmProblem(np.eye(2), np.array([0.0, 1.0]))


def eight_point_rbf():
    rng = np.random.default_rng(48)
    X = rng.normal(size=(8, 3))
    return kernel_matrix("rbf", X, X), np.array([-1.0, 1.0] * 4)


class TestProblemValidation:
    # the solver makes no usable model of these: NaN alphas after
    # max_iter steps, or converged=True after 0 steps with zero alphas
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_gram(self, bad):
        gram, y = eight_point_rbf()
        gram[1, 2] = gram[2, 1] = bad
        with pytest.raises(UsageError, match="non-finite"):
            SvmProblem(gram, y)

    @pytest.mark.parametrize("weights", [(0.0, 1.0), (-1.0, 1.0),
                                         (np.nan, 1.0), (1.0, np.inf)])
    def test_rejects_class_weights_not_finite_and_positive(self, weights):
        gram, y = eight_point_rbf()
        with pytest.raises(UsageError, match="class weights"):
            SvmProblem(gram, y, class_weights=weights)

    @pytest.mark.parametrize("weights", [(2.0,), (1.0, 1.0, 5.0), 2.0,
                                         ((1.0, 1.0),)])
    def test_rejects_class_weights_not_a_pair(self, weights):
        gram, y = eight_point_rbf()
        with pytest.raises(UsageError, match="pair"):
            SvmProblem(gram, y, class_weights=weights)



class TestPrediction:
    def test_zero_decision_goes_positive(self):
        model = SvmModel(alphas=np.zeros(2), bias=0.0,
                         labels=np.array([-1.0, 1.0]))
        assert predict(model, np.zeros((1, 2)))[0] == 1.0

    def test_decision_function_shape_check(self):
        model = SvmModel(alphas=np.zeros(3), bias=0.0,
                         labels=np.array([-1.0, 1.0, 1.0]))
        with pytest.raises(UsageError):
            decision_function(model, np.zeros((2, 2)))

    def test_predict_recovers_training_labels_when_separable(self):
        rng = np.random.default_rng(45)
        X = np.vstack([rng.normal(-3, 0.3, (10, 2)), rng.normal(3, 0.3, (10, 2))])
        y = np.array([-1.0] * 10 + [1.0] * 10)
        gram = kernel_matrix("rbf", X, X)    # gamma = 1/2
        model = solve_dual(SvmProblem(gram, y, class_weights=(5.0, 5.0)))
        np.testing.assert_array_equal(predict(model, gram), y)
