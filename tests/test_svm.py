import numpy as np
import pytest

from qmlgrid import bench, datasets, reference
from qmlgrid.circuit import feature_map
from qmlgrid.errors import UsageError
from qmlgrid.pipeline import stratified_split
from qmlgrid.qkernel import embed, gram_matrix
from qmlgrid.svm import (SvmModel, SvmProblem, decision_function,
                         kernel_matrix, kkt_violation, predict, solve_dual)


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
    return SvmProblem(gram, y, C=float(rng.uniform(0.5, 4.0)),
                      class_weights=(float(rng.uniform(0.4, 1.6)),
                                     float(rng.uniform(0.4, 1.6))))


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
        problem = SvmProblem(kernel_matrix("linear", x, x), y, C=10.0)
        model = solve_dual(problem)
        np.testing.assert_allclose(model.alphas, [0, 0.5, 0.5, 0], atol=1e-6)
        assert abs(model.bias) < 1e-6
        assert abs(dual_objective(problem, model.alphas) - 0.5) < 1e-6
        assert model.converged
        assert list(model.support) == [1, 2]

    def test_weighted_boxes(self):
        y = np.array([-1.0, 1.0, 1.0, -1.0])
        problem = SvmProblem(np.eye(4), y, C=2.0, class_weights=(0.25, 0.75))
        np.testing.assert_allclose(problem.box(), [0.5, 1.5, 1.5, 0.5])


class TestSolverAgainstOracle:
    def test_matches_projected_gradient(self):
        rng = np.random.default_rng(42)
        for _ in range(12):
            problem = random_problem(rng)
            model = solve_dual(problem, tol=1e-4)
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
            model = solve_dual(problem, tol=1e-4)
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
    """The QSVM cell's training problem at split seed 0 and C = 1."""
    bundle = stratified_split(datasets.synthetic(dataset_key), 0)
    X = bundle.features("train", k)
    y = np.where(bundle.labels("train") == 1, 1.0, -1.0)
    gram = gram_matrix(embed(feature_map(encoding, k, repetitions), X))
    return SvmProblem(gram, y, 1.0, bundle.class_weights())


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


class TestSolverBehavior:
    def test_non_convergence_returns_flagged_iterate(self):
        rng = np.random.default_rng(44)
        problem = random_problem(rng)
        model = solve_dual(problem, tol=1e-10, max_iter=1)
        assert not model.converged
        assert model.sweeps == 1

    def test_rejects_single_class(self):
        with pytest.raises(UsageError):
            SvmProblem(np.eye(3), np.ones(3))

    def test_rejects_bad_labels(self):
        with pytest.raises(UsageError):
            SvmProblem(np.eye(2), np.array([0.0, 1.0]))


class TestPrediction:
    def test_zero_decision_goes_positive(self):
        model = SvmModel(alphas=np.zeros(2), bias=0.0,
                         labels=np.array([-1.0, 1.0]), box=np.ones(2))
        assert predict(model, np.zeros((1, 2)))[0] == 1.0

    def test_decision_function_shape_check(self):
        model = SvmModel(alphas=np.zeros(3), bias=0.0,
                         labels=np.array([-1.0, 1.0, 1.0]), box=np.ones(3))
        with pytest.raises(UsageError):
            decision_function(model, np.zeros((2, 2)))

    def test_predict_recovers_training_labels_when_separable(self):
        rng = np.random.default_rng(45)
        X = np.vstack([rng.normal(-3, 0.3, (10, 2)), rng.normal(3, 0.3, (10, 2))])
        y = np.array([-1.0] * 10 + [1.0] * 10)
        gram = kernel_matrix("rbf", X, X)    # gamma = 1/2
        model = solve_dual(SvmProblem(gram, y, C=5.0))
        np.testing.assert_array_equal(predict(model, gram), y)
