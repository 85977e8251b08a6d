"""Self-contained property suite behind the `verify` CLI command,
acceptance criteria 1-5 and the tree-builder check.

Each check rebuilds its own seeded random instances and compares the fast
implementations against the slow oracles in `reference`, so a passing
suite means the simulator, gradients, kernels, solver, and PCA pipeline
agree with independent reference computations where it runs. The
counts and seeds are the acceptance criteria's, so `qmlgrid verify` and
the acceptance tests run the same instances; the PCA targets are the
dataset profiles'.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from . import baselines, datasets, qnn, reference, svm
from .circuit import ANSATZ_ROTATIONS, encode, run_batch
from .pipeline import pca_fit, standardize_apply, standardize_fit
from .qkernel import KINDS, embed, gram_matrix


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def random_gates(rng, n_qubits, depth) -> list:
    """depth random (kind, targets, angle) gates on n_qubits; rotations
    get angles in +-2 pi, other gates None."""
    kinds = ["h", "rx", "ry", "rz", "phase"]
    if n_qubits >= 2:
        kinds += ["cnot", "cz"]
    gates = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("cnot", "cz"):
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append((kind, (int(a), int(b)), None))
        elif kind == "h":
            gates.append((kind, (int(rng.integers(n_qubits)),), None))
        else:
            # angle before target: this draw order fixes the seeded
            # instances of acceptance criterion 1
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            gates.append((kind, (int(rng.integers(n_qubits)),), angle))
    return gates


def check_simulator() -> CheckResult:
    """Random circuits (n <= 4, depth <= 50) run by reference.apply_gates
    on a batch of one vs the dense Kronecker unitary; then every QNN
    shape, again on a batch of one, as the fused blocks its model runs
    vs the dense unitary of reference.qnn_gates; then every kernel
    feature map (n 2..6, repetitions 1..3) as the ops qkernel.embed runs
    vs the dense unitary of reference.kernel_gates. All 1e-10
    elementwise."""
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = fused_worst = kernel_worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        gates = random_gates(rng, n, int(rng.integers(1, 51)))
        amps = reference.zero_states(n, 1)
        reference.apply_gates(amps, n, gates)
        want = reference.circuit_unitary(n, gates)[:, 0]
        worst = max(worst, float(np.max(np.abs(amps[0] - want))))
    shapes = list(itertools.product(
        ANSATZ_ROTATIONS, (False, True), (("Y",), ("X", "Z"), ("Z", "Y", "X")),
        range(2, 7), range(1, 4)))
    for ansatz, reupload, sequence, n, n_layers in shapes:
        model = qnn.init_model(
            qnn.QnnConfig(n, sequence, reupload, ansatz, n_layers,
                          seed=int(rng.integers(100_000))), (0.5, 0.5))
        x = rng.uniform(-1, 1, size=n)
        got = run_batch(model.config, encode(model.config, x[None]),
                        model.parameters)[0]
        gates = reference.qnn_gates(model.config, x, model.parameters)
        want = reference.circuit_unitary(n, gates)[:, 0]
        fused_worst = max(fused_worst, float(np.max(np.abs(got - want))))
    maps = list(itertools.product(KINDS, range(2, 7)))
    for kind, n in maps:
        x = rng.uniform(-1, 1, size=n)
        for reps, got in enumerate(embed(kind, x[None], 3)[:, 0], start=1):
            want = reference.circuit_unitary(
                n, reference.kernel_gates(kind, x, reps))[:, 0]
            kernel_worst = max(kernel_worst,
                               float(np.max(np.abs(got - want))))
    return CheckResult(
        "simulator", max(worst, fused_worst, kernel_worst) <= 1e-10,
        f"200 gate-by-gate circuits (n<=4, depth<=50), max |amp "
        f"error| {worst:.2e}, tol 1e-10; fused {fused_worst:.2e} over "
        f"{len(shapes)} QNN shapes (n 2..6, L 1..3); kernel "
        f"{kernel_worst:.2e} over {3 * len(maps)} feature maps (n 2..6, "
        f"r 1..3)",
        time.perf_counter() - started)


def check_gradients() -> CheckResult:
    """Adjoint-mode gradients, which run through fused layers, vs central
    finite differences, 1e-6 absolute, and vs the parameter-shift rule on
    a gate-by-gate forward pass, 1e-10 absolute."""
    started = time.perf_counter()
    rng = np.random.default_rng(102)
    worst = shift_worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 5))
        cfg = qnn.QnnConfig(
            n_features=n,
            encoding_sequence=tuple(rng.choice(list("XYZ"),
                                               size=rng.integers(1, 4),
                                               replace=False)),
            reupload=bool(rng.integers(2)),
            ansatz=("basic", "strongly")[rng.integers(2)],
            n_layers=int(rng.integers(1, 4)),
            seed=int(rng.integers(100_000)))
        model = qnn.init_model(cfg, (0.35, 0.65))
        X = rng.uniform(-1, 1, size=(5, n))
        y = rng.integers(0, 2, size=5)
        encoded = encode(cfg, X)
        got = qnn.parameter_shift_gradient(model, encoded, y)
        want = reference.finite_difference_gradient(
            lambda t: qnn.batch_loss(qnn.replace_params(model, t), encoded, y),
            model.parameters, eps=1e-4)
        worst = max(worst, float(np.max(np.abs(got - want))))
        shift = reference.shift_rule_gradient(model, X, y)
        shift_worst = max(shift_worst, float(np.max(np.abs(got - shift))))
    return CheckResult(
        "gradients", worst <= 1e-6 and shift_worst <= 1e-10,
        f"50 configs (n<=4, L<=3), max |grad error| {worst:.2e}, "
        f"tol 1e-6; vs parameter shift {shift_worst:.2e}, tol 1e-10",
        time.perf_counter() - started)


def check_kernel_properties() -> CheckResult:
    """Unit diagonal, symmetry, PSD spectrum for every encoding x reps,
    on every entry of each embed stack (the Grams at 1..reps), plus the
    closed form for the single-feature Y-angle kernel on the
    dense-unitary oracle."""
    started = time.perf_counter()
    rng = np.random.default_rng(103)
    problems = []
    for name in KINDS:
        for reps in (1, 2, 3):
            X = rng.uniform(-1, 1, size=(30, 3))
            for r, states in enumerate(embed(name, X, reps), start=1):
                gram = gram_matrix(states)
                diag = float(np.max(np.abs(np.diag(gram) - 1.0)))
                sym = float(np.max(np.abs(gram - gram.T)))
                min_eig = float(np.min(np.linalg.eigvalsh(gram)))
                if diag > 1e-10 or sym > 1e-10 or min_eig < -1e-8:
                    problems.append(f"{name}/r{r} of {reps} diag={diag:.1e} "
                                    f"sym={sym:.1e} eig={min_eig:.1e}")
    closed = 0.0
    for _ in range(200):
        x, y = rng.uniform(-1, 1, size=2)
        closed = max(closed, abs(reference.kernel_value("angle", 1, [x], [y])
                                 - np.cos(np.pi * (x - y) / 2) ** 2))
    if closed > 1e-10:
        problems.append(f"closed-form angle kernel error {closed:.1e}")
    detail = "; ".join(problems) if problems else (
        f"12 encoding/reps combos, 24 stack entries, on 30x30 Grams ok, "
        f"closed-form error {closed:.2e}")
    return CheckResult("kernel-properties", not problems, detail,
                       time.perf_counter() - started)


def check_svm_oracle() -> CheckResult:
    """SMO dual objective within 1e-4 of projected gradient; identical
    training-point predictions; alphas, bias, sweeps and convergence
    identical to the reference loop that rebuilds its working sets."""
    started = time.perf_counter()
    rng = np.random.default_rng(104)
    worst = 0.0
    mismatches = 0
    differ = 0
    for _ in range(30):
        n = int(rng.integers(4, 9))
        M = rng.normal(size=(n, n + 3))
        gram = M @ M.T + 1e-8 * np.eye(n)
        labels = np.ones(n)
        labels[rng.permutation(n)[:max(1, n // 2)]] = -1.0
        # a soft-margin C folded into both class weights
        C = float(rng.uniform(0.5, 4.0))
        problem = svm.SvmProblem(gram, labels,
                                 (C * float(rng.uniform(0.5, 1.5)),
                                  C * float(rng.uniform(0.5, 1.5))))
        model = svm.solve_dual(problem)
        direct = reference.solve_dual_mvp(problem)
        differ += not (np.array_equal(model.alphas, direct.alphas)
                       and model.bias == direct.bias
                       and model.sweeps == direct.sweeps
                       and model.converged == direct.converged)
        alpha_pg = reference.solve_dual_projected_gradient(
            gram, labels, problem.box())
        worst = max(worst, abs(
            reference.dual_objective(gram, labels, model.alphas) -
            reference.dual_objective(gram, labels, alpha_pg)))
        bias_pg = reference.bias_from_alpha(gram, labels, alpha_pg,
                                            problem.box())
        pred_pg = np.where(gram @ (alpha_pg * labels) + bias_pg >= 0, 1, -1)
        mismatches += int(np.sum(svm.predict(model, gram) != pred_pg))
    return CheckResult(
        "svm-oracle", worst <= 1e-4 and mismatches == 0 and differ == 0,
        f"30 PSD problems (n<=8), max dual gap {worst:.2e} "
        f"(tol 1e-4), {mismatches} train-prediction mismatches, "
        f"{differ} differ from the reference loop",
        time.perf_counter() - started)


def same_tree(model, root: int, node) -> bool:
    """Whether the tree at `root` of a flat baselines.ForestModel has the
    shape, split features, thresholds and node labels of a recursive
    reference.TreeNode tree."""
    pending = [(root, node)]
    while pending:
        i, node = pending.pop()
        if model.label[i] != node.label or model.feature[i] != node.feature:
            return False
        if node.left is not None:
            if model.threshold[i] != node.threshold:
                return False
            pending += [(model.left[i], node.left),
                        (model.left[i] + 1, node.right)]
    return True


def _tree_problem(rng, kind: str) -> tuple:
    """(X, y, class_weights) of a small seeded problem that stresses one
    corner of tree growth: `repeats` draws values from a few levels and
    repeats the first column as the last, `xor` duplicates the XOR table
    (every root cut has zero gain), `adjacent` puts pairs of adjacent
    floats whose midpoint rounds onto the upper one. Class weights are
    random and not dyadic."""
    n = int(rng.integers(12, 48))
    d = int(rng.integers(2, 6))
    if kind == "repeats":
        X = rng.integers(0, 4, size=(n, d)) / 3.0
        X[:, -1] = X[:, 0]      # equal best gains: the first feature wins
        y = rng.integers(0, 2, size=n)
    elif kind == "xor":
        X = rng.integers(0, 3, size=(n, d)) / 3.0
        X[:, :2] = rng.integers(0, 2, size=(n, 2))
        y = (X[:, 0] != X[:, 1]).astype(int)
    else:
        a = 1.0 + 2.0 ** -52
        X = np.where(rng.integers(0, 2, size=(n, d)) == 1,
                     np.nextafter(a, 2.0), a)
        X[:, 0] += rng.integers(0, 3, size=n)
        y = rng.integers(0, 2, size=n)
    weights = tuple(float(w) for w in rng.uniform(0.2, 3.0, size=2))
    return X, y, weights


def check_trees() -> CheckResult:
    """fit_tree and fit_forest vs the recursive reference builder: the
    same trees (shape, feature, threshold, node label) and the same
    predictions on the training rows and on a random probe."""
    started = time.perf_counter()
    rng = np.random.default_rng(107)
    kinds = ("repeats", "xor", "adjacent")
    problems = []
    for p in range(12):
        kind = kinds[p % len(kinds)]
        X, y, weights = _tree_problem(rng, kind)
        forest_seed = int(rng.integers(2 ** 63))
        probe = np.vstack([X, rng.uniform(X.min(), X.max(), size=X.shape)])
        tree = baselines.fit_tree(X, y, weights)
        want = reference.grow_tree(X, y, weights)
        forest = baselines.fit_forest(X, y, weights, seed=forest_seed)
        wants = reference.grow_forest(X, y, weights, seed=forest_seed)
        same = (forest.n_trees == len(wants)
                and same_tree(tree, 0, want)
                and all(same_tree(forest, r, w) for r, w in enumerate(wants)))
        agree = (np.array_equal(baselines.predict_forest(tree, probe),
                                reference.predict_trees([want], probe))
                 and np.array_equal(baselines.predict_forest(forest, probe),
                                    reference.predict_trees(wants, probe)))
        if not same:
            problems.append(f"{kind} problem {p}: trees differ")
        elif not agree:
            problems.append(f"{kind} problem {p}: predictions differ")
    detail = "; ".join(problems) if problems else (
        f"12 problems (repeated values, XOR, adjacent floats), "
        f"tree and 100-tree forest identical to the recursive builder")
    return CheckResult("trees", not problems, detail,
                       time.perf_counter() - started)


def check_pca() -> CheckResult:
    """Each dataset profile's cumulative explained-variance target."""
    started = time.perf_counter()
    parts, ok = [], True
    for key, p in datasets.PROFILES.items():
        k, threshold = p.pca_target
        dataset, origin = datasets.resolve(key)
        mean, std = standardize_fit(dataset.features)
        model = pca_fit(standardize_apply(dataset.features, mean, std))
        ratio = float(model.cumulative_ratio[k - 1])
        ok = ok and ratio >= threshold
        parts.append(f"{key}[{origin}] r({k})={ratio:.4f} "
                     f"{'>=' if ratio >= threshold else '<'} {threshold}")
    return CheckResult("pca", ok, "; ".join(parts),
                       time.perf_counter() - started)


def run_property_suite() -> list:
    """All checks, on the acceptance criteria's instances."""
    return [check_simulator(), check_gradients(),
            check_kernel_properties(), check_svm_oracle(), check_pca(),
            check_trees()]
