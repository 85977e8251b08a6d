"""Self-contained property suite behind the `verify` CLI command and
acceptance criteria 1-5.

Each check rebuilds its own seeded random instances and compares the fast
implementations against the slow oracles in `reference`, so a passing
suite means the simulator, gradients, kernels, solver, and PCA pipeline
agree with independent reference computations where it runs. The
default counts and seeds are the acceptance criteria's; `fast` shrinks
the counts.
"""
from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import datasets, qnn, reference, svm
from .circuit import EncodingSpec, build_encoding
from .pipeline import pca_fit, standardize_apply, standardize_fit
from .qkernel import gram_matrix
from .statevec import Gate, apply_ops, zero_states

PCA_TARGETS = {"heart_failure": (5, 0.90), "diabetes": (6, 0.90),
               "prostate": (6, 0.99)}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


def random_gates(rng, n_qubits, depth) -> list:
    """depth random gates on n_qubits; rotations get angles in +-2 pi."""
    kinds = ["h", "rx", "ry", "rz", "phase"]
    if n_qubits >= 2:
        kinds += ["cnot", "cz"]
    gates = []
    for _ in range(depth):
        kind = kinds[rng.integers(len(kinds))]
        if kind in ("cnot", "cz"):
            a, b = rng.choice(n_qubits, size=2, replace=False)
            gates.append(Gate(kind, (int(a), int(b))))
        elif kind == "h":
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),)))
        else:
            # angle before target: this draw order fixes the seeded
            # instances of acceptance criterion 1
            angle = float(rng.uniform(-2 * np.pi, 2 * np.pi))
            gates.append(Gate(kind, (int(rng.integers(n_qubits)),), angle))
    return gates


def check_simulator(n_circuits: int = 200, seed: int = 101) -> CheckResult:
    """Random circuits (n <= 4, depth <= 50) on a batch of one vs the
    dense Kronecker unitary, 1e-10 elementwise."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_circuits):
        n = int(rng.integers(1, 5))
        gates = random_gates(rng, n, int(rng.integers(1, 51)))
        amps = zero_states(n, 1)
        apply_ops(amps, n, gates)
        want = reference.circuit_unitary(n, gates)[:, 0]
        worst = max(worst, float(np.max(np.abs(amps[0] - want))))
    return CheckResult(
        "simulator", worst <= 1e-10,
        f"{n_circuits} circuits (n<=4, depth<=50), max |amp error| "
        f"{worst:.2e}, tol 1e-10", time.perf_counter() - started)


def check_gradients(n_configs: int = 50, seed: int = 102) -> CheckResult:
    """Parameter-shift vs central finite differences, 1e-6 absolute."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(n_configs):
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
        got = qnn.parameter_shift_gradient(model, X, y)
        want = reference.finite_difference_gradient(
            lambda t: qnn.batch_loss(model, X, y, t),
            model.parameters, eps=1e-4)
        worst = max(worst, float(np.max(np.abs(got - want))))
    return CheckResult(
        "gradients", worst <= 1e-6,
        f"{n_configs} configs (n<=4, L<=3), max |grad error| {worst:.2e}, "
        f"tol 1e-6", time.perf_counter() - started)


def check_kernel_properties(n_samples: int = 30, seed: int = 103) -> CheckResult:
    """Unit diagonal, symmetry, PSD spectrum for every encoding x reps,
    plus the closed form for the single-feature Y-angle kernel on the
    dense-unitary oracle."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    problems = []
    for name in ("angle", "z", "zz_a", "zz_b"):
        for reps in (1, 2, 3):
            X = rng.uniform(-1, 1, size=(n_samples, 3))
            gram = gram_matrix(EncodingSpec(name, repetitions=reps), X)
            diag = float(np.max(np.abs(np.diag(gram) - 1.0)))
            sym = float(np.max(np.abs(gram - gram.T)))
            min_eig = float(np.min(np.linalg.eigvalsh(gram)))
            if diag > 1e-10 or sym > 1e-10 or min_eig < -1e-8:
                problems.append(f"{name}/r{reps} diag={diag:.1e} "
                                f"sym={sym:.1e} eig={min_eig:.1e}")
    angle = build_encoding(EncodingSpec("angle"), 1)
    closed = 0.0
    for _ in range(200):
        x, y = rng.uniform(-1, 1, size=2)
        closed = max(closed, abs(reference.kernel_value(angle, [x], [y]) -
                                 np.cos(np.pi * (x - y) / 2) ** 2))
    if closed > 1e-10:
        problems.append(f"closed-form angle kernel error {closed:.1e}")
    detail = "; ".join(problems) if problems else (
        f"12 encoding/reps combos on {n_samples}x{n_samples} Grams ok, "
        f"closed-form error {closed:.2e}")
    return CheckResult("kernel-properties", not problems, detail,
                       time.perf_counter() - started)


def check_svm_oracle(n_problems: int = 30, seed: int = 104) -> CheckResult:
    """SMO dual objective within 1e-4 of projected gradient; identical
    training-point predictions."""
    started = time.perf_counter()
    rng = np.random.default_rng(seed)
    worst = 0.0
    mismatches = 0
    for _ in range(n_problems):
        n = int(rng.integers(4, 9))
        M = rng.normal(size=(n, n + 3))
        gram = M @ M.T + 1e-8 * np.eye(n)
        labels = np.ones(n)
        labels[rng.permutation(n)[:max(1, n // 2)]] = -1.0
        problem = svm.SvmProblem(gram, labels,
                                 float(rng.uniform(0.5, 4.0)),
                                 (float(rng.uniform(0.5, 1.5)),
                                  float(rng.uniform(0.5, 1.5))))
        model = svm.solve_dual(problem)
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
        "svm-oracle", worst <= 1e-4 and mismatches == 0,
        f"{n_problems} PSD problems (n<=8), max dual gap {worst:.2e} "
        f"(tol 1e-4), {mismatches} train-prediction mismatches",
        time.perf_counter() - started)


def check_pca() -> CheckResult:
    """Cumulative explained-variance targets per dataset."""
    started = time.perf_counter()
    parts, ok = [], True
    for key, (k, threshold) in PCA_TARGETS.items():
        dataset, origin = datasets.resolve(key)
        mean, std = standardize_fit(dataset.features)
        model = pca_fit(standardize_apply(dataset.features, mean, std))
        ratio = float(model.cumulative_ratio[k - 1])
        ok = ok and ratio >= threshold
        parts.append(f"{key}[{origin}] r({k})={ratio:.4f} "
                     f"{'>=' if ratio >= threshold else '<'} {threshold}")
    return CheckResult("pca", ok, "; ".join(parts),
                       time.perf_counter() - started)


def run_property_suite(fast: bool = False) -> list:
    """All checks; `fast` shrinks instance counts for a quick smoke pass."""
    if fast:
        return [check_simulator(40), check_gradients(8),
                check_kernel_properties(12), check_svm_oracle(8),
                check_pca()]
    return [check_simulator(), check_gradients(),
            check_kernel_properties(), check_svm_oracle(), check_pca()]
