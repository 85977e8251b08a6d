"""Slow, independent reference routes used only for cross-checking.

Nothing here shares code with the modules it checks, except that
kernel_gates reads each kernel feature map's gate and pair shift (not
its phase offset) from qkernel.FEATURE_MAPS, and qnn_gates each
ansatz's rotations from circuit.ANSATZ_ROTATIONS:
kernel_gates and qnn_gates write a kernel embedding and a QNN out gate
by gate (never through product states or whole-register ops),
apply_gates simulates gates one by one from the zero_states |0...0>
(read out by expectation_z_batch), circuits become dense unitaries via
Kronecker products and matrix multiplication, kernel entries and QNN
losses are computed from those unitaries and probabilities one sample
at a time, gradients come from central finite differences or from
parameter shifts of a gate-by-gate forward pass (never fused blocks or
the adjoint sweep), the SVM dual is solved by projected gradient ascent
and by a maximal-violating-pair loop that rebuilds its working sets
every step (sharing only the final bias rule with `svm`), and CART
trees grow node by node by recursion.
Deliberately brute force; do not optimize, except by early exits and
caches of fixed matrices that leave every output bit-identical.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import ANSATZ_ROTATIONS
from .errors import UsageError
from .qkernel import FEATURE_MAPS
from .svm import TOL, SvmModel, _final_bias

_I2 = np.eye(2, dtype=np.complex128)
_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)
_P1 = np.array([[0, 0], [0, 1]], dtype=np.complex128)

_PROB_FLOOR = 1e-12


def zero_states(n_qubits: int, batch: int) -> np.ndarray:
    """Batch of |0...0> states, shape (batch, 2**n_qubits)."""
    amps = np.zeros((batch, 1 << n_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def expectation_z_batch(amps: np.ndarray, n_qubits: int,
                        qubit: int) -> np.ndarray:
    """<Z_qubit> of every row of a (batch, 2**n_qubits) buffer."""
    idx = np.arange(1 << n_qubits)
    return np.abs(amps) ** 2 @ (1.0 - 2.0 * ((idx >> qubit) & 1))


def single_qubit_matrix(kind: str, angle: float | None = None) -> np.ndarray:
    if kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / np.sqrt(2.0)
    if kind == "rx":
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -1j * s], [-1j * s, c]])
    if kind == "ry":
        c, s = np.cos(angle / 2), np.sin(angle / 2)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "rz":
        return np.array([[np.exp(-1j * angle / 2), 0],
                         [0, np.exp(1j * angle / 2)]])
    if kind == "phase":
        return np.array([[1, 0], [0, np.exp(1j * angle)]])
    raise ValueError(f"not a single-qubit kind: {kind!r}")


def embed(n_qubits: int, factors: dict) -> np.ndarray:
    """Tensor product with qubit 0 on the least significant axis."""
    u = np.eye(1, dtype=np.complex128)
    for q in reversed(range(n_qubits)):
        u = np.kron(u, factors.get(q, _I2))
    return u


def gate_unitary(n_qubits: int, kind: str, targets, angle=None) -> np.ndarray:
    if kind == "cnot":
        c, t = targets
        return embed(n_qubits, {c: _P0}) + embed(n_qubits, {c: _P1, t: _X})
    if kind == "cz":
        a, b = targets
        u = np.eye(1 << n_qubits, dtype=np.complex128)
        idx = np.arange(1 << n_qubits)
        both = ((idx >> a) & 1 == 1) & ((idx >> b) & 1 == 1)
        u[both, both] = -1.0
        return u
    return embed(n_qubits, {targets[0]: single_qubit_matrix(kind, angle)})


# gate_unitary of a two-qubit gate, built once per (n, kind, targets):
# the shift-rule passes and circuit_unitary would otherwise spend most
# of their time on it
_two_qubit_unitary = lru_cache(maxsize=None)(gate_unitary)


def circuit_unitary(n_qubits: int, gates) -> np.ndarray:
    """Product of per-gate unitaries; gates is a sequence of
    (kind, targets, angle) triples with scalar or None angles."""
    u = np.eye(1 << n_qubits, dtype=np.complex128)
    for kind, targets, angle in gates:
        gate = (_two_qubit_unitary(n_qubits, kind, tuple(targets))
                if kind in ("cnot", "cz") else
                gate_unitary(n_qubits, kind, tuple(targets), angle))
        u = gate @ u
    return u


def apply_gates(amps: np.ndarray, n_qubits: int, gates) -> None:
    """Run (kind, targets, angle) gates one by one, in place, on a
    (batch, 2**n_qubits) buffer; an angle is None, a float, or a
    (batch,) array with one 2x2 matrix per sample."""
    for kind, targets, angle in gates:
        if kind in ("cnot", "cz"):
            amps[:] = amps @ _two_qubit_unitary(n_qubits, kind,
                                                tuple(targets)).T
            continue
        mats = (np.array([single_qubit_matrix(kind, a) for a in angle])
                if np.ndim(angle) else single_qubit_matrix(kind, angle)[None])
        q = targets[0]
        view = amps.reshape(len(amps), 1 << (n_qubits - q - 1), 2, 1 << q)
        view[:] = np.einsum("bij,bhjl->bhil",
                            np.broadcast_to(mats, (len(amps), 2, 2)), view)


def qnn_gates(config, X, theta) -> list:
    """The QNN of a qnn.QnnConfig as concrete (kind, targets, angle)
    gates: R_a(pi * x_q) on every qubit q for each axis a of the encoding
    sequence, then per layer the ANSATZ_ROTATIONS on each qubit in turn,
    rotation d on qubit q of layer r taking theta[(r * n + q) * depth + d],
    and a CNOT ring (q, q + 1 mod n), one CNOT at n = 2. With reupload
    the encoding precedes every layer, else only the first. X is one
    feature vector (scalar angles) or a matrix (an angle row per
    encoding gate)."""
    X = np.asarray(X, dtype=np.float64)
    n = config.n_features
    if X.shape[-1:] != (n,) or len(theta) != config.n_parameters():
        raise UsageError(f"expected {n} features and "
                         f"{config.n_parameters()} parameters, got shape "
                         f"{X.shape} and {len(theta)}")
    rotations = ANSATZ_ROTATIONS[config.ansatz]
    encoding = [("r" + str(axis).lower(), (q,), math.pi * X[..., q])
                for axis in config.encoding_sequence for q in range(n)]
    ring = [(0, 1)] if n == 2 else [(q, (q + 1) % n) for q in range(n)]
    gates = []
    for r in range(config.n_layers):
        if config.reupload or r == 0:
            gates += encoding
        base = r * n * len(rotations)
        gates += [(kind, (q,), float(theta[base + len(rotations) * q + d]))
                  for q in range(n) for d, kind in enumerate(rotations)]
        gates += [("cnot", pair, None) for pair in ring]
    return gates


def kernel_gates(kind: str, X, repetitions: int = 1) -> list:
    """A kernel feature map as concrete (kind, targets, angle) gates:
    "angle" is RY(pi * x_i) on qubit i; a qkernel.FEATURE_MAPS kind with
    gate G and pair shift s is H on every qubit, then G(2 * x_i) on
    qubit i, then, unless s is None, CNOT / G(2 * (s - x_i) * (s - x_j))
    / CNOT on every adjacent pair (i, j = i + 1). The block repeats
    `repetitions` times. X is one feature vector (scalar angles) or a
    matrix (an angle row per gate)."""
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[-1]
    if kind == "angle":
        return [("ry", (q,), math.pi * X[..., q])
                for q in range(n)] * repetitions
    gate, shift, _ = FEATURE_MAPS[kind]
    block = [("h", (q,), None) for q in range(n)]
    block += [(gate, (q,), 2.0 * X[..., q]) for q in range(n)]
    for q in range(n - 1 if shift is not None else 0):
        angle = 2.0 * ((shift - X[..., q]) * (shift - X[..., q + 1]))
        block += [("cnot", (q, q + 1), None), (gate, (q + 1,), angle),
                  ("cnot", (q, q + 1), None)]
    return block * repetitions


def kernel_value(kind: str, repetitions: int, x, y) -> float:
    """Fidelity |<0| U(y)^dagger U(x) |0>|^2 of a kernel feature map,
    from the dense unitaries of its kernel_gates at x and at y."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise UsageError(f"feature vectors must match, got {x.shape} / {y.shape}")

    def unitary(v):
        return circuit_unitary(len(v), kernel_gates(kind, v, repetitions))

    return float(np.abs((unitary(y).conj().T @ unitary(x))[0, 0]) ** 2)


def weighted_cross_entropy(probs, label: int, class_weights) -> float:
    """Per-sample loss -w[label] * ln(p[label]), probability clamped away
    from zero."""
    if label not in (0, 1):
        raise UsageError(f"label must be 0 or 1, got {label}")
    p = max(float(probs[label]), _PROB_FLOOR)
    return -float(class_weights[label]) * np.log(p)


def gate_by_gate_expectations(config, X, theta) -> np.ndarray:
    """(<Z_0>, <Z_1>) per row of X, shape (len(X), 2): the gates of
    qnn_gates run one by one through apply_gates. Criterion 1 checks
    apply_gates against dense unitaries; dense unitaries here would make
    the 2P + 1 passes of shift_rule_gradient too slow for the property
    suite."""
    n = config.n_features
    amps = zero_states(n, len(X))
    apply_gates(amps, n, qnn_gates(config, X, theta))
    return np.stack([expectation_z_batch(amps, n, q) for q in (0, 1)],
                    axis=1)


def shift_rule_gradient(model, X, y) -> np.ndarray:
    """Gradient of qnn.batch_loss by the two-point parameter-shift rule,
    2P + 1 forward passes for P parameters.

    Every trainable parameter of a QNN circuit sits in one rotation, so
    d<Z_q>/d theta_k = (<Z_q>(theta_k + pi/2) - <Z_q>(theta_k - pi/2)) / 2
    is exact. The forward passes are gate_by_gate_expectations of the
    gates qnn_gates writes from model.config; none of the fused blocks or
    the adjoint sweep is used.
    """
    y = np.asarray(y, dtype=int)
    c = model.config
    e = gate_by_gate_expectations(c, X, model.parameters)
    z = e - e.max(axis=1, keepdims=True)
    probs = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    # d loss_i / d e_q = w_{y_i} (p_q - [q == y_i]); mean over the batch
    onehot = np.eye(2)[y]
    dl_de = model.class_weights[y][:, None] * (probs - onehot) / len(y)
    grad = np.zeros_like(model.parameters)
    for k in range(grad.size):
        hi = model.parameters.copy()
        lo = model.parameters.copy()
        hi[k] += np.pi / 2.0
        lo[k] -= np.pi / 2.0
        de = 0.5 * (gate_by_gate_expectations(c, X, hi) -
                    gate_by_gate_expectations(c, X, lo))
        grad[k] = float(np.sum(dl_de * de))
    return grad


def finite_difference_gradient(fn, theta: np.ndarray, eps: float = 1e-4) -> np.ndarray:
    """Central differences of a scalar function of a parameter vector."""
    theta = np.asarray(theta, dtype=np.float64)
    grad = np.zeros_like(theta)
    for k in range(theta.size):
        hi = theta.copy()
        lo = theta.copy()
        hi[k] += eps
        lo[k] -= eps
        grad[k] = (fn(hi) - fn(lo)) / (2.0 * eps)
    return grad


def dual_objective(gram: np.ndarray, labels: np.ndarray, alpha: np.ndarray) -> float:
    q = (labels[:, None] * labels[None, :]) * gram
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


def project_box_equality(v: np.ndarray, labels: np.ndarray,
                         box: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {0 <= a <= box, sum(a * y) = 0}.

    The KKT system reduces to one scalar: a = clip(v - lam * y, 0, box)
    with sum(a * y) monotone nonincreasing in lam; bisect on lam.
    """
    span = float(np.abs(v).sum() + box.sum() + 1.0)
    lo, hi = -span, span

    def balance(lam):
        return float(np.clip(v - lam * labels, 0.0, box) @ labels)

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            # output-identical exit: from here on every step either
            # keeps (lo, hi) or sets both to mid, 0.5 * (mid + mid) is
            # mid, so the 200-step loop would also return lam = mid
            break
        if balance(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    return np.clip(v - lam * labels, 0.0, box)


def solve_dual_projected_gradient(gram: np.ndarray, labels: np.ndarray,
                                  box: np.ndarray, max_iter: int = 200_000,
                                  grad_tol: float = 1e-12) -> np.ndarray:
    """Projected gradient ascent on the soft-margin dual from alpha = 0."""
    y = np.asarray(labels, dtype=np.float64)
    q = (y[:, None] * y[None, :]) * gram
    lip = float(np.linalg.eigvalsh(q)[-1])
    step = 1.0 / max(lip, 1e-8)
    alpha = np.zeros(len(y))
    for _ in range(max_iter):
        grad = 1.0 - q @ alpha
        nxt = project_box_equality(alpha + step * grad, y, box)
        if float(np.max(np.abs(nxt - alpha))) < grad_tol:
            alpha = nxt
            break
        alpha = nxt
    return alpha


def bias_from_alpha(gram: np.ndarray, labels: np.ndarray, alpha: np.ndarray,
                    box: np.ndarray, sv_tol: float = 1e-7) -> float:
    """Bias rule re-derived from the KKT conditions: average over free
    support vectors, else the midpoint of the feasible interval."""
    y = np.asarray(labels, dtype=np.float64)
    f = gram @ (alpha * y)
    g = y - f
    free = (alpha > sv_tol) & (alpha < box - sv_tol)
    if free.any():
        return float(g[free].mean())
    lower = g[((y > 0) & (alpha <= sv_tol)) | ((y < 0) & (alpha >= box - sv_tol))]
    upper = g[((y > 0) & (alpha >= box - sv_tol)) | ((y < 0) & (alpha <= sv_tol))]
    lo = float(lower.max()) if lower.size else -np.inf
    hi = float(upper.min()) if upper.size else np.inf
    if np.isinf(lo) and np.isinf(hi):
        return 0.0
    if np.isinf(lo):
        return hi
    if np.isinf(hi):
        return lo
    return 0.5 * (lo + hi)


def solve_dual_mvp(problem, max_iter: int | None = None) -> SvmModel:
    """svm.solve_dual's iterates the direct way: every step rebuilds
    I_up, I_low, the gains and the curvatures over all n samples and
    takes j by argmin of -gain^2 / curv over I_low with gain > 0."""
    k = problem.gram
    y = np.where(problem.labels == 1, 1.0, -1.0)
    box = problem.box()
    n = y.size
    if max_iter is None:
        max_iter = max(10_000, 100 * n)
    diag = np.diagonal(k)
    pos = y > 0
    a = np.zeros(n)
    g = y.copy()
    converged = False
    steps = 0
    while True:
        below, above = a < box, a > 0.0
        up = np.where(pos, below, above)
        low = np.where(pos, above, below)
        i = int(np.argmax(np.where(up, g, -np.inf)))
        m_up = g[i]
        m_low = float(np.min(np.where(low, g, np.inf)))
        if m_up - m_low <= TOL:
            converged = True
            break
        if steps == max_iter:
            break
        steps += 1
        k_i = k[:, i]
        gain = m_up - g
        curv = diag[i] + diag - 2.0 * k_i
        curv = np.where(curv > 0.0, curv, 1e-12)
        j = int(np.argmin(np.where(low & (gain > 0.0),
                                   -gain * gain / curv, np.inf)))
        to_i = box[i] if pos[i] else 0.0
        to_j = 0.0 if pos[j] else box[j]
        room_i, room_j = abs(to_i - a[i]), abs(to_j - a[j])
        lam = min(gain[j] / curv[j], room_i, room_j)
        a[i] = to_i if lam == room_i else a[i] + y[i] * lam
        a[j] = to_j if lam == room_j else a[j] - y[j] * lam
        g -= lam * (k_i - k[:, j])

    bias = _final_bias(k, y, a, box)
    return SvmModel(alphas=a, bias=bias, signs=y,
                    converged=converged, sweeps=steps)


@dataclass
class TreeNode:
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode" = None
    right: "TreeNode" = None
    label: int = 0


def _gini(counts: np.ndarray) -> float:
    total = counts.sum()
    if total <= 0.0:
        return 0.0
    frac = counts / total
    return 1.0 - float(frac @ frac)


def _best_split(X, y, w, features):
    """(gain, feature, threshold) of the cut minimizing weighted child
    Gini, or None when no feature has two distinct values. Candidates are
    midpoints between consecutive distinct sorted values; zero-gain
    splits count. Per feature the first best cut wins; a later feature
    must beat the best so far by more than 1e-15."""
    total = np.array([w[y == 0].sum(), w[y == 1].sum()])
    parent = _gini(total)
    grand = total.sum()
    best = None
    for feat in features:
        order = np.argsort(X[:, feat], kind="stable")
        vals = X[order, feat]
        wy = w[order]
        one = y[order] == 1
        left1 = np.cumsum(np.where(one, wy, 0.0))[:-1]
        left0 = np.cumsum(np.where(one, 0.0, wy))[:-1]
        valid = vals[:-1] != vals[1:]
        if not valid.any():
            continue
        ls = left0 + left1
        rs = grand - ls
        right0 = total[0] - left0
        right1 = total[1] - left1
        gini_l = 1.0 - (left0 ** 2 + left1 ** 2) / ls ** 2
        gini_r = 1.0 - (right0 ** 2 + right1 ** 2) / rs ** 2
        gain = np.where(valid, parent - (ls * gini_l + rs * gini_r) / grand,
                        -np.inf)
        i = int(np.argmax(gain))
        if best is None or gain[i] > best[0] + 1e-15:
            best = (gain[i], feat, 0.5 * (vals[i] + vals[i + 1]))
    return best


def grow_tree(X, y, class_weights=(1.0, 1.0), max_features=None,
              rng=None) -> TreeNode:
    """CART with weighted Gini, grown by recursion until leaves are pure
    or no split helps. Node labels are the weighted majority, an exact
    tie going to class 1. With max_features and an rng, each node draws
    its sorted candidate features with rng.choice in pre-order."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    w = np.asarray(class_weights, dtype=np.float64)[y]
    n_features = X.shape[1]

    def build(idx):
        sub_y = y[idx]
        counts = np.array([w[idx][sub_y == 0].sum(), w[idx][sub_y == 1].sum()])
        node = TreeNode(label=1 if counts[1] >= counts[0] else 0)
        if counts.min() == 0.0:
            return node
        if max_features is not None and max_features < n_features:
            feats = np.sort(rng.choice(n_features, size=max_features,
                                       replace=False))
        else:
            feats = range(n_features)
        found = _best_split(X[idx], sub_y, w[idx], feats)
        if found is None:
            return node
        _, feat, thr = found
        mask = X[idx, feat] <= thr
        if mask.all():
            # the midpoint of two adjacent floats can round onto the upper
            # one and leave the right child empty
            return node
        node.feature, node.threshold = feat, thr
        node.left = build(idx[mask])
        node.right = build(idx[~mask])
        return node

    return build(np.arange(len(y)))


def grow_forest(X, y, class_weights=(1.0, 1.0), seed: int = 0) -> list:
    """100 recursive trees on bootstrap resamples: tree t's rng is
    default_rng([seed, t]); it draws the resample, then ceil(sqrt(d))
    candidate features per node."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=int)
    max_features = math.ceil(math.sqrt(X.shape[1]))
    trees = []
    for t in range(100):
        rng = np.random.default_rng([seed, t])
        idx = rng.integers(0, len(y), len(y))
        trees.append(grow_tree(X[idx], y[idx], class_weights,
                               max_features=max_features, rng=rng))
    return trees


def predict_trees(trees, X) -> np.ndarray:
    """Majority vote of recursive trees, row by row; an exact tie goes
    to class 1."""
    X = np.asarray(X, dtype=np.float64)
    ones = np.zeros(len(X), dtype=int)
    for tree in trees:
        for i, row in enumerate(X):
            node = tree
            while node.left is not None:
                node = node.left if row[node.feature] <= node.threshold \
                    else node.right
            ones[i] += node.label
    return (2 * ones >= len(trees)).astype(int)
