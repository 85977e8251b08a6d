"""Variational quantum classifier with adjoint-mode training.

One qubit per feature; qubits 0 and 1 are read out, softmax over
(<Z_0>, <Z_1>) gives the two class probabilities. The loss is class-
weighted cross-entropy. Gradients are adjoint-mode (Jones & Gacon,
arXiv:2009.02823): one forward pass, then one backward sweep that reads
every parameter's derivative off the stored state. The model runs as
a fused QnnCircuit (see fusion), built once from its config: a layer
costs one matrix product forward and one back, and its derivatives come
from n reduced 2x2 matrices, so a gradient costs 2.2 to 2.9 forward
passes whatever the parameter count (n = 4..6, up to 180 parameters,
batch 32). The chain through softmax and the loss is analytic.
`reference.shift_rule_gradient` keeps the parameter-shift rule on the
gate-by-gate circuit.qnn_circuit as the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .circuit import ANSATZ_ROTATIONS, AXES, run_batch
from .errors import ConfigurationError, TrainingDivergedError
from .fusion import FUSE_MAX_QUBITS, QnnCircuit, qnn_blocks, resolve_fused
from .statevec import _z_signs, apply_ops, expectation_z_batch, zero_states

PROB_FLOOR = 1e-12

# Adam moment decay rates and denominator floor (Kingma & Ba defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Adam step size, mini-batch rows, and epochs without a validation-loss
# improvement before training stops
LEARNING_RATE = 0.01
BATCH_SIZE = 32
PATIENCE = 5


@dataclass(frozen=True)
class QnnConfig:
    n_features: int
    encoding_sequence: tuple = ("Y",)
    reupload: bool = False
    ansatz: str = "basic"
    n_layers: int = 2
    seed: int = 0

    def __post_init__(self):
        if not 2 <= self.n_features <= FUSE_MAX_QUBITS:
            raise ConfigurationError(
                f"QNN needs 2 to {FUSE_MAX_QUBITS} features (two readout "
                f"qubits, dense layers), got {self.n_features}")
        seq = tuple(str(a).upper() for a in self.encoding_sequence)
        if not seq:
            raise ConfigurationError("encoding sequence must not be empty")
        if len(set(seq)) != len(seq):
            raise ConfigurationError(f"encoding sequence has repeats: {seq}")
        if not set(seq) <= set(AXES):
            raise ConfigurationError(f"unknown encoding axis in {seq}")
        if self.ansatz not in ANSATZ_ROTATIONS:
            raise ConfigurationError(f"unknown ansatz {self.ansatz!r}")
        if self.n_layers < 1:
            raise ConfigurationError("n_layers must be >= 1")

    def n_parameters(self) -> int:
        return (len(ANSATZ_ROTATIONS[self.ansatz]) * self.n_features
                * self.n_layers)


@dataclass
class QnnModel:
    config: QnnConfig
    parameters: np.ndarray
    class_weights: np.ndarray
    circuit: QnnCircuit = field(repr=False, default=None)

    def __post_init__(self):
        c = self.config
        if self.circuit is None:
            self.circuit = qnn_blocks(c.n_features, c.encoding_sequence,
                                      c.reupload, ANSATZ_ROTATIONS[c.ansatz],
                                      c.n_layers)
        if self.parameters.shape != (c.n_parameters(),):
            raise ConfigurationError(
                f"parameter vector has shape {self.parameters.shape}, "
                f"expected ({c.n_parameters()},)")


def init_model(config: QnnConfig, class_weights) -> QnnModel:
    rng = np.random.default_rng(config.seed)
    params = rng.uniform(-np.pi, np.pi, config.n_parameters())
    return QnnModel(config, params, np.asarray(class_weights, dtype=np.float64))


def softmax_pair(e: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (B, 2) array, numerically stable."""
    shifted = e - e.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def expectations(model: QnnModel, X: np.ndarray,
                 parameters: np.ndarray | None = None) -> np.ndarray:
    """(<Z_0>, <Z_1>) per sample, shape (B, 2)."""
    theta = model.parameters if parameters is None else parameters
    return _readout(run_batch(model.circuit, X, theta), model.circuit.n_qubits)


def _readout(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    return np.stack([expectation_z_batch(amps, n_qubits, 0),
                     expectation_z_batch(amps, n_qubits, 1)], axis=1)


def forward_batch(model: QnnModel, X: np.ndarray) -> np.ndarray:
    """Class probabilities per sample, shape (B, 2)."""
    return softmax_pair(expectations(model, X))


def predict(model: QnnModel, X: np.ndarray) -> np.ndarray:
    probs = forward_batch(model, X)
    return (probs[:, 1] >= probs[:, 0]).astype(int)


def batch_loss(model: QnnModel, X: np.ndarray, y: np.ndarray,
               parameters: np.ndarray | None = None) -> float:
    e = expectations(model, X, parameters)
    probs = softmax_pair(e)
    y = np.asarray(y, dtype=int)
    picked = np.maximum(probs[np.arange(len(y)), y], PROB_FLOOR)
    w = model.class_weights[y]
    return float(np.mean(-w * np.log(picked)))


def parameter_shift_gradient(model: QnnModel, X: np.ndarray,
                             y: np.ndarray) -> np.ndarray:
    """Gradient of batch_loss w.r.t. the parameter vector, adjoint mode.

    The forward pass keeps the final states psi and seeds
    lam = sum_q (d loss / d<Z_q>) Z_q psi per sample. The backward sweep
    undoes the fused blocks on psi and lam in reverse order. A layer is
    undone as one matrix, and its derivatives are read at the layer's
    input from the per-qubit 2x2 matrices R_q = sum_b Tr_{not q}
    |psi_b><lam_b|: the rotation at position d of qubit q's chain, with T
    the chain up to and including it, contributes
    scale * Im tr(P T R_q T^dagger). The name predates the adjoint method
    and is kept for the benchmark's span; `reference.shift_rule_gradient`
    is the oracle.
    """
    y = np.asarray(y, dtype=int)
    batch = len(y)
    circuit = model.circuit
    n = circuit.n_qubits
    ops, layer_factors = resolve_fused(circuit, X, model.parameters)
    psi = zero_states(n, batch)
    apply_ops(psi, n, ops)
    probs = softmax_pair(_readout(psi, n))
    onehot = np.zeros_like(probs)
    onehot[np.arange(batch), y] = 1.0
    # d loss_i / d e_q = w_{y_i} (p_q - [q == y_i]); mean over the batch
    dl_de = (model.class_weights[y][:, None] * (probs - onehot)) / batch
    observable = dl_de[:, :1] * _z_signs(n, 0) + dl_de[:, 1:] * _z_signs(n, 1)
    # psi and lam share one buffer, so one apply_ops call undoes both
    both = np.concatenate([psi, observable * psi])
    psi, lam = both[:batch], both[batch:]

    rows, cols = _reduction_indices(n)
    reduced = np.empty(layer_factors.shape[:2] + (2, 2), dtype=complex)
    layer = len(reduced)
    # ops to undo collect in `undo` and run only when a layer needs the
    # states at its input; the opening encoding never runs
    undo = []
    for op in reversed(ops):
        undo.append(op)
        if op[0] == "unitary":
            layer -= 1
            apply_ops(both, n, [_inverse(o) for o in undo])
            undo = []
            # R_q[a, b] sums C[i, j] = sum_b psi_b[i] conj(lam_b[j])
            # over the pairs of _reduction_indices
            reduced[layer] = (psi.T @ lam.conj())[rows, cols].sum(-1)
    grad = np.zeros_like(model.parameters)
    _add_layer_gradients(grad, circuit.layers, layer_factors, reduced)
    return grad


def _inverse(op) -> tuple:
    """The op undoing a "unitary" or "local" op on the stacked
    (psi, lam) buffer: a "local" payload serves both halves."""
    kind, targets, payload = op
    if kind == "unitary":
        return kind, targets, payload.conj().T
    return kind, targets, tuple(m.conj().swapaxes(-1, -2) for m in payload)


@lru_cache(maxsize=None)
def _reduction_indices(n_qubits: int):
    """(rows, cols), each (n, 2, 2, 2**(n-1)): entry [q, a, b] lists the
    pairs (i, j) of basis states that agree off qubit q and have bit q
    equal to a in i and to b in j."""
    idx = np.arange(1 << n_qubits)
    rows = np.empty((n_qubits, 2, 2, 1 << (n_qubits - 1)), dtype=np.intp)
    cols = np.empty_like(rows)
    for q in range(n_qubits):
        for a in (0, 1):
            i = idx[(idx >> q) & 1 == a]
            for b in (0, 1):
                rows[q, a, b] = i
                cols[q, a, b] = i ^ ((a ^ b) << q)
    return rows, cols


def _add_layer_gradients(grad, stack, factors, reduced) -> None:
    """Adds the fused layers' derivatives: factors are the stack's
    rotation matrices and reduced[r] the R_q at layer r's input."""
    chains = np.empty_like(factors)     # rotations up to and including d
    chains[:, :, 0] = factors[:, :, 0]
    for d in range(1, factors.shape[2]):
        chains[:, :, d] = factors[:, :, d] @ chains[:, :, d - 1]
    moved = chains @ reduced[:, :, None] @ chains.conj().swapaxes(-1, -2)
    values = np.einsum("rqdab,rqdba->rqd", stack.paulis, moved).imag
    np.add.at(grad, stack.index, stack.scales * values)


@dataclass
class TrainReport:
    val_loss: list
    best_epoch: int
    stopped_epoch: int

    def best_val_loss(self) -> float:
        return self.val_loss[self.best_epoch - 1]


def train(model: QnnModel, train_set, val_set, *, epochs: int = 100) -> tuple:
    """Mini-batch Adam with early stopping on validation loss.

    Returns (model with the best-epoch parameters, TrainReport). Epochs
    are 1-based in the report. Training stops once validation loss has
    not improved for PATIENCE consecutive epochs, so a model already at
    a plateau stops exactly PATIENCE epochs past its best.
    """
    X_tr, y_tr = np.asarray(train_set[0], dtype=np.float64), np.asarray(train_set[1], dtype=int)
    X_va, y_va = np.asarray(val_set[0], dtype=np.float64), np.asarray(val_set[1], dtype=int)
    rng = np.random.default_rng([model.config.seed, 1])

    params = model.parameters.copy()
    work = replace_params(model, params)
    m = np.zeros_like(params)
    v = np.zeros_like(params)
    step = 0

    history = TrainReport([], best_epoch=0, stopped_epoch=0)
    best_val = np.inf
    best_params = params.copy()
    stale = 0

    for epoch in range(1, epochs + 1):
        order = rng.permutation(len(y_tr))
        for start in range(0, len(order), BATCH_SIZE):
            idx = order[start:start + BATCH_SIZE]
            grad = parameter_shift_gradient(work, X_tr[idx], y_tr[idx])
            step += 1
            m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * grad
            v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * grad ** 2
            m_hat = m / (1 - ADAM_BETA1 ** step)
            v_hat = v / (1 - ADAM_BETA2 ** step)
            params = params - LEARNING_RATE * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
            work = replace_params(work, params)

        va_loss = batch_loss(work, X_va, y_va)
        if not np.isfinite(va_loss):
            raise TrainingDivergedError(
                f"non-finite validation loss at epoch {epoch} ({va_loss})")
        history.val_loss.append(va_loss)

        if va_loss < best_val:
            best_val = va_loss
            best_params = params.copy()
            history.best_epoch = epoch
            stale = 0
        else:
            stale += 1
        history.stopped_epoch = epoch
        if stale >= PATIENCE:
            break

    return replace_params(model, best_params), history


def replace_params(model: QnnModel, params: np.ndarray) -> QnnModel:
    return QnnModel(model.config, params, model.class_weights, model.circuit)


@dataclass
class LayerTrial:
    n_layers: int
    val_loss: float
    model: QnnModel
    report: TrainReport


@dataclass
class GrowthResult:
    best_n_layers: int
    trials: list

    def best_trial(self) -> LayerTrial:
        return next(t for t in self.trials if t.n_layers == self.best_n_layers)


def grow_layers(config: QnnConfig, class_weights, train_set, val_set, *,
                start_layers: int = 2, max_layers: int = 100,
                epochs: int = 100) -> GrowthResult:
    """Incremental layer search: train a fresh model per layer count,
    stop once validation loss has not improved for as many consecutive
    counts as there are qubits, or the cap is hit."""
    best_val = np.inf
    best_layers = start_layers
    stale = 0
    trials = []
    for n_layers in range(start_layers, max_layers + 1):
        cfg = replace(config, n_layers=n_layers)
        model, report = train(init_model(cfg, class_weights),
                              train_set, val_set, epochs=epochs)
        val = report.best_val_loss()
        trials.append(LayerTrial(n_layers, val, model, report))
        if val < best_val:
            best_val = val
            best_layers = n_layers
            stale = 0
        else:
            stale += 1
        if stale >= config.n_features:
            break
    return GrowthResult(best_layers, trials)
