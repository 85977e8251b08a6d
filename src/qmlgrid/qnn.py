"""Variational quantum classifier with adjoint-mode training.

One qubit per feature; qubits 0 and 1 are read out, softmax over
(<Z_0>, <Z_1>) gives the two class probabilities. The readout reduces
each row on its own, so one forward_batch over stacked splits gives
each split the bits of a pass over its rows alone. The loss is class-
weighted cross-entropy. Gradients are adjoint-mode (Jones & Gacon,
arXiv:2009.02823): one forward pass, then one backward sweep that reads
every parameter's derivative off the stored state. Features come in as
circuit.encode wrote them, once per feature matrix, so a batch is
encoded[idx] and no call here recomputes the encoding. The model
starts from a copy of the encoding's stored opening states and runs as
fused blocks that circuit.resolve_fused builds from its config and
parameters on every call, together with each layer's rotation chain
prefixes: a forward pass and a gradient each build the chains once per
parameter vector, and the gradient reads its derivatives off those same
prefixes. A layer costs one matrix product forward and one back, and
its derivatives come from n reduced 2x2 matrices: the layers' products
stack up to REDUCE_ENTRIES entries and reduce in one gather of a cached
index table and one sum. A gradient costs 2.2 to 3.4 forward passes
(median 2.8) whatever the parameter count (n = 4..6, up to 180
parameters, batch 32, min of 25 interleaved runs). The chain through
softmax and the loss is analytic. Labels pass pipeline.zero_one, one
per encoded row, and class weights pipeline.weight_pair.
`reference.shift_rule_gradient` keeps the parameter-shift rule on the
gate-by-gate reference.qnn_gates as the oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .circuit import (ANSATZ_ROTATIONS, AXES, FUSE_MAX_QUBITS, Encoding,
                      _layer_gradients, resolve_fused, run_batch)
from .errors import ConfigurationError, TrainingDivergedError, UsageError
from .pipeline import weight_pair, zero_one
from .statevec import apply_ops

PROB_FLOOR = 1e-12

# row y is the one-hot of label y: subtracting its gather takes 1.0 off
# the label's probability and 0.0, exactly, off the other
_ONE_HOT = np.eye(2)
_ONE_HOT.flags.writeable = False

# entries of the per-layer products C that a gradient stacks before it
# reduces them: up to 64 layers at n = 4, 4 at n = 6, one at n >= 7.
# Gradients of a batch of 32 with 2 to 10 layers, min of 11 runs: this
# bound is 4-12% faster than one reduction per layer at n = 4 to 7; a
# bound of 1 << 16 (a 640 KiB stack at n = 6 with 10 layers) made that
# gradient 1.3x slower than one reduction per layer
REDUCE_ENTRIES = 1 << 14

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

    def __post_init__(self):
        c = self.config
        if self.parameters.shape != (c.n_parameters(),):
            raise ConfigurationError(
                f"parameter vector has shape {self.parameters.shape}, "
                f"expected ({c.n_parameters()},)")


def init_model(config: QnnConfig, class_weights) -> QnnModel:
    rng = np.random.default_rng(config.seed)
    params = rng.uniform(-np.pi, np.pi, config.n_parameters())
    return QnnModel(config, params, weight_pair(class_weights))


def softmax_pair(e: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a (B, 2) array, numerically stable. The two
    columns' maximum and sum are elementwise ops, with the bits of the
    row-wise max and sum reductions (and not their per-call cost)."""
    ex = np.exp(e - np.maximum(e[:, :1], e[:, 1:]))
    return ex / (ex[:, :1] + ex[:, 1:])


@lru_cache(maxsize=None)
def _z_signs(n_qubits: int) -> np.ndarray:
    """Read-only (2, 2**n) table: row q holds the sign of Z_q on each
    basis state."""
    idx = np.arange(1 << n_qubits)
    signs = 1.0 - 2.0 * ((idx >> np.arange(2)[:, None]) & 1)
    signs.flags.writeable = False
    return signs


def _readout(amps: np.ndarray, n_qubits: int) -> np.ndarray:
    """(<Z_0>, <Z_1>) per row of amps, shape (B, 2), as one broadcast
    product and row sum. Each row is reduced on its own, so a row reads
    the same bits in any batch; a BLAS matrix-vector product would round
    it by its place in the batch."""
    probs = np.abs(amps) ** 2
    return (probs[:, None, :] * _z_signs(n_qubits)).sum(axis=2)


def forward_batch(model: QnnModel, X: Encoding) -> np.ndarray:
    """Class probabilities per encoded sample, shape (B, 2). A slice of
    rows of the result equals forward_batch of those rows bit for bit,
    for slices of 2 or more rows: numpy's complex matmul may round a
    one-row product apart from the same row in a larger one."""
    return softmax_pair(_readout(run_batch(model.config, X, model.parameters),
                                 model.config.n_features))


def predict(probs: np.ndarray) -> np.ndarray:
    """Class labels of (B, 2) class probabilities; a tie goes to 1."""
    return (probs[:, 1] >= probs[:, 0]).astype(int)


def _row_labels(X: Encoding, y) -> np.ndarray:
    """y as pipeline.zero_one takes it, once it has one per encoded row."""
    y = zero_one(y)
    if y.shape != (len(X),):
        raise UsageError(f"{y.shape} labels for {len(X)} encoded rows")
    return y


def batch_loss(model: QnnModel, X: Encoding, y: np.ndarray) -> float:
    """Class-weighted cross-entropy of forward_batch, mean over rows;
    labels other than one 0 or 1 per row are refused."""
    y = _row_labels(X, y)
    probs = forward_batch(model, X)
    picked = np.maximum(probs[np.arange(len(y)), y], PROB_FLOOR)
    w = model.class_weights[y]
    return float(np.mean(-w * np.log(picked)))


def parameter_shift_gradient(model: QnnModel, X: Encoding,
                             y: np.ndarray) -> np.ndarray:
    """Gradient of batch_loss w.r.t. the parameter vector, adjoint mode.

    The forward pass runs psi from the encoding's opening states in the
    first half of one (2B, 2**n) buffer and writes
    lam = sum_q (d loss / d<Z_q>) Z_q psi per sample into the second.
    The backward sweep undoes the fused blocks on both halves at once,
    in reverse order. A layer is
    undone as one matrix, and its derivatives are read at the layer's
    input from the per-qubit 2x2 matrices R_q = sum_b Tr_{not q}
    |psi_b><lam_b|: the rotation at position d of qubit q's chain, with T
    the chain up to and including it, contributes
    Im tr(P T R_q T^dagger). Every T is a chain prefix that
    resolve_fused built for the layer unitaries, so a gradient builds
    its chains once. The name predates the adjoint method
    and is kept for the benchmark's span; `reference.shift_rule_gradient`
    is the oracle. It trusts its caller's labels to be 0 or 1: train
    checks them once per call, so no step pays for the check.
    """
    y = np.asarray(y, dtype=int)
    batch = len(y)
    n = model.config.n_features
    ops, chains = resolve_fused(model.config, X, model.parameters)
    # psi and lam are the halves of one buffer, so one apply_ops call
    # undoes both; psi runs forward from the encoding's opening states
    both = np.empty((2 * batch, 1 << n), dtype=complex)
    psi, lam = both[:batch], both[batch:]
    psi[:] = X.states
    apply_ops(psi, n, ops)
    # d loss_i / d e_q = w_{y_i} (p_q - [q == y_i]); mean over the batch
    delta = softmax_pair(_readout(psi, n)) - _ONE_HOT.take(y, axis=0)
    dl_de = (model.class_weights.take(y)[:, None] * delta) / batch
    signs = _z_signs(n)
    observable = dl_de[:, :1] * signs[0] + dl_de[:, 1:] * signs[1]
    np.multiply(observable, psi, out=lam)

    pairs = _reduction_indices(n)
    layers = len(chains)
    reduced = np.empty(chains.shape[:2] + (2, 2), dtype=complex)
    # the layers' products C stack in `products`, span layers at a
    # time, and each span reduces in one gather and one sum
    span = max(1, REDUCE_ENTRIES >> 2 * n)
    products = np.empty((min(span, layers), 1 << n, 1 << n), dtype=complex)
    layer = layers
    # ops to undo collect in `undo` and run only when a layer needs the
    # states at its input; the opening product state is never undone.
    # Every re-upload is the same "local" op, so its inverse is built once
    undo, undo_local = [], None
    for op in reversed(ops):
        if op[0] == "local":
            undo_local = undo_local or _inverse(op)
            undo.append(undo_local)
            continue
        layer -= 1
        undo.append(_inverse(op))
        apply_ops(both, n, undo)
        undo = []
        # R_q[a, b] sums C[i, j] = sum_b psi_b[i] conj(lam_b[j])
        # over the pairs of _reduction_indices
        np.matmul(psi.T, lam.conj(), out=products[layer % span])
        if not layer % span:
            stop = min(layer + span, layers)
            np.add.reduce(products[:stop - layer].reshape(stop - layer, -1)
                          .take(pairs, axis=1), axis=-1,
                          out=reduced[layer:stop])
    return _layer_gradients(model.config, chains, reduced)


def _inverse(op) -> tuple:
    """The op undoing a "unitary" or "local" op on the stacked
    (psi, lam) buffer: a "local" payload serves both halves."""
    kind, payload = op
    if kind == "unitary":
        return kind, payload.conj().T
    return kind, tuple(m.conj().swapaxes(-1, -2) for m in payload)


@lru_cache(maxsize=None)
def _reduction_indices(n_qubits: int) -> np.ndarray:
    """Read-only flat indices i * 2**n + j into a (2**n, 2**n) matrix,
    shape (n, 2, 2, 2**(n-1)): entry [q, a, b] lists the pairs (i, j) of
    basis states that agree off qubit q and have bit q equal to a in i
    and to b in j."""
    idx = np.arange(1 << n_qubits)
    pairs = np.empty((n_qubits, 2, 2, 1 << (n_qubits - 1)), dtype=np.intp)
    for q in range(n_qubits):
        for a in (0, 1):
            i = idx[(idx >> q) & 1 == a]
            for b in (0, 1):
                pairs[q, a, b] = (i << n_qubits) | (i ^ ((a ^ b) << q))
    pairs.flags.writeable = False
    return pairs


@dataclass
class TrainReport:
    """Per-epoch validation losses; epochs are 1-based."""
    val_loss: list
    best_epoch: int
    stopped_epoch: int

    def best_val_loss(self) -> float:
        return self.val_loss[self.best_epoch - 1]


class LayerTrial(NamedTuple):
    """A trained model and its TrainReport, as train returns them; its
    layer count is model.config.n_layers."""
    model: QnnModel
    report: TrainReport


def train(model: QnnModel, train_set, val_set, *, epochs: int) -> LayerTrial:
    """Mini-batch Adam with early stopping on validation loss.

    train_set and val_set are (circuit.encode of the features, labels).
    Returns the LayerTrial (model with the best-epoch parameters,
    TrainReport); a caller predicts any split with forward_batch of that
    model. Training stops once validation loss has not improved for
    PATIENCE consecutive epochs, so a model already at a plateau stops
    exactly PATIENCE epochs past its best. Labels other than one 0 or 1
    per row are refused before the first step.
    """
    if epochs < 1:
        raise UsageError(f"epochs must be >= 1, got {epochs}")
    X_tr, y_tr = train_set[0], _row_labels(*train_set)
    if not model.config.reupload:
        # a batch gather then copies the opening states alone
        X_tr = replace(X_tr, local=())
    X_va, y_va = val_set[0], _row_labels(*val_set)
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

    return LayerTrial(replace_params(model, best_params), history)


def replace_params(model: QnnModel, params: np.ndarray) -> QnnModel:
    return QnnModel(model.config, params, model.class_weights)


@dataclass
class GrowthResult:
    """Every layer trial in the order trained, and the best of them."""
    best: LayerTrial
    trials: list


def grow_layers(config: QnnConfig, class_weights, train_set, val_set, *,
                max_layers: int, epochs: int) -> GrowthResult:
    """Incremental layer search: train a fresh model per layer count from
    config.n_layers up, stop once validation loss has not improved for as
    many consecutive counts as there are qubits, or max_layers is hit.
    The best trial has the lowest best_val_loss, the first on a tie. The
    sets are as train takes them, so one encoding serves every count."""
    if config.n_layers > max_layers:
        raise UsageError(f"n_layers {config.n_layers} exceeds max_layers "
                         f"{max_layers}")
    best = None
    stale = 0
    trials = []
    for n_layers in range(config.n_layers, max_layers + 1):
        cfg = replace(config, n_layers=n_layers)
        trial = train(init_model(cfg, class_weights), train_set, val_set,
                      epochs=epochs)
        trials.append(trial)
        if best is None or (trial.report.best_val_loss()
                            < best.report.best_val_loss()):
            best = trial
            stale = 0
        else:
            stale += 1
        if stale >= config.n_features:
            break
    return GrowthResult(best, trials)
