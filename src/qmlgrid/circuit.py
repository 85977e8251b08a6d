"""Parameterized circuit IR: bindings, feature maps, ansatz layers.

A circuit is an immutable gate list whose rotation angles are bindings
rather than numbers. A binding resolves against a feature vector x and a
trainable parameter vector theta as

    angle = scale * source

where the source is one feature, one trainable parameter, or the
pairwise product (shift - x_i) * (shift - x_j). The pair source covers
the entangling terms of the ZZ feature maps (shift 0 gives x_i * x_j,
shift pi gives (pi - x_i) * (pi - x_j)); the two plain sources cannot
express a product of two features.

Circuits come from two tables: FEATURE_MAPS (each kernel embedding's
gate and pair shift, see feature_map) and ANSATZ_ROTATIONS (each ansatz
layer's per-qubit rotations, see entangling_layer and qnn_circuit).

resolve_ops resolves every binding of a circuit against a feature
matrix, gate by gate, and run_batch runs the resolved ops on the
batched simulator. run_batch also runs a QNN model's fusion.QnnCircuit,
which resolves its fused blocks itself. Specs are immutable, so circuits
are safe to share and reuse. qnn_circuit writes a QNN out gate by gate
for the oracles in reference.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .statevec import apply_ops, validate_gate, zero_states

AXES = ("X", "Y", "Z")

# kernel feature map kind -> (single-qubit gate, pair shift); a None
# shift means no pair terms (see feature_map); "angle" is the fourth kind
FEATURE_MAPS = {"z": ("rz", None), "zz_a": ("rz", 0.0),
                "zz_b": ("phase", math.pi)}

# ansatz -> the trainable rotations on each qubit of a layer, in order
ANSATZ_ROTATIONS = {"basic": ("rx",), "strongly": ("rz", "ry", "rz")}

DATA = "data"
TRAIN = "train"
PAIR = "pair"


@dataclass(frozen=True)
class ParamBinding:
    kind: str
    scale: float = 1.0
    feature: int | None = None
    feature2: int | None = None
    param: int | None = None
    shift: float = 0.0

    @staticmethod
    def data(feature: int, scale: float = 1.0) -> "ParamBinding":
        return ParamBinding(DATA, scale=scale, feature=feature)

    @staticmethod
    def train(param: int, scale: float = 1.0) -> "ParamBinding":
        return ParamBinding(TRAIN, scale=scale, param=param)

    @staticmethod
    def pair(feature: int, feature2: int, scale: float = 1.0,
             shift: float = 0.0) -> "ParamBinding":
        return ParamBinding(PAIR, scale=scale, feature=feature,
                            feature2=feature2, shift=shift)

    def resolve_batch(self, X: np.ndarray, theta):
        """Angle(s) for a batch: a (B,) array for data-dependent bindings,
        a scalar otherwise."""
        if self.kind == DATA:
            return self.scale * X[:, self.feature]
        if self.kind == PAIR:
            src = (self.shift - X[:, self.feature]) * (self.shift - X[:, self.feature2])
            return self.scale * src
        if self.kind == TRAIN:
            return self.scale * float(theta[self.param])
        raise UsageError(f"unknown binding kind {self.kind!r}")


@dataclass(frozen=True)
class GateOp:
    kind: str
    targets: tuple
    binding: ParamBinding | None = None


@dataclass(frozen=True)
class CircuitSpec:
    """Immutable gate list over n_qubits with n_features data inputs and
    n_trainable parameters."""

    n_qubits: int
    ops: tuple
    n_features: int = 0
    n_trainable: int = 0

    def __post_init__(self):
        for op in self.ops:
            validate_gate(op.kind, op.targets, self.n_qubits,
                          op.binding is not None)
            b = op.binding
            if b is None:
                continue
            if b.kind in (DATA, PAIR) and not 0 <= b.feature < self.n_features:
                raise ConfigurationError(
                    f"feature index {b.feature} out of range ({self.n_features})")
            if b.kind == PAIR and not 0 <= b.feature2 < self.n_features:
                raise ConfigurationError(
                    f"feature index {b.feature2} out of range ({self.n_features})")
            if b.kind == TRAIN and not 0 <= b.param < self.n_trainable:
                raise ConfigurationError(
                    f"parameter index {b.param} out of range ({self.n_trainable})")


def angle_encoding(n_features: int, sequence=("Y",)) -> CircuitSpec:
    """R_axis(pi * x_i) on qubit i, one rotation per axis in sequence order."""
    if n_features < 1:
        raise ConfigurationError("angle encoding needs at least one feature")
    seq = tuple(str(a).upper() for a in sequence)
    if not seq:
        raise ConfigurationError("rotation sequence must not be empty")
    if len(set(seq)) != len(seq):
        raise ConfigurationError(f"rotation sequence has repeats: {seq}")
    ops = []
    for axis in seq:
        if axis not in AXES:
            raise ConfigurationError(f"unknown rotation axis {axis!r}")
        kind = "r" + axis.lower()
        for q in range(n_features):
            ops.append(GateOp(kind, (q,), ParamBinding.data(q, scale=math.pi)))
    return CircuitSpec(n_features, tuple(ops), n_features=n_features)


def feature_map(kind: str, n_features: int, repetitions: int = 1) -> CircuitSpec:
    """Kernel embedding block, repeated `repetitions` times.

    "angle" is angle_encoding's RY(pi * x_i). A FEATURE_MAPS kind with
    gate G and pair shift s is, per repetition, H on every qubit, then
    G(2 * x_i) on qubit i, then, unless s is None, CNOT /
    G(2 * (s - x_i) * (s - x_j)) / CNOT on every adjacent pair
    (i, j = i + 1).
    """
    if kind != "angle" and kind not in FEATURE_MAPS:
        raise ConfigurationError(f"unknown encoding kind {kind!r}")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    if kind == "angle":
        block = angle_encoding(n_features).ops
    else:
        gate, shift = FEATURE_MAPS[kind]
        least = 1 if shift is None else 2
        if n_features < least:
            raise ConfigurationError(
                f"{kind} feature map needs at least {least} features")
        block = [GateOp("h", (q,)) for q in range(n_features)]
        block += [GateOp(gate, (q,), ParamBinding.data(q, scale=2.0))
                  for q in range(n_features)]
        for q in range(n_features - 1 if shift is not None else 0):
            pair = ParamBinding.pair(q, q + 1, scale=2.0, shift=shift)
            block += [GateOp("cnot", (q, q + 1)), GateOp(gate, (q + 1,), pair),
                      GateOp("cnot", (q, q + 1))]
    return CircuitSpec(n_features, tuple(block) * repetitions,
                       n_features=n_features)


def _ring(n_qubits: int) -> tuple:
    # the two-qubit ring would repeat the same pair twice; keep one CNOT
    if n_qubits == 2:
        return ((0, 1),)
    return tuple((q, (q + 1) % n_qubits) for q in range(n_qubits))


def entangling_layer(n_qubits: int, layer_index: int,
                     ansatz: str) -> CircuitSpec:
    """Trainable layer layer_index of an ansatz: its ANSATZ_ROTATIONS on
    each qubit in turn, every one with a fresh parameter, then a CNOT
    ring. Rotation d on qubit q takes parameter
    base + len(rotations) * q + d, base counting the earlier layers'."""
    if ansatz not in ANSATZ_ROTATIONS:
        raise ConfigurationError(f"unknown ansatz {ansatz!r}")
    if n_qubits < 2:
        raise ConfigurationError("entangling layers need at least two qubits")
    if layer_index < 0:
        raise ConfigurationError("layer_index must be >= 0")
    rotations = ANSATZ_ROTATIONS[ansatz]
    width = len(rotations) * n_qubits
    base = layer_index * width
    ops = [GateOp(kind, (q,), ParamBinding.train(base + len(rotations) * q + d))
           for q in range(n_qubits) for d, kind in enumerate(rotations)]
    ops += [GateOp("cnot", pair) for pair in _ring(n_qubits)]
    return CircuitSpec(n_qubits, tuple(ops), n_trainable=base + width)


def _checked_inputs(X, theta, n_features: int, n_trainable: int):
    """X as a float matrix, once it has n_features columns and theta
    n_trainable entries."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n_features:
        raise UsageError(
            f"expected feature matrix with {n_features} columns, "
            f"got shape {X.shape}")
    if len(theta) != n_trainable:
        raise UsageError(
            f"expected {n_trainable} parameters, got {len(theta)}")
    return X


def resolve_ops(circuit: CircuitSpec, X: np.ndarray, theta=()) -> list:
    """Concrete (kind, targets, angle) ops for every row of X, one per
    gate and in circuit order, as apply_ops takes them: an angle is a
    scalar or a (len(X),) array."""
    X = _checked_inputs(X, theta, circuit.n_features, circuit.n_trainable)
    return [(op.kind, op.targets,
             None if op.binding is None else op.binding.resolve_batch(X, theta))
            for op in circuit.ops]


def run_batch(circuit, X: np.ndarray, theta=()) -> np.ndarray:
    """Execute for every row of X at once; returns (len(X), 2**n)
    amplitudes. circuit is a CircuitSpec or a fusion.QnnCircuit, which
    resolves itself: fusion builds on this module, not this on fusion."""
    ops = (resolve_ops(circuit, X, theta) if isinstance(circuit, CircuitSpec)
           else circuit.resolve(X, theta))
    amps = zero_states(circuit.n_qubits, len(X))
    apply_ops(amps, circuit.n_qubits, ops)
    return amps


def qnn_circuit(n_features: int, sequence, reupload: bool, ansatz: str,
                n_layers: int) -> CircuitSpec:
    """Classifier circuit, gate by gate: angle encoding plus entangling
    layers. With reupload the encoding block precedes every layer;
    otherwise it appears once as a prefix. The oracles in reference run
    it; fusion.qnn_blocks builds the same circuit for the model.
    """
    if n_layers < 1:
        raise ConfigurationError("n_layers must be >= 1")
    encoding = angle_encoding(n_features, sequence).ops
    ops = []
    for layer in range(n_layers):
        if reupload or layer == 0:
            ops += encoding
        last = entangling_layer(n_features, layer, ansatz)
        ops += last.ops
    return CircuitSpec(n_features, tuple(ops), n_features, last.n_trainable)
