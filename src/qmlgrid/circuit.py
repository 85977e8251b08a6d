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

resolve_ops resolves every binding against a feature matrix, and
run_batch runs the resolved ops on the batched simulator. Specs are
immutable, so circuits are safe to share and reuse.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, UsageError
from .statevec import apply_ops, validate_gate, zero_states

AXES = ("X", "Y", "Z")

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


def concat(*circuits: CircuitSpec) -> CircuitSpec:
    """Sequential composition; parameter/feature spaces are shared, not
    renumbered, so fragments must already use disjoint TRAIN indices."""
    if not circuits:
        raise UsageError("concat needs at least one circuit")
    n = circuits[0].n_qubits
    for c in circuits:
        if c.n_qubits != n:
            raise UsageError("concat requires a common qubit count")
    return CircuitSpec(
        n_qubits=n,
        ops=tuple(op for c in circuits for op in c.ops),
        n_features=max(c.n_features for c in circuits),
        n_trainable=max(c.n_trainable for c in circuits),
    )


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


def z_feature_map(n_features: int, repetitions: int = 1) -> CircuitSpec:
    """Per repetition: H on every qubit, then RZ(2 * x_i) on qubit i."""
    if n_features < 1:
        raise ConfigurationError("z feature map needs at least one feature")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    ops = []
    for _ in range(repetitions):
        for q in range(n_features):
            ops.append(GateOp("h", (q,)))
        for q in range(n_features):
            ops.append(GateOp("rz", (q,), ParamBinding.data(q, scale=2.0)))
    return CircuitSpec(n_features, tuple(ops), n_features=n_features)


def zz_feature_map_variant_a(n_features: int, repetitions: int = 1) -> CircuitSpec:
    """Z map plus adjacent-pair terms CNOT / RZ(2 * x_i * x_j) / CNOT."""
    if n_features < 2:
        raise ConfigurationError("zz feature map needs at least two features")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    ops = []
    for _ in range(repetitions):
        for q in range(n_features):
            ops.append(GateOp("h", (q,)))
        for q in range(n_features):
            ops.append(GateOp("rz", (q,), ParamBinding.data(q, scale=2.0)))
        for q in range(n_features - 1):
            ops.append(GateOp("cnot", (q, q + 1)))
            ops.append(GateOp("rz", (q + 1,),
                              ParamBinding.pair(q, q + 1, scale=2.0)))
            ops.append(GateOp("cnot", (q, q + 1)))
    return CircuitSpec(n_features, tuple(ops), n_features=n_features)


def zz_feature_map_variant_b(n_features: int, repetitions: int = 1) -> CircuitSpec:
    """Phase-gate form: PHASE(2 * x_i), pair terms
    PHASE(2 * (pi - x_i) * (pi - x_j)) between CNOTs."""
    if n_features < 2:
        raise ConfigurationError("zz feature map needs at least two features")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    ops = []
    for _ in range(repetitions):
        for q in range(n_features):
            ops.append(GateOp("h", (q,)))
        for q in range(n_features):
            ops.append(GateOp("phase", (q,), ParamBinding.data(q, scale=2.0)))
        for q in range(n_features - 1):
            ops.append(GateOp("cnot", (q, q + 1)))
            ops.append(GateOp("phase", (q + 1,),
                              ParamBinding.pair(q, q + 1, scale=2.0, shift=math.pi)))
            ops.append(GateOp("cnot", (q, q + 1)))
    return CircuitSpec(n_features, tuple(ops), n_features=n_features)


def _ring(n_qubits: int) -> tuple:
    # the two-qubit ring would repeat the same pair twice; keep one CNOT
    if n_qubits == 2:
        return ((0, 1),)
    return tuple((q, (q + 1) % n_qubits) for q in range(n_qubits))


def basic_entangling_layer(n_qubits: int, layer_index: int = 0) -> CircuitSpec:
    """RX(theta) on each qubit with fresh parameters, then a CNOT ring."""
    if n_qubits < 2:
        raise ConfigurationError("entangling layers need at least two qubits")
    if layer_index < 0:
        raise ConfigurationError("layer_index must be >= 0")
    base = layer_index * n_qubits
    ops = [GateOp("rx", (q,), ParamBinding.train(base + q))
           for q in range(n_qubits)]
    ops += [GateOp("cnot", pair) for pair in _ring(n_qubits)]
    return CircuitSpec(n_qubits, tuple(ops), n_trainable=base + n_qubits)


def strongly_entangling_layer(n_qubits: int, layer_index: int = 0) -> CircuitSpec:
    """General rotation RZ RY RZ on each qubit (three fresh parameters),
    then a CNOT ring."""
    if n_qubits < 2:
        raise ConfigurationError("entangling layers need at least two qubits")
    if layer_index < 0:
        raise ConfigurationError("layer_index must be >= 0")
    base = layer_index * 3 * n_qubits
    ops = []
    for q in range(n_qubits):
        k = base + 3 * q
        ops.append(GateOp("rz", (q,), ParamBinding.train(k)))
        ops.append(GateOp("ry", (q,), ParamBinding.train(k + 1)))
        ops.append(GateOp("rz", (q,), ParamBinding.train(k + 2)))
    ops += [GateOp("cnot", pair) for pair in _ring(n_qubits)]
    return CircuitSpec(n_qubits, tuple(ops), n_trainable=base + 3 * n_qubits)


def resolve_ops(circuit: CircuitSpec, X: np.ndarray, theta=()) -> list:
    """Concrete (kind, targets, angle) ops for every row of X, one per
    circuit op and in circuit order; angles are scalars or (len(X),)
    arrays, as apply_ops takes them."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != circuit.n_features:
        raise UsageError(
            f"expected feature matrix with {circuit.n_features} columns, "
            f"got shape {X.shape}")
    if len(theta) != circuit.n_trainable:
        raise UsageError(
            f"expected {circuit.n_trainable} parameters, got {len(theta)}")
    return [(op.kind, op.targets,
             None if op.binding is None else op.binding.resolve_batch(X, theta))
            for op in circuit.ops]


def run_batch(circuit: CircuitSpec, X: np.ndarray, theta=()) -> np.ndarray:
    """Execute for every row of X at once; returns (len(X), 2**n) amplitudes."""
    ops = resolve_ops(circuit, X, theta)
    amps = zero_states(circuit.n_qubits, len(X))
    apply_ops(amps, circuit.n_qubits, ops)
    return amps


@dataclass(frozen=True)
class EncodingSpec:
    """A data-embedding recipe for kernels: which feature map and how
    many repetitions. The angle map rotates about Y."""

    kind: str
    repetitions: int = 1

    KINDS = ("angle", "z", "zz_a", "zz_b")

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ConfigurationError(f"unknown encoding kind {self.kind!r}")
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")


def build_encoding(spec: EncodingSpec, n_features: int) -> CircuitSpec:
    """Encoding circuit block, repetitions included."""
    if spec.kind == "angle":
        return concat(*[angle_encoding(n_features)] * spec.repetitions)
    if spec.kind == "z":
        return z_feature_map(n_features, spec.repetitions)
    if spec.kind == "zz_a":
        return zz_feature_map_variant_a(n_features, spec.repetitions)
    return zz_feature_map_variant_b(n_features, spec.repetitions)


def qnn_circuit(n_features: int, sequence, reupload: bool, ansatz: str,
                n_layers: int) -> CircuitSpec:
    """Classifier circuit: angle encoding plus entangling layers.

    With reupload the encoding block precedes every layer; otherwise it
    appears once as a prefix.
    """
    if n_layers < 1:
        raise ConfigurationError("n_layers must be >= 1")
    if ansatz not in ("basic", "strongly"):
        raise ConfigurationError(f"unknown ansatz {ansatz!r}")
    layer_fn = (basic_entangling_layer if ansatz == "basic"
                else strongly_entangling_layer)
    enc = angle_encoding(n_features, sequence)
    parts = []
    for layer in range(n_layers):
        if reupload or layer == 0:
            parts.append(enc)
        parts.append(layer_fn(n_features, layer))
    return concat(*parts)
