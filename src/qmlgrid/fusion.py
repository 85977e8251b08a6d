"""Fusion of QNN circuits into whole-register ops.

Before circuit.resolve_ops resolves a circuit of at most FUSE_MAX_QUBITS
qubits, it is cut into blocks (CircuitSpec.fusion), and two patterns
become one fused op each (see statevec for the op kinds):

* a trainable layer: a run of rx/ry/rz ops bound to TRAIN parameters
  followed by a run of CNOTs. Its rotations multiply into one 2x2 per
  qubit, their Kronecker product K is one 2**n x 2**n matrix, and the
  CNOTs permute its rows: a "unitary" op P K.
* an encoding block: a run of rx/ry/rz ops bound to DATA features right
  before a trainable layer. It becomes one 2x2 per qubit and sample, and
  their Kronecker product (over all qubits up to LOCAL_DENSE_QUBITS, else
  over the high and the low half) makes a "local" op; when the block
  opens the circuit, and so acts on |0...0>, their first columns make a
  "product" op. Identical blocks (re-uploads of one encoding) share one
  payload.

Every other op stays a gate of its own, and so do all ops of a wider
circuit, where a dense layer matrix costs more than the gates it
replaces. Encoding-only circuits (kernel embeddings) are never fused.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .circuit import DATA, TRAIN, CircuitSpec, GateOp
from .errors import UsageError

# widest circuit whose layers fuse into dense 2**n x 2**n matrices.
# Gradient of a batch of 32 through two layers, fused vs gate by gate: a
# one-rotation (basic) layer gains 1.1x at n = 8 (its forward pass loses,
# 0.7x) and loses at n = 9 (0.8x); a three-rotation re-upload layer
# gains 2.3x at n = 9 and breaks even at n = 10
FUSE_MAX_QUBITS = 8

# widest encoding block applied as one dense per-sample matrix; wider
# ones apply as two Kronecker factors (high and low half of the qubits).
# Re-upload gradients of a batch of 32 (two or four layers, either
# ansatz): the dense form is 1.0-1.6x faster at n = 2..4, the split form
# 1.1-4.8x faster at n = 5 and 6. Whole XYZ/re-upload/strongly cells at
# default settings agree: dense 1.1-1.9x faster at heart_failure k=4,
# split 1.1-1.2x at diabetes k=5 and 2.2-2.9x at k=6
LOCAL_DENSE_QUBITS = 4

# the generator P of each rotation R_P(theta) = exp(-i theta P / 2)
_PAULIS = {"rx": np.array([[0, 1], [1, 0]], dtype=np.complex128),
           "ry": np.array([[0, -1j], [1j, 0]]),
           "rz": np.array([[1, 0], [0, -1]], dtype=np.complex128)}
_I2 = np.eye(2, dtype=np.complex128)


class FusedRun(NamedTuple):
    """A fused block in CircuitSpec.fusion.blocks: run `slot` of the
    circuit's stack of fused `source` runs."""

    source: str
    slot: int


class RunStack(NamedTuple):
    """The fused runs of one source, padded to one depth and stacked:
    entry [r, q, d] is the d-th rotation on qubit q in run r, and pads
    are scale-0 identities."""

    index: np.ndarray           # (runs, n, depth) parameter or feature
    scales: np.ndarray          # (runs, n, depth) binding scales
    paulis: np.ndarray          # (runs, n, depth, 2, 2) generators, 0 for pads
    perms: np.ndarray | None    # (runs, 2**n), (P psi)[i] = psi[perm[i]]
                                # for the CNOTs after the run; TRAIN only


class Fusion(NamedTuple):
    """A circuit cut into blocks, one per resolved op: a GateOp, or a
    FusedRun into `stacks[source]`."""

    blocks: tuple
    stacks: dict


def _rotation_run(ops, i: int, source: str) -> int:
    """End of the run of rx/ry/rz ops bound to `source` from ops[i]."""
    while (i < len(ops) and ops[i].kind in _PAULIS
           and ops[i].binding.kind == source):
        i += 1
    return i


def _layer_ends(ops, i: int):
    """(end of rotations, end of CNOTs) of a trainable layer opening at
    ops[i], or None if none does."""
    rotations = stop = _rotation_run(ops, i, TRAIN)
    while stop < len(ops) and ops[stop].kind == "cnot":
        stop += 1
    return (rotations, stop) if i < rotations < stop else None


def _stack(n_qubits: int, source: str, runs: list) -> RunStack:
    chains = [[[] for _ in range(n_qubits)] for _ in runs]
    for chain, (rotations, _) in zip(chains, runs):
        for op in rotations:
            chain[op.targets[0]].append(op)
    depth = max(len(c) for chain in chains for c in chain)
    shape = (len(runs), n_qubits, depth)
    index = np.zeros(shape, dtype=np.intp)
    scales = np.zeros(shape)
    paulis = np.zeros(shape + (2, 2), dtype=np.complex128)
    for r, chain in enumerate(chains):
        for q, ops in enumerate(chain):
            for d, op in enumerate(ops):
                b = op.binding
                index[r, q, d] = b.param if source == TRAIN else b.feature
                scales[r, q, d] = b.scale
                paulis[r, q, d] = _PAULIS[op.kind]
    perms = None
    if source == TRAIN:
        # P = G_k ... G_1 for CNOTs G_1..G_k in circuit order, so
        # perm = f_1(f_2(...f_k(i))) with f_g the basis map of G_g
        perms = np.tile(np.arange(1 << n_qubits), (len(runs), 1))
        for perm, (_, cnots) in zip(perms, runs):
            for op in reversed(cnots):
                control, target = op.targets
                perm ^= ((perm >> control) & 1) << target
    return RunStack(index, scales, paulis, perms)


def fuse(circuit: CircuitSpec) -> Fusion:
    """circuit.fusion: the ops cut into blocks (see module docstring)."""
    ops = circuit.ops
    if circuit.n_qubits > FUSE_MAX_QUBITS:
        return Fusion(ops, {})
    runs = {TRAIN: [], DATA: []}    # (rotation ops, CNOT ops) per slot
    blocks, i = [], 0
    while i < len(ops):
        data_end = _rotation_run(ops, i, DATA)
        layer = _layer_ends(ops, i)
        if data_end > i and _layer_ends(ops, data_end):
            run = (ops[i:data_end], ())
            if run not in runs[DATA]:       # re-uploads share a slot
                runs[DATA].append(run)
            blocks.append(FusedRun(DATA, runs[DATA].index(run)))
            i = data_end
        elif layer:
            rotations, stop = layer
            runs[TRAIN].append((ops[i:rotations], ops[rotations:stop]))
            blocks.append(FusedRun(TRAIN, len(runs[TRAIN]) - 1))
            i = stop
        else:
            blocks.append(ops[i])
            i += 1
    stacks = {source: _stack(circuit.n_qubits, source, found)
              for source, found in runs.items() if found}
    return Fusion(tuple(blocks), stacks)


def _rotation_factors(source: str, stack: RunStack, X: np.ndarray,
                      theta) -> np.ndarray:
    """Every rotation of a stack as a 2x2 closed form
    cos(t/2) I - i sin(t/2) P: shape (runs, n, depth, 2, 2) for TRAIN,
    with a leading len(X) axis for DATA."""
    if source == TRAIN:
        values = np.asarray(theta, dtype=np.float64)[stack.index]
    else:
        values = X[:, stack.index]
    half = (stack.scales * values) / 2.0
    c = np.cos(half)[..., None, None]
    s = np.sin(half)[..., None, None]
    return c * _I2 - 1j * s * stack.paulis


def _chain_products(factors: np.ndarray) -> np.ndarray:
    """(..., n, depth, 2, 2) -> (..., n, 2, 2), the first rotation
    rightmost. The 2x2 products go entry by entry: np.matmul pays a
    fixed cost per matrix, and a DATA stack holds batch x n x depth."""
    u = factors[..., 0, :, :]
    for d in range(1, factors.shape[-3]):
        a, b = factors[..., d, :, :], u
        u = np.empty_like(b)
        for i in (0, 1):
            for j in (0, 1):
                u[..., i, j] = (a[..., i, 0] * b[..., 0, j]
                                + a[..., i, 1] * b[..., 1, j])
    return u


def _kron(u: np.ndarray) -> np.ndarray:
    """(..., k, 2, 2) -> u[..., k-1] (x) ... (x) u[..., 0], so the first
    factor acts on the least significant bit. Halving keeps the inner
    broadcast axis long."""
    if u.shape[-3] == 1:
        return u[..., 0, :, :]
    half = u.shape[-3] // 2
    hi, lo = _kron(u[..., half:, :, :]), _kron(u[..., :half, :, :])
    size = hi.shape[-1] * lo.shape[-1]
    return (hi[..., :, None, :, None] * lo[..., None, :, None, :]).reshape(
        hi.shape[:-2] + (size, size))


def resolve_fused(circuit: CircuitSpec, X: np.ndarray, theta=()) -> tuple:
    """(ops, layer_factors). ops holds one concrete (kind, targets, angle)
    op for every row of X per entry of circuit.fusion.blocks, in circuit
    order, as apply_ops takes it: a gate's angle is a scalar or a
    (len(X),) array, a fused block's is its matrix payload. layer_factors
    are the TRAIN stack's rotation matrices, (runs, n, depth, 2, 2), or
    None if the circuit fuses no layer."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != circuit.n_features:
        raise UsageError(
            f"expected feature matrix with {circuit.n_features} columns, "
            f"got shape {X.shape}")
    if len(theta) != circuit.n_trainable:
        raise UsageError(
            f"expected {circuit.n_trainable} parameters, got {len(theta)}")
    fusion = circuit.fusion
    factors = {source: _rotation_factors(source, stack, X, theta)
               for source, stack in fusion.stacks.items()}
    chains = {source: _chain_products(f) for source, f in factors.items()}
    if TRAIN in chains:
        perms = fusion.stacks[TRAIN].perms
        layers = _kron(chains[TRAIN])[np.arange(len(perms))[:, None], perms]
    qubits = tuple(range(circuit.n_qubits))
    split = (circuit.n_qubits // 2
             if circuit.n_qubits > LOCAL_DENSE_QUBITS else 0)
    encodings = {}      # DATA slot -> its "local" payload
    ops = []
    for i, block in enumerate(fusion.blocks):
        if isinstance(block, GateOp):
            b = block.binding
            ops.append((block.kind, block.targets,
                        None if b is None else b.resolve_batch(X, theta)))
        elif block.source == TRAIN:
            ops.append(("unitary", qubits, layers[block.slot]))
        elif i == 0:
            columns = chains[DATA][:, block.slot, :, :, 0]
            ops.append(("product", qubits, columns))
        else:
            if block.slot not in encodings:
                u = chains[DATA][:, block.slot]
                groups = (u[:, split:], u[:, :split]) if split else (u,)
                encodings[block.slot] = tuple(map(_kron, groups))
            ops.append(("local", qubits, encodings[block.slot]))
    return ops, factors.get(TRAIN)
