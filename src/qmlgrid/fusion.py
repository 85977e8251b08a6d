"""QNN circuits as fused whole-register blocks.

Every QNN has one shape: an angle-encoding block R_a(pi * x_q) on each
qubit q for every axis a of the encoding sequence, then trainable
layers, each a chain of ansatz rotations on every qubit closed by a
CNOT ring, with the encoding block again before every further layer
when it is re-uploaded. qnn_blocks builds that shape straight from the
config as two RunStacks, and resolve_fused turns them into one op per
block (see statevec for the op kinds):

* a trainable layer: its rotations multiply into one 2x2 per qubit,
  their Kronecker product K is one 2**n x 2**n matrix, and the ring's
  CNOTs permute its rows: a "unitary" op P K.
* an encoding block: one 2x2 per qubit and sample, and their Kronecker
  product (over all qubits up to LOCAL_DENSE_QUBITS, else over the high
  and the low half) makes a "local" op. The block that opens the
  circuit acts on |0...0>, so the first columns of its 2x2s make a
  "product" op. Re-uploads share one payload.

circuit.qnn_circuit writes the same circuit out gate by gate for the
oracles in reference; nothing here reads it.
"""
from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .circuit import _checked_inputs

# widest QNN: each layer is a dense 2**n x 2**n matrix. Gradient of a
# batch of 32 through two layers, fused vs gate by gate: a one-rotation
# (basic) layer gains 1.1x at n = 8 (its forward pass loses, 0.7x) and
# loses at n = 9 (0.8x); a three-rotation re-upload layer gains 2.3x at
# n = 9 and breaks even at n = 10. No grid cell is wider than 6 qubits
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


class RunStack(NamedTuple):
    """Rotation runs stacked: entry [r, q, d] is the d-th
    rotation on qubit q in run r, R_P(scale * value[index])."""

    index: np.ndarray           # (runs, n, depth) parameter or feature
    scales: np.ndarray          # (runs, n, depth) binding scales
    paulis: np.ndarray          # (runs, n, depth, 2, 2) generators


class QnnCircuit(NamedTuple):
    """A QNN's blocks: the encoding, layer 0, then per further layer
    the encoding again if reupload, and the layer."""

    n_qubits: int
    reupload: bool
    encoding: RunStack          # one run; index is the feature
    layers: RunStack            # one run per layer; index is the parameter
    perm: np.ndarray            # (P psi)[i] = psi[perm[i]] for the CNOT
                                # ring P that closes every layer

    @property
    def n_trainable(self) -> int:
        return self.layers.index.size

    def resolve(self, X: np.ndarray, theta) -> list:
        """The ops of resolve_fused, as circuit.run_batch takes them."""
        return resolve_fused(self, X, theta)[0]


def qnn_blocks(n_qubits: int, sequence, reupload: bool, rotations,
               n_layers: int) -> QnnCircuit:
    """The fused QNN on n_qubits qubits, one per feature: R_a(pi * x_q)
    for each axis a of sequence, n_layers layers of the gate kinds in
    rotations on every qubit (rotation d on qubit q of layer r takes
    parameter (r * n_qubits + q) * len(rotations) + d) and a CNOT ring
    (q, q + 1 mod n), one CNOT at n = 2."""
    kinds = ["r" + str(axis).lower() for axis in sequence]
    shape = (1, n_qubits, len(kinds))
    feature = np.arange(n_qubits, dtype=np.intp)[:, None]
    encoding = RunStack(np.tile(feature, (1, 1, len(kinds))),
                        np.full(shape, math.pi), _generators(kinds, shape[:2]))
    ring = ([(0, 1)] if n_qubits == 2 else
            [(q, (q + 1) % n_qubits) for q in range(n_qubits)])
    # P = G_k ... G_1 for CNOTs G_1..G_k in ring order, so
    # perm = f_1(f_2(...f_k(i))) with f_g the basis map of G_g
    perm = np.arange(1 << n_qubits)
    for control, target in reversed(ring):
        perm ^= ((perm >> control) & 1) << target
    shape = (n_layers, n_qubits, len(rotations))
    param = np.arange(math.prod(shape), dtype=np.intp).reshape(shape)
    layers = RunStack(param, np.ones(shape), _generators(rotations, shape[:2]))
    return QnnCircuit(n_qubits, reupload, encoding, layers, perm)


def _generators(kinds, lead: tuple) -> np.ndarray:
    """lead + (len(kinds), 2, 2): the generator of kinds[d] at every d."""
    chain = np.stack([_PAULIS[kind] for kind in kinds])
    return np.ascontiguousarray(np.broadcast_to(chain, lead + chain.shape))


def _rotation_factors(stack: RunStack, values: np.ndarray) -> np.ndarray:
    """Every rotation of a stack as a 2x2 closed form
    cos(t/2) I - i sin(t/2) P, values[..., r, q, d] its bound source."""
    half = (stack.scales * values) / 2.0
    c = np.cos(half)[..., None, None]
    s = np.sin(half)[..., None, None]
    return c * _I2 - 1j * s * stack.paulis


def _chain_products(factors: np.ndarray) -> np.ndarray:
    """(..., n, depth, 2, 2) -> (..., n, 2, 2), the first rotation
    rightmost. The 2x2 products go entry by entry: np.matmul pays a
    fixed cost per matrix, and an encoding holds batch x n x depth."""
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


def resolve_fused(circuit: QnnCircuit, X: np.ndarray, theta) -> tuple:
    """(ops, layer_factors). ops holds one concrete (kind, targets,
    payload) op per block, in circuit order, as apply_ops takes it for
    every row of X: "product" for the opening encoding, "unitary" for
    each layer, "local" for each re-upload. layer_factors are the
    layers' rotation matrices, (layers, n, depth, 2, 2)."""
    n = circuit.n_qubits
    X = _checked_inputs(X, theta, n, circuit.n_trainable)
    layers = circuit.layers
    factors = _rotation_factors(
        layers, np.asarray(theta, dtype=np.float64)[layers.index])
    unitaries = _kron(_chain_products(factors))[
        np.arange(len(factors))[:, None], circuit.perm]
    encoding = _chain_products(_rotation_factors(
        circuit.encoding, X[:, circuit.encoding.index]))[:, 0]
    qubits = tuple(range(n))
    ops = [("product", qubits, encoding[..., 0])]
    if circuit.reupload and len(unitaries) > 1:
        split = n // 2 if n > LOCAL_DENSE_QUBITS else 0
        groups = ((encoding[:, split:], encoding[:, :split]) if split
                  else (encoding,))
        local = ("local", qubits, tuple(map(_kron, groups)))
    for r, unitary in enumerate(unitaries):
        if r and circuit.reupload:
            ops.append(local)
        ops.append(("unitary", qubits, unitary))
    return ops, factors
