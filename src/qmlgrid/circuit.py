"""Every circuit as a product state and whole-register ops.

Each circuit opens with single-qubit gates on |0...0>, so it starts
from a product state, per-qubit columns for statevec.product_states;
the rest are (kind, payload) ops for statevec.apply_ops.

FEATURE_MAPS holds each kernel embedding's gate, pair shift and the
gate's phase offset, and feature_map turns an embedding of every row of
a feature matrix into its columns and ops; qkernel.embed runs them.
reference.kernel_gates writes the same embedding out gate by gate.

QNNs have one shape: an angle-encoding block R_a(pi * x_q) on each
qubit q for every axis a of the encoding sequence, then trainable
layers, each a chain of ansatz rotations on every qubit closed by a
CNOT ring, with the encoding block again before every further layer
when it is re-uploaded. The blocks fuse:

* an encoding block: one 2x2 per qubit and sample. The opening block
  is the product state of their first columns; a re-upload is a
  "local" op of their Kronecker product (over all qubits up to
  LOCAL_DENSE_QUBITS, else over the high and the low half), and
  re-uploads share one payload.
* a trainable layer: its rotations multiply into one 2x2 per qubit,
  their Kronecker product K is one 2**n x 2**n matrix, and the ring's
  CNOTs permute its rows: a "unitary" op P K.

The encoding payloads depend only on the row and on the width, encoding
sequence and re-upload setting, so encode computes them once for a
whole feature matrix; every step is elementwise per row, so a gather of
its rows equals a fresh encode of those rows bit for bit. resolve_fused
then builds only the layers from theta, once per call: every layer's
rotation chain prefixes in one stacked pass, the unitaries from the last
prefixes, and hands the prefixes on for the adjoint gradient. run_batch
runs the QNN.

Rotation d on qubit q of layer r takes parameter (r * n + q) * depth + d,
so theta is a (layers, n, depth) array flattened.

reference.qnn_gates writes the same QNN out gate by gate for the
oracles; nothing here reads it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, UsageError
from .statevec import apply_ops, product_states

AXES = ("X", "Y", "Z")

# ansatz -> the trainable rotations on each qubit of a layer, in order
ANSATZ_ROTATIONS = {"basic": ("rx",), "strongly": ("rz", "ry", "rz")}

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

# kernel feature map kind -> (single-qubit gate, pair shift, phase
# offset); a None shift means no pair terms (see reference.kernel_gates),
# and the diagonal gate G(theta) multiplies a basis state whose target
# bit is b by e^{i theta (b - offset)}; "angle" is the fourth kind
FEATURE_MAPS = {"z": ("rz", None, 0.5), "zz_a": ("rz", 0.0, 0.5),
                "zz_b": ("phase", math.pi, 0.0)}

# the generator P of each rotation R_P(theta) = exp(-i theta P / 2)
_PAULIS = {"rx": np.array([[0, 1], [1, 0]], dtype=np.complex128),
           "ry": np.array([[0, -1j], [1j, 0]]),
           "rz": np.array([[1, 0], [0, -1]], dtype=np.complex128)}
_I2 = np.eye(2, dtype=np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)


@lru_cache(maxsize=None)
def _ring_perm(n_qubits: int) -> np.ndarray:
    """Read-only perm with (P psi)[i] = psi[perm[i]] for the CNOT ring
    (q, q + 1 mod n), one CNOT at n = 2, that closes every layer."""
    ring = ([(0, 1)] if n_qubits == 2 else
            [(q, (q + 1) % n_qubits) for q in range(n_qubits)])
    # P = G_k ... G_1 for CNOTs G_1..G_k in ring order, so
    # perm = f_1(f_2(...f_k(i))) with f_g the basis map of G_g
    perm = np.arange(1 << n_qubits)
    for control, target in reversed(ring):
        perm ^= ((perm >> control) & 1) << target
    perm.flags.writeable = False
    return perm


@lru_cache(maxsize=None)
def _pauli_stack(kinds: tuple) -> np.ndarray:
    """Read-only (len(kinds), 2, 2) generators of a rotation tuple."""
    stack = np.stack([_PAULIS[kind] for kind in kinds])
    stack.flags.writeable = False
    return stack


def _rotation_factors(kinds: tuple, angles: np.ndarray) -> np.ndarray:
    """(..., len(kinds), 2, 2): every rotation as a 2x2 closed form
    cos(t/2) I - i sin(t/2) P, angles[..., d] (broadcast over d) the
    angle t of a rotation of kind kinds[d]."""
    half = angles / 2.0
    c = np.cos(half)[..., None, None]
    s = np.sin(half)[..., None, None]
    return c * _I2 - 1j * s * _pauli_stack(kinds)


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


def _chain_prefixes(factors: np.ndarray) -> np.ndarray:
    """(..., depth, 2, 2) -> the same shape: entry d is the product of
    rotations 0..d, the first rightmost, with the bits of
    _chain_products on those rotations (the same float operations). A
    step is two broadcast products over the whole stack: on a layer
    stack (2 layers, 4 qubits, depth 3) 10 us against 25 us entry by
    entry, but 2x slower on a 299-row encoding, so encode and
    feature_map keep _chain_products. A depth of one is its own
    prefix."""
    if factors.shape[-3] == 1:
        return factors
    prefixes = np.empty_like(factors)
    prefixes[..., 0, :, :] = factors[..., 0, :, :]
    for d in range(1, factors.shape[-3]):
        a, u = factors[..., d, :, :], prefixes[..., d - 1, :, :]
        prefixes[..., d, :, :] = (a[..., :, 0, None] * u[..., None, 0, :]
                                  + a[..., :, 1, None] * u[..., None, 1, :])
    return prefixes


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


def _local_payload(chains: np.ndarray) -> tuple:
    """The read-only "local" payload of per-qubit 2x2s (..., n, 2, 2):
    their Kronecker product, or above LOCAL_DENSE_QUBITS qubits the
    products over the high and the low half."""
    n = chains.shape[-3]
    groups = ((chains[..., n // 2:, :, :], chains[..., :n // 2, :, :])
              if n > LOCAL_DENSE_QUBITS else (chains,))
    payload = tuple(map(_kron, groups))
    for factor in payload:
        factor.flags.writeable = False
    return payload


@lru_cache(maxsize=None)
def _hadamards(n_qubits: int) -> tuple:
    """Read-only "local" payload of H on every qubit, grouped as an
    encoding block's (one matrix, or a high and a low half above
    LOCAL_DENSE_QUBITS), with one copy that each row multiplies on its
    own."""
    return _local_payload(np.broadcast_to(_H, (1, n_qubits, 2, 2)))


def feature_map(kind: str, X: np.ndarray, repetitions: int = 1) -> tuple:
    """The embedding reference.kernel_gates writes out gate by gate, for
    every row of X (one qubit per column), as (columns, ops): the
    product-state columns (rows, n, 2) for statevec.product_states and
    the whole-register ops that follow, for statevec.apply_ops.

    Without pair terms every qubit sees its own 2x2 chain, so the state
    is the product of the chains' first columns and there are no ops.
    With them, the gates after the Hadamards are all diagonal: a ZZ map
    is |+...+>, then per repetition a "diagonal" op of the summed
    phases, with a Hadamard layer before each further one. Every step is
    elementwise per row or a row's own matrix products, so a row gets
    the same bits whatever the batch.
    """
    if kind != "angle" and kind not in FEATURE_MAPS:
        raise ConfigurationError(f"unknown encoding kind {kind!r}")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise UsageError(f"expected a feature matrix, got shape {X.shape}")
    n = X.shape[1]
    gate, shift, offset = FEATURE_MAPS.get(kind, (None, None, None))
    least = 1 if shift is None else 2
    if n < least:
        raise ConfigurationError(
            f"{kind} feature map on {n} features needs at least {least}")
    if shift is None:
        if kind == "angle":
            block = _rotation_factors(("ry",), math.pi * X[:, :, None])
        else:
            rotation = _rotation_factors((gate,), 2.0 * X[:, :, None])
            block = np.concatenate(
                [np.broadcast_to(_H, rotation.shape), rotation], axis=2)
        chains = _chain_products(np.concatenate([block] * repetitions, axis=2))
        return chains[..., 0], []
    bits = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    phases = np.zeros((len(X), 1 << n))
    for q in range(n):
        phases += (2.0 * X[:, q])[:, None] * (bits[q] - offset)
    for q in range(n - 1):
        angle = 2.0 * ((shift - X[:, q]) * (shift - X[:, q + 1]))
        phases += angle[:, None] * ((bits[q] ^ bits[q + 1]) - offset)
    diagonal = ("diagonal", np.cos(phases) + 1j * np.sin(phases))
    plus = np.full((len(X), n, 2), _H[0, 0])
    return plus, [diagonal] + [("local", _hadamards(n)),
                               diagonal] * (repetitions - 1)


@dataclass(frozen=True)
class Encoding:
    """The encoding payloads of every row of a feature matrix, for QNNs
    of one `layout` (width, encoding rotation kinds, re-upload): the
    product-state columns (rows, n, 2) and, with re-upload, the "local"
    matrices, else (). encoded[rows] gathers rows, or views a slice;
    len() counts them. encode's payloads are read-only, as every QNN of
    the layout may share them."""
    layout: tuple
    product: np.ndarray
    local: tuple

    def __len__(self) -> int:
        return len(self.product)

    def __getitem__(self, rows) -> "Encoding":
        return Encoding(self.layout, self.product[rows],
                        tuple(m[rows] for m in self.local))


def _encoding_layout(config) -> tuple:
    return (config.n_features,
            tuple("r" + str(axis).lower() for axis in config.encoding_sequence),
            config.reupload)


def encode(config, X: np.ndarray) -> Encoding:
    """The Encoding of every row of X for a qnn.QnnConfig; it serves the
    config with any layer count."""
    n = config.n_features
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n:
        raise UsageError(f"expected feature matrix with {n} columns, "
                         f"got shape {X.shape}")
    layout = _encoding_layout(config)
    chains = _chain_products(_rotation_factors(layout[1],
                                               math.pi * X[:, :, None]))
    local = _local_payload(chains) if config.reupload else ()
    encoded = Encoding(layout, chains[..., 0], local)
    encoded.product.flags.writeable = False
    return encoded


def resolve_fused(config, encoded: Encoding, theta) -> tuple:
    """(ops, chains) of a qnn.QnnConfig. ops holds one concrete
    (kind, payload) op per block after the opening encoding, in circuit
    order, as apply_ops takes it for every row of `encoded`, the
    encode() of the features for this config: "unitary" for each layer,
    "local" for each re-upload. chains are the layers' rotation chain
    prefixes, (layers, n, depth, 2, 2): entry [r, q, d] is the product
    of qubit q's rotations 0..d in layer r, built once per call for
    every layer in one stacked pass; a layer's unitary takes the last
    prefix of each qubit, and _layer_gradients reads them all."""
    n = config.n_features
    if (not isinstance(encoded, Encoding)
            or encoded.layout != _encoding_layout(config)):
        raise UsageError("expected the encode() of a feature matrix for "
                         "this QNN's width, encoding and re-upload setting")
    if len(theta) != config.n_parameters():
        raise UsageError(f"expected {config.n_parameters()} parameters, "
                         f"got {len(theta)}")
    rotations = ANSATZ_ROTATIONS[config.ansatz]
    chains = _chain_prefixes(_rotation_factors(rotations, np.asarray(
        theta, dtype=np.float64).reshape(config.n_layers, n, len(rotations))))
    unitaries = _kron(chains[:, :, -1])[:, _ring_perm(n)]
    ops = []
    for r, unitary in enumerate(unitaries):
        if r and config.reupload:
            ops.append(("local", encoded.local))
        ops.append(("unitary", unitary))
    return ops, chains


def run_batch(config, X: Encoding, theta) -> np.ndarray:
    """Execute the QNN of a qnn.QnnConfig with parameters theta for
    every row of X, the encode() of the features, at once; returns
    (len(X), 2**n) amplitudes."""
    ops = resolve_fused(config, X, theta)[0]
    amps = product_states(X.product)
    apply_ops(amps, config.n_features, ops)
    return amps


def _layer_gradients(config, chains, reduced) -> np.ndarray:
    """The derivatives of qnn.parameter_shift_gradient in parameter
    order: chains are the chain prefixes of resolve_fused, so no chain
    is built here, and reduced[r] the R_q at layer r's input."""
    moved = chains @ reduced[:, :, None] @ chains.conj().swapaxes(-1, -2)
    return np.einsum("dab,rqdba->rqd",
                     _pauli_stack(ANSATZ_ROTATIONS[config.ansatz]),
                     moved).imag.ravel()
