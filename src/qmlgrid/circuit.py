"""QNN circuits as a product state and whole-register ops.

Each QNN opens with single-qubit gates on |0...0>, so it starts from a
product state, which statevec.product_states builds from per-qubit
columns; the rest are (kind, payload) ops for statevec.apply_ops. The
2x2 primitives here (_rotation_factors, _chain_products and
_local_payload) also build qkernel.embed's feature maps.

QNNs have one shape: an angle-encoding block R_a(pi * x_q) on each
qubit q for every axis a of the encoding sequence, then trainable
layers, each a chain of ansatz rotations on every qubit closed by a
CNOT ring, with the encoding block again before every further layer
when it is re-uploaded. The blocks fuse:

* an encoding block: one 2x2 per qubit and sample, its encoding
  chains. The opening block is the product state of their first
  columns; a re-upload is a "local" op of their Kronecker product
  (over all qubits up to LOCAL_DENSE_QUBITS, else over the high and
  the low half), and re-uploads share one payload.
* a trainable layer: its rotations multiply into one 2x2 per qubit,
  their Kronecker product K is one 2**n x 2**n matrix, and the ring's
  CNOTs permute its rows: a "unitary" op P K. A plan cached per width
  (_layer_plan) gathers the entries of K's high and low half from the
  2x2s by flat index tables, in _kron's association, and folds P into
  the rows the halves give, so P K comes out of one product with
  _kron's bits.

The encoding block depends only on the row and on the width and
encoding sequence, so encode computes it once for a whole feature
matrix: the chains, every row's opening product state from one
statevec.product_states call, and with re-upload the "local" payload.
An Encoding with the payload also serves the re-upload-free QNNs of its
width and sequence. Every step is elementwise per row, so a gather of
its rows equals a fresh encode of those rows bit for bit.
resolve_fused then builds only the layers from theta, once per call:
every layer's rotation chain prefixes in one stacked pass, the
unitaries from the last prefixes by the plan, and hands the prefixes on
for the adjoint gradient. run_batch runs the QNN from a copy of the
encoding's opening states. _kron still builds the per-row encoding
payloads: on their widest dense factor (4 qubits) a gather plan was
1.7-2.3x slower at 100 to 768 rows.

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

from .errors import UsageError
from .statevec import apply_ops, product_states

AXES = ("X", "Y", "Z")

# ansatz -> the trainable rotations on each qubit of a layer, in order
ANSATZ_ROTATIONS = {"basic": ("rx",), "strongly": ("rz", "ry", "rz")}

# widest QNN: each layer is a dense 2**n x 2**n matrix. Gradient of a
# batch of 32 through two layers, fused vs gate by gate: a one-rotation
# (basic) layer gains 1.1x at n = 8 (its forward pass loses, 0.7x) and
# loses at n = 9 (0.8x); a three-rotation re-upload layer gains 2.3x at
# n = 9 and breaks even at n = 10. These ratios date from when _kron and
# a row gather built the layers; the gather plan builds two n = 8 layers
# 1.4x faster and 31 of them 2.2-2.9x, so the fused side has only gained
# since. No grid cell is wider than 6 qubits
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


def _chain_products(factors: np.ndarray, u: np.ndarray = None) -> np.ndarray:
    """(..., n, depth, 2, 2) -> (..., n, 2, 2), the first rotation
    rightmost; given chains u (..., n, 2, 2), the product goes on from
    them, with the bits of one call over u's rotations and these. The
    2x2 products go entry by entry: np.matmul pays a fixed cost per
    matrix, and an encoding holds batch x n x depth."""
    if u is None:
        u, factors = factors[..., 0, :, :], factors[..., 1:, :, :]
    for d in range(factors.shape[-3]):
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
    qkernel.embed keep _chain_products. A depth of one is its own
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


def _gather_tree(first: int, k: int, depth: int, rows, cols,
                 tables) -> slice | tuple:
    """_kron's product tree over qubits first..first+k-1 for the entries
    (rows, cols) of their Kronecker product: a leaf is the slice of the
    flat gather table, appended to `tables`, that picks its qubit's 2x2
    entries from the flat (layers, n * depth * 4) chain prefixes (the
    last prefix of each qubit); a node is the (high, low) pair that
    _kron multiplies in that order."""
    if k == 1:
        start = sum(map(len, tables))
        tables.append((first * depth + depth - 1) * 4 + 2 * (rows & 1)
                      + (cols & 1))
        return slice(start, start + len(rows))
    half = k // 2
    low = (1 << half) - 1
    return (_gather_tree(first + half, k - half, depth, rows >> half,
                         cols >> half, tables),
            _gather_tree(first, half, depth, rows & low, cols & low, tables))


def _tree_product(gathered: np.ndarray, tree) -> np.ndarray:
    """The entries of a _gather_tree over gathered (layers, entries)."""
    if isinstance(tree, slice):
        return gathered[:, tree]
    return _tree_product(gathered, tree[0]) * _tree_product(gathered, tree[1])


@lru_cache(maxsize=None)
def _layer_plan(n_qubits: int, depth: int) -> tuple:
    """(table, factors) that build the layer unitaries P K of
    _layer_unitaries: one read-only flat gather table over the chain
    prefixes, and for the high and the low half of the qubits, as _kron
    splits them, the (tree, rows, width) of their Kronecker factor. A
    factor's entries are products of gathered 2x2 entries in _kron's
    association, so every entry of K gets _kron's bits; rows are the
    factor's rows that the CNOT ring P picks."""
    perm = _ring_perm(n_qubits)
    half = n_qubits // 2
    tables, factors = [], []
    for first, k, rows in ((half, n_qubits - half, perm >> half),
                           (0, half, perm & ((1 << half) - 1))):
        width = 1 << k
        entries = np.arange(width * width)
        tree = _gather_tree(first, k, depth, entries // width,
                            entries % width, tables)
        rows.flags.writeable = False
        factors.append((tree, rows, width))
    table = np.concatenate(tables)
    table.flags.writeable = False
    return table, tuple(factors)


def _layer_unitaries(chains: np.ndarray) -> np.ndarray:
    """(layers, 2**n, 2**n): layer r's unitary P K, K the Kronecker
    product of the last prefixes chains[r, :, -1] and P the CNOT ring,
    with the bits of _kron(chains[:, :, -1])[:, _ring_perm(n)]. Row i of
    P K is row perm[i] of K: the product of the high half's row
    perm[i] >> n//2 and the low half's row perm[i] mod 2**(n//2). So the
    ring's permutation folds into the halves' rows, and one broadcast
    product, _kron's last, writes every entry once."""
    layers, n, depth = chains.shape[:3]
    table, factors = _layer_plan(n, depth)
    gathered = chains.reshape(layers, -1).take(table, axis=1)
    hi, lo = [_tree_product(gathered, tree).reshape(layers, width, width)
              .take(rows, axis=1) for tree, rows, width in factors]
    size = 1 << n
    return (hi[:, :, :, None] * lo[:, :, None, :]).reshape(layers, size,
                                                           size)


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


@dataclass(frozen=True)
class Encoding:
    """The encoding payloads of every row of a feature matrix, for QNNs
    of one `layout` (width, encoding rotation kinds): the opening
    product states (rows, 2**n) and the "local" matrices of a re-upload,
    or () if encode's config did not re-upload. encoded[rows] gathers
    rows, or views a slice; len() counts them. encode's payloads are
    read-only, as every QNN of the layout may share them."""
    layout: tuple
    states: np.ndarray
    local: tuple

    def __len__(self) -> int:
        return len(self.states)

    def __getitem__(self, rows) -> "Encoding":
        return Encoding(self.layout, self.states[rows],
                        tuple(m[rows] for m in self.local))


def _encoding_layout(config) -> tuple:
    return (config.n_features,
            tuple("r" + str(axis).lower() for axis in config.encoding_sequence))


def encode(config, X: np.ndarray) -> Encoding:
    """The Encoding of every row of X for a qnn.QnnConfig; it serves
    the config with any layer count or ansatz, and with the re-upload
    payload also without re-upload."""
    n = config.n_features
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != n:
        raise UsageError(f"expected feature matrix with {n} columns, "
                         f"got shape {X.shape}")
    layout = _encoding_layout(config)
    chains = _chain_products(_rotation_factors(layout[1],
                                               math.pi * X[:, :, None]))
    encoded = Encoding(layout, product_states(chains[..., 0]),
                       _local_payload(chains) if config.reupload else ())
    encoded.states.flags.writeable = False
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
            or encoded.layout != _encoding_layout(config)
            or (config.reupload and not encoded.local)):
        raise UsageError("expected the encode() of a feature matrix for "
                         "this QNN's width and encoding, with the "
                         "re-upload payload if it re-uploads")
    if len(theta) != config.n_parameters():
        raise UsageError(f"expected {config.n_parameters()} parameters, "
                         f"got {len(theta)}")
    rotations = ANSATZ_ROTATIONS[config.ansatz]
    chains = _chain_prefixes(_rotation_factors(rotations, np.asarray(
        theta, dtype=np.float64).reshape(config.n_layers, n, len(rotations))))
    unitaries = _layer_unitaries(chains)
    ops = []
    for r, unitary in enumerate(unitaries):
        if r and config.reupload:
            ops.append(("local", encoded.local))
        ops.append(("unitary", unitary))
    return ops, chains


def run_batch(config, X: Encoding, theta) -> np.ndarray:
    """Execute the QNN of a qnn.QnnConfig with parameters theta for
    every row of X, the encode() of the features, at once, from a copy
    of its opening states; returns (len(X), 2**n) amplitudes."""
    ops = resolve_fused(config, X, theta)[0]
    amps = X.states.copy()
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
