"""Fidelity quantum kernel: k(x, y) = |<phi(y)|phi(x)>|^2.

embed turns every sample into its statevector on the batched
simulator, at every repetition count of the feature map up to the one
asked for. Every entry has the bits of a fresh embedding at its count,
so a caller embeds once at its largest count and reads each count's
entry. Every step acts on each row alone and gives it the same bits
whatever the batch, so a caller embeds all of its splits stacked, once,
and slices each split out. gram_matrix and cross_gram take squared
inner products of embedded states. reference.kernel_gates writes the
same embedding out gate by gate, and reference.kernel_value is the
dense-unitary oracle for one entry.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .circuit import _chain_products, _local_payload, _rotation_factors
from .errors import ConfigurationError, UsageError
from .pipeline import feature_matrix
from .statevec import apply_ops, product_states

# kernel feature map kind -> (single-qubit gate, pair shift, phase
# offset); a None shift means no pair terms (see reference.kernel_gates),
# and the diagonal gate G(theta) multiplies a basis state whose target
# bit is b by e^{i theta (b - offset)}; KINDS is every kernel kind in
# the QSVM grid's order, "angle" first
FEATURE_MAPS = {"z": ("rz", None, 0.5), "zz_a": ("rz", 0.0, 0.5),
                "zz_b": ("phase", math.pi, 0.0)}
KINDS = ("angle", *FEATURE_MAPS)

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)


@lru_cache(maxsize=None)
def _hadamards(n_qubits: int) -> tuple:
    """Read-only "local" payload of H on every qubit, grouped as an
    encoding block's (one matrix, or a high and a low half above
    circuit.LOCAL_DENSE_QUBITS), with one copy that each row multiplies
    on its own."""
    return _local_payload(np.broadcast_to(_H, (1, n_qubits, 2, 2)))


def _zz_diagonal(kind: str, X: np.ndarray) -> np.ndarray:
    """(rows, 2**n) phases of a ZZ map's gates after its Hadamards, all
    diagonal: the single-qubit and pair terms summed per basis state,
    elementwise per row."""
    _, shift, offset = FEATURE_MAPS[kind]
    n = X.shape[1]
    bits = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    phases = np.zeros((len(X), 1 << n))
    for q in range(n):
        phases += (2.0 * X[:, q])[:, None] * (bits[q] - offset)
    for q in range(n - 1):
        angle = 2.0 * ((shift - X[:, q]) * (shift - X[:, q + 1]))
        phases += angle[:, None] * ((bits[q] ^ bits[q + 1]) - offset)
    return np.cos(phases) + 1j * np.sin(phases)


def embed(kind: str, X: np.ndarray, repetitions: int = 1) -> np.ndarray:
    """Read-only statevectors phi(x) for every row of X (one qubit per
    column) under feature map `kind` at 1..repetitions repetitions,
    shape (repetitions, len(X), 2**d) for d columns: entry r - 1 holds
    the states after r repetitions, extended from entry r - 2 with the
    bits of a fresh embedding at r.

    Without pair terms every qubit sees its own 2x2 chain, so an entry
    is the product state of the chains' first columns, and each count's
    chains go on from the previous count's with one more block. With
    them, a ZZ map is |+...+> times its phase diagonal, and each further
    count a Hadamard layer ("local" op) and the same diagonal on the
    previous count's states. It does not go through circuit.run_batch,
    so perfbench's tracer counts embeddings apart from QNN circuit
    runs."""
    if kind not in KINDS:
        raise ConfigurationError(f"unknown encoding kind {kind!r}")
    if type(repetitions) is not int or repetitions < 1:
        raise ConfigurationError(
            f"repetitions must be an int >= 1, not {repetitions!r}")
    X = feature_matrix(X)
    n = X.shape[1]
    gate, shift, _ = FEATURE_MAPS.get(kind, (None, None, None))
    least = 1 if shift is None else 2
    if n < least:
        raise ConfigurationError(
            f"{kind} feature map on {n} features needs at least {least}")
    stack = np.empty((repetitions, len(X), 1 << n), dtype=np.complex128)
    if shift is None:
        if kind == "angle":
            block = _rotation_factors(("ry",), math.pi * X[:, :, None])
        else:
            rotation = _rotation_factors((gate,), 2.0 * X[:, :, None])
            block = np.concatenate(
                [np.broadcast_to(_H, rotation.shape), rotation], axis=2)
        chains = None
        for r in range(repetitions):
            chains = _chain_products(block, chains)
            stack[r] = product_states(chains[..., 0])
    else:
        diagonal = _zz_diagonal(kind, X)
        stack[0] = product_states(np.full((len(X), n, 2), _H[0, 0]))
        stack[0] *= diagonal
        for r in range(1, repetitions):
            stack[r] = stack[r - 1]
            apply_ops(stack[r], n, [("local", _hadamards(n))])
            stack[r] *= diagonal
    stack.flags.writeable = False
    return stack


@lru_cache(maxsize=4)
def _strict_lower(n: int) -> np.ndarray:
    """Read-only (n, n) mask of the entries below the diagonal."""
    mask = np.tri(n, k=-1, dtype=bool)
    mask.flags.writeable = False
    return mask


def gram_matrix(states: np.ndarray) -> np.ndarray:
    """Symmetric kernel matrix over embedded states (rows of embed).

    Entries i < j are taken as computed and mirrored into j > i in
    place; the diagonal is exactly 1 by construction (unit-norm
    states), no simulation needed.
    """
    # overlaps are freed before the mirror, whose copy of gram.T then
    # reuses their memory instead of fresh pages
    gram = np.abs(states @ states.conj().T) ** 2
    np.copyto(gram, gram.T, where=_strict_lower(len(gram)))
    np.fill_diagonal(gram, 1.0)
    return gram


def cross_gram(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Kernel rectangle k(a_i, b_j) over embedded states, shape
    (len(states_a), len(states_b))."""
    if states_a.shape[1] != states_b.shape[1]:
        raise UsageError(f"state dimensions differ: {states_a.shape[1]} vs "
                         f"{states_b.shape[1]}")
    return np.abs(states_a @ states_b.conj().T) ** 2
