"""Fidelity quantum kernel: k(x, y) = |<phi(y)|phi(x)>|^2.

embed turns every sample into its statevector once on the batched
simulator; gram_matrix and cross_gram take squared inner products of
embedded states, so a caller embeds each split once and builds every
Gram from those states. The dense-unitary oracle for one entry is
reference.kernel_value.
"""
from __future__ import annotations

import numpy as np

from .circuit import EncodingSpec, build_encoding, resolve_ops
from .errors import UsageError
from .statevec import apply_ops, zero_states


def embed(encoding: EncodingSpec, X: np.ndarray) -> np.ndarray:
    """Statevectors phi(x) for every row of X, shape (len(X), 2**d).

    Resolves the encoding's bindings with circuit.resolve_ops and runs
    them on the batched simulator; it does not go through
    circuit.run_batch, so perfbench's tracer counts embeddings apart from
    QNN circuit runs."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise UsageError(f"expected a feature matrix, got shape {X.shape}")
    circ = build_encoding(encoding, X.shape[1])
    amps = zero_states(circ.n_qubits, len(X))
    apply_ops(amps, circ.n_qubits, resolve_ops(circ, X))
    return amps


def gram_matrix(states: np.ndarray) -> np.ndarray:
    """Symmetric kernel matrix over embedded states (rows of embed).

    Off-diagonal entries are computed once for i < j and mirrored; the
    diagonal is exactly 1 by construction (unit-norm states), no
    simulation needed.
    """
    overlaps = states @ states.conj().T
    gram = np.abs(overlaps) ** 2
    upper = np.triu(gram, k=1)
    gram = upper + upper.T
    np.fill_diagonal(gram, 1.0)
    return gram


def cross_gram(states_a: np.ndarray, states_b: np.ndarray) -> np.ndarray:
    """Kernel rectangle k(a_i, b_j) over embedded states, shape
    (len(states_a), len(states_b))."""
    if states_a.shape[1] != states_b.shape[1]:
        raise UsageError(f"state dimensions differ: {states_a.shape[1]} vs "
                         f"{states_b.shape[1]}")
    return np.abs(states_a @ states_b.conj().T) ** 2
