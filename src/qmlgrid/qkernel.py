"""Fidelity quantum kernel: k(x, y) = |<phi(y)|phi(x)>|^2.

gram_matrix and cross_gram embed every sample once on the batched
simulator and take squared inner products. The dense-unitary oracle for
one entry is reference.kernel_value.
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


def gram_matrix(encoding: EncodingSpec, X: np.ndarray) -> np.ndarray:
    """Symmetric kernel matrix over the rows of X.

    Off-diagonal entries are computed once for i < j and mirrored; the
    diagonal is exactly 1 by construction (unit-norm states), no
    simulation needed.
    """
    states = embed(encoding, X)
    overlaps = states @ states.conj().T
    gram = np.abs(overlaps) ** 2
    upper = np.triu(gram, k=1)
    gram = upper + upper.T
    np.fill_diagonal(gram, 1.0)
    return gram


def cross_gram(encoding: EncodingSpec, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Kernel rectangle k(a_i, b_j), shape (len(A), len(B))."""
    A = np.asarray(A, dtype=np.float64)
    B = np.asarray(B, dtype=np.float64)
    if A.shape[1] != B.shape[1]:
        raise UsageError(
            f"feature dimensions differ: {A.shape[1]} vs {B.shape[1]}")
    return np.abs(embed(encoding, A) @ embed(encoding, B).conj().T) ** 2
