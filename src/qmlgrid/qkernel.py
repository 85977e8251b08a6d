"""Fidelity quantum kernel: k(x, y) = |<phi(y)|phi(x)>|^2.

embed turns every sample into its statevector once on the batched
simulator, through an encoding circuit the caller builds once (see
circuit.feature_map); gram_matrix and cross_gram take squared inner
products of embedded states, so a caller embeds each split once and
builds every Gram from those states. The dense-unitary oracle for one
entry is reference.kernel_value.
"""
from __future__ import annotations

import numpy as np

from .circuit import CircuitSpec, resolve_ops
from .errors import UsageError
from .statevec import apply_ops, zero_states


def embed(circuit: CircuitSpec, X: np.ndarray) -> np.ndarray:
    """Statevectors phi(x) for every row of X, shape (len(X), 2**d).

    Resolves the circuit's bindings with circuit.resolve_ops, which
    refuses a feature matrix of the wrong width, and runs them on the
    batched simulator; it does not go through circuit.run_batch, so
    perfbench's tracer counts embeddings apart from QNN circuit runs."""
    ops = resolve_ops(circuit, X)
    amps = zero_states(circuit.n_qubits, len(X))
    apply_ops(amps, circuit.n_qubits, ops)
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
