"""Fidelity quantum kernel: k(x, y) = |<phi(y)|phi(x)>|^2.

embed turns every sample into its statevector on the batched
simulator, at every repetition count of the feature map up to the one
asked for: circuit.feature_map's steps, each the product state of its
columns or the previous count's states, then its whole-register ops.
Every entry has the bits of a fresh embedding at its count, so a caller
embeds once at its largest count and reads each count's entry. The
steps act on each row alone and give it the same bits whatever the
batch, so a caller embeds all of its splits stacked, once, and slices
each split out. gram_matrix and cross_gram take squared inner products
of embedded states. The dense-unitary oracle for one entry is
reference.kernel_value.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import feature_map
from .errors import UsageError
from .statevec import apply_ops, product_states


def embed(kind: str, X: np.ndarray, repetitions: int = 1) -> np.ndarray:
    """Read-only statevectors phi(x) for every row of X under feature
    map `kind` at 1..repetitions repetitions, shape (repetitions,
    len(X), 2**d) for d columns: entry r - 1 holds the states after r
    repetitions, extended from entry r - 2 with the bits of a fresh
    embedding at r.

    Runs the steps of circuit.feature_map on the batched simulator; it
    does not go through circuit.run_batch, so perfbench's tracer counts
    embeddings apart from QNN circuit runs."""
    X = np.asarray(X, dtype=np.float64)
    steps = feature_map(kind, X, repetitions)
    stack = np.empty((repetitions, len(X), 1 << X.shape[1]),
                     dtype=np.complex128)
    for r, (columns, ops) in enumerate(steps):
        stack[r] = stack[r - 1] if columns is None else product_states(columns)
        apply_ops(stack[r], X.shape[1], ops)
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
