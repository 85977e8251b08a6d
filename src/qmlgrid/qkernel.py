"""Fidelity quantum kernel: k(x, y) = |<phi(y)|phi(x)>|^2.

embed turns every sample into its statevector on the batched
simulator: the product state of circuit.feature_map's columns, then its
whole-register ops. Both act on each row alone and give it the same
bits whatever the batch, so a caller embeds all of its splits stacked,
once, and slices each split out. gram_matrix and cross_gram take
squared inner products of embedded states. The dense-unitary oracle for
one entry is reference.kernel_value.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .circuit import feature_map
from .errors import UsageError
from .statevec import apply_ops, product_states


def embed(kind: str, X: np.ndarray, repetitions: int = 1) -> np.ndarray:
    """Statevectors phi(x) for every row of X under feature map `kind`,
    shape (len(X), 2**d) for d columns.

    Runs the columns and ops of circuit.feature_map on the batched
    simulator; it does not go through circuit.run_batch, so perfbench's
    tracer counts embeddings apart from QNN circuit runs."""
    X = np.asarray(X, dtype=np.float64)
    columns, ops = feature_map(kind, X, repetitions)
    amps = product_states(columns)
    apply_ops(amps, X.shape[1], ops)
    return amps


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
