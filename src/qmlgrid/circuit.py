"""Kernel feature maps and the QNN runner.

FEATURE_MAPS holds each kernel embedding's gate, pair shift and the
gate's phase offset, and feature_map turns an embedding of every row of
a feature matrix into whole-register ops, as statevec.apply_ops takes
them; qkernel.embed runs them. reference.kernel_gates writes the same
embedding out gate by gate for the oracles. run_batch runs a
qnn.QnnConfig's fused blocks, which fusion.resolve_fused builds straight
from the config and the fusion.encode of the features.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, UsageError
from .fusion import (Encoding, _chain_products, _local_payload,
                     _rotation_factors, resolve_fused)
from .statevec import apply_ops, zero_states

# kernel feature map kind -> (single-qubit gate, pair shift, phase
# offset); a None shift means no pair terms (see reference.kernel_gates),
# and the diagonal gate G(theta) multiplies a basis state whose target
# bit is b by e^{i theta (b - offset)}; "angle" is the fourth kind
FEATURE_MAPS = {"z": ("rz", None, 0.5), "zz_a": ("rz", 0.0, 0.5),
                "zz_b": ("phase", math.pi, 0.0)}

_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)


@lru_cache(maxsize=None)
def _hadamards(n_qubits: int) -> tuple:
    """Read-only "local" payload of H on every qubit, grouped as an
    encoding block's (one matrix, or a high and a low half above
    fusion.LOCAL_DENSE_QUBITS), with one copy that each row multiplies
    on its own."""
    return _local_payload(np.broadcast_to(_H, (1, n_qubits, 2, 2)))


def feature_map(kind: str, X: np.ndarray, repetitions: int = 1) -> list:
    """The embedding reference.kernel_gates writes out gate by gate, for
    every row of X (one qubit per column), as whole-register
    (kind, targets, payload) ops for statevec.apply_ops.

    Without pair terms every qubit sees its own 2x2 chain, so the state
    is one "product" op of the chains' first columns. With them, the
    gates after the Hadamards are all diagonal: a ZZ map is |+...+>,
    then per repetition a "diagonal" op of the summed phases, with a
    Hadamard layer before each further one. Every step is elementwise
    per row or a row's own matrix products, so a row gets the same bits
    whatever the batch.
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
    qubits = tuple(range(n))
    if shift is None:
        if kind == "angle":
            block = _rotation_factors(("ry",), math.pi * X[:, :, None])
        else:
            rotation = _rotation_factors((gate,), 2.0 * X[:, :, None])
            block = np.concatenate(
                [np.broadcast_to(_H, rotation.shape), rotation], axis=2)
        chains = _chain_products(np.concatenate([block] * repetitions, axis=2))
        return [("product", qubits, chains[..., 0])]
    bits = (np.arange(1 << n) >> np.arange(n)[:, None]) & 1
    phases = np.zeros((len(X), 1 << n))
    for q in range(n):
        phases += (2.0 * X[:, q])[:, None] * (bits[q] - offset)
    for q in range(n - 1):
        angle = 2.0 * ((shift - X[:, q]) * (shift - X[:, q + 1]))
        phases += angle[:, None] * ((bits[q] ^ bits[q + 1]) - offset)
    diagonal = ("diagonal", qubits, np.cos(phases) + 1j * np.sin(phases))
    plus = ("product", qubits, np.full((len(X), n, 2), _H[0, 0]))
    return [plus, diagonal] + [("local", qubits, _hadamards(n)),
                               diagonal] * (repetitions - 1)


def run_batch(config, X: Encoding, theta) -> np.ndarray:
    """Execute the QNN of a qnn.QnnConfig with parameters theta for
    every row of X, the fusion.encode of the features, at once; returns
    (len(X), 2**n) amplitudes."""
    ops = resolve_fused(config, X, theta)[0]
    amps = zero_states(config.n_features, len(X))
    apply_ops(amps, config.n_features, ops)
    return amps
