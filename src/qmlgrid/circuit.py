"""Kernel feature maps and the QNN runner.

FEATURE_MAPS holds each kernel embedding's gate and pair shift, and
feature_map writes an embedding out as concrete ops for every row of a
feature matrix, as statevec.apply_ops takes them; qkernel.embed runs
them. run_batch runs a qnn.QnnConfig's fused blocks, which
fusion.resolve_fused builds straight from the config and the
fusion.encode of the features.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError, UsageError
from .fusion import Encoding, resolve_fused
from .statevec import apply_ops, zero_states

# kernel feature map kind -> (single-qubit gate, pair shift); a None
# shift means no pair terms (see feature_map); "angle" is the fourth kind
FEATURE_MAPS = {"z": ("rz", None), "zz_a": ("rz", 0.0),
                "zz_b": ("phase", math.pi)}


def feature_map(kind: str, X: np.ndarray, repetitions: int = 1) -> list:
    """Kernel embedding of every row of X, one qubit per column, as
    concrete (kind, targets, angle) ops; an angle is a (len(X),) array.

    "angle" is RY(pi * x_i) on qubit i. A FEATURE_MAPS kind with gate G
    and pair shift s is H on every qubit, then G(2 * x_i) on qubit i,
    then, unless s is None, CNOT / G(2 * (s - x_i) * (s - x_j)) / CNOT
    on every adjacent pair (i, j = i + 1). The block repeats
    `repetitions` times.
    """
    if kind != "angle" and kind not in FEATURE_MAPS:
        raise ConfigurationError(f"unknown encoding kind {kind!r}")
    if repetitions < 1:
        raise ConfigurationError("repetitions must be >= 1")
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise UsageError(f"expected a feature matrix, got shape {X.shape}")
    n = X.shape[1]
    gate, shift = FEATURE_MAPS.get(kind, (None, None))
    least = 1 if shift is None else 2
    if n < least:
        raise ConfigurationError(
            f"{kind} feature map on {n} features needs at least {least}")
    if kind == "angle":
        block = [("ry", (q,), math.pi * X[:, q]) for q in range(n)]
    else:
        block = [("h", (q,), None) for q in range(n)]
        block += [(gate, (q,), 2.0 * X[:, q]) for q in range(n)]
        for q in range(n - 1 if shift is not None else 0):
            angle = 2.0 * ((shift - X[:, q]) * (shift - X[:, q + 1]))
            block += [("cnot", (q, q + 1), None), (gate, (q + 1,), angle),
                      ("cnot", (q, q + 1), None)]
    return block * repetitions


def run_batch(config, X: Encoding, theta) -> np.ndarray:
    """Execute the QNN of a qnn.QnnConfig with parameters theta for
    every row of X, the fusion.encode of the features, at once; returns
    (len(X), 2**n) amplitudes."""
    ops = resolve_fused(config, X, theta)[0]
    amps = zero_states(config.n_features, len(X))
    apply_ops(amps, config.n_features, ops)
    return amps
