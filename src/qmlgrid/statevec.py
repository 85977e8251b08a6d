"""Batched dense statevector simulator.

Conventions, fixed once here and relied on everywhere else:

* Basis index bit i is the state of qubit i, so qubit 0 is the least
  significant bit: |q_{n-1} ... q_1 q_0>.
* Rotations follow RP(theta) = exp(-i * theta * P / 2) for P in {X, Y, Z};
  PHASE(theta) = diag(1, e^{i*theta}).

There is one simulation path. Every circuit opens with a product state,
and product_states builds a (batch, 2**n) buffer of them straight from
per-qubit columns; apply_ops then runs whole-register ops on it, many
statevectors side by side. qkernel.embed builds the kernel
embeddings from both (a ZZ map's phase diagonal it multiplies in
itself); circuit.encode builds a QNN encoding's product states once,
and circuit.resolve_fused a QNN's ops.
apply_ops trusts its ops: it refuses an unknown kind but checks no
payload shapes. Gate-by-gate simulation lives in reference.apply_gates,
for the oracles only. An op is a (kind, payload) pair:

* "unitary": one (2**n, 2**n) matrix U for the whole batch, amps <- U amps
  (a trainable layer with its CNOT ring).
* "local": per-sample matrices (hi,) of shape (m, 2**n, 2**n), or
  (hi, lo) of shapes (m, 2**(n-h), 2**(n-h)) and (m, 2**h, 2**h): row b
  becomes hi_j row b, or (hi_j (x) lo_j) row b with hi on the high
  qubits and lo on the h low ones, where j = b mod m (an encoding block
  or a ZZ feature map's Hadamard layer; m below the row count lets one
  payload serve stacked copies of the batch, and m = 1 applies one
  payload to every row by the row's own matrix products).
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, UsageError

MAX_QUBITS = 24


def product_states(columns) -> np.ndarray:
    """Per-sample product states c_{n-1} (x) ... (x) c_0 of columns c,
    shape (batch, n, 2), as a fresh writeable (batch, 2**n) buffer.
    Column c_q is the image of |0> under the 2x2 acting on qubit q, so
    this is the state local 2x2s prepare from |0...0>."""
    columns = np.asarray(columns, dtype=np.complex128)
    n = columns.shape[1]
    if not 1 <= n <= MAX_QUBITS:
        raise ConfigurationError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n}")
    if n == 1:
        return columns[:, 0].copy()
    state = columns[:, n - 1]
    for q in range(n - 2, -1, -1):
        state = (state[:, :, None] * columns[:, q, None, :]).reshape(
            len(columns), 2 * state.shape[1])
    return state


def apply_ops(amps: np.ndarray, n_qubits: int, ops) -> None:
    """Apply whole-register ops in place to a (batch, 2**n_qubits) buffer.

    ops is an iterable of (kind, payload) pairs, with the kinds and
    payloads of the module docstring; no kind reads n_qubits. An empty
    buffer is left as it is (a "local" reshape could not infer its
    stacked copies from 0 rows).
    """
    if not amps.size:
        return
    for kind, payload in ops:
        if kind == "unitary":
            amps[:] = amps @ payload.T
        elif kind == "local":
            hi, *lo = payload
            rows = amps.reshape(-1, len(hi), hi.shape[-1],
                                lo[0].shape[-1] if lo else 1)
            rows = hi @ rows
            if lo:
                rows = rows @ lo[0].swapaxes(-1, -2)
            amps[:] = rows.reshape(amps.shape)
        else:
            raise UsageError(f"unknown op kind {kind!r}")
