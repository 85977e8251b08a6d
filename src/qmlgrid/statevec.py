"""Batched dense statevector simulator.

Conventions, fixed once here and relied on everywhere else:

* Basis index bit i is the state of qubit i, so qubit 0 is the least
  significant bit: |q_{n-1} ... q_1 q_0>.
* Rotations follow RP(theta) = exp(-i * theta * P / 2) for P in {X, Y, Z};
  PHASE(theta) = diag(1, e^{i*theta}).

There is one simulation path: apply_ops runs many statevectors side by
side in a (batch, 2**n) buffer. Every op acts on the whole register
(its targets are all qubits) and carries a payload in the third slot;
circuit.feature_map emits the ops of the kernel embeddings and
fusion.resolve_fused those of a QNN, straight from its qnn.QnnConfig.
apply_ops trusts its ops: it refuses an unknown kind but checks no
targets or payload shapes. Gate-by-gate simulation lives in
reference.apply_gates, for the oracles only.

* "unitary": one (2**n, 2**n) matrix U for the whole batch, amps <- U amps
  (a trainable layer with its CNOT ring).
* "local": per-sample matrices (hi,) of shape (m, 2**n, 2**n), or
  (hi, lo) of shapes (m, 2**(n-h), 2**(n-h)) and (m, 2**h, 2**h): row b
  becomes hi_j row b, or (hi_j (x) lo_j) row b with hi on the high
  qubits and lo on the h low ones, where j = b mod m (an encoding block;
  m below the row count lets one payload serve stacked copies of the
  batch, and m = 1 applies one payload to every row by the row's own
  matrix products).
* "product": per-sample columns c, shape (batch, n, 2); every row becomes
  the product state c_{n-1} (x) ... (x) c_0. This is the image of
  |0...0> under local 2x2 matrices with first columns c, so it is only
  emitted for a block that opens a circuit.
* "diagonal": per-sample phases d, shape (batch, 2**n): amps <- d * amps
  elementwise (the single-qubit and pair terms of a ZZ feature map).
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, UsageError

MAX_QUBITS = 24


def zero_states(n_qubits: int, batch: int) -> np.ndarray:
    """Batch of |0...0> states, shape (batch, 2**n_qubits)."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros((batch, 1 << n_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def apply_ops(amps: np.ndarray, n_qubits: int, ops) -> None:
    """Apply whole-register ops in place to a (batch, 2**n_qubits) buffer.

    ops is an iterable of (kind, targets, payload), with the kinds and
    payloads of the module docstring.
    """
    for kind, targets, payload in ops:
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
        elif kind == "product":
            state = payload[:, n_qubits - 1]
            for q in range(n_qubits - 2, -1, -1):
                state = (state[:, :, None] * payload[:, q, None, :]).reshape(
                    len(amps), -1)
            amps[:] = state
        elif kind == "diagonal":
            amps *= payload
        else:
            raise UsageError(f"unknown op kind {kind!r}")


@lru_cache(maxsize=None)
def _z_signs(n_qubits: int, qubit: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    return 1.0 - 2.0 * ((idx >> qubit) & 1)


def expectation_z_batch(amps: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    probs = np.abs(amps) ** 2
    return probs @ _z_signs(n_qubits, qubit)
