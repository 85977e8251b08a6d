"""Batched dense statevector simulator.

Conventions, fixed once here and relied on everywhere else:

* Basis index bit i is the state of qubit i, so qubit 0 is the least
  significant bit: |q_{n-1} ... q_1 q_0>.
* Rotations follow RP(theta) = exp(-i * theta * P / 2) for P in {X, Y, Z};
  PHASE(theta) = diag(1, e^{i*theta}).

There is one simulation path: apply_ops runs many statevectors side by
side in a (batch, 2**n) buffer, with scalar or per-sample rotation
angles. The kernel and QNN layers sit on it; a single circuit is a batch
of one, and a list of Gate tuples feeds apply_ops directly.
"""
from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, UsageError

MAX_QUBITS = 24

GATE_KINDS = ("h", "rx", "ry", "rz", "phase", "cnot", "cz")
PARAMETRIC_KINDS = ("rx", "ry", "rz", "phase")
_SINGLE_KINDS = ("h", "rx", "ry", "rz", "phase")
_TWO_KINDS = ("cnot", "cz")


class Gate(NamedTuple):
    """A concrete gate: kind, target qubit(s) and, for rotations, an angle."""

    kind: str
    targets: tuple
    angle: float | None = None


def zero_states(n_qubits: int, batch: int) -> np.ndarray:
    """Batch of |0...0> states, shape (batch, 2**n_qubits)."""
    if not 1 <= n_qubits <= MAX_QUBITS:
        raise ConfigurationError(
            f"n_qubits must be in [1, {MAX_QUBITS}], got {n_qubits}")
    amps = np.zeros((batch, 1 << n_qubits), dtype=np.complex128)
    amps[:, 0] = 1.0
    return amps


def validate_gate(kind: str, targets: tuple, n_qubits: int, has_angle: bool) -> None:
    if kind not in GATE_KINDS:
        raise UsageError(f"unknown gate kind {kind!r}")
    if kind in _SINGLE_KINDS and len(targets) != 1:
        raise UsageError(f"{kind} takes one target, got {targets}")
    if kind in _TWO_KINDS:
        if len(targets) != 2:
            raise UsageError(f"{kind} takes two targets, got {targets}")
        if targets[0] == targets[1]:
            raise UsageError(f"{kind} targets must be distinct, got {targets}")
    for q in targets:
        if not 0 <= q < n_qubits:
            raise UsageError(f"target {q} out of range for {n_qubits} qubits")
    if kind in PARAMETRIC_KINDS and not has_angle:
        raise UsageError(f"{kind} requires an angle")
    if kind not in PARAMETRIC_KINDS and has_angle:
        raise UsageError(f"{kind} takes no angle")


def _pair_view(amps: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    # (B, 2**n) -> (B, hi, 2, lo) with the target qubit on the axis of size 2
    lo = 1 << qubit
    hi = 1 << (n_qubits - qubit - 1)
    return amps.reshape(amps.shape[0], hi, 2, lo)


def _as_column(angle, half: bool):
    # scalar or per-sample (B,) angle -> something broadcastable over (B, hi, lo)
    th = np.asarray(angle, dtype=np.float64)
    if half:
        th = th / 2.0
    if th.ndim == 0:
        return th
    return th[:, None, None]


@lru_cache(maxsize=None)
def _controlled_indices(n_qubits: int, control: int, target: int):
    idx = np.arange(1 << n_qubits)
    sel = (idx >> control) & 1 == 1
    src = idx[sel & ((idx >> target) & 1 == 0)]
    return src, src | (1 << target)


@lru_cache(maxsize=None)
def _both_set_indices(n_qubits: int, a: int, b: int):
    idx = np.arange(1 << n_qubits)
    return idx[((idx >> a) & 1 == 1) & ((idx >> b) & 1 == 1)]


def apply_ops(amps: np.ndarray, n_qubits: int, ops) -> None:
    """Apply a gate sequence in place to a (batch, 2**n_qubits) buffer.

    ops is an iterable of (kind, targets, angle) where angle is None, a
    float, or a per-sample array of shape (batch,).
    """
    for kind, targets, angle in ops:
        if kind == "h":
            v = _pair_view(amps, n_qubits, targets[0])
            a0 = v[:, :, 0, :].copy()
            a1 = v[:, :, 1, :]
            inv = 1.0 / np.sqrt(2.0)
            v[:, :, 0, :] = (a0 + a1) * inv
            v[:, :, 1, :] = (a0 - a1) * inv
        elif kind == "rx":
            v = _pair_view(amps, n_qubits, targets[0])
            h = _as_column(angle, half=True)
            c, s = np.cos(h), np.sin(h)
            a0 = v[:, :, 0, :].copy()
            a1 = v[:, :, 1, :]
            v[:, :, 0, :] = c * a0 - 1j * s * a1
            v[:, :, 1, :] = c * a1 - 1j * s * a0
        elif kind == "ry":
            v = _pair_view(amps, n_qubits, targets[0])
            h = _as_column(angle, half=True)
            c, s = np.cos(h), np.sin(h)
            a0 = v[:, :, 0, :].copy()
            a1 = v[:, :, 1, :]
            v[:, :, 0, :] = c * a0 - s * a1
            v[:, :, 1, :] = s * a0 + c * a1
        elif kind == "rz":
            v = _pair_view(amps, n_qubits, targets[0])
            h = _as_column(angle, half=True)
            phase = np.cos(h) - 1j * np.sin(h)  # e^{-i theta/2}
            v[:, :, 0, :] *= phase
            v[:, :, 1, :] *= np.conj(phase)
        elif kind == "phase":
            v = _pair_view(amps, n_qubits, targets[0])
            h = _as_column(angle, half=False)
            v[:, :, 1, :] *= np.cos(h) + 1j * np.sin(h)
        elif kind == "cnot":
            src, dst = _controlled_indices(n_qubits, targets[0], targets[1])
            tmp = amps[:, src].copy()
            amps[:, src] = amps[:, dst]
            amps[:, dst] = tmp
        elif kind == "cz":
            amps[:, _both_set_indices(n_qubits, targets[0], targets[1])] *= -1.0
        else:
            raise UsageError(f"unknown gate kind {kind!r}")


@lru_cache(maxsize=None)
def _z_signs(n_qubits: int, qubit: int) -> np.ndarray:
    idx = np.arange(1 << n_qubits)
    return 1.0 - 2.0 * ((idx >> qubit) & 1)


def expectation_z_batch(amps: np.ndarray, n_qubits: int, qubit: int) -> np.ndarray:
    probs = np.abs(amps) ** 2
    return probs @ _z_signs(n_qubits, qubit)
