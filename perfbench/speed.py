"""Reference-speed meter: puts wall times from a machine whose speed drifts
on one scale.

On a shared host the same grid can take 25 s in one minute and 40 s a few
minutes later; CPU time drifts the same way, so no amount of repetition
inside a 30-second run steadies raw seconds. The meter times a fixed
reference loop, on a timer while the grid runs and inside each set-up
probe. The loop does what the grid does (interpreter-bound scalar
indexing and vector updates like the SMO sweep, small complex slices like
`statevec.apply_ops`), so it slows down with the grid. A time multiplied
by `REFERENCE_S` over the mean sample taken during it is the time at the
reference speed.

The loop belongs to the benchmark, not to qmlgrid, so a change to the
program never changes the yardstick.
"""
from __future__ import annotations

import bisect
import contextlib
import signal
import time

import numpy as np

REFERENCE_S = 0.0125        # one sample's duration at the reference speed
PERIOD_S = 0.5              # timer period while sampling in the background
_ITERATIONS = 400
_N = 192                    # heart_failure train rows
_BATCH, _QUBITS = 32, 4     # QNN mini-batch on 4 qubits


class SpeedMeter:
    def __init__(self):
        rng = np.random.default_rng(20_05)
        self._gram = rng.normal(size=(_N, _N))
        self._labels = np.where(rng.random(_N) > 0.5, 1.0, -1.0)
        self._amps = rng.normal(size=(_BATCH, 1 << _QUBITS)) + 0j
        self.starts = []        # perf_counter at the start of each sample
        self.samples = []       # wall seconds of each sample
        self.seconds = 0.0      # wall time spent sampling
        self.cpu_s = 0.0        # CPU time spent sampling
        self.listener = None    # called with (start, end) of each sample
        self.sample()           # warm-up, not kept
        self.starts.clear()
        self.samples.clear()
        self.seconds = self.cpu_s = 0.0

    def sample(self) -> None:
        f = np.zeros(_N)
        a = np.zeros(_N)
        v = self._amps.copy().reshape(_BATCH, 4, 2, 2)
        cpu0, t0 = time.process_time(), time.perf_counter()
        for it in range(_ITERATIONS):
            i = it % _N
            e = f[i] - self._labels[i]
            j = int(np.argmax(np.abs(e - f)))
            aj = float(np.clip(a[j] + self._labels[j] * e / 2.0, 0.0, 1.0))
            f += 1e-3 * (aj - a[j]) * self._gram[:, j]
            a[j] = aj
            a0 = v[:, :, 0, :].copy()
            v[:, :, 0, :] = 0.8 * a0 - 0.6j * v[:, :, 1, :]
            v[:, :, 1, :] = 0.8 * v[:, :, 1, :] - 0.6j * a0
        dt = time.perf_counter() - t0
        self.seconds += dt
        self.cpu_s += time.process_time() - cpu0
        self.starts.append(t0)
        self.samples.append(dt)
        if self.listener is not None:
            self.listener(t0, t0 + dt)

    @contextlib.contextmanager
    def in_background(self):
        """Samples every PERIOD_S of wall time, from a SIGALRM handler that
        runs in this thread between the program's bytecodes."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float, pad: float = 0.0) -> float:
        """REFERENCE_S over the mean sample that started in
        [start - pad, end + pad], or over the nearest sample if none did."""
        lo = bisect.bisect_left(self.starts, start - pad)
        hi = bisect.bisect_right(self.starts, end + pad)
        if lo == hi:
            near = min(range(len(self.starts)),
                       key=lambda k: abs(self.starts[k] - start))
            lo, hi = near, near + 1
        window = self.samples[lo:hi]
        return REFERENCE_S * len(window) / sum(window)

    def spent(self, start: float, end: float) -> float:
        """Wall seconds of the samples that started in [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        return sum(self.samples[lo:hi])
