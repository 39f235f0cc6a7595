"""Calibrated timing: wall time divided by the speed of a fixed reference kernel.

The host's speed for pure-Python work drifts by up to ~1.6x in stretches of
seconds, and CPU time tracks wall time, so raw seconds do not repeat between
runs.  Each timed operation is therefore sampled: a SIGALRM timer interrupts
it every ``INTERVAL`` seconds and runs ``kernel()``, an exact-rational
Gauss-Jordan elimination on a fixed matrix (elimination-shaped, like the
engine).  The kernel also runs just before and just after the operation.  The
work between two samples is scaled by ``K_REF`` over the mean of the two
kernel times around it, and the time spent in the kernel is left out.

This module does not import ``orecohom``.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

INTERVAL = 0.05
# Nominal kernel time: a calibrated second is the time the work takes when
# the kernel takes K_REF.  A constant, so calibrated figures compare across
# runs and commits.
K_REF = 0.003


def _matrix(rows: int, cols: int, seed: int) -> list[list[Fraction]]:
    out, x = [], seed
    for _ in range(rows):
        row = []
        for _ in range(cols):
            x = (1103515245 * x + 12345) % 2**31
            row.append(Fraction(x % 19 - 9))
        out.append(row)
    return out


MATRIX = _matrix(8, 11, 20070101)


def kernel() -> int:
    """Gauss-Jordan elimination of MATRIX over Fractions; returns the rank."""
    rows = [r[:] for r in MATRIX]
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, nrows) if rows[i][c]), None)
        if sel is None:
            continue
        rows[r], rows[sel] = rows[sel], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return r


def _timed_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


class Clock:
    """Measures operations in calibrated seconds.

    ``paused`` is the total time spent in kernel samples so far; a tracer
    subtracts it so that spans exclude the samples too.
    """

    def __init__(self):
        self.paused = 0.0
        self.kernel_times: list[float] = []
        self._segments: list[tuple[float, float]] = []
        self._mark = 0.0

    def now(self) -> float:
        """Wall time with kernel samples taken out."""
        return time.perf_counter() - self.paused

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._segments.append((t0 - self._mark, t1 - t0))
        self._mark = t1
        self.paused += t1 - t0

    def measure(self, fn):
        """Run fn(); return (its result, raw seconds, calibrated seconds)."""
        k_before = _timed_kernel()
        self._segments = []
        previous = signal.signal(signal.SIGALRM, self._tick)
        t0 = self._mark = time.perf_counter()
        paused0 = self.paused
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        try:
            result = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            t1 = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
        k_after = _timed_kernel()
        work = [w for w, _ in self._segments] + [t1 - self._mark]
        ks = [k_before] + [k for _, k in self._segments] + [k_after]
        self.kernel_times.extend(ks)
        calibrated = sum(w * K_REF * 2 / (ks[j] + ks[j + 1]) for j, w in enumerate(work))
        return result, (t1 - t0) - (self.paused - paused0), calibrated
