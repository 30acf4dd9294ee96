"""Machine speed, from a short fixed kernel timed before, during and after each measurement.

Other tenants of a shared machine slow every process on it by up to
1.6x, in spells that last from a quarter of a second to minutes, so raw
wall times of the same work differ by 15-40 % between runs.  The kernel
here is fixed benchmark code shaped like the program's hot loops at the
time the benchmark was defined: numpy operations on a stack of 64 small
matrices inside a Python loop over index pairs, Jacobi rotations on a
9 x 9 complex Hermitian matrix, and integer arithmetic.  It takes about
1 ms.

``Reference.measure`` times a call and turns its wall time into
*reference seconds*: the time on a core where the kernel takes
``REFERENCE_S``.  The kernel runs just before and just after the call
and, from a ``SIGALRM`` interval timer, every ``SAMPLE_INTERVAL_S``
during it, so a spell that begins or ends inside a long call is seen.
The time those runs take inside the call is subtracted, and the rest is
scaled by the mean of ``REFERENCE_S / kernel time`` over the samples:
with evenly spaced samples that is the call's work in reference seconds.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.00106  # best kernel time seen on a 2-vCPU, 2.1 GHz Xeon KVM guest
SAMPLE_INTERVAL_S = 0.025

_N = 8
_PAIRS = [(i, j) for i in range(_N) for j in range(i + 1, _N)]
_STACK = np.random.default_rng(0).random((64, _N, _N)) + 0.1
_rng = np.random.default_rng(1)
_H = _rng.normal(size=(9, 9)) + 1j * _rng.normal(size=(9, 9))
_H = _H + _H.conj().T


def kernel() -> None:
    al = _STACK.copy()
    g = al.copy()
    for i, j in _PAIRS:
        m1 = np.sqrt(al[:, i, i] * al[:, j, j])
        m2 = np.sqrt(al[:, i, j] * al[:, j, i])
        use = m1 <= m2
        g[use, i, i] -= m1[use]
        g[~use, i, j] -= m2[~use]
    h = _H.copy()
    for p in range(2):
        for q in range(p + 1, 9):
            apq = h[p, q]
            mag = abs(apq)
            tau = (h[q, q].real - h[p, p].real) / (2.0 * mag)
            t = 1.0 / (abs(tau) + np.sqrt(1.0 + tau * tau))
            c = 1.0 / np.sqrt(1.0 + t * t)
            rot = np.array([[c, -t * c * apq / mag], [t * c * np.conj(apq) / mag, c]])
            h[:, [p, q]] = h[:, [p, q]] @ rot
            h[[p, q], :] = rot.conj().T @ h[[p, q], :]
    x = 0
    for i in range(7500):
        x += i * i


def time_kernel() -> float:
    """Best of two runs: a hiccup inside one run only ever adds time."""
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t)
    return best


class Reference:
    """Times calls in reference seconds; see the module docstring.

    Create it in the main thread: it installs a ``SIGALRM`` handler.
    """

    def __init__(self):
        self.last = time_kernel()
        self._samples: list = []
        self._inside = 0.0  # kernel time spent inside the current measurement
        self._active = False
        signal.signal(signal.SIGALRM, self._on_timer)

    def _on_timer(self, signum, frame) -> None:
        if not self._active:
            return
        t = time.perf_counter()
        kernel()
        now = time.perf_counter()
        self._samples.append(now - t)
        self._inside += now - t

    def measure(self, call, sample_during: bool = True):
        """Return ``(call(), reference seconds it took)``.

        ``sample_during=False`` keeps the kernel to the two ends, for calls
        whose work runs in another process the kernel would compete with.
        """
        self._samples, self._inside = [self.last], 0.0
        self._active = sample_during
        if sample_during:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._active = False
            elapsed = time.perf_counter() - start - self._inside
        self.last = time_kernel()
        self._samples.append(self.last)
        factor = statistics.fmean(REFERENCE_S / s for s in self._samples)
        return result, elapsed * factor
