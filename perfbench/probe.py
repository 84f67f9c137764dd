"""Machine-speed probe: turns wall times into times at a reference speed.

On a shared host the same work runs up to a third slower for seconds to
minutes at a time, while other tenants load the machine. The slowdown hits
all small-numpy, interpreter-bound code alike, so it can be measured while
the work runs: every ``PERIOD_S`` a ``SIGALRM`` handler times ``kernel``, a
fixed loop of GRU-sized numpy operations that uses no uprop code, in the
same thread as the work. An operation's time at reference speed is its
wall time minus the time spent in the handler, divided by the slowdown
(the mean kernel time around the operation over ``NOMINAL_S``).

``NOMINAL_S`` is a fixed unit, not a tuning knob: changing it rescales
every time the benchmark reports. It is about the fastest tenth of the
kernel's times on a 2-vCPU x86-64 VM at 2.1 GHz with OpenBLAS pinned to
one thread, so reported times read like wall times on a quiet host.
"""

from __future__ import annotations

import json
import signal
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PERIOD_S = 0.025
NOMINAL_S = 1.6e-3
# an operation shorter than this many samples borrows the latest ones
MIN_SAMPLES = 20

_rng = np.random.default_rng(0)
_W = _rng.normal(size=(96, 32)) * 0.1
_U = _rng.normal(size=(96, 32)) * 0.1


def kernel(steps=100):
    """A fixed GRU-sized loop of small numpy operations (about 2 ms)."""
    h = np.zeros(32)
    x = np.full(32, 0.1)
    for _ in range(steps):
        a = _W @ x
        b = _U @ h
        rz = 1.0 / (1.0 + np.exp(-(a[:64] + b[:64])))
        n = np.tanh(a[64:] + rz[:32] * b[64:])
        h = (1.0 - rz[32:]) * n + rz[32:] * h
        x = np.concatenate([h[16:], h[:16]])
    return h


class SpeedProbe:
    """Samples the kernel time every ``PERIOD_S`` while started."""

    def __init__(self):
        self.durations = []

    def _sample(self, signum, frame):
        start = perf_counter()
        kernel()
        self.durations.append(perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    @contextmanager
    def sampling(self):
        self.start()
        try:
            yield self
        finally:
            self.stop()

    def mark(self) -> int:
        return len(self.durations)

    def normalize(self, wall_s: float, first: int) -> float:
        """Reference-speed time of work that took ``wall_s`` since ``mark()``
        returned ``first``."""
        inside = self.durations[first:]
        probe_s = sum(inside)
        window = inside if len(inside) >= MIN_SAMPLES else self.durations[-MIN_SAMPLES:]
        return normalized(wall_s, probe_s, window)

    def report(self) -> dict:
        return {"probe_s": sum(self.durations), "durations": self.durations}


def normalized(wall_s: float, probe_s: float, durations) -> float:
    """Wall time minus probe time, divided by the measured slowdown."""
    net = wall_s - probe_s
    if not durations:
        return net
    return net * NOMINAL_S / float(np.mean(durations))


def from_report(wall_s: float, path) -> float:
    """Reference-speed time of a child process that wrote ``report()``."""
    with open(path) as fh:
        rep = json.load(fh)
    return normalized(wall_s, rep["probe_s"], rep["durations"])
