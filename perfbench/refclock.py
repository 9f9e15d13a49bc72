"""Times the program against a reference kernel run between its own steps.

The benchmark runs on a few virtual cores of a shared host, whose speed
changes by up to 1.8x from one second to the next as other tenants load it;
CPU time follows wall time, so the change is in how fast the core runs, not
in scheduling.  Medians over whole runs of 20-60 s still spread by 15-30%
from run to run.

A timer signal interrupts the program every PERIOD_S of wall time and runs
one slice of a fixed reference kernel (benchmark code only: small scipy
factorisations, a Python loop and a small matrix product, the same kinds of
work the package does), then hands back.  So the kernel samples the host's
speed at the same moments the program runs.  An interval's time is its wall
time minus the slices run inside it; `Clock.lap` converts that to nominal
seconds, the time at which one slice takes SLICE_NOMINAL_S:

    nominal = (wall - slice time) * SLICE_NOMINAL_S / mean slice time

Changes in the program move the work time and leave the slices alone, so a
speed-up shows in full; a change in host speed moves both and cancels.

Signals reach Python code between bytecodes, so a slice waits for any C
call in progress; the package's C calls are on small arrays and short.
"""

from __future__ import annotations

import signal
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_solve, cholesky, solve_triangular

PERIOD_S = 0.1  # wall time between the end of one slice and the next
SLICE_NOMINAL_S = 0.005  # one slice on a 2-vCPU Xeon host at its fastest (4.6-4.8 ms)
_STEPS = 100  # kernel iterations in one slice


def reference_slice() -> float:
    """A fixed amount of work, the same on every call."""
    rng = np.random.default_rng(0)
    precision, rhs = np.eye(5), np.zeros(5)
    weights = rng.standard_normal((32, 16))
    inputs = rng.standard_normal((16, 32))
    for _ in range(_STEPS):
        a = rng.standard_normal(5)
        precision = precision + np.outer(a, a)
        rhs = rhs + a
        factor = cholesky(precision, lower=True)
        mean = cho_solve((factor, True), rhs)
        solve_triangular(factor.T, a, lower=False)
        hidden = np.tanh(weights @ inputs)
        weights -= 1e-4 * (hidden @ inputs.T)
    return float(mean[0])


@dataclass
class Lap:
    wall_s: float  # wall time of the interval, slices included
    work_s: float  # wall time less the slices run inside it
    slice_s: float  # total time of those slices
    slices: int

    def nominal_s(self, slice_mean_s: float) -> float:
        return self.work_s * SLICE_NOMINAL_S / slice_mean_s


class Clock:
    """Runs reference slices on a timer while started; `lap` measures an
    interval.  One Clock per process: it owns SIGALRM."""

    def __init__(self):
        self.slice_total_s = 0.0
        self.slices = 0
        self._running = False
        self._previous = None

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        reference_slice()
        self.slice_total_s += time.perf_counter() - t0
        self.slices += 1
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self):
        reference_slice()  # warm the kernel's code paths before the first timed slice
        self._tick(None, None)  # one timed slice, so the mean is always defined
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._running = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self):
        if not self._running:
            return
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def work_time(self) -> float:
        """A clock that stands still while slices run."""
        return time.perf_counter() - self.slice_total_s

    def mark(self):
        return time.perf_counter(), self.slice_total_s, self.slices

    def lap(self, mark) -> Lap:
        t0, s0, n0 = mark
        wall = time.perf_counter() - t0
        slice_s, slices = self.slice_total_s - s0, self.slices - n0
        return Lap(wall, wall - slice_s, slice_s, slices)
