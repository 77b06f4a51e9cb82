"""The clock a benchmark child times its work with.

On a shared host the CPU time of a fixed amount of pure-Python work is not
fixed: it changes by as much as 1.6x, in stretches from under a second
to several minutes, as other guests load the same physical cores.  A run set
that falls in a slow stretch reads slower whatever the code.

So every 50 ms of CPU time the child interrupts its work (SIGPROF) and
times a calibration slice: a fixed loop that uses no dyckab code but, like
the library, builds tuples and reads and writes a dict.  (A loop of
integer arithmetic alone followed the slowdowns of path enumeration about
half as closely.)  The clock counts the CPU time between slices, not that
of the slices, and scales each stretch by REFERENCE_SLICE_S over the slice
that opened it: it reads the time the work would have taken on a core
that runs a slice in REFERENCE_SLICE_S.

The CPU time is the thread's: while a process-wide CPU timer is armed,
Linux serves the process CPU clock in whole scheduler ticks.  The library
and the workloads run on the one main thread.
"""

from __future__ import annotations

import signal
import time

SLICE_ITERATIONS = 5_000
INTERVAL_S = 0.05
REFERENCE_SLICE_S = 0.002
# Slices that scale a set-up time: the first ones its process runs after it.
SETUP_SLICES = 5


class WorkClock:
    """Scaled CPU time without the slices; slices run while entered.
    Without calibration it is the thread's plain CPU time."""

    def __init__(self, calibrate=True):
        self.calibrate = calibrate
        self.slices = []
        self.scale = 1.0
        self.base = 0.0  # scaled time up to the end of the last slice
        self.base_cpu = 0.0  # thread CPU time then

    def __enter__(self):
        self.base_cpu = time.thread_time()
        if self.calibrate:
            self._slice()  # the scale of the first stretch
            signal.signal(signal.SIGPROF, self._slice)
            signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        if self.calibrate:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def now(self) -> float:
        while True:
            seen = len(self.slices)
            value = self.base + (time.thread_time() - self.base_cpu) * self.scale
            if len(self.slices) == seen:  # no slice ran in between
                return value

    def _slice(self, *_):
        self.base += (time.thread_time() - self.base_cpu) * self.scale
        elapsed = calibration_slice()
        self.base_cpu = time.thread_time()
        self.slices.append(elapsed)
        self.scale = REFERENCE_SLICE_S / elapsed


def calibration_slice() -> float:
    """Run one calibration slice; its thread CPU time."""
    start = time.thread_time()
    counts = {}
    for i in range(SLICE_ITERATIONS):
        key = (i % 61, i * i % 7)
        counts[key] = counts.get(key, 0) + 1
    return time.thread_time() - start
