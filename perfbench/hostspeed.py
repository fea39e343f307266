"""Sampling the speed of the core the benchmark runs on.

The benchmark's machines are shared hosts: other tenants' work on the same
physical cores slows a process by up to about 2x, in phases that last from a
few milliseconds to minutes.  On such a host the raw wall times of the same
code spread by 15-35 % between runs, far more than the program changes a
benchmark has to resolve.

``HostProbe`` times a fixed pure-Python loop from a SIGALRM handler every
``INTERVAL_S`` while a repetition runs, so the loop sees the same core at the
same moments as the workload.  ``scale`` turns a raw time into reference
seconds: the raw time minus the probes' own time, times
``REF_LOOP_S / (mean loop time over the interval)``.  ``REF_LOOP_S`` is a
fixed unit: the loop's time on a quiet core of the machine the benchmark was
defined on (28-33 us on a 2-vCPU Intel Xeon VM, Python 3.11), so there a
reference second is close to a second of uncontended wall time.  It is a
constant rather than a value measured per run, so that every run and every
commit on one machine share the same unit.

The loop slows down less than memory-bound numpy code under contention
(about 1.5x against 1.7-2.2x), so the correction is partial: over two sets
of ten runs per workload it cut the quartile spread of the wall time from
6-15 % to 2-6 %.
"""

from __future__ import annotations

import math
import signal
import time

INTERVAL_S = 0.005      # one probe per 5 ms of wall time
LOOP_STEPS = 1000       # ~30 us per probe, ~0.7 % of the time
REF_LOOP_S = 30e-6      # the unit: loop time of a quiet reference core
TRIM = 0.01             # share of the slowest probes left out of the mean


def _loop() -> None:
    s = 0
    for i in range(LOOP_STEPS):
        s += i


class HostProbe:
    """Probe samples ``(start, duration)`` taken every ``INTERVAL_S``.

    The handler runs between bytecodes of the main thread, so during a long
    call into compiled code the next probe waits for the call to return.
    """

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._old = None

    def _tick(self, signum, frame) -> None:
        t0 = time.monotonic()
        _loop()
        self.samples.append((t0, time.monotonic() - t0))

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def window(self, t0: float, t1: float) -> dict:
        """Probes that started in ``[t0, t1)``: count, total time and the
        mean loop time without the slowest ``TRIM`` share (a probe that a
        stall of the whole VM caught says nothing of the core's speed)."""
        d = sorted(dur for start, dur in self.samples if t0 <= start < t1)
        kept = d[:max(1, math.ceil(len(d) * (1.0 - TRIM)))] if d else []
        return {"n": len(d), "total_s": sum(d),
                "mean_s": sum(kept) / len(kept) if kept else math.nan}


def scale(raw_s: float, win: dict) -> float:
    """Reference seconds of a raw time measured over the window ``win``."""
    if not win["n"]:
        return raw_s
    return (raw_s - win["total_s"]) * REF_LOOP_S / win["mean_s"]
