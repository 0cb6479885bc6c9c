"""A fixed probe of how fast the host runs at the moment.

The benchmark runs on a few vCPUs of a shared host. Other tenants slow it
by up to 2x, sometimes for minutes, long enough to cover whole runs, so a
best-of-run latency still moves with the host. The worker therefore runs
``probe`` about every ``EVERY_S`` seconds between operations, and each set-up
process runs it after its set-up. The probe is the benchmark's own code,
independent of ``wfgcpe``, with the kind of work the workloads do: float
parsing and arithmetic in the interpreter, and a numpy sort, diff and dot.

``scale`` turns a run's times into times at the reference host speed, at
which the probe takes ``REFERENCE_S``. It uses the run's 10th-percentile
probe rather than the fastest: the best-of-run latencies come from the
fastest of 6 to 30 passes, and over six seeds in a busy stretch the
10th percentile matched them best (ops_per_s spread 0.02 to 0.09 against
0.06 to 0.42 unscaled, and 0.04 to 0.16 with the fastest probe).
"""

from __future__ import annotations

import gc
import time

import numpy as np

#: The probe's 10th-percentile time over a run on the reference machine
#: (2 vCPUs, Python 3.11.7, numpy 2.4.6) when its host is not busy. It only
#: fixes the scale: scaled times read like times measured at that speed.
REFERENCE_S = 0.0065

#: Probe interval in seconds of the timed run.
EVERY_S = 0.25

_TEXT = [repr(i * 0.37) for i in range(20000)]


def probe():
    """Seconds taken by one fixed piece of work, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        acc = 0.0
        for tok in _TEXT:
            acc += float(tok) ** 0.5
        a = np.array([float(tok) for tok in _TEXT])
        for _ in range(5):
            b = np.sort(a[::-1].copy())
            acc += float(np.diff(b) @ np.log1p(b[1:]))
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(probes):
    """Factor that turns times measured alongside ``probes`` into times at
    the reference host speed."""
    ordered = sorted(probes)
    return REFERENCE_S / ordered[(len(ordered) - 1) // 10]
