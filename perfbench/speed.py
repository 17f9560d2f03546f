"""Scaling of measured times to a reference machine speed.

On a shared 2-vCPU virtual machine the effective CPU speed was seen to
change by up to 40 % within seconds, which no run length averages out.
Every end-to-end time is therefore scaled by a calibration measured
interleaved with the operations:

    scaled = raw * reference / (median of the nearby calibration samples)

In-process work is calibrated with ``loop_ms``, a fixed pure-Python loop
that imports nothing and runs with the garbage collector off, so neither
mtspec's imports nor the size of its heap can change it.  Subprocess work
is calibrated with a bare ``python -c pass``, which shares the start-up
profile of a CLI call.  Neither calibration runs any mtspec code, so a
change to mtspec moves the scaled times exactly as it moves raw ones.
This module imports only builtins, so a set-up sample can calibrate inside
the interpreter it times without importing anything mtspec needs.
"""

import gc
from array import array
from time import perf_counter_ns

LOOP_REFERENCE_MS = 1.7
BARE_REFERENCE_MS = 80.0
WINDOW = 3  # calibration samples taken on each side of an operation


def _loop():
    table = {}
    acc = 0
    for i in range(4000):
        key = (i, i % 7)
        table[key] = i * i
        acc += table[key] % 13
    ordered = sorted(table.values(), reverse=True)
    return acc + len(",".join(str(x) for x in ordered[:500]))


def loop_ms() -> float:
    """One calibration sample: milliseconds for the fixed loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter_ns()
        _loop()
        t1 = perf_counter_ns()
    finally:
        if enabled:
            gc.enable()
    return (t1 - t0) / 1e6


class Scaled:
    """Raw operation times interleaved with calibration samples."""

    def __init__(self, reference_ms: float):
        self.reference_ms = reference_ms
        self.raw_ns = array("q")  # compact, so the record barely moves peak RSS
        self.epochs = array("q")
        self.calibration_ms = []

    def add(self, ns: int):
        self.raw_ns.append(ns)
        self.epochs.append(len(self.calibration_ms))

    def calibrate(self, ms: float):
        self.calibration_ms.append(ms)

    def scaled_ms(self) -> list:
        """Each operation's time at the reference speed, in milliseconds."""
        cal = self.calibration_ms
        out = []
        for ns, epoch in zip(self.raw_ns, self.epochs):
            window = cal[max(0, epoch - WINDOW):epoch + WINDOW]
            out.append(ns / 1e6 * self.reference_ms / median(window))
        return out


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    return ordered[mid] if len(ordered) % 2 else (ordered[mid - 1] + ordered[mid]) / 2
