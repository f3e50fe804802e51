"""Machine-speed probe: how fast this machine runs right now.

A shared virtual machine does not run at one speed: on a 2-vCPU host,
a fixed pure-Python loop swings between two speeds some 1.4x apart,
flipping every few seconds, and the share of slow time drifts over
minutes.  Every timing of the system under test moves with it.

The probe is a process of its own, started by the load generator for a
run.  Every 25 ms it runs a fixed loop of about 0.25 ms and records the
loop's CPU time (``time.thread_time_ns``), which counts only the time
the probe ran, not the time it waited for a CPU.  So a busy system
under test does not slow the probe down; a slow machine does.  That
costs about 1% of one CPU.

:meth:`Probe.scale` turns the samples of a time window into a factor,
``NOMINAL_LOOP_NS`` / (mean loop CPU time in the window): multiplied by
it, a timing of that window reads as on a machine where the loop takes
``NOMINAL_LOOP_NS``.  Run as a script, this file is the probe itself:
it samples until its standard input closes, then writes the samples to
its standard output.
"""

from __future__ import annotations

import array
import bisect
import os
import select
import statistics
import subprocess
import sys
import time

LOOP = 3000
INTERVAL_S = 0.025
# Loop CPU time the scaled timings refer to: about this loop's median on
# a 2-vCPU Xeon virtual machine under Python 3.11.
NOMINAL_LOOP_NS = 250_000
STOP_TIMEOUT_S = 30.0


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


def probe_main() -> None:
    samples = array.array("q")  # (CLOCK_MONOTONIC ns, loop CPU ns) pairs
    while not select.select([sys.stdin], [], [], INTERVAL_S)[0]:
        cpu = time.thread_time_ns()
        _loop()
        cpu = time.thread_time_ns() - cpu
        samples.extend((time.perf_counter_ns(), cpu))
    sys.stdout.buffer.write(samples.tobytes())


class Probe:
    """The probe process for one run; stop it before reading scales."""

    def __init__(self) -> None:
        self.times: list[int] = []
        self.loop_ns: list[int] = []
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )

    def stop(self) -> None:
        """Stop the probe, wait until it has ended and read its samples."""
        try:
            data, _ = self.process.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        samples = array.array("q")
        samples.frombytes(data)
        self.times = list(samples[::2])
        self.loop_ns = list(samples[1::2])

    def scale(self, start_ns: int, end_ns: int) -> float:
        """``NOMINAL_LOOP_NS`` over the mean loop time of the samples
        taken between ``start_ns`` and ``end_ns`` (the nearest sample
        if none was)."""
        if not self.times:
            raise RuntimeError("the machine-speed probe took no samples")
        lo = bisect.bisect_left(self.times, start_ns)
        hi = bisect.bisect_right(self.times, end_ns)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        return NOMINAL_LOOP_NS / statistics.mean(self.loop_ns[lo:hi])

    def __enter__(self) -> Probe:
        return self

    def __exit__(self, *exc: object) -> None:
        if self.process.returncode is None:
            self.stop()


if __name__ == "__main__":
    probe_main()
