"""Machine-speed sampling, so that timings repeat on a shared host.

The boxes this benchmark runs on change speed under it: a fixed pure-
Python loop takes 8, 10 or 17 ms for seconds at a stretch (neighbours on
the same host), on both cores at once, and CPU time stretches with wall
time.  Raw seconds of one 6 s exploration therefore spread by 20-50 %
between back-to-back runs, far wider than any bound worth setting.

So every measured process carries a sampler thread that times a small
fixed kernel (its own thread CPU time, which waiting for the GIL does not
inflate) every ``PERIOD`` seconds, and elapsed time is integrated in
*reference seconds*: each slice of wall time is scaled by how much faster
or slower than ``K_REF`` the kernel ran during it.  One reference second
is one second on a machine where the kernel takes ``K_REF``.  The same
exploration then repeats within a few percent whatever state the host is
in.  The sampler costs the measured process about 5 % and is there in
traced and untraced runs alike.

The kernel allocates strings and inserts them into a dict, because that
is what tracks the program.  Over 60-70 back-to-back runs each of
``wc plain 3x2`` against a cold store and of ``factor plain``, raw
seconds had a standard deviation of 13 %; divided by the kernel's time
it was 3.6 % and 4.4 %, against 6.2 % and 6.3 % for an integer-arithmetic
loop, 9 % and 8 % for a strided walk over 16 MB, 10 % and 14 % for
hashing, pickling and sorting — and adding any of those to the first
explained nothing more.  The kernel makes nothing the cyclic collector
tracks (one dict per call): one that builds tuples and lists trips
collections of the measured program's whole heap inside the sampler and
reads 30 ms instead of 1.  What is left, about 4 % from one process to
the next whatever the smoothing, the benchmark takes out by repeating
each workload in several fresh processes and reporting the median.
"""

from __future__ import annotations

import statistics
import threading
import time

KERNEL_ITERS = 5_000
K_REF = 1.0e-3   # seconds the kernel takes on the reference machine
PERIOD = 0.02
SMOOTH = 5       # samples per median window (one sample alone is noisy)


def _kernel() -> int:
    index = {}
    for i in range(KERNEL_ITERS):
        index[str(i)] = i
    return len(index)


class SpeedSampler(threading.Thread):
    """Background thread recording ``(monotonic time, kernel CPU seconds)``."""

    def __init__(self) -> None:
        super().__init__(daemon=True, name="bench-speed-sampler")
        self.samples: list[tuple[float, float]] = []
        self._stop_event = threading.Event()

    def run(self) -> None:
        thread_time, monotonic = time.thread_time, time.monotonic
        while not self._stop_event.is_set():
            c0 = thread_time()
            _kernel()
            k = thread_time() - c0
            self.samples.append((monotonic(), k))
            self._stop_event.wait(PERIOD)

    def stop(self) -> None:
        self._stop_event.set()
        self.join()

    def smoothed(self) -> list[tuple[float, float]]:
        """Samples with each kernel time replaced by its window's median."""
        ks = [k for _, k in self.samples]
        half = SMOOTH // 2
        return [
            (t, statistics.median(ks[max(0, i - half): i + half + 1]))
            for i, (t, _) in enumerate(self.samples)
        ]


def reference_seconds(samples: list[tuple[float, float]], start: float, end: float) -> float:
    """Integrate ``[start, end]`` (monotonic clock) in reference seconds.

    Sample *i* speaks for the stretch since sample *i-1*; time before the
    first sample and after the last borrows the nearest one.
    """
    if not samples:
        raise RuntimeError("no speed samples: the sampler never ran")
    total = 0.0
    prev = start
    for t, k in samples:
        if t <= prev:
            continue
        upto = min(t, end)
        total += (upto - prev) * K_REF / k
        prev = upto
        if prev >= end:
            return total
    return total + (end - prev) * K_REF / samples[-1][1]
