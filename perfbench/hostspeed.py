"""Host-speed calibration for the end-to-end timings.

On a shared machine the interpreter's speed drifts: on a shared 2-vCPU
Xeon virtual machine, a fixed pure-Python loop ran up to twice as slow for
seconds to minutes at a time, and every timing moved with it.

:class:`HostClock` cancels that drift.  Every ``PROBE_EVERY_NS`` of a run
it times a fixed kernel, written here and independent of the program
under test, and keeps the median of the recent timings.  Time between
two probes is converted to *reference* time by the factor
``REFERENCE_NS / median kernel time``: what it would have read on a host
that runs the kernel in exactly ``REFERENCE_NS``.  Probe time itself is
left out.  The kernel and the constant are fixed, so a change to the
program moves a reference timing just as it moves a raw one, while a
change in host speed cancels.
"""

from __future__ import annotations

import statistics
import struct
from array import array
from collections import deque
from time import perf_counter_ns

#: Kernel time that makes one reference nanosecond one nanosecond.
REFERENCE_NS = 150_000

#: How often the clock re-measures host speed.
PROBE_EVERY_NS = 50_000_000

_U32 = struct.Struct(">I")


class _Counter:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self, n: int) -> int:
        self.value += n
        return self.value


def kernel() -> int:
    """A fixed mix of what the program's request path does in Python:
    method calls, dict and tuple work, struct packing, bytes building."""
    table: dict[tuple[int, str], int] = {}
    out = bytearray()
    counter = _Counter()
    for i in range(220):
        key = (i & 127, "handle")
        table[key] = table.get(key, 0) + 1
        out += _U32.pack(i)
        counter.bump(len(str(i)))
    return counter.value + len(bytes(out)) + len(table)


class HostClock:
    """A clock that runs in reference time.

    ``now()`` reads reference nanoseconds; ``scale(ns)`` converts a raw
    interval measured since the last probe.  ``tick(now_ns)`` probes when
    ``PROBE_EVERY_NS`` has passed; callers invoke it between operations,
    never inside a timed one.
    """

    def __init__(self, window: int = 15, repeats: int = 3) -> None:
        self.samples = array("q")
        self._recent: deque[int] = deque(maxlen=window)
        self._repeats = repeats
        self._ref = 0.0
        self._factor = 1.0
        self._mark = perf_counter_ns()
        self.probe()

    @property
    def factor(self) -> float:
        return self._factor

    def now(self) -> float:
        return self._ref + (perf_counter_ns() - self._mark) * self._factor

    def scale(self, ns: int) -> float:
        return ns * self._factor

    def tick(self, now_ns: int) -> None:
        if now_ns - self._mark >= PROBE_EVERY_NS:
            self.probe()

    def probe(self) -> None:
        """Close the current stretch at the current factor, then re-measure."""
        self._ref += (perf_counter_ns() - self._mark) * self._factor
        for _ in range(self._repeats):
            start = perf_counter_ns()
            kernel()
            elapsed = perf_counter_ns() - start
            self.samples.append(elapsed)
            self._recent.append(elapsed)
        self._factor = REFERENCE_NS / statistics.median(self._recent)
        self._mark = perf_counter_ns()
