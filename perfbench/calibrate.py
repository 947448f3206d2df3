"""Host speed, measured beside the operations so times can be scaled to it.

On a shared host the speed of a core changes for seconds or minutes at a
time, by up to twice, with nothing in this machine's own load to show it:
steal time stays 0 and process CPU time tracks wall time. A run that falls
into a slow spell reads up to twice as slow, whatever the program does.

So a run times a fixed probe kernel between operations, at least every
PROBE_EVERY_S seconds and before and after every longer operation, and
scales each operation's time by REFERENCE_S over the mean of the probes
on either side of it. The reported times are seconds at the speed where
the probe takes REFERENCE_S. The probe is code of the benchmark's own, so
a change to the program never moves it; the raw times are kept in the
result file beside the scaled ones.

The kernel is scalar Python arithmetic with `math` functions, the kind of
work the weight solver does. Over ten 30 s runs per workload on a 2-core
sandbox, with the probe's median between 3.8 and 4.8 ms, the quartile
spread of the median operation time, as a share of its median, fell from
0.057 raw to 0.036 scaled on solve, from 0.143 to 0.048 on explore and
from 0.152 to 0.080 on reanalyze. The numpy-heavy workloads slow less than
the kernel in a slow spell, so their scaled times overcorrect somewhat;
probes of numpy kernels tracked them worse.
"""

from __future__ import annotations

import math
import os
import time

# The probe's time on a 2-core Xeon sandbox (Python 3.11) when the host ran
# at full speed. It is only a unit, chosen so a scaled time reads close to
# a raw one.
REFERENCE_S = 0.003
PROBE_EVERY_S = 0.25
# The two cores of a 2-core sandbox change speed nearly independently
# (correlation 0.24 between probes on each, 0.1 s apart), and an operation
# may run on either or both, so the probe times the kernel on each.
MAX_CPUS = 4
ROUNDS = 2
_WARM_UP = 3


def _kernel() -> float:
    s = 0.0
    x = 0.1
    for i in range(12000):
        x = math.exp(-x * x) + 0.5 * math.erf(x) + math.sqrt(i + x)
        s += x / (1.0 + i)
        x = x % 1.0
    return s


def probe() -> float:
    """Mean seconds the kernel takes now on each CPU this process may use
    (the first MAX_CPUS of them), ROUNDS times over."""
    allowed = os.sched_getaffinity(0)
    times = []
    try:
        for _ in range(ROUNDS):
            for cpu in sorted(allowed)[:MAX_CPUS]:
                os.sched_setaffinity(0, {cpu})  # this thread only
                t0 = time.perf_counter()
                _kernel()
                times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, allowed)
    return sum(times) / len(times)


class HostSpeed:
    """The probes of one run, each tagged with the number of operations
    finished before it."""

    def __init__(self) -> None:
        for _ in range(_WARM_UP):
            probe()
        self.log: list[tuple[int, float]] = []
        self._last = -math.inf

    def probe(self, done: int) -> None:
        self.log.append((done, probe()))
        self._last = time.perf_counter()

    def probe_if_due(self, done: int) -> None:
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.probe(done)

    def scale(self, op: int) -> float:
        """Factor that turns operation `op`'s time into reference seconds:
        REFERENCE_S over the mean of the last probe before it and the first
        after it."""
        before = [s for done, s in self.log if done <= op][-1]
        after = next(s for done, s in self.log if done > op)
        return REFERENCE_S / (0.5 * (before + after))
