"""Machine-speed probes: timings scaled to a fixed reference speed.

The machine the benchmark was tuned on is a 2-vCPU VM on a shared host.
Its CPUs change speed by up to 1.9x within seconds and by 30-55 % over
minutes, on every workload at once.  The guest sees neither steal time nor
idle time: CPU-time clocks move with the wall clock.  So no amount of work
in a run makes a wall-clock figure repeat: two runs of the same code, a
minute apart, differ by more than the benchmark's bounds.

The remedy is to time the machine beside the program.  A fixed
pure-Python reference loop (:func:`reference_loop`, no program code) is
timed every 0.1-0.2 s of every measured region, while the program is
idle: a *probe*.  A :class:`Timeline` keeps the probes.  Each stretch of
wall time between two probes is scaled by ``REFERENCE_S`` over the mean
of those two probes, so a measured region's *scaled* time is how long it
would have taken on a machine whose reference loop takes
:data:`REFERENCE_S`.  The time the probes themselves take is left out.

A change to the program moves the scaled figures as much as it moves the
wall-clock ones: the reference loop does not change with the program.
Every run prints the raw wall-clock figures and the probes' median beside
the scaled ones, so the machine's speed during the run stays visible.
"""

from __future__ import annotations

import bisect
import contextlib
import statistics
import sys
import threading
import time
from typing import Callable, Iterator, List, Tuple

#: seconds of one reference loop that scaled figures are reported at: what
#: the 2-vCPU Xeon VM the benchmark was tuned on took under light
#: neighbour load (under heavier load it took 4-4.5 ms)
REFERENCE_S = 0.003
#: iterations of the reference loop
REFERENCE_ITERATIONS = 20_000
#: loops per probe; a probe's time is their fastest.  The first loop
#: brings the loop's own code and data back into the caches the program
#: was using, and an interrupt that lands in one loop does not count as a
#: slow machine
PROBE_LOOPS = 2
#: seconds between the probes of :meth:`Timeline.sampling`
SAMPLE_INTERVAL_S = 0.1
#: interpreter switch interval while sampling (the default is 5 ms)
SWITCH_INTERVAL_S = 0.05


def reference_loop(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed interpreter work: dict updates and integer arithmetic.

    It stays in the CPU's first-level cache, so its time does not depend
    on how the program left the larger caches.  Besides its one dict it
    creates no object the garbage collector tracks, so probes hardly move
    the program's collections from one measured window to another.
    """
    table: dict = {}
    for i in range(iterations):
        key = i % 997
        table[key] = table.get(key, 0) + i * 3
    return len(table)


class Timeline:
    """Probes of one process, and wall-clock intervals scaled by them."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        loop: Callable[[], object] = reference_loop,
    ) -> None:
        self.clock = clock
        self.loop = loop
        #: (start, end, seconds of one reference loop), in time order
        self.probes: List[Tuple[float, float, float]] = []
        self._ends: List[float] = []
        #: process CPU seconds the probes used
        self.cpu_s = 0.0

    def probe(self) -> float:
        """Time the reference loop now; returns its seconds."""
        start, cpu = self.clock(), time.process_time()
        best = float("inf")
        for _ in range(PROBE_LOOPS):
            t0 = self.clock()
            self.loop()
            best = min(best, self.clock() - t0)
        self.cpu_s += time.process_time() - cpu
        self.probes.append((start, self.clock(), best))
        self._ends.append(self.probes[-1][1])
        return best

    @contextlib.contextmanager
    def sampling(self, interval: float = SAMPLE_INTERVAL_S) -> Iterator["Timeline"]:
        """Probe every ``interval`` seconds from a thread while the body runs.

        For single-threaded Python work: the probe thread holds the
        interpreter lock while it times the loop, so the body is paused
        during each probe and the probe has the CPU to itself.  A probe is
        also taken when sampling starts and when it stops.
        """
        stop = threading.Event()
        previous = sys.getswitchinterval()
        # long enough that a probe, once it holds the lock, is not made to
        # hand it back halfway through its loops
        sys.setswitchinterval(SWITCH_INTERVAL_S)

        def sample() -> None:
            while not stop.wait(interval):
                self.probe()

        self.probe()
        thread = threading.Thread(target=sample, name="speed-probe", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join()
            sys.setswitchinterval(previous)
            self.probe()

    def median_probe_s(self) -> float:
        return statistics.median(p[2] for p in self.probes)

    def _factor(self, gap: int) -> float:
        """Scale of the stretch after probe ``gap - 1`` and before probe
        ``gap``; the stretches before the first and after the last probe
        take that probe's speed."""
        last = len(self.probes) - 1
        before = self.probes[min(max(gap - 1, 0), last)][2]
        after = self.probes[min(gap, last)][2]
        return REFERENCE_S / ((before + after) / 2.0)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds of ``[t0, t1]`` outside the probes, each stretch scaled
        by the speed of the probes around it."""
        if not self.probes:
            raise ValueError("scaled time needs at least one probe")
        if t1 <= t0:
            return 0.0
        total = 0.0
        # the stretch before probe k runs from the end of probe k-1 to
        # the start of probe k
        k = bisect.bisect_right(self._ends, t0)
        while True:
            lo = self.probes[k - 1][1] if k > 0 else float("-inf")
            hi = self.probes[k][0] if k < len(self.probes) else float("inf")
            a, b = max(t0, lo), min(t1, hi)
            if b > a:
                total += (b - a) * self._factor(k)
            if k >= len(self.probes) or hi >= t1:
                return total
            k += 1
