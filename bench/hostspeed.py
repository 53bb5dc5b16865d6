"""How fast the host runs Python, measured while the simulator runs.

On a shared host the speed of a virtual CPU changes by up to 2x within
seconds, and differs between CPUs, so timing a reference before and after
a pass does not tell how fast the pass itself ran.  Instead a profiling
timer (``ITIMER_PROF``: every ``INTERVAL_S`` of the process's CPU time)
interrupts the simulation and times a small fixed computation — the
*probe* — on the same CPU at that moment.  The mean of ``NOMINAL_S`` /
probe time over a pass is its speed factor: multiplying host seconds by it
gives seconds at the nominal speed, and work per second is divided by it.

The probe is fixed code in this file; it never changes with the simulator,
and it runs with the cyclic garbage collector off, so its time does not
depend on the simulator's heap either.  Its cost (about 3% of the sampled
CPU time) is the same on both sides of a comparison.
"""

from __future__ import annotations

import gc
import heapq
import os
import signal
import statistics
import time
from pathlib import Path

#: CPU time between probes.
INTERVAL_S = 0.02
#: Probe size, in reference events.
PROBE_EVENTS = 800
#: Probe time at the nominal speed: the fast state of a shared 2-vCPU
#: Intel Xeon under Python 3.11.  Any constant would do; it sets the scale.
NOMINAL_S = 0.00056


class _RefCore:
    __slots__ = ("ready", "busy", "done")

    def __init__(self):
        self.ready = 0
        self.busy = 0
        self.done = 0


def reference_work(events: int) -> int:
    """A fixed pure-Python computation with the simulator's mix of
    operations: heap, dicts, slotted attributes, small integers."""
    heap, table, cores = [], {}, [_RefCore() for _ in range(8)]
    for seq in range(64):
        heapq.heappush(heap, (seq % 7, seq, seq))
    for _ in range(events):
        cycle, seq, value = heapq.heappop(heap)
        core = cores[value & 7]
        core.busy += 1
        if core.ready <= cycle:
            core.ready = cycle + (value % 5)
            core.done += 1
        key = (value * 2654435761) & 1023
        table[key] = table.get(key, 0) + 1
        heapq.heappush(heap, (cycle + 1 + (value & 3), seq + 64, value + 1))
    return sum(core.done for core in cores) + len(table)


def probe() -> float:
    # The probe allocates objects, so with the collector on it could start
    # a collection of whatever heap the simulator holds at that moment: a
    # change that keeps more objects alive would make the host read as
    # slow and hide its own cost.
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work(PROBE_EVENTS)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def probes(count: int) -> list[float]:
    """``count`` probes back to back (for work too short to sample)."""
    return [probe() for _ in range(count)]


def factor(samples) -> float:
    """Speed factor of a list of probe times (1.0 = nominal speed)."""
    return statistics.fmean(NOMINAL_S / s for s in samples)


class Sampler:
    """Probes on a profiling timer while it is started."""

    def __init__(self):
        self.samples: list[float] = []
        self._previous = None

    def _on_timer(self, signum, frame):
        self.samples.append(probe())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)


def sampling(fn, directory: Path):
    """``fn`` wrapped to sample host speed during each call.

    Samples are appended to ``directory/<pid>.txt`` after every call, so
    that pool workers forked after wrapping report theirs too.
    """
    sampler = Sampler()

    def sampled(*args, **kwargs):
        sampler.start()
        try:
            return fn(*args, **kwargs)
        finally:
            sampler.stop()
            with open(directory / f"{os.getpid()}.txt", "a") as out:
                out.write("".join(f"{s!r}\n" for s in sampler.samples))
            sampler.samples.clear()

    return sampled


def collected(directory: Path) -> list[float]:
    """Every sample written under ``directory``."""
    return [
        float(line)
        for path in sorted(directory.glob("*.txt"))
        for line in path.read_text().split()
    ]
