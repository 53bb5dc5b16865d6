"""A deterministic discrete-event queue for the CPU clock domain.

Events scheduled for the same cycle fire in scheduling order (a
monotonically increasing sequence number breaks heap ties), which keeps
whole-system runs reproducible.

:class:`EventQueue` is the queue the simulator builds.  It derives from
a compiled heap (``_kernel.c``, built by :mod:`repro.cpu.native`) when
that loads, and from :class:`HeapEventQueue` otherwise: the heapq body
below, which is the compiled queue's reference.  Both make the same
calls in the same order; no option chooses the path.
"""

from __future__ import annotations

import heapq

from repro.cpu import native

#: The compiled queue, or None: :class:`HeapEventQueue` is the queue.
_kernel = native.EVENTS.load()


class HeapEventQueue:
    """Min-heap of ``(cycle, seq, fn)`` callbacks."""

    def __init__(self):
        self._heap: list = []
        self._seq = 0

    def schedule(self, cycle: int, fn) -> None:
        """Run ``fn()`` when the clock reaches ``cycle``."""
        self._seq += 1
        heapq.heappush(self._heap, (cycle, self._seq, fn))

    def run_due(self, now: int) -> int:
        """Fire every event scheduled at or before ``now``; returns count.

        Reentrancy contract (the wake-driven engine depends on this —
        see ``tests/test_events.py``):

        * A callback that schedules another event at ``cycle <= now``
          fires **within the same** ``run_due`` call, after everything
          already pending at an earlier ``(cycle, seq)``.  The call
          returns only when no event at or before ``now`` remains, so a
          caller never needs to re-poll for same-cycle follow-ups.
        * Events at the same cycle fire in scheduling order (``_seq``
          breaks heap ties), including events scheduled mid-drain: a
          same-cycle event scheduled by a callback runs after every
          same-cycle event that was scheduled before it.
        * A callback scheduling at ``cycle < now`` (an "earlier" cycle)
          also fires in this call — the heap orders it before any
          later-cycle entries, but it cannot run before events that
          already fired.  Schedulers should treat this as "due
          immediately", not time travel.
        """
        fired = 0
        heap = self._heap
        while heap and heap[0][0] <= now:
            _, _, fn = heapq.heappop(heap)
            fn()
            fired += 1
        return fired

    def clear(self) -> None:
        """Drop every pending callback (``_seq`` keeps counting)."""
        self._heap.clear()

    def next_cycle(self) -> int | None:
        """Cycle of the earliest pending event, or None if empty."""
        return self._heap[0][0] if self._heap else None

    def pending(self) -> list:
        """The pending events as a sorted list of ``(cycle, seq, fn)``."""
        return sorted(self._heap)

    def __len__(self) -> int:
        return len(self._heap)


class EventQueue(HeapEventQueue if _kernel is None else _kernel.EventQueue):
    """The simulator's event queue (see the module docstring).  Its
    methods stay class attributes, which a tracer wraps by name."""


def implementation() -> str:
    """``"compiled"`` when :class:`EventQueue` is the compiled heap, else
    ``"python"``."""
    return "python" if issubclass(EventQueue, HeapEventQueue) else "compiled"
