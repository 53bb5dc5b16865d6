"""Criticality providers: the processor-side half of the proposal.

A provider is attached to each core.  The core calls into it from three
places:

* load issue       — :meth:`annotate` returns the (flag, magnitude) pair to
                     piggyback on the memory request;
* ROB-head block   — :meth:`on_block_start` when a load first blocks commit;
* blocked commit   — :meth:`on_blocked_commit` with the measured stall.

For the CLPT comparator the core additionally reports each dynamic load's
direct-consumer count at commit (:meth:`on_load_consumers`).  The naive
Section-5.1 mechanism has no predictor at all: it promotes the in-flight
request at block time through a side channel.
"""

from __future__ import annotations

from repro.core.cbp import CbpMetric, CommitBlockPredictor
from repro.core.clpt import CriticalLoadPredictionTable


class CriticalityProvider:
    """Base provider: nothing is ever critical (plain FR-FCFS machine)."""

    def annotate(self, pc: int) -> tuple[bool, int]:
        """Criticality (flag, magnitude) to attach to a load's request."""
        return (False, 0)

    def on_block_start(self, pc: int, cycle: int, txn=None) -> None:
        """A load at ``pc`` began blocking the ROB head at ``cycle``.

        ``txn`` is the load's in-flight DRAM transaction, if any — used only
        by the naive forwarding mechanism.
        """

    def on_blocked_commit(self, pc: int, stall_cycles: int, cycle: int) -> None:
        """A blocking load committed after ``stall_cycles`` at the head."""

    def on_load_consumers(self, pc: int, count: int) -> None:
        """A dynamic load retired with ``count`` direct consumers."""

    def tick(self, cycle: int) -> None:
        """Per-cycle housekeeping hook (table resets)."""

    def next_tick_cycle(self, now: int) -> int | None:
        """Earliest future cycle at which :meth:`tick` does real work.

        ``None`` means tick is a no-op (or time-insensitive), letting the
        system skip dead cycles without consulting this provider.  Providers
        whose ``tick`` has per-cycle effects must override this, or runs
        with cycle skipping enabled will not be bit-identical to the naive
        cycle-by-cycle loop.
        """
        return None


class NullProvider(CriticalityProvider):
    """Explicit name for the no-criticality baseline."""


class CbpProvider(CriticalityProvider):
    """Commit Block Predictor provider (the paper's proposal)."""

    def __init__(
        self,
        entries: int | None = 64,
        metric: CbpMetric = CbpMetric.MAX_STALL,
        reset_interval: int | None = None,
        counter=None,
    ):
        self.cbp = CommitBlockPredictor(entries, metric, reset_interval, counter)
        self._binary = metric is CbpMetric.BINARY

    def annotate(self, pc: int) -> tuple[bool, int]:
        magnitude = self.cbp.predict(pc)
        if magnitude <= 0:
            return (False, 0)
        return (True, 1 if self._binary else magnitude)

    def on_block_start(self, pc: int, cycle: int, txn=None) -> None:
        self.cbp.record_block_start(pc)

    def on_blocked_commit(self, pc: int, stall_cycles: int, cycle: int) -> None:
        self.cbp.record_stall(pc, stall_cycles)

    def tick(self, cycle: int) -> None:
        self.cbp.tick(cycle)

    def next_tick_cycle(self, now: int) -> int | None:
        return self.cbp.next_reset_cycle()


class ClptProvider(CriticalityProvider):
    """Subramaniam et al. consumer-count provider.

    ``ranked=False`` is CLPT-Binary (flag only); ``ranked=True`` is
    CLPT-Consumers (consumer count as magnitude).
    """

    def __init__(self, threshold: int = 3, ranked: bool = False,
                 entries: int | None = 1024):
        self.clpt = CriticalLoadPredictionTable(entries=entries, threshold=threshold)
        self.ranked = ranked

    def annotate(self, pc: int) -> tuple[bool, int]:
        if not self.clpt.is_critical(pc):
            return (False, 0)
        return (True, self.clpt.consumer_count(pc) if self.ranked else 1)

    def on_load_consumers(self, pc: int, count: int) -> None:
        self.clpt.record_consumers(pc, count)


class NaiveForwardingProvider(CriticalityProvider):
    """Section 5.1: no predictor; promote the request when the block begins.

    Models the optimistic side channel from ROB to transaction queue: after
    ``forward_latency`` CPU cycles the in-flight transaction (if still
    queued) is flagged critical.  Since our transaction objects are shared
    with the controller, setting the flag is the promotion; the latency is
    modelled by deferring the flag via the core's event queue (the core
    passes a ``defer`` callable at construction).
    """

    def __init__(self, forward_latency: int = 24, defer=None):
        self.forward_latency = forward_latency
        self._defer = defer
        self._presettle = None
        self.promotions = 0

    def bind_defer(self, defer, presettle=None) -> None:
        """Install the event-scheduling callable and the memory system's
        ``presettle`` hook (done by the core; ``bind_defer(None)`` at run
        end lets the machine go)."""
        self._defer = defer
        self._presettle = presettle

    def on_block_start(self, pc: int, cycle: int, txn=None) -> None:
        if txn is None:
            return
        due = cycle + self.forward_latency

        def promote():
            if not txn.critical and self._presettle is not None:
                # Batched engine: settle the channel's open gap before the
                # flag flips, as MemoryHierarchy does for its own bumps.
                self._presettle(txn, due, event_phase=True)
            txn.critical = True
            txn.magnitude = 1
            self.promotions += 1

        if self._defer is None:
            promote()
        else:
            self._defer(due, promote)
