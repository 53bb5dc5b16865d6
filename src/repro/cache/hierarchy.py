"""Two-level cache hierarchy with MSI coherence, feeding the DRAM model.

Timing model (CPU cycles), chosen to reproduce the paper's uncontended
round trips (Table 1/3: dL1 3 cycles, L2 32 cycles):

* L1 hit: ``l1.round_trip_latency``.
* L1 miss -> L2 hit: L1 latency + request traversal + response traversal =
  ``l1_rt + l2_rt`` total.
* L2 miss: adds DRAM queueing/service plus the L2 response traversal.

Coherence is MSI with an inclusive shared L2 and a full-map directory at
L1-line granularity: loads fetch Shared copies; stores upgrade or
read-for-ownership, invalidating remote sharers; a remote Modified copy is
written back to the L2 (with an intervention penalty) before a new sharer
is granted.  Dirty L2 victims become DRAM write transactions.

Criticality flows through this module untouched: the annotation attached at
load issue is copied onto the DRAM transaction (Section 3.2's widened
on-chip address bus), and merged MSHR requests take the maximum magnitude.

The per-access path (:meth:`MemoryHierarchy.load`, ``store``,
``can_accept_store``, the L2-access, fill, coherence and eviction
handlers) is also compiled (``_kernel.c``, built by
:mod:`repro.cpu.native`).  Each of those methods opens with one guard
that hands the call to the kernel when it is loaded; the Python body
after the guard is the reference the kernel transliterates, and the
hierarchy when no compiler is available.  Both work on the same storage:
the caches' typed columns, and with the kernel loaded the caches' scalars
and :class:`HierarchyStats`' counters as C fields.  Where a Python body
schedules a ``functools.partial`` of a handler, the kernel schedules an
event that runs the handler in C while the hierarchy resolves its name to
the function in :data:`_EVENT_HANDLERS`, and calls it by name otherwise.
"""

from __future__ import annotations

from functools import partial

from repro.cache import base as _base
from repro.cache.base import MODIFIED, SHARED, SetAssociativeCache
from repro.cache.mshr import MshrFile
from repro.cache.prefetcher import StreamPrefetcher
from repro.config import SystemConfig
from repro.dram.transaction import Transaction
from repro.telemetry.registry import LatencyHistogram

#: The compiled per-access path, or None: the Python bodies are the
#: hierarchy.  :mod:`repro.cache.base` loads it, as its cache array
#: derives from the kernel's ``CacheBase``.
_kernel = _base._kernel


def implementation() -> str:
    """``"compiled"`` when the kernel runs the per-access path, else
    ``"python"``."""
    return "python" if _kernel is None else "compiled"


#: Extra CPU cycles when a remote L1 holds the line Modified.
INTERVENTION_PENALTY = 12
#: Retry interval for structural hazards (full MSHR / full DRAM queue).
RETRY_INTERVAL = 4


class LoadAccess:
    """Handle returned to the core for each accepted L1-missing load.

    ``txn`` is filled in if/when the load reaches the DRAM queue, letting
    the naive forwarding mechanism (Section 5.1) promote it in place.
    """

    __slots__ = ("pc", "issue_cycle", "critical", "txn", "went_to_dram")

    def __init__(self, pc, issue_cycle, critical):
        self.pc = pc
        self.issue_cycle = issue_cycle
        self.critical = critical
        self.txn = None
        self.went_to_dram = False


class _L1Hit:
    """The handle of every L1 hit: it never reaches DRAM, so it never
    gains a transaction, and one immutable instance serves them all."""

    __slots__ = ()
    txn = None
    went_to_dram = False


L1_HIT = _L1Hit()


#: The integer counters of :class:`HierarchyStats`, in declaration order.
_COUNTERS = (
    "loads", "l1_load_hits", "l2_load_hits", "dram_loads", "stores",
    "writebacks", "interventions", "invalidations", "prefetches_issued",
    "prefetches_useful",
)


class _Counters:
    """The counters of :class:`HierarchyStats` as Python slots, all zero:
    its base when the kernel is not loaded (the kernel's ``StatsBase``
    holds them as C fields otherwise)."""

    __slots__ = _COUNTERS

    def __init__(self):
        for name in _COUNTERS:
            setattr(self, name, 0)


def _hierarchy_stats(values) -> HierarchyStats:
    """A :class:`HierarchyStats` holding ``values`` in ``FIELDS`` order: how
    a pickled one is read, into the class of the reading process."""
    stats = HierarchyStats()
    for name, value in zip(HierarchyStats.FIELDS, values):
        setattr(stats, name, value)
    return stats


class HierarchyStats(_Counters if _kernel is None else _kernel.StatsBase):
    """Aggregate counters the experiments consume."""

    __slots__ = ("crit_latency", "noncrit_latency", "pc_latency")

    #: Every counter and histogram, the fields ``result_fingerprint`` reads.
    FIELDS = _COUNTERS + __slots__

    def __init__(self):
        super().__init__()
        # L2-miss (DRAM-serviced) load latency distributions, split by
        # issue-time criticality — Figure 6's quantity plus its tails.
        # `total`/`count` are exact, so means are bit-identical to the
        # sum/count pairs these replace.
        self.crit_latency = LatencyHistogram()
        self.noncrit_latency = LatencyHistogram()
        # Per-static-PC DRAM-load latency distribution.
        self.pc_latency: dict[int, LatencyHistogram] = {}

    def mean_latency(self, critical: bool) -> float:
        return (self.crit_latency if critical else self.noncrit_latency).mean

    @property
    def l2_demand_accesses(self) -> int:
        return self.l2_load_hits + self.dram_loads

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_demand_accesses
        return self.l2_load_hits / total if total else 0.0

    def __reduce__(self):
        return _hierarchy_stats, (tuple(getattr(self, n) for n in self.FIELDS),)


class MemoryHierarchy:
    """Private L1Ds + shared L2 + directory, bridging cores to DRAM."""

    def __init__(self, config: SystemConfig, memsys, events):
        if _kernel is not None and config.cores > _kernel.MAX_CORES:
            # Sharer sets are 64-bit masks in the kernel.
            raise ValueError(
                f"the compiled cache hierarchy holds at most "
                f"{_kernel.MAX_CORES} cores, not {config.cores}"
            )
        self.config = config
        self.memsys = memsys
        self.events = events
        self.l1 = [SetAssociativeCache(config.l1d) for _ in range(config.cores)]
        self.l1_mshr = [MshrFile(config.l1d.mshr_entries) for _ in range(config.cores)]
        self.l2 = SetAssociativeCache(config.l2)
        self.l2_mshr = MshrFile(config.l2.mshr_entries)
        self.prefetcher = StreamPrefetcher(config.prefetcher, config.l2.line_bytes)
        self._prefetched_lines: set[int] = set()
        # Directory: L1-line address -> bitmask of the core ids holding a
        # copy (bit c for core c).  A key stays, with mask 0, when its
        # last sharer is dropped by coherence; only an L1 eviction or an
        # L2 back-invalidation deletes it.
        self._dir: dict[int, int] = {}
        self.stats = HierarchyStats()
        self._l1_line = config.l1d.line_bytes
        self._l2_line = config.l2.line_bytes
        self._l1_hit_lat = config.l1d.round_trip_latency
        self._l2_half = config.l2.round_trip_latency // 2
        # Cycles from load/store issue to the L2 access.
        self._l2_delay = self._l1_hit_lat + max(0, self._l2_half - self._l1_hit_lat)
        # Per-core count of stores awaiting an L1 MSHR (the post-commit
        # store buffer).  When it fills, the core must stall commit.
        self._store_backlog = [0] * config.cores
        self.store_buffer_entries = 12
        # Installed by System: wakes a core whose quiescent state this
        # module invalidates from the event domain (store-buffer drains,
        # an outstanding load turning out to be DRAM-bound).  See
        # OutOfOrderCore.skip_plan.
        self._wake_core = lambda core: None
        # Event-trace recorder (attached by System under REPRO_TRACE=1);
        # None during construction/prewarm, so those never record.
        self.trace = None

    def _trace_cache(self, kind: str, core: int, line_addr: int, now=None) -> None:
        # Core-phase callers must pass their explicit ``now``: the engine
        # clock behind _now() only advances at the engine loop tail, so it
        # is stale inside a windowed core step.  Event-phase callers may
        # rely on the fallback.
        if self.trace is not None:
            self.trace.cache_event(
                self._now() if now is None else now, kind, core, line_addr
            )

    # ------------------------------------------------------------------ loads

    def load(self, core, pc, address, critical, magnitude, callback, now):
        """Issue a load.  Returns a handle (the shared :data:`L1_HIT` on
        an L1 hit, else a :class:`LoadAccess`), or None if the L1 MSHR
        file is full (the core must replay the load)."""
        if _kernel is not None:
            return _kernel.load(
                self, core, pc, address, critical, magnitude, callback, now
            )
        stats = self.stats
        l1 = self.l1[core]
        line32 = address - address % self._l1_line
        slot = l1.find(line32)
        if slot is not None:
            # L1 hit: the LRU touch of SetAssociativeCache.lookup, inline.
            clock = l1.clock + 1
            l1.clock = clock
            lru = l1.lru
            l1.checksum += 131 * (clock - lru[slot])
            lru[slot] = clock
            stats.loads += 1
            stats.l1_load_hits += 1
            done = now + self._l1_hit_lat
            self.events.schedule(done, partial(callback, done))
            return L1_HIT

        mshr = self.l1_mshr[core]
        entry = mshr.get(line32)
        if entry is not None:
            stats.loads += 1
            handle = LoadAccess(pc, now, critical)
            entry.waiters.append((handle, callback))
            l2_entry = self.l2_mshr.get(line32 - line32 % self._l2_line)
            if l2_entry is not None and l2_entry.txn is not None:
                handle.txn = l2_entry.txn
                handle.went_to_dram = True
            if critical:
                self._bump_criticality(core, line32, magnitude, now)
            return handle
        entry = mshr.allocate(line32)
        if entry is None:
            return None
        stats.loads += 1
        handle = LoadAccess(pc, now, critical)
        entry.waiters.append((handle, callback))
        self.events.schedule(
            now + self._l2_delay,
            partial(self._access_l2, core, line32, critical, magnitude, False),
        )
        return handle

    # ------------------------------------------------------------------ stores

    def can_accept_store(self, core) -> bool:
        """False when the core's store buffer is full (commit must stall)."""
        if _kernel is not None:
            return _kernel.can_accept_store(self, core)
        return self._store_backlog[core] < self.store_buffer_entries

    def store(self, core, address, now, _retry=False) -> None:
        """Retire a store (called at commit; buffered, non-blocking)."""
        if _kernel is not None:
            return _kernel.store(self, core, address, now, _retry)
        if not _retry:
            self.stats.stores += 1
        l1 = self.l1[core]
        line32 = address - address % self._l1_line
        slot = l1.find(line32)
        if slot is not None:
            # The LRU touch of SetAssociativeCache.lookup, inline.
            clock = l1.clock + 1
            l1.clock = clock
            lru = l1.lru
            l1.checksum += 131 * (clock - lru[slot])
            lru[slot] = clock
            if _retry:
                self._store_backlog[core] -= 1
                self._wake_core(core)
            if l1.state[slot] != MODIFIED:
                # Upgrade S -> M: invalidate remote sharers.
                self._invalidate_remote(core, line32, now)
                l1.set_state(slot, MODIFIED)
            if not l1.dirty[slot]:
                l1.set_dirty(slot)
            return
        # Write-allocate: read-for-ownership through the miss path.
        mshr = self.l1_mshr[core]
        entry = mshr.get(line32)
        if entry is not None:
            if _retry:
                self._store_backlog[core] -= 1
                self._wake_core(core)
            entry.rfo = True
            return
        entry = mshr.allocate(line32)
        if entry is None:
            # Hold the store in the core's store buffer and retry; the
            # buffer's occupancy gates commit via can_accept_store().
            if not _retry:
                self._store_backlog[core] += 1
            self.events.schedule(
                now + RETRY_INTERVAL,
                partial(self.store, core, address, now + RETRY_INTERVAL, True),
            )
            return
        if _retry:
            self._store_backlog[core] -= 1
            self._wake_core(core)
        entry.rfo = True
        self.events.schedule(
            now + self._l2_delay,
            partial(self._access_l2, core, line32, False, 0, True),
        )

    # -------------------------------------------------------------- L2 access

    def _access_l2(self, core, line32, critical, magnitude, is_rfo) -> None:
        if _kernel is not None:
            return _kernel.access_l2(self, core, line32, critical, magnitude, is_rfo)
        now = self._now()
        line64 = line32 - line32 % self._l2_line
        hit = self.l2.lookup(line64) is not None
        self._train_prefetcher(line64, is_miss=not hit)
        if hit:
            if line64 in self._prefetched_lines:
                self._prefetched_lines.discard(line64)
                self.stats.prefetches_useful += 1
            penalty = self._resolve_remote_copies(core, line64, is_rfo)
            if not is_rfo:
                self.stats.l2_load_hits += 1
            done = now + self._l2_half + penalty
            self.events.schedule(
                done, partial(self._fill_l1_and_respond, core, line32, is_rfo, done)
            )
            return
        # L2 miss -> DRAM.
        entry = self.l2_mshr.get(line64)
        if entry is not None:
            entry.waiters.append((core, line32, is_rfo))
            if critical and entry.txn is not None:
                txn = entry.txn
                if not txn.critical:
                    # Batched engine: settle the channel's open gap before
                    # the flag flips (no-op in the per-cycle engines).
                    self.memsys.presettle(txn, now, event_phase=True)
                txn.critical = True
                if magnitude > txn.magnitude:
                    txn.magnitude = magnitude
            return
        entry = self.l2_mshr.allocate(line64)
        if entry is None:
            self.events.schedule(
                now + RETRY_INTERVAL,
                partial(self._access_l2, core, line32, critical, magnitude, is_rfo),
            )
            return
        entry.waiters.append((core, line32, is_rfo))
        txn = self.memsys.make_transaction(
            line64,
            is_write=False,
            core=core,
            critical=critical,
            magnitude=magnitude,
            callback=partial(self._dram_fill, line64),
        )
        entry.txn = txn
        self._mark_handles_dram(core, line32, txn)
        self._enqueue_with_retry(txn)

    def _bump_criticality(self, core, line32, magnitude, now) -> None:
        """A critical load merged into an outstanding miss: raise urgency.

        Reached only from :meth:`load`, i.e. from the core phase of the
        cycle (after the memory phase already ran).  ``now`` is the
        caller's explicit cycle — the engine clock is stale here when the
        core is stepping inside a window.
        """
        entry = self.l2_mshr.get(line32 - line32 % self._l2_line)
        if entry is not None and entry.txn is not None:
            txn = entry.txn
            if not txn.critical:
                # Batched engine: settle the channel's open gap before the
                # flag flips (no-op in the per-cycle engines).
                self.memsys.presettle(txn, now, event_phase=False)
            txn.critical = True
            if magnitude > txn.magnitude:
                txn.magnitude = magnitude

    def _mark_handles_dram(self, core, line32, txn) -> None:
        entry = self.l1_mshr[core].get(line32)
        if entry is None:
            return
        for handle, _cb in entry.waiters:
            handle.txn = txn
            handle.went_to_dram = True
        self._wake_core(core)

    def _enqueue_with_retry(self, txn) -> None:
        if not self.memsys.try_enqueue(txn, self._now()):
            self.events.schedule(
                self._now() + RETRY_INTERVAL, partial(self._enqueue_with_retry, txn)
            )

    # ----------------------------------------------------------- DRAM return

    def _dram_fill(self, line64, dram_done) -> None:
        if _kernel is not None:
            return _kernel.dram_fill(self, line64, dram_done)
        cpu_done = self.memsys.dram_to_cpu(dram_done)
        self.events.schedule(cpu_done, partial(self._install_l2_fill, line64, cpu_done))

    def _install_l2_fill(self, line64, now) -> None:
        if _kernel is not None:
            return _kernel.install_l2_fill(self, line64, now)
        entry = self.l2_mshr.release(line64)
        self._trace_cache("l2_fill", -1, line64)
        victim = self.l2.insert(line64)
        if victim is not None:
            self._evict_l2_line(victim[0], victim[2])
        respond_at = now + self._l2_half
        schedule = self.events.schedule
        fill = self._fill_l1_and_respond
        for core, line32, is_rfo in entry.waiters:
            schedule(respond_at, partial(fill, core, line32, is_rfo, respond_at))
        if entry.waiters:
            self.stats.dram_loads += 1

    def _fill_l1_and_respond(self, core, line32, is_rfo, now) -> None:
        if _kernel is not None:
            return _kernel.fill_l1_and_respond(self, core, line32, is_rfo, now)
        mshr = self.l1_mshr[core]
        entry = mshr.get(line32)
        rfo = is_rfo or (entry is not None and entry.rfo)
        if rfo:
            self._invalidate_remote(core, line32)
        victim = self.l1[core].insert(line32, MODIFIED if rfo else SHARED, rfo)
        if victim is not None:
            self._evict_l1_line(core, *victim)
        directory = self._dir
        directory[line32] = directory.get(line32, 0) | (1 << core)
        if entry is not None:
            released = mshr.release(line32)
            stats = self.stats
            pc_latency = stats.pc_latency
            for handle, callback in released.waiters:
                if callback is None:
                    continue
                if handle.went_to_dram:
                    latency = now - handle.issue_cycle
                    if handle.critical:
                        stats.crit_latency.record(latency)
                    else:
                        stats.noncrit_latency.record(latency)
                    hist = pc_latency.get(handle.pc)
                    if hist is None:
                        hist = pc_latency[handle.pc] = LatencyHistogram()
                    hist.record(latency)
                callback(now)

    # ----------------------------------------------------------- coherence

    def _resolve_remote_copies(self, core, line64, is_rfo) -> int:
        """Handle remote L1 copies on an L2 hit; returns extra latency.

        Sharers are visited in ascending core id."""
        if _kernel is not None:
            return _kernel.resolve_remote_copies(self, core, line64, is_rfo)
        penalty = 0
        directory = self._dir
        l1s = self.l1
        l2 = self.l2
        stats = self.stats
        others = ~(1 << core)
        for line32 in self._covered_l1_lines(line64):
            sharers = directory.get(line32)
            if not sharers:
                continue
            todo = sharers & others
            while todo:
                bit = todo & -todo
                todo ^= bit
                other = bit.bit_length() - 1
                l1 = l1s[other]
                slot = l1.peek(line32)
                if slot is None:
                    sharers ^= bit
                    continue
                if l1.state[slot] == MODIFIED:
                    # Writeback to L2, downgrade (or invalidate on RFO).
                    l2slot = l2.peek(line64)
                    if l2slot is not None:
                        l2.set_dirty(l2slot)
                    penalty = INTERVENTION_PENALTY
                    stats.interventions += 1
                    if not is_rfo:
                        l1.set_state(slot, SHARED)
                        l1.set_dirty(slot, False)
                        continue
                elif not is_rfo:
                    continue
                # RFO: the remote copy goes.
                l1.invalidate(line32)
                sharers ^= bit
                stats.invalidations += 1
                self._trace_cache("inval", other, line32)
            directory[line32] = sharers
        return penalty

    def _invalidate_remote(self, core, line32, now=None) -> None:
        if _kernel is not None:
            return _kernel.invalidate_remote(self, core, line32, now)
        directory = self._dir
        sharers = directory.get(line32)
        if not sharers:
            return
        mine = sharers & (1 << core)
        todo = sharers ^ mine
        if not todo:
            return
        l1s = self.l1
        l2 = self.l2
        stats = self.stats
        line64 = line32 - line32 % self._l2_line
        while todo:
            bit = todo & -todo
            todo ^= bit
            other = bit.bit_length() - 1
            gone = l1s[other].invalidate(line32)
            if gone is not None:
                if gone[1] == MODIFIED:
                    l2slot = l2.peek(line64)
                    if l2slot is not None:
                        l2.set_dirty(l2slot)
                stats.invalidations += 1
                self._trace_cache("inval", other, line32, now)
        directory[line32] = mine

    # ------------------------------------------------------------- evictions

    def _evict_l1_line(self, core, line_addr, state, dirty) -> None:
        if _kernel is not None:
            return _kernel.evict_l1_line(self, core, line_addr, state, dirty)
        directory = self._dir
        sharers = directory.get(line_addr)
        if sharers is not None:
            sharers &= ~(1 << core)
            if sharers:
                directory[line_addr] = sharers
            else:
                del directory[line_addr]
        if dirty or state == MODIFIED:
            l2 = self.l2
            slot = l2.peek(line_addr - line_addr % self._l2_line)
            if slot is not None:
                l2.set_dirty(slot)

    def _evict_l2_line(self, line64, dirty) -> None:
        if _kernel is not None:
            return _kernel.evict_l2_line(self, line64, dirty)
        # Inclusive L2: back-invalidate every covered L1 line everywhere,
        # in ascending core id.
        directory = self._dir
        l1s = self.l1
        stats = self.stats
        for line32 in self._covered_l1_lines(line64):
            sharers = directory.pop(line32, None)
            while sharers:
                bit = sharers & -sharers
                sharers ^= bit
                core = bit.bit_length() - 1
                gone = l1s[core].invalidate(line32)
                if gone is not None:
                    if gone[1] == MODIFIED or gone[2]:
                        dirty = True
                    stats.invalidations += 1
                    self._trace_cache("inval", core, line32)
        self._prefetched_lines.discard(line64)
        if dirty:
            self._trace_cache("dirty_evict", -1, line64)
            self._writeback(line64)

    def _writeback(self, line64) -> None:
        self.stats.writebacks += 1
        txn = self.memsys.make_transaction(line64, is_write=True)
        self._enqueue_with_retry(txn)

    # ------------------------------------------------------------ prefetching

    def _train_prefetcher(self, line64, is_miss) -> None:
        for address in self.prefetcher.observe(line64, is_miss):
            target = self.l2.line_addr(address)
            if self.l2.peek(target) is not None or self.l2_mshr.get(target) is not None:
                continue
            entry = self.l2_mshr.allocate(target)
            if entry is None:
                return
            txn = self.memsys.make_transaction(
                target,
                is_write=False,
                core=-1,
                callback=partial(self._dram_fill, target),
            )
            entry.txn = txn
            self._prefetched_lines.add(target)
            self.stats.prefetches_issued += 1
            self._enqueue_with_retry(txn)

    def prewarm(self, core: int, ranges) -> None:
        """Pre-populate caches per a trace's ``prewarm`` hints.

        Models the paper's fast-forward warmup: level-1 ranges are installed
        in the owning core's L1 (Shared) and in the L2; level-2 ranges go to
        the L2 only.  Insertion respects capacity (LRU evicts as usual), and
        the directory is kept consistent.

        Each range goes in with one bulk ``insert_range`` per level; the
        result equals inserting line by line, directory and back-
        invalidations included (``tests/test_prewarm.py``).  Victims are
        evicted after their level's bulk call, in eviction order.  That
        is safe because an eviction never touches the cache being filled:
        an L2 victim reaches the L1s, the directory and the DRAM write
        queue, an L1 victim the directory and the L2's dirty bits.
        """
        l1 = self.l1[core]
        l2 = self.l2
        directory = self._dir
        bit = 1 << core
        capacity = l1.ways * l1.num_sets
        for base, nbytes, level in ranges:
            stop = base + nbytes
            for line64, _state, dirty in l2.insert_range(
                base - base % self._l2_line, stop
            ):
                self._evict_l2_line(line64, dirty)
            if level > 1:
                continue
            first = base - base % self._l1_line
            for victim in l1.insert_range(first, stop):
                self._evict_l1_line(core, *victim)
            # Line by line, a line's directory bit is set at its insert
            # and cleared again if a later insert of the range evicts it,
            # so the final bit is set exactly for the lines still
            # resident: the range's last ``capacity`` lines.  Each line
            # takes a newer stamp than any line already in its set, so a
            # set evicts the range's lines only in order, once its ways
            # are full.
            lines = range(first, stop, self._l1_line)
            for line32 in lines[max(0, len(lines) - capacity):]:
                directory[line32] = directory.get(line32, 0) | bit

    def _covered_l1_lines(self, line64: int):
        return range(line64, line64 + self._l2_line, self._l1_line)

    # -------------------------------------------------------------- telemetry

    def register_metrics(self, registry, prefix: str = "hier") -> None:
        """Register this hierarchy's instruments under ``prefix``.

        The latency histograms are the live stats objects, so recording
        stays a single method call; everything marked ``sampled`` is
        event-driven (updated only at stepped cycles) and therefore
        window-constant, as the interval sampler requires.
        """
        stats = self.stats
        registry.histogram(f"{prefix}.crit_latency", stats.crit_latency)
        registry.histogram(f"{prefix}.noncrit_latency", stats.noncrit_latency)
        registry.gauge(f"{prefix}.loads", lambda: stats.loads, sampled=True)
        registry.gauge(f"{prefix}.dram_loads",
                       lambda: stats.dram_loads, sampled=True)
        registry.gauge(f"{prefix}.l1_load_hits", lambda: stats.l1_load_hits)
        registry.gauge(f"{prefix}.l2_load_hits", lambda: stats.l2_load_hits)
        registry.gauge(f"{prefix}.writebacks", lambda: stats.writebacks)
        registry.gauge(f"{prefix}.prefetches_issued",
                       lambda: stats.prefetches_issued)
        registry.gauge(f"{prefix}.l2_mshr_occupancy",
                       lambda: len(self.l2_mshr), sampled=True)
        # Epoch-resolved criticality latency: sampling cumulative
        # count/total lets consumers difference adjacent samples into
        # per-epoch means (histograms themselves are never sampled).
        registry.gauge(f"{prefix}.crit_latency_count",
                       lambda: stats.crit_latency.count, sampled=True)
        registry.gauge(f"{prefix}.crit_latency_total",
                       lambda: stats.crit_latency.total, sampled=True)
        registry.gauge(f"{prefix}.noncrit_latency_count",
                       lambda: stats.noncrit_latency.count, sampled=True)
        registry.gauge(f"{prefix}.noncrit_latency_total",
                       lambda: stats.noncrit_latency.total, sampled=True)

    def det_state(self) -> list[int]:
        """Architectural state words for the determinism hash-chain.

        Directory, prefetch bookkeeping, store backlogs, and MSHR files
        change only inside load/store/event handlers — all of which run
        at stepped cycles — so everything here is constant during
        quiescent fast-forward windows.  Set contents are reduced to
        order-insensitive aggregates (sizes); dict iteration in the MSHR
        views is insertion-ordered and hence deterministic.
        """
        values = [
            len(self._dir),
            len(self._prefetched_lines),
            sum(self._store_backlog),
        ]
        for mshr in self.l1_mshr:
            values.extend(mshr.det_state())
        values.extend(self.l2_mshr.det_state())
        for cache in self.l1:
            values.extend(cache.det_state())
        values.extend(self.l2.det_state())
        return values

    # ------------------------------------------------------------------ clock

    def bind_clock(self, clock_fn) -> None:
        """Install the closure returning the current CPU cycle."""
        self._now = clock_fn

    def bind_core_waker(self, wake_fn) -> None:
        """Install the per-core wake callback used by cycle skipping."""
        self._wake_core = wake_fn

    def detach(self) -> None:
        """Cut what a finished run leaves pointing back into the machine:
        the clock and core-waker closures over the System, and the
        callbacks of misses still in flight (DESIGN.md §6)."""
        now = self._now()
        self.bind_clock(lambda: now)
        self.bind_core_waker(lambda core: None)
        for mshr in self.l1_mshr:
            mshr.abandon()
        self.l2_mshr.abandon()


#: The handlers the kernel schedules as events, as :class:`MemoryHierarchy`
#: defines them.  An event runs its handler in C, without the Python
#: frame, while the hierarchy still resolves the name to this function; a
#: handler replaced on the class or set on the instance is called by
#: name, so a wrapper sees every call (DESIGN.md §6).
_EVENT_HANDLERS = (
    MemoryHierarchy._access_l2,
    MemoryHierarchy._fill_l1_and_respond,
    MemoryHierarchy.store,
    MemoryHierarchy._dram_fill,
    MemoryHierarchy._install_l2_fill,
)
