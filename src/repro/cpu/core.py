"""Cycle-stepped out-of-order core (paper Table 1 machine).

Modeled structure, per cycle:

* **Dispatch** — in order, up to ``fetch_width`` per cycle, gated by ROB
  space, load/store-queue entries (allocated at dispatch, freed at commit),
  and branch-misprediction refill stalls (resolve + 9-cycle penalty).
* **Execute** — an instruction issues once all producers have completed;
  per-type functional-unit slots bound issues per cycle (2 INT / 2 FP /
  2 branch / 2 load ports / 2 store ports).  Non-memory latencies are
  fixed; loads go to the cache hierarchy and complete when data returns.
* **Commit** — in order, up to ``commit_width`` per cycle.  An incomplete
  load at the ROB head *blocks* commit: this is the event the Commit Block
  Predictor observes (block start) and measures (stall length, written back
  at the blocked load's commit).

The core reports three things to its criticality provider: annotations for
issued loads, block starts, and blocked-commit stall times — plus direct-
consumer counts for the CLPT comparator.

:meth:`OutOfOrderCore.step` and the stages it runs every busy cycle
(``_complete_at``, ``_do_load_issues``, ``_do_commit``, ``_do_dispatch``
and the ring helpers ``_book_and_schedule`` and ``_take_bucket``) are also
compiled (``_kernel.c``, built by :mod:`repro.cpu.native`).  Each opens
with one guard that hands the call to the kernel when it is loaded; the
Python body after the guard is the reference the kernel transliterates,
and the core when no compiler is available.  Both work on the same
storage: the cycle-keyed tables are fixed-size rings in ``array("q")``
buffers (see :func:`ring_size`), the dependency columns are a
``bytearray`` and ``array("q")`` chains, and with the kernel loaded the
core's scalars, the objects it reads every cycle and its
:class:`CoreStats` counters are C fields of the kernel's base types
``CoreBase`` and ``StatsBase``, which the Python bodies read and write
as attributes.
"""

from __future__ import annotations

from array import array

from repro.config import CoreConfig
from repro.cpu import native
from repro.cpu.instruction import BRANCH, LOAD, STORE
from repro.core.provider import CriticalityProvider, NaiveForwardingProvider

#: The compiled stages, or None: the Python bodies are the core.
_kernel = native.CPU.load()

#: The counters of :class:`CoreStats`, in declaration order.
_STAT_FIELDS = (
    "committed", "cycles", "loads", "blocking_loads", "blocking_dram_loads",
    "blocked_cycles", "blocked_dram_cycles", "total_block_stall",
    "lq_full_cycles", "sq_full_cycles", "rob_full_cycles",
    "dispatch_stall_cycles", "critical_loads_sent",
)


def implementation() -> str:
    """``"compiled"`` when the kernel runs the per-cycle stages, else
    ``"python"``."""
    return "python" if _kernel is None else "compiled"

# Sentinel for "no locally scheduled wake/issue pending" (see _next_local).
_FAR = 1 << 62


def ring_size(config: CoreConfig) -> int:
    """Slots in each of a core's cycle rings: a power of two.

    The rings (functional-unit reservations and the two schedules) serve
    cycles from the current one on.  A booking starts at the current
    cycle or the next, and every unit it queues behind is held by another
    in-flight ROB entry, so it lands at most ``ceil(rob_entries / units)
    + 1`` cycles ahead; a completion is scheduled at most the largest
    fixed latency after that.  The ring is the smallest power of two
    above that reach.
    """
    units = min(
        config.int_units, config.fp_units, config.branch_units,
        config.load_ports, config.store_ports,
    )
    reach = (
        -(-config.rob_entries // units) + 1
        + max(config.int_latency, config.fp_latency, config.branch_latency, 1)
    )
    return 1 << reach.bit_length()

# Dispatch classes precomputed per trace index (_dclass): the per-cycle
# dispatch gate only needs "load / store / mispredicted branch / other",
# not the full itype, and one byte lookup beats two column indexes plus
# a comparison chain in the hot loop.
_DC_OTHER = 0
_DC_LOAD = 1
_DC_STORE = 2
_DC_MISP_BRANCH = 3
# itype -> dispatch class, as a bytes.translate table; mispredicted
# branches are marked separately.
_DC_OF_ITYPE = bytes(
    _DC_LOAD if t == LOAD else _DC_STORE if t == STORE else _DC_OTHER
    for t in range(256)
)


class _Counters:
    """The counters of :class:`CoreStats` as Python slots, all zero: its
    base when the kernel is not loaded (the kernel's ``StatsBase`` holds
    them as C fields otherwise)."""

    __slots__ = _STAT_FIELDS

    def __init__(self):
        for name in _STAT_FIELDS:
            setattr(self, name, 0)


def _core_stats(values) -> CoreStats:
    """A :class:`CoreStats` holding ``values`` in ``FIELDS`` order: how a
    pickled one is read, into the class of the reading process."""
    stats = CoreStats()
    for name, value in zip(CoreStats.FIELDS, values):
        setattr(stats, name, value)
    return stats


class CoreStats(_Counters if _kernel is None else _kernel.StatsBase):
    """Per-core counters for Figures 1/6/9 and predictor studies."""

    __slots__ = ()

    #: Every counter, the fields ``result_fingerprint`` reads.
    FIELDS = _STAT_FIELDS

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def __reduce__(self):
        return _core_stats, (tuple(getattr(self, n) for n in self.FIELDS),)


class OutOfOrderCore(object if _kernel is None else _kernel.CoreBase):
    """One core executing one trace against the shared hierarchy."""

    def __init__(
        self,
        core_id: int,
        config: CoreConfig,
        trace,
        hierarchy,
        provider: CriticalityProvider | None = None,
        events=None,
    ):
        self.core_id = core_id
        self.config = config
        self.trace = trace
        self.hierarchy = hierarchy
        self.events = events
        self.provider = provider if provider is not None else CriticalityProvider()
        if isinstance(self.provider, NaiveForwardingProvider) and events is not None:
            self.provider.bind_defer(events.schedule, hierarchy.memsys.presettle)
        self._n = len(trace)
        self._ptr = 0
        # The ROB always holds the consecutive trace indices
        # [_ptr - _rob_len, _ptr), so index ``i`` occupies the fixed ring
        # position ``i % rob_entries`` — no head pointer, no index map, no
        # compaction.  An entry's static fields are read from the trace's
        # own columns; its dynamic fields are the columns below, one slot
        # per ring position (DESIGN.md §6).
        cap = config.rob_entries
        self._rob_len = 0
        # 1 when the entry completes, 0 when the next one dispatches into
        # its slot.  A completion is recorded at the cycle it is
        # processed, and completions run before dispatch, so a done
        # producer never constrains a consumer's issue cycle.
        self._done = bytearray(cap)
        # Producers still in flight; written only for an entry waiting on one.
        self._pending = array("q", [0]) * cap
        # The entries waiting on each one, in dispatch order and dep1
        # before dep2: a FIFO chain of operand codes (2 * trace index, plus
        # 1 for dep2) from _wait_head to _wait_tail at the producer's
        # position (head -1: none), linked through _wait_next at each
        # code modulo 2 * rob_entries, the slot of that entry's operand.
        self._wait_head = array("q", [-1]) * cap
        self._wait_tail = array("q", [-1]) * cap
        self._wait_next = array("q", [-1]) * (2 * cap)
        # Load-only columns, reset when the load retires:
        self._handle = [None] * cap  # hierarchy access, set at issue
        self._consumers = [0] * cap  # direct consumers (the CLPT count)
        self._bstart = [-1] * cap  # cycle the load began blocking commit
        # Per-itype tables, indexed by the itype codes INT..STORE (0..4):
        # functional units and fixed latencies (loads complete when data
        # returns).
        self._fu_caps = (
            config.int_units, config.fp_units, config.branch_units,
            config.load_ports, config.store_ports,
        )
        self._latency = (
            config.int_latency, config.fp_latency, config.branch_latency, 0, 1,
        )
        # Cycle rings: slot ``c & _ring_mask`` serves cycle ``c``, for
        # every cycle from the current one to the ring's reach (see
        # ring_size; an insert beyond it raises).  Per itype, the units
        # booked at cycle ``c`` when the slot's tag is ``c``, else none.
        ring = ring_size(config)
        self._ring_mask = ring - 1
        self._fu_tag = tuple(array("q", [-1]) * ring for _ in range(5))
        self._fu_count = tuple(array("q", [0]) * ring for _ in range(5))
        # The two schedules, deterministic-latency completions and loads
        # due to access the cache: per slot, the first and last trace
        # index of the cycle's bucket (head -1: empty), in the order they
        # were scheduled, chained through ``_link`` at their ring
        # positions (an entry sits in at most one bucket at a time).
        self._wake_head = array("q", [-1]) * ring
        self._wake_tail = array("q", [-1]) * ring
        self._issue_head = array("q", [-1]) * ring
        self._issue_tail = array("q", [-1]) * ring
        self._link = array("q", [-1]) * cap
        # A schedule ring with no bucket, never written: comparing against
        # it spares the Python bodies a slot-by-slot scan of empty rings.
        self._empty_ring = array("q", [-1]) * ring
        self._lq_used = 0
        self._sq_used = 0
        # Trace index of the mispredicted branch fetch waits on, or -1.
        self._fetch_blocker = -1
        self._fetch_resume = 0
        # Dispatch class per trace index (see _DC_* above).
        itypes = trace.itypes
        dclass = bytearray(itypes).translate(_DC_OF_ITYPE)
        misp = bytes(trace.misp)
        i = misp.find(1)
        while i >= 0:
            if itypes[i] == BRANCH:
                dclass[i] = _DC_MISP_BRANCH
            i = misp.find(1, i + 1)
        self._dclass = dclass
        # Earliest cycle with a bucket in either schedule, or _FAR: inserts
        # lower it, taking a bucket moves it to the next one.  Purely
        # derived state — never observable in results.
        self._next_local = _FAR
        # Hot-path copies of per-run-constant configuration (attribute
        # loads off ``self`` are cheaper than two-level ``config`` reads
        # in the per-cycle stages).
        self._fetch_width = config.fetch_width
        self._commit_width = config.commit_width
        self._rob_entries = cap
        self._lq_entries = config.load_queue_entries
        self._sq_entries = config.store_queue_entries
        self._misp_penalty = config.branch_mispredict_penalty
        self.stats = CoreStats()
        self.done = False
        # Cycle-skipping state (see skip_plan): while quiescent the system
        # may stop stepping this core until ``skip_until``; the per-cycle
        # stat increments it owes are settled lazily by flush_skip.
        self.skip_until = 0
        self._quiet_deltas = None
        self._quiet_from = 0
        # Hysteresis: after skip_plan says "can progress", don't re-plan for
        # a few cycles.  Purely a throughput knob — skipping fewer cycles is
        # always bit-identical, so this can't change results.
        self.plan_defer = 0
        # Duck-typed providers without next_tick_cycle have unknown tick
        # semantics: they tick every cycle and are never skipped
        # (skip_plan bails).
        self._next_tick = getattr(self.provider, "next_tick_cycle", None)
        # The provider's tick runs only at cycles at or after this one:
        # its next_tick_cycle, asked here and after each real tick (see
        # _tick); _FAR when it says none.  Derived from provider state.
        self._tick_at = 0
        if self._next_tick is not None:
            due = self._next_tick(-1)
            self._tick_at = _FAR if due is None else due
        # Wake subscription (batched engine): installed while the core is
        # quiescent; called whenever ``skip_until`` is cleared so the
        # engine learns about external wakes without scanning cores.
        self._wake_hook = None
        # Event-trace recorder (attached by System under REPRO_TRACE=1).
        self.tracer = None

    # --------------------------------------------------------------- helpers

    def _rob_occupancy(self) -> int:
        return self._rob_len

    def _book_and_schedule(self, i: int, earliest: int, now: int) -> None:
        """Book a functional unit for the trace index ``i`` at or after
        cycle ``earliest`` and schedule it: a load's cache access at the
        booked cycle, anything else's completion its fixed latency later.

        ``now`` is the current cycle.  A cycle ``now`` plus the ring size
        or later would land on a live slot, so it raises RuntimeError
        before anything is written.
        """
        if _kernel is not None:
            return _kernel.book_and_schedule(self, i, earliest, now)
        itype = self.trace.itypes[i]
        tags = self._fu_tag[itype]
        counts = self._fu_count[itype]
        limit = self._fu_caps[itype]
        mask = self._ring_mask
        cycle = earliest
        slot = cycle & mask
        used = counts[slot] if tags[slot] == cycle else 0
        while used >= limit:
            cycle += 1
            slot = cycle & mask
            used = counts[slot] if tags[slot] == cycle else 0
        if itype == LOAD:
            at = cycle
            head = self._issue_head
            tail = self._issue_tail
        else:
            at = cycle + self._latency[itype]
            head = self._wake_head
            tail = self._wake_tail
        if at - now > mask:
            raise RuntimeError(
                f"core {self.core_id}: cycle {at} is beyond its "
                f"{mask + 1}-slot cycle rings at cycle {now}"
            )
        tags[slot] = cycle
        counts[slot] = used + 1
        link = self._link
        cap = self._rob_entries
        slot = at & mask
        if head[slot] < 0:
            head[slot] = i
        else:
            link[tail[slot] % cap] = i
        tail[slot] = i
        link[i % cap] = -1
        if at < self._next_local:
            self._next_local = at

    def _take_bucket(self, head, now: int) -> list[int]:
        """Empty the bucket of cycle ``now`` in the schedule ``head``
        (``_wake_head`` or ``_issue_head``); return its trace indices in
        the order they were scheduled.  ``_next_local`` moves to the
        earliest cycle still scheduled."""
        if _kernel is not None:
            return _kernel.take_bucket(self, head, now)
        mask = self._ring_mask
        slot = now & mask
        i = head[slot]
        head[slot] = -1
        # Every scheduled cycle lies in [now, now + ring size).
        wake = self._wake_head
        issue = self._issue_head
        empty = self._empty_ring
        first = _FAR
        if wake != empty or issue != empty:
            for cycle in range(now, now + mask + 1):
                slot = cycle & mask
                if wake[slot] >= 0 or issue[slot] >= 0:
                    first = cycle
                    break
        self._next_local = first
        link = self._link
        cap = self._rob_entries
        bucket = []
        while i >= 0:
            bucket.append(i)
            i = link[i % cap]
        return bucket

    # ----------------------------------------------------------- completions

    def _complete_at(self, finished, cycle: int) -> None:
        """Mark the trace indices ``finished`` complete at ``cycle`` and
        issue every dependent whose last operand that was."""
        if _kernel is not None:
            return _kernel.complete_at(self, finished, cycle)
        clock = self.stats.cycles
        if cycle < clock:
            # The rings serve cycles from the current one on.
            raise RuntimeError(
                f"core {self.core_id}: completion at cycle {cycle}, "
                f"before its clock {clock}"
            )
        self.skip_until = 0  # completions can unblock commit/dispatch
        hook = self._wake_hook
        if hook is not None:
            hook(self)
        done = self._done
        wait_head = self._wait_head
        wait_next = self._wait_next
        cap = self._rob_entries
        slots = 2 * cap
        pending_col = self._pending
        schedule = self._book_and_schedule
        for i in finished:
            pos = i % cap
            done[pos] = 1
            if i == self._fetch_blocker:
                self._fetch_blocker = -1
                self._fetch_resume = cycle + self._misp_penalty
            code = wait_head[pos]
            if code < 0:
                continue
            wait_head[pos] = -1
            while code >= 0:
                d = code >> 1
                dpos = d % cap
                left = pending_col[dpos] - 1
                pending_col[dpos] = left
                following = wait_next[code % slots]
                if not left:
                    # Last operand arrived: book a unit from this cycle on
                    # (the waiter dispatched before it), schedule the result.
                    schedule(d, cycle, cycle)
                code = following

    # ---------------------------------------------------------------- stages

    def _do_load_issues(self, issues, now: int) -> None:
        """Send the loads ``issues`` (trace indices) to the hierarchy."""
        if _kernel is not None:
            return _kernel.load_issues(self, issues, now)
        hierarchy = self.hierarchy
        provider = self.provider
        core_id = self.core_id
        stats = self.stats
        tracer = self.tracer
        pcs = self.trace.pcs
        addrs = self.trace.addrs
        handles = self._handle
        cap = self._rob_entries
        complete_at = self._complete_at
        for i in issues:
            pc = pcs[i]
            critical, magnitude = provider.annotate(pc)
            handle = hierarchy.load(
                core_id,
                pc,
                addrs[i],
                critical,
                magnitude,
                lambda done, i=i: complete_at((i,), done),
                now,
            )
            if handle is None:
                # L1 MSHRs full: replay next cycle through a fresh port slot.
                self._book_and_schedule(i, now + 1, now)
                continue
            handles[i % cap] = handle
            if critical:
                stats.critical_loads_sent += 1
                if tracer is not None:
                    tracer.prediction(now, core_id, pc, magnitude)
            stats.loads += 1

    def _do_commit(self, now: int) -> int:
        """Retire up to ``commit_width`` entries in order; return how many."""
        if _kernel is not None:
            return _kernel.commit(self, now)
        rob_len = self._rob_len
        if not rob_len:
            return 0
        stats = self.stats
        trace = self.trace
        itypes = trace.itypes
        pcs = trace.pcs
        done = self._done
        provider = self.provider
        core_id = self.core_id
        cap = self._rob_entries
        bstart = self._bstart
        consumers = self._consumers
        head = first = self._ptr - rob_len
        stop = head + (rob_len if rob_len < self._commit_width else self._commit_width)
        while head < stop:
            pos = head % cap
            if not done[pos]:
                break
            itype = itypes[head]
            if itype == LOAD:
                pc = pcs[head]
                start = bstart[pos]
                if start >= 0:
                    stall = now - start
                    stats.total_block_stall += stall
                    tracer = self.tracer
                    if tracer is not None:
                        tracer.block_episode(start, core_id, pc, stall)
                    provider.on_blocked_commit(pc, stall, now)
                    bstart[pos] = -1
                provider.on_load_consumers(pc, consumers[pos])
                consumers[pos] = 0
                self._handle[pos] = None
                self._lq_used -= 1
            elif itype == STORE:
                hierarchy = self.hierarchy
                if not hierarchy.can_accept_store(core_id):
                    # Store buffer full: commit stalls until it drains.
                    stats.sq_full_cycles += 1
                    break
                self._sq_used -= 1
                hierarchy.store(core_id, trace.addrs[head], now)
            head += 1
        committed = head - first
        if committed:
            self._rob_len = rob_len - committed
            stats.committed += committed
        if head < stop and itypes[head] == LOAD:
            # An incomplete load blocks the head.  Only long-latency
            # (DRAM-serviced) loads count as ROB-head blockers — the
            # Runahead/CLEAR criterion the CBP is built on.  Short
            # L1/L2-hit head stalls are not criticality events.
            pos = head % cap
            handle = self._handle[pos]
            dram_bound = handle is not None and handle.went_to_dram
            if dram_bound and bstart[pos] < 0:
                bstart[pos] = now
                stats.blocking_loads += 1
                stats.blocking_dram_loads += 1
                provider.on_block_start(pcs[head], now, handle.txn)
            stats.blocked_cycles += 1
            if dram_bound:
                stats.blocked_dram_cycles += 1
        return committed

    def _do_dispatch(self, now: int) -> int:
        """Dispatch up to ``fetch_width`` instructions; return how many.

        Operands are resolved here: a producer still in flight chains the
        new entry's operand on its waiters, and an entry whose operands are all
        done books its functional unit and schedules its completion (or
        its cache access) at once.
        """
        if _kernel is not None:
            return _kernel.dispatch(self, now)
        if self._fetch_blocker >= 0 or now < self._fetch_resume:
            self.stats.dispatch_stall_cycles += 1
            return 0
        ptr = start = self._ptr
        stop = ptr + self._fetch_width
        if stop > self._n:
            stop = self._n
        if ptr >= stop:
            return 0  # trace exhausted
        trace = self.trace
        itypes = trace.itypes
        dep1 = trace.dep1
        dep2 = trace.dep2
        dclass = self._dclass
        done = self._done
        cap = self._rob_entries
        slots = 2 * cap
        wait_head = self._wait_head
        wait_tail = self._wait_tail
        wait_next = self._wait_next
        consumers = self._consumers
        schedule = self._book_and_schedule
        stats = self.stats
        # Constant across the loop: dispatch grows ptr and rob_len together.
        first = ptr - self._rob_len
        while ptr < stop:
            if ptr - first >= cap:
                stats.rob_full_cycles += 1
                break
            cls = dclass[ptr]
            if cls == _DC_LOAD:
                if self._lq_used >= self._lq_entries:
                    stats.lq_full_cycles += 1
                    break
                self._lq_used += 1
            elif cls == _DC_STORE:
                if self._sq_used >= self._sq_entries:
                    break
                self._sq_used += 1
            pending = 0
            # Producer ``p`` is in flight iff p >= first, and then sits at
            # ring position p % cap; a retired producer is long complete.
            # A producer not done yet chains the operand's code at its tail.
            p = ptr - dep1[ptr]
            if p < ptr and p >= first:
                ppos = p % cap
                if itypes[p] == LOAD:
                    # Direct-consumer count, as CLPT tracks at rename.
                    consumers[ppos] += 1
                if not done[ppos]:
                    code = 2 * ptr
                    wait_next[code % slots] = -1
                    if wait_head[ppos] < 0:
                        wait_head[ppos] = code
                    else:
                        wait_next[wait_tail[ppos] % slots] = code
                    wait_tail[ppos] = code
                    pending = 1
            p = ptr - dep2[ptr]
            if p < ptr and p >= first:
                ppos = p % cap
                if itypes[p] == LOAD:
                    consumers[ppos] += 1
                if not done[ppos]:
                    code = 2 * ptr + 1
                    wait_next[code % slots] = -1
                    if wait_head[ppos] < 0:
                        wait_head[ppos] = code
                    else:
                        wait_next[wait_tail[ppos] % slots] = code
                    wait_tail[ppos] = code
                    pending += 1
            pos = ptr % cap
            done[pos] = 0
            if pending:
                self._pending[pos] = pending
            else:
                # Operands ready: book a unit, schedule the result.
                schedule(ptr, now + 1, now)
            ptr += 1
            if cls == _DC_MISP_BRANCH:
                # Fetch stalls until the branch resolves, plus the refill
                # penalty (applied when the branch completes).
                self._fetch_blocker = ptr - 1
                break
        self._ptr = ptr
        self._rob_len = ptr - first
        return ptr - start

    # ------------------------------------------------------------------ step

    def step(self, now: int) -> None:
        """Advance one CPU cycle."""
        if _kernel is not None:
            return _kernel.step(self, now)
        if self.done:
            return
        if self._next_local <= now:
            if self._next_local < now:
                raise RuntimeError(
                    f"core {self.core_id}: cycle {self._next_local} was "
                    f"scheduled but not stepped"
                )
            # Completions first: they may add loads to this cycle's issues.
            slot = now & self._ring_mask
            if self._wake_head[slot] >= 0:
                self._complete_at(self._take_bucket(self._wake_head, now), now)
            if self._issue_head[slot] >= 0:
                self._do_load_issues(
                    self._take_bucket(self._issue_head, now), now
                )
        self._do_commit(now)
        self._do_dispatch(now)
        if now >= self._tick_at:
            self._tick(now)
        self.stats.cycles = now + 1
        if self._ptr >= self._n and not self._rob_len:
            self.done = True

    def _tick(self, now: int) -> None:
        """Run the provider's tick at ``now``, then cache the cycle its
        next tick is due in ``_tick_at`` (step and _do_window tick only
        from that cycle on)."""
        self.provider.tick(now)
        next_tick = self._next_tick
        if next_tick is not None:
            due = next_tick(now)
            self._tick_at = _FAR if due is None else due

    # ------------------------------------------------------ windowed stepping
    #
    # The batched engine advances a core over spans of cycles in one call
    # instead of one step() per cycle.  Soundness rests on the batchability
    # certificates (DESIGN.md section 5.7): during a span in which no global
    # event runs and no other core steps, the only state this core observes
    # changing is its own — local wakes (the two schedules), which the span
    # is clamped to, and global events the span's own cycles schedule, which
    # are re-checked after every consumed cycle.  Between local wakes a
    # cycle is step() minus its empty schedules, so every counter, provider
    # callback, and tracer record lands on the same virtual cycle as in the
    # per-cycle loop.

    def step_window(self, now: int, limit: int) -> int:
        """Advance from cycle ``now`` toward ``limit``; return cycles consumed.

        The caller (the batched engine) guarantees that over ``[now, limit)``
        no global event is due, no DRAM edge needs stepping, and no other
        core is active.  At least one cycle is always consumed.
        """
        events = self.events
        c = now
        while True:
            nl = self._next_local  # earliest local wake or load issue
            if nl <= c:
                # Completions or load issues due this cycle: full step.
                self.step(c)
                c += 1
            else:
                c += self._do_window(c, nl if nl < limit else limit)
            if self.done or c >= limit:
                break
            # Cycles just consumed may have scheduled global events
            # (hierarchy accesses, store retries, provider defers); they
            # bound how much further this window may reach.
            if events is not None:
                ev = events.next_cycle()
                if ev is not None and ev < limit:
                    limit = ev
                    if c >= limit:
                        break
            # Bulk-account provably quiet stretches without returning to
            # the engine loop (same contract as begin_skip/flush_skip).
            if self.plan_defer:
                self.plan_defer -= 1
                continue
            plan = self.skip_plan(c - 1)
            if plan is None:
                self.plan_defer = 3
                continue
            wake, deltas = plan
            target = limit if wake is None else (wake if wake < limit else limit)
            if target > c:
                # repro-batch: cert=OutOfOrderCore.skip_plan
                self._account_quiet(deltas, target - c)
                self.stats.cycles = target
                c = target
                if c >= limit:
                    break
        return c - now

    def _do_window(self, now: int, end: int) -> int:
        """Run the cycles of ``[now, end)``; return cycles consumed (>= 1).

        Caller guarantees no local wake or load issue falls inside the
        span, so each cycle is the per-cycle commit and dispatch stages
        and the provider tick when due — :meth:`step` without its
        schedules (empty here).  Stops after the first cycle that
        neither retires nor dispatches (the skip path bulk-accounts quiet
        stretches), and shrinks ``end`` to wakes this span's dispatches
        schedule and to events its commits and ticks schedule.
        """
        events = self.events
        c = now
        while c < end:
            busy = self._do_commit(c) + self._do_dispatch(c)
            if c >= self._tick_at:
                self._tick(c)
            c += 1
            if self._ptr >= self._n and not self._rob_len:
                self.done = True
                break
            if not busy:
                break
            nl = self._next_local
            if nl < end:
                end = nl
            if events is not None:
                ev = events.next_cycle()
                if ev is not None and ev < end:
                    end = ev
        self.stats.cycles = c
        return c - now

    # -------------------------------------------------------- cycle skipping

    def skip_plan(self, now: int):
        """Classify the core's state after cycle ``now`` for fast-forwarding.

        Returns ``None`` when the core could make progress or wake at
        ``now + 1`` (the system must keep stepping cycle by cycle: a skip
        that ends next cycle would cover no cycle), otherwise a pair
        ``(wake, deltas)``:

        * ``wake`` — earliest future cycle at which stepping this core might
          change its state (``None`` = only external events can wake it);
        * ``deltas`` — the per-cycle stat increments the naive loop would
          apply while the state holds, as a tuple ``(blocked, blocked_dram,
          sq_full, dispatch_stall, rob_full, lq_full)``.

        The classification mirrors :meth:`step` exactly; anything uncertain
        returns ``None`` so skipping stays conservative (and therefore
        bit-identical to the cycle-by-cycle loop).
        """
        if self._next_tick is None:
            return None  # provider tick semantics unknown: never skip
        blocked = blocked_dram = sq_full = stall = rob_full = lq_full = 0

        rob_len = self._rob_len
        if rob_len:
            head = self._ptr - rob_len
            itype = self.trace.itypes[head]
            pos = head % self._rob_entries
            if not self._done[pos]:
                if itype == LOAD:
                    handle = self._handle[pos]
                    dram_bound = handle is not None and handle.went_to_dram
                    if dram_bound and self._bstart[pos] < 0:
                        # First blocked cycle not yet accounted: step it.
                        return None
                    blocked = 1
                    if dram_bound:
                        blocked_dram = 1
            elif itype == STORE and not self.hierarchy.can_accept_store(
                self.core_id
            ):
                sq_full = 1
            else:
                return None  # head commits next cycle

        fetch_resume = 0
        if self._fetch_blocker >= 0:
            stall = 1
        elif now + 1 < self._fetch_resume:
            fetch_resume = self._fetch_resume
            stall = 1
        elif self._ptr < self._n:
            if rob_len >= self._rob_entries:
                rob_full = 1
            else:
                itype = self.trace.itypes[self._ptr]
                if itype == LOAD and self._lq_used >= self._lq_entries:
                    lq_full = 1
                elif (
                    itype == STORE
                    and self._sq_used >= self._sq_entries
                ):
                    pass  # dispatch stalls silently on a full store queue
                else:
                    return None  # dispatch proceeds next cycle

        # Quiescent: gather the cycles at which stepping could matter again.
        wake = self._next_local
        if wake == _FAR:
            wake = None
        if fetch_resume and (wake is None or fetch_resume < wake):
            wake = fetch_resume
        tick = self._tick_at  # the provider's answer, cached at its tick
        if tick != _FAR:
            tick = max(tick, now + 1)
            if wake is None or tick < wake:
                wake = tick
        if wake is not None and wake <= now + 1:
            return None  # a skip that ends next cycle covers no cycle
        return wake, (blocked, blocked_dram, sq_full, stall, rob_full, lq_full)

    def begin_skip(self, plan, now: int, forever: int) -> None:
        """Enter the quiescent state ``skip_plan`` classified at ``now``."""
        wake, deltas = plan
        self._quiet_deltas = deltas
        self._quiet_from = now + 1
        self.skip_until = wake if wake is not None else forever

    def wake_skip(self) -> None:
        """External state change: the core must be stepped again."""
        self.skip_until = 0
        hook = self._wake_hook
        if hook is not None:
            hook(self)

    def flush_skip(self, now: int) -> None:
        """Settle the stat increments owed for cycles skipped before ``now``."""
        deltas = self._quiet_deltas
        self._quiet_deltas = None
        self.skip_until = 0
        skipped = now - self._quiet_from
        if deltas is None or skipped <= 0:
            return
        self._account_quiet(deltas, skipped)
        self.stats.cycles = now

    def _account_quiet(self, deltas, skipped: int) -> None:
        """Apply ``skipped`` cycles' worth of a skip_plan deltas tuple."""
        blocked, blocked_dram, sq_full, stall, rob_full, lq_full = deltas
        stats = self.stats
        if blocked:
            stats.blocked_cycles += skipped
        if blocked_dram:
            stats.blocked_dram_cycles += skipped
        if sq_full:
            stats.sq_full_cycles += skipped
        if stall:
            stats.dispatch_stall_cycles += skipped
        if rob_full:
            stats.rob_full_cycles += skipped
        if lq_full:
            stats.lq_full_cycles += skipped

    # -------------------------------------------------------------- telemetry

    def register_metrics(self, registry, prefix: str) -> None:
        """Register this core's instruments under ``prefix``.

        Sampled gauges change only inside :meth:`step` or completion
        events — never during a quiescent fast-forward window — so the
        interval sampler's stream is skip-invariant.  Lazily-settled
        per-cycle stall counters (``blocked_cycles`` et al.) must never
        be sampled and are exposed unsampled only.
        """
        stats = self.stats
        registry.gauge(f"{prefix}.committed",
                       lambda: stats.committed, sampled=True)
        registry.gauge(f"{prefix}.loads", lambda: stats.loads, sampled=True)
        registry.gauge(f"{prefix}.critical_loads_sent",
                       lambda: stats.critical_loads_sent, sampled=True)
        registry.gauge(f"{prefix}.rob_occupancy",
                       self._rob_occupancy, sampled=True)
        registry.gauge(f"{prefix}.blocking_dram_loads",
                       lambda: stats.blocking_dram_loads)
        registry.gauge(f"{prefix}.blocked_dram_cycles",
                       lambda: stats.blocked_dram_cycles)

    # -------------------------------------------------------------- inspection

    def det_state(self) -> tuple[int, ...]:
        """Architectural state words for the determinism hash-chain.

        Every field is constant while the core is quiescent (they only
        change inside :meth:`step` or in completion events, both of which
        end a fast-forward window), so skip and naive runs sample
        identical values.  Statistics counters are excluded — they are
        settled lazily by :meth:`flush_skip`.
        """
        rob_len = self._rob_len
        return (
            1 if self.done else 0,
            self.stats.committed,
            self._ptr,
            rob_len,
            self._ptr - rob_len if rob_len else -1,
            self._lq_used,
            self._sq_used,
            self._fetch_resume,
            self._fetch_blocker,
        )

    def rob_occupancy(self) -> int:
        return self._rob_occupancy()

    @property
    def instructions_remaining(self) -> int:
        return self._n - self._ptr
