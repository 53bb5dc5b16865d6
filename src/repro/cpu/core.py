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
"""

from __future__ import annotations

from repro.config import CoreConfig
from repro.cpu.instruction import BRANCH, FP, INT, LOAD, STORE
from repro.core.provider import CriticalityProvider, NaiveForwardingProvider

_UNKNOWN = -1
# Sentinel for "no locally scheduled wake/issue pending" (see _next_local).
_FAR = 1 << 62

# Dispatch classes precomputed per trace index (_dclass): the per-cycle
# dispatch gate only needs "load / store / mispredicted branch / other",
# not the full itype, and a bytes lookup beats two list indexes plus a
# comparison chain in the hot loop.
_DC_OTHER = 0
_DC_LOAD = 1
_DC_STORE = 2
_DC_MISP_BRANCH = 3


class _Slot:
    """One ROB entry."""

    __slots__ = (
        "idx",
        "itype",
        "pc",
        "addr",
        "deps_pending",
        "ready_base",
        "dispatch_cycle",
        "waiters",
        "blocking_start",
        "handle",
        "consumers",
        "is_misp_branch",
        "issued",
    )

    def __init__(self, idx, itype, pc, addr, dispatch_cycle):
        self.idx = idx
        self.itype = itype
        self.pc = pc
        self.addr = addr
        self.deps_pending = 0
        self.ready_base = dispatch_cycle
        self.dispatch_cycle = dispatch_cycle
        self.waiters = None
        self.blocking_start = -1
        self.handle = None
        self.consumers = 0
        self.is_misp_branch = False
        self.issued = False


class CoreStats:
    """Per-core counters for Figures 1/6/9 and predictor studies."""

    def __init__(self):
        self.committed = 0
        self.cycles = 0
        self.loads = 0
        self.blocking_loads = 0
        self.blocking_dram_loads = 0
        self.blocked_cycles = 0
        self.blocked_dram_cycles = 0
        self.total_block_stall = 0
        self.lq_full_cycles = 0
        self.sq_full_cycles = 0
        self.rob_full_cycles = 0
        self.dispatch_stall_cycles = 0
        self.critical_loads_sent = 0

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0


class OutOfOrderCore:
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
        # [_ptr - _rob_len, _ptr), so the slot for index ``i`` lives at the
        # fixed ring position ``i % rob_entries`` — no head pointer, no
        # index map, no compaction.
        self._rob: list[_Slot | None] = [None] * config.rob_entries
        self._rob_len = 0
        self._complete: list[int] = [_UNKNOWN] * self._n
        # Per-cycle wake lists for deterministic-latency completions.
        self._wake: dict[int, list[_Slot]] = {}
        # Loads scheduled to access the cache at a given cycle.
        self._load_issue: dict[int, list[_Slot]] = {}
        # Functional-unit reservation: per type, cycle -> issues booked.
        self._fu_booked: dict[int, dict[int, int]] = {t: {} for t in range(5)}
        self._fu_caps = {
            INT: config.int_units,
            FP: config.fp_units,
            BRANCH: config.branch_units,
            LOAD: config.load_ports,
            STORE: config.store_ports,
        }
        self._latency = {
            INT: config.int_latency,
            FP: config.fp_latency,
            BRANCH: config.branch_latency,
            STORE: 1,
        }
        self._lq_used = 0
        self._sq_used = 0
        self._fetch_blocker: _Slot | None = None
        self._fetch_resume = 0
        # Precomputed dispatch class per trace index (see _DC_* above).
        # Cached on the trace object — the classes are a pure function of
        # the (append-only) trace contents, and benchmarks/repeat runs
        # rebuild cores from the same traces; the length guard invalidates
        # the cache if the trace grew since it was computed.
        cached = getattr(trace, "_dclass_cache", None)
        if cached is not None and cached[0] == self._n:
            self._dclass = cached[1]
        else:
            itypes = trace.itypes
            misp = trace.misp
            self._dclass = bytes(
                _DC_MISP_BRANCH if (itypes[i] == BRANCH and misp[i])
                else _DC_LOAD if itypes[i] == LOAD
                else _DC_STORE if itypes[i] == STORE
                else _DC_OTHER
                for i in range(self._n)
            )
            try:
                trace._dclass_cache = (self._n, self._dclass)
            # repro-lint: disable=EXC002 slotted stand-in traces need no cache
            except AttributeError:
                pass
        # Conservative lower bound on the earliest cycle in _wake /
        # _load_issue.  Inserts lower it eagerly; consumers recompute the
        # exact minimum when the bound goes stale (<= current cycle).
        # Purely derived state — never observable in results.
        self._next_local = 0
        # Hot-path copies of per-run-constant configuration (attribute
        # loads off ``self`` are cheaper than two-level ``config`` reads
        # in the per-cycle stages).
        self._fetch_width = config.fetch_width
        self._commit_width = config.commit_width
        self._rob_entries = config.rob_entries
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
        # semantics; such cores are never skipped (skip_plan bails).
        self._next_tick = getattr(self.provider, "next_tick_cycle", None)
        # Wake subscription (batched engine): installed while the core is
        # quiescent; called whenever ``skip_until`` is cleared so the
        # engine learns about external wakes without scanning cores.
        self._wake_hook = None
        # Event-trace recorder (attached by System under REPRO_TRACE=1).
        self.tracer = None

    # --------------------------------------------------------------- helpers

    def _rob_occupancy(self) -> int:
        return self._rob_len

    def _book_fu(self, itype: int, earliest: int) -> int:
        """Reserve a functional-unit slot of ``itype`` at or after ``earliest``."""
        booked = self._fu_booked[itype]
        cap = self._fu_caps[itype]
        cycle = earliest
        used = booked.get(cycle, 0)
        while used >= cap:
            cycle += 1
            used = booked.get(cycle, 0)
        booked[cycle] = used + 1
        return cycle

    # ----------------------------------------------------------- completions

    def _complete_at(self, slot: _Slot, cycle: int) -> None:
        """Mark ``slot`` complete at ``cycle`` and wake its dependents."""
        self.skip_until = 0  # completions can unblock commit/dispatch
        hook = self._wake_hook
        if hook is not None:
            hook(self)
        self._complete[slot.idx] = cycle
        if slot is self._fetch_blocker:
            self._fetch_blocker = None
            self._fetch_resume = cycle + self._misp_penalty
        waiters = slot.waiters
        if waiters:
            for dep in waiters:
                if cycle > dep.ready_base:
                    dep.ready_base = cycle
                dep.deps_pending -= 1
                if dep.deps_pending == 0:
                    self._schedule_execute(dep, dep.ready_base)
            slot.waiters = None

    def _schedule_execute(self, slot: _Slot, earliest: int) -> None:
        earliest = max(earliest, slot.dispatch_cycle + 1)
        itype = slot.itype
        issue = self._book_fu(itype, earliest)
        if itype == LOAD:
            self._load_issue.setdefault(issue, []).append(slot)
            if issue < self._next_local:
                self._next_local = issue
        else:
            done = issue + self._latency[itype]
            self._wake.setdefault(done, []).append(slot)
            if done < self._next_local:
                self._next_local = done

    def _on_load_done(self, slot: _Slot, cycle: int) -> None:
        self._complete_at(slot, cycle)

    # ---------------------------------------------------------------- stages

    def _do_load_issues(self, now: int) -> None:
        slots = self._load_issue.pop(now, None)
        if not slots:
            return
        hierarchy = self.hierarchy
        provider = self.provider
        load_issue = self._load_issue
        core_id = self.core_id
        stats = self.stats
        tracer = self.tracer
        for slot in slots:
            critical, magnitude = provider.annotate(slot.pc)
            handle = hierarchy.load(
                core_id,
                slot.pc,
                slot.addr,
                critical,
                magnitude,
                lambda done, s=slot: self._on_load_done(s, done),
                now,
            )
            if handle is None:
                # L1 MSHRs full: replay next cycle through a fresh port slot.
                retry = self._book_fu(LOAD, now + 1)
                if retry < self._next_local:
                    self._next_local = retry
                bucket = load_issue.get(retry)
                if bucket is None:
                    # repro-lint: disable=PERF001 fresh owned bucket, first retry only
                    bucket = load_issue[retry] = []
                bucket.append(slot)
                continue
            slot.handle = handle
            slot.issued = True
            if critical:
                stats.critical_loads_sent += 1
                if tracer is not None:
                    tracer.prediction(now, core_id, slot.pc, magnitude)
            stats.loads += 1

    def _do_commit(self, now: int) -> None:
        stats = self.stats
        rob = self._rob
        cap = self._rob_entries
        complete = self._complete
        provider = self.provider
        hierarchy = self.hierarchy
        core_id = self.core_id
        tracer = self.tracer
        committed = 0
        width = self._commit_width
        rob_len = self._rob_len
        first = self._ptr - rob_len
        while committed < width and rob_len:
            head = rob[first % cap]
            done_cycle = complete[head.idx]
            if done_cycle == _UNKNOWN or done_cycle > now:
                if head.itype == LOAD:
                    # Only long-latency (DRAM-serviced) loads count as
                    # ROB-head blockers — the Runahead/CLEAR criterion the
                    # CBP is built on.  Short L1/L2-hit head stalls are not
                    # criticality events.
                    dram_bound = head.handle is not None and head.handle.went_to_dram
                    if head.blocking_start < 0 and dram_bound:
                        head.blocking_start = now
                        stats.blocking_loads += 1
                        stats.blocking_dram_loads += 1
                        provider.on_block_start(
                            head.pc, now, head.handle.txn
                        )
                    stats.blocked_cycles += 1
                    if dram_bound:
                        stats.blocked_dram_cycles += 1
                break
            itype = head.itype
            if itype == STORE and not hierarchy.can_accept_store(core_id):
                # Store buffer full: commit stalls until it drains.
                stats.sq_full_cycles += 1
                break
            if itype == LOAD:
                if head.blocking_start >= 0:
                    stall = now - head.blocking_start
                    stats.total_block_stall += stall
                    if tracer is not None:
                        tracer.block_episode(
                            head.blocking_start, core_id, head.pc, stall
                        )
                    provider.on_blocked_commit(head.pc, stall, now)
                provider.on_load_consumers(head.pc, head.consumers)
                self._lq_used -= 1
            elif itype == STORE:
                self._sq_used -= 1
                hierarchy.store(core_id, head.addr, now)
            rob[first % cap] = None
            first += 1
            rob_len -= 1
            committed += 1
            stats.committed += 1
        self._rob_len = rob_len

    def _do_dispatch(self, now: int) -> None:
        if self._fetch_blocker is not None or now < self._fetch_resume:
            self.stats.dispatch_stall_cycles += 1
            return
        trace = self.trace
        rob = self._rob
        cap = self._rob_entries
        stats = self.stats
        fetch_width = self._fetch_width
        itypes = trace.itypes
        dclass = self._dclass
        n = self._n
        dispatched = 0
        counted_lq_full = False
        ptr = self._ptr
        rob_len = self._rob_len
        # Constant across the loop: dispatch grows ptr and rob_len together.
        first = ptr - rob_len
        while dispatched < fetch_width and ptr < n:
            if rob_len >= cap:
                stats.rob_full_cycles += 1
                break
            cls = dclass[ptr]
            if cls == _DC_LOAD and self._lq_used >= self._lq_entries:
                if not counted_lq_full:
                    stats.lq_full_cycles += 1
                    counted_lq_full = True
                break
            if cls == _DC_STORE and self._sq_used >= self._sq_entries:
                break
            slot = _Slot(ptr, itypes[ptr], trace.pcs[ptr], trace.addrs[ptr], now)
            self._resolve_deps(slot, trace.dep1[ptr], trace.dep2[ptr], first)
            rob[ptr % cap] = slot
            rob_len += 1
            if cls == _DC_LOAD:
                self._lq_used += 1
            elif cls == _DC_STORE:
                self._sq_used += 1
            if slot.deps_pending == 0:
                self._schedule_execute(slot, slot.ready_base)
            ptr += 1
            dispatched += 1
            if cls == _DC_MISP_BRANCH:
                # Fetch stalls until the branch resolves, plus the refill
                # penalty (applied when the branch completes).
                slot.is_misp_branch = True
                self._fetch_blocker = slot
                break
        self._ptr = ptr
        self._rob_len = rob_len

    def _resolve_deps(self, slot: _Slot, d1: int, d2: int, first: int) -> None:
        complete = self._complete
        rob = self._rob
        cap = self._rob_entries
        for dist in (d1, d2):
            if dist <= 0:
                continue
            p = slot.idx - dist
            if p < 0:
                continue
            # In-flight iff still >= the oldest un-committed index; the ring
            # slot at p % cap then necessarily holds producer p.
            producer = rob[p % cap] if p >= first else None
            if producer is not None and producer.itype == LOAD:
                # Direct-consumer count, as CLPT tracks at rename time.
                producer.consumers += 1
            done = complete[p]
            if done == _UNKNOWN:
                if producer is None:
                    continue
                if producer.waiters is None:
                    # repro-lint: disable=PERF001 one owned list per producer, amortised
                    producer.waiters = []
                producer.waiters.append(slot)
                slot.deps_pending += 1
            elif done > slot.ready_base:
                slot.ready_base = done

    # ------------------------------------------------------------------ step

    def step(self, now: int) -> None:
        """Advance one CPU cycle."""
        if self.done:
            return
        wake = self._wake.pop(now, None)
        if wake:
            for slot in wake:
                self._complete_at(slot, now)
        self._do_load_issues(now)
        self._do_commit(now)
        self._do_dispatch(now)
        self.provider.tick(now)
        if now & 16383 == 0 and now:
            self._prune_fu_bookings(now)
        self.stats.cycles = now + 1
        if self._ptr >= self._n and not self._rob_len:
            self.done = True

    # ------------------------------------------------------ windowed stepping
    #
    # The batched engine advances a core over spans of cycles in one call
    # instead of one step() per cycle.  Soundness rests on the batchability
    # certificates (DESIGN.md section 5.8): during a span in which no global
    # event runs and no other core steps, the only state this core observes
    # changing is its own — local wakes (_wake/_load_issue), which the span
    # is clamped to, and global events the span's own cycles schedule, which
    # are re-checked after every consumed cycle.  Within those clamps each
    # windowed stage replays the naive per-cycle stage exactly, so every
    # counter, provider callback, and tracer record lands on the same
    # virtual cycle as in the per-cycle loop.

    def step_window(self, now: int, limit: int) -> int:
        """Advance from cycle ``now`` toward ``limit``; return cycles consumed.

        The caller (the batched engine) guarantees that over ``[now, limit)``
        no global event is due, no DRAM edge needs stepping, and no other
        core is active.  At least one cycle is always consumed.
        """
        events = self.events
        n = self._n
        wake_sched = self._wake
        load_issue = self._load_issue
        c = now
        while True:
            # Exact earliest local wake/load-issue, recomputed when the
            # eager lower bound has gone stale.
            nl = self._next_local
            if nl <= c:
                nl = _FAR
                if wake_sched:
                    nl = min(wake_sched)
                if load_issue:
                    m = min(load_issue)
                    if m < nl:
                        nl = m
                self._next_local = nl
            if nl <= c:
                # Completions or load issues due this cycle: full step.
                self.step(c)
                c += 1
            else:
                end = nl if nl < limit else limit
                consumed = 0
                blocker = self._fetch_blocker
                resume = self._fetch_resume
                rob_len = self._rob_len
                ptr = self._ptr
                if blocker is not None or c < resume or ptr >= n:
                    # Dispatch provably inert through ``end``: commit-only
                    # window.  The stall flag flips at fetch_resume, so the
                    # span must not straddle it.
                    if blocker is None and c < resume and resume < end:
                        end = resume
                    if rob_len:
                        stalled = blocker is not None or c < resume
                        consumed = self._do_commit_window(c, end, stalled)
                elif rob_len:
                    head = self._rob[(ptr - rob_len) % self._rob_entries]
                    hdone = self._complete[head.idx]
                    if hdone == _UNKNOWN or hdone >= end:
                        consumed = self._do_dispatch_window(c, end)
                    elif hdone > c:
                        # Head completes mid-span: dispatch-only until then.
                        consumed = self._do_dispatch_window(c, hdone)
                    # else: commit can proceed at ``c`` too — mixed cycle.
                else:
                    consumed = self._do_dispatch_window(c, end)
                if consumed:
                    c += consumed
                else:
                    self.step(c)
                    c += 1
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

    def _do_commit_window(self, now: int, end: int, stalled: bool) -> int:
        """Run commit-only cycles over ``[now, end)``; return cycles consumed.

        Caller guarantees dispatch cannot act over the consumed span and no
        local wakes or load issues fall inside it.  Each consumed cycle
        replays the naive cycle exactly: the commit stage (including
        blocked-head accounting), the dispatch stall counter when
        ``stalled``, and the provider tick.  Stops after the first cycle
        that retires nothing — the engine's skip path handles the rest.
        """
        stats = self.stats
        rob = self._rob
        cap = self._rob_entries
        complete = self._complete
        provider = self.provider
        hierarchy = self.hierarchy
        core_id = self.core_id
        tracer = self.tracer
        width = self._commit_width
        events = self.events
        rob_len = self._rob_len
        first = self._ptr - rob_len
        c = now
        while c < end:
            committed = 0
            while committed < width and rob_len:
                head = rob[first % cap]
                done_cycle = complete[head.idx]
                if done_cycle == _UNKNOWN or done_cycle > c:
                    if head.itype == LOAD:
                        dram_bound = (
                            head.handle is not None and head.handle.went_to_dram
                        )
                        if head.blocking_start < 0 and dram_bound:
                            head.blocking_start = c
                            stats.blocking_loads += 1
                            stats.blocking_dram_loads += 1
                            provider.on_block_start(head.pc, c, head.handle.txn)
                        stats.blocked_cycles += 1
                        if dram_bound:
                            stats.blocked_dram_cycles += 1
                    break
                itype = head.itype
                if itype == STORE and not hierarchy.can_accept_store(core_id):
                    stats.sq_full_cycles += 1
                    break
                if itype == LOAD:
                    if head.blocking_start >= 0:
                        stall = c - head.blocking_start
                        stats.total_block_stall += stall
                        if tracer is not None:
                            tracer.block_episode(
                                head.blocking_start, core_id, head.pc, stall
                            )
                        provider.on_blocked_commit(head.pc, stall, c)
                    provider.on_load_consumers(head.pc, head.consumers)
                    self._lq_used -= 1
                elif itype == STORE:
                    self._sq_used -= 1
                    hierarchy.store(core_id, head.addr, c)
                rob[first % cap] = None
                first += 1
                rob_len -= 1
                committed += 1
                stats.committed += 1
            if stalled:
                stats.dispatch_stall_cycles += 1
            provider.tick(c)
            c += 1
            if self._ptr >= self._n and not rob_len:
                self.done = True
                break
            if committed == 0:
                # Commit went quiet: hand the remaining span back so the
                # engine's skip path can bulk-account it.
                break
            # Stores/provider ticks this cycle may have scheduled events.
            if events is not None:
                ev = events.next_cycle()
                if ev is not None and ev < end:
                    end = ev
        self._rob_len = rob_len
        self.stats.cycles = c
        return c - now

    def _do_dispatch_window(self, now: int, end: int) -> int:
        """Run dispatch-only cycles over ``[now, end)``; return cycles consumed.

        Caller guarantees the ROB head (if any) cannot commit before
        ``end`` and dispatch is not fetch-stalled.  Each consumed cycle
        replays the naive cycle exactly: the commit stage reduced to its
        blocked-head accounting, then dispatch, then the provider tick.
        Newly scheduled local wakes shrink the span as they appear.
        """
        stats = self.stats
        trace = self.trace
        rob = self._rob
        cap = self._rob_entries
        complete = self._complete
        provider = self.provider
        fetch_width = self._fetch_width
        itypes = trace.itypes
        dclass = self._dclass
        events = self.events
        n = self._n
        ptr = self._ptr
        rob_len = self._rob_len
        first = ptr - rob_len
        c = now
        while c < end:
            if rob_len:
                head = rob[first % cap]
                hdone = complete[head.idx]
                if hdone != _UNKNOWN and hdone <= c:
                    break  # head became committable: window over
                if head.itype == LOAD:
                    dram_bound = (
                        head.handle is not None and head.handle.went_to_dram
                    )
                    if head.blocking_start < 0 and dram_bound:
                        head.blocking_start = c
                        stats.blocking_loads += 1
                        stats.blocking_dram_loads += 1
                        provider.on_block_start(head.pc, c, head.handle.txn)
                    stats.blocked_cycles += 1
                    if dram_bound:
                        stats.blocked_dram_cycles += 1
            dispatched = 0
            counted_lq_full = False
            while dispatched < fetch_width and ptr < n:
                if rob_len >= cap:
                    stats.rob_full_cycles += 1
                    break
                cls = dclass[ptr]
                if cls == _DC_LOAD and self._lq_used >= self._lq_entries:
                    if not counted_lq_full:
                        stats.lq_full_cycles += 1
                        counted_lq_full = True
                    break
                if cls == _DC_STORE and self._sq_used >= self._sq_entries:
                    break
                slot = _Slot(ptr, itypes[ptr], trace.pcs[ptr], trace.addrs[ptr], c)
                self._resolve_deps(slot, trace.dep1[ptr], trace.dep2[ptr], first)
                rob[ptr % cap] = slot
                rob_len += 1
                if cls == _DC_LOAD:
                    self._lq_used += 1
                elif cls == _DC_STORE:
                    self._sq_used += 1
                if slot.deps_pending == 0:
                    self._schedule_execute(slot, slot.ready_base)
                ptr += 1
                dispatched += 1
                if cls == _DC_MISP_BRANCH:
                    slot.is_misp_branch = True
                    self._fetch_blocker = slot
                    break
            provider.tick(c)
            c += 1
            if self._fetch_blocker is not None or dispatched == 0:
                # Fetch just stalled, or dispatch went quiet: hand the rest
                # of the span back to the engine's skip path.
                break
            # Clamp to wakes scheduled by this cycle's own dispatches and
            # to events scheduled by the provider tick.
            nl = self._next_local
            if nl < end:
                end = nl
            if events is not None:
                ev = events.next_cycle()
                if ev is not None and ev < end:
                    end = ev
        self._ptr = ptr
        self._rob_len = rob_len
        self.stats.cycles = c
        return c - now

    # -------------------------------------------------------- cycle skipping

    def skip_plan(self, now: int):
        """Classify the core's state after cycle ``now`` for fast-forwarding.

        Returns ``None`` when the core could make progress at ``now + 1``
        (the system must keep stepping cycle by cycle), otherwise a pair
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
        next_tick = self._next_tick
        if next_tick is None:
            return None  # provider tick semantics unknown: never skip
        blocked = blocked_dram = sq_full = stall = rob_full = lq_full = 0
        head_done = -1

        rob_len = self._rob_len
        if rob_len:
            head = self._rob[(self._ptr - rob_len) % self._rob_entries]
            done_cycle = self._complete[head.idx]
            if done_cycle == _UNKNOWN or done_cycle > now:
                head_done = done_cycle
                if head.itype == LOAD:
                    dram_bound = (
                        head.handle is not None and head.handle.went_to_dram
                    )
                    if dram_bound and head.blocking_start < 0:
                        # First blocked cycle not yet accounted: step it.
                        return None
                    blocked = 1
                    if dram_bound:
                        blocked_dram = 1
            elif head.itype == STORE and not self.hierarchy.can_accept_store(
                self.core_id
            ):
                sq_full = 1
            else:
                return None  # head commits next cycle

        fetch_resume = 0
        if self._fetch_blocker is not None:
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
        wake = None
        if self._wake:
            wake = min(self._wake)
        if self._load_issue:
            first = min(self._load_issue)
            if wake is None or first < wake:
                wake = first
        if head_done > now and (wake is None or head_done < wake):
            wake = head_done
        if fetch_resume and (wake is None or fetch_resume < wake):
            wake = fetch_resume
        tick = next_tick(now)
        if tick is not None:
            tick = max(tick, now + 1)
            if wake is None or tick < wake:
                wake = tick
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

    def _prune_fu_bookings(self, now: int) -> None:
        """Drop functional-unit reservations for cycles already past."""
        for itype, booked in self._fu_booked.items():
            if len(booked) > 64:
                self._fu_booked[itype] = {
                    c: n for c, n in booked.items() if c > now
                }

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
        head = (
            self._rob[(self._ptr - rob_len) % self._rob_entries]
            if rob_len
            else None
        )
        return (
            1 if self.done else 0,
            self.stats.committed,
            self._ptr,
            rob_len,
            -1 if head is None else head.idx,
            self._lq_used,
            self._sq_used,
            self._fetch_resume,
            -1 if self._fetch_blocker is None else self._fetch_blocker.idx,
        )

    def rob_occupancy(self) -> int:
        return self._rob_occupancy()

    @property
    def instructions_remaining(self) -> int:
        return self._n - self._ptr
