"""Memory controller: per-channel transaction queues + command arbitration.

Each channel has its own controller (the paper's quad-channel system has
four independent arbiters).  Every DRAM command-clock cycle, a controller:

1. services any due refresh (precharging open banks, then issuing REF);
2. derives the set of *legally issuable* candidate commands from its
   read queue (and write queue, when draining);
3. asks its scheduler to pick one, and executes it.

Reads complete when their data burst finishes; the completion callback is
fired with the DRAM cycle of burst end, which :class:`MemorySystem`
translates into a CPU-cycle event for the cache hierarchy.

Write handling: writes (dirty L2 evictions) sit in a separate write queue
and are drained in batches when the queue passes a high watermark or the
read queue is empty — standard practice that keeps the read path (the
paper's subject) clean.
"""

from __future__ import annotations

from repro.analysis.protocol import maybe_attach
from repro.config import DramConfig
from repro.dram.addressmap import AddressMap
from repro.dram.bank import Bank
from repro.dram.channel import ChannelTiming
from repro.dram.command import CandidateCommand, CommandKind
from repro.dram.transaction import Transaction
from repro.telemetry.registry import LatencyHistogram


class ChannelStats:
    """Per-channel counters the experiments aggregate."""

    __slots__ = (
        "reads_done",
        "writes_done",
        "activates",
        "precharges",
        "refreshes",
        "row_hit_reads",
        "busy_cycles",
        "queue_occupancy_sum",
        "queue_samples",
        "critical_queue_cycles",
        "multi_critical_queue_cycles",
        "starvation_promotions",
        "crit_wait",
        "noncrit_wait",
        "write_wait_sum",
    )

    def __init__(self):
        self.reads_done = 0
        self.writes_done = 0
        self.activates = 0
        self.precharges = 0
        self.refreshes = 0
        self.row_hit_reads = 0
        self.busy_cycles = 0
        self.queue_occupancy_sum = 0
        self.queue_samples = 0
        self.critical_queue_cycles = 0
        self.multi_critical_queue_cycles = 0
        self.starvation_promotions = 0
        # Queueing delay (arrival -> CAS issue), in DRAM cycles, split by
        # criticality flag; the component scheduling redistributes.
        self.crit_wait = LatencyHistogram()
        self.noncrit_wait = LatencyHistogram()
        self.write_wait_sum = 0


class ChannelController:
    """One DRAM channel: banks, timing, queues, and a pluggable scheduler."""

    def __init__(self, channel_id: int, config: DramConfig, scheduler):
        self.channel_id = channel_id
        self.config = config
        t = config.timings
        self.timings = t
        self.scheduler = scheduler
        self.banks = [
            [Bank(r, b, t) for b in range(config.banks_per_rank)]
            for r in range(config.ranks_per_channel)
        ]
        self.timing = ChannelTiming(t, config.ranks_per_channel)
        self.read_queue: list[Transaction] = []
        self.write_queue: list[Transaction] = []
        self.queue_capacity = config.transaction_queue_entries
        self.write_capacity = config.transaction_queue_entries
        # Write-drain hysteresis.
        self._drain_high = max(4, config.transaction_queue_entries // 2)
        self._drain_low = max(1, config.transaction_queue_entries // 8)
        self._draining = False
        # Stagger per-rank refresh deadlines so REFs don't collide.
        interval = t.refresh_interval_cycles
        stride = max(1, interval // max(1, config.ranks_per_channel))
        self._next_refresh = [
            interval + r * stride for r in range(config.ranks_per_channel)
        ]
        self._refresh_due = [False] * config.ranks_per_channel
        self.stats = ChannelStats()
        self._seq = 0
        # Shadow protocol oracle (attached only under REPRO_SANITIZE=1):
        # observes every command this controller issues and re-checks the
        # JEDEC constraints from its own bookkeeping.
        self.sanitizer = maybe_attach(self)
        # Event-trace recorder (attached by System under REPRO_TRACE=1);
        # timestamps are emitted in CPU cycles so all lanes share an axis.
        self.trace = None
        self._cpu_ratio = config.cpu_ratio

    # -- queue interface ----------------------------------------------------

    def can_accept(self, is_write: bool) -> bool:
        queue = self.write_queue if is_write else self.read_queue
        cap = self.write_capacity if is_write else self.queue_capacity
        return len(queue) < cap

    def enqueue(self, txn: Transaction, now: int) -> None:
        """Add a transaction; caller must have checked :meth:`can_accept`."""
        txn.arrival = now
        txn.seq = self._seq
        self._seq += 1
        if txn.is_write:
            self.write_queue.append(txn)
        else:
            self.read_queue.append(txn)
        self.scheduler.on_enqueue(txn, now)

    def pending(self) -> int:
        return len(self.read_queue) + len(self.write_queue)

    # -- per-DRAM-cycle operation --------------------------------------------

    def step(self, now: int) -> None:
        """Issue at most one command on this channel at DRAM cycle ``now``."""
        stats = self.stats
        nreads = len(self.read_queue)
        # Sample occupancy every DRAM cycle (empty cycles included), so
        # queue_occupancy_sum / queue_samples is a true time average rather
        # than an average over non-empty cycles only.
        stats.queue_occupancy_sum += nreads
        stats.queue_samples += 1
        if nreads:
            ncrit = 0
            for txn in self.read_queue:
                if txn.critical:
                    ncrit += 1
                    if ncrit > 1:
                        break
            if ncrit >= 1:
                stats.critical_queue_cycles += 1
            if ncrit > 1:
                stats.multi_critical_queue_cycles += 1

        if self._service_refresh(now):
            return
        if not self.read_queue and not self.write_queue:
            return

        candidates = self._build_candidates(now)
        if not candidates:
            return
        chosen = self.scheduler.select(candidates, self, now)
        if self.scheduler._m_decisions is not None:
            self.scheduler.note_decision(chosen)
        if chosen is not None:
            self._execute(chosen, now)
            self.scheduler.on_command(chosen, now)

    def next_wake(self, dram_now: int) -> int:
        """Earliest DRAM cycle > ``dram_now`` at which stepping matters.

        With transactions queued (or a refresh sequence in flight) the
        channel must be stepped on every DRAM clock edge; otherwise nothing
        happens until the earliest per-rank refresh deadline.
        """
        if self.read_queue or self.write_queue or any(self._refresh_due):
            return dram_now + 1
        return max(min(self._next_refresh), dram_now + 1)

    def next_wake_window(self, dram_now: int) -> int:
        """Timing-aware :meth:`next_wake` for the batched engine.

        With only reads queued, no write drain in progress, and no refresh
        due, no command can legally issue before the earliest *bank-ready*
        cycle among the queued reads: a row hit waits for ``cas_ready``, a
        closed bank for ``act_ready``, a row conflict for ``pre_ready``.
        Rank-level constraints (``cas_issue_ok``/``can_activate``/tFAW) can
        only delay issue further, so ignoring them keeps the bound a sound
        lower one — waking early merely replays an idle cycle.  The bound
        is capped at the earliest per-rank refresh deadline.  Every skipped
        cycle provably generates zero candidates and leaves det_state
        untouched; the per-cycle occupancy statistics it owes are settled
        by :meth:`account_window`.

        Write drain and refresh fall back to per-edge stepping: the drain
        hysteresis flips ``_draining`` (det_state) cycle by cycle, and a
        refresh sequence issues multi-cycle command trains.
        """
        if self.write_queue or self._draining or any(self._refresh_due):
            return self.next_wake(dram_now)
        reads = self.read_queue
        if not reads:
            return max(min(self._next_refresh), dram_now + 1)
        banks = self.banks
        best = min(self._next_refresh)
        for txn in reads:
            loc = txn.loc
            bank = banks[loc.rank][loc.bank]
            open_row = bank.open_row
            if open_row == loc.row:
                ready = bank.cas_ready
            elif open_row is None:
                ready = bank.act_ready
            else:
                ready = bank.pre_ready
            if ready < best:
                best = ready
                if best <= dram_now + 1:
                    return dram_now + 1
        return best if best > dram_now + 1 else dram_now + 1

    def account_window(self, cycles: int) -> None:
        """Settle ``cycles`` skipped DRAM cycles whose queues were constant.

        The batched engine's windows (:meth:`next_wake_window`) leave a
        channel unstepped while transactions are queued but no command can
        legally issue.  The per-cycle statistics those cycles owe —
        occupancy and criticality-presence counters — are settled here in
        bulk against the constant queue, exactly as :meth:`step` would
        have accumulated them one cycle at a time.
        """
        if cycles <= 0:
            return
        stats = self.stats
        reads = self.read_queue
        nreads = len(reads)
        stats.queue_occupancy_sum += nreads * cycles
        stats.queue_samples += cycles
        if nreads:
            ncrit = 0
            for txn in reads:
                if txn.critical:
                    ncrit += 1
                    if ncrit > 1:
                        break
            if ncrit >= 1:
                stats.critical_queue_cycles += cycles
            if ncrit > 1:
                stats.multi_critical_queue_cycles += cycles

    def det_state(self) -> list[int]:
        """Architectural state words for the determinism hash-chain.

        Everything here is constant while the channel is idle (queues and
        bank state only change when commands execute), so batched and
        cycle-by-cycle runs sample identical values — statistics counters
        are deliberately excluded.
        """
        values = [len(self.read_queue), len(self.write_queue), self._seq,
                  1 if self._draining else 0]
        for txn in self.read_queue:
            values += (txn.seq, txn.address, 1 if txn.critical else 0)
        for txn in self.write_queue:
            values += (txn.seq, txn.address)
        for rank_banks in self.banks:
            for bank in rank_banks:
                values.append(-1 if bank.open_row is None else bank.open_row)
                values.append(bank.opened_by)
                values += (bank.act_ready, bank.cas_ready, bank.pre_ready,
                           bank.last_use)
        values += self.timing.det_state()
        values += self.scheduler.det_state()
        values += self._next_refresh
        values.append(sum(1 << i for i, due in enumerate(self._refresh_due) if due))
        return values

    # -- refresh ------------------------------------------------------------

    def _service_refresh(self, now: int) -> bool:
        """Handle due refreshes; returns True if this cycle's slot was used."""
        t = self.timings
        tRFC = t.tRFC
        refresh_due = self._refresh_due
        next_refresh = self._next_refresh
        stats = self.stats
        sanitizer = self.sanitizer
        trace = self.trace
        ratio = self._cpu_ratio
        channel_id = self.channel_id
        for rank in range(self.config.ranks_per_channel):
            if not refresh_due[rank]:
                if now >= next_refresh[rank]:
                    refresh_due[rank] = True
                else:
                    continue
            # Precharge any open bank first (one command per cycle).
            banks = self.banks[rank]
            all_closed = True
            for bank in banks:
                if bank.is_open():
                    all_closed = False
                    if now >= bank.pre_ready:
                        bank.do_precharge(now)
                        stats.precharges += 1
                        if sanitizer is not None:
                            sanitizer.on_precharge(rank, bank.index, now)
                        if trace is not None:
                            trace.command(
                                now * ratio, channel_id, rank, bank.index,
                                "PRE", -1, t.tRP * ratio,
                            )
                        return True
            if not all_closed:
                continue
            if all(now >= bank.act_ready for bank in banks):
                done = now + tRFC
                for bank in banks:
                    bank.block_until(done)
                next_refresh[rank] += t.refresh_interval_cycles
                refresh_due[rank] = False
                stats.refreshes += 1
                if sanitizer is not None:
                    sanitizer.on_refresh(rank, now)
                if trace is not None:
                    trace.command(
                        now * ratio, channel_id, rank, 0,
                        "REF", -1, tRFC * ratio,
                    )
                return True
        return False

    # -- candidate generation -------------------------------------------------

    def _drain_writes_now(self) -> bool:
        if self.config.unified_queue:
            return bool(self.write_queue)
        if self._draining:
            if len(self.write_queue) <= self._drain_low:
                self._draining = False
        elif len(self.write_queue) >= self._drain_high or (
            not self.read_queue and self.write_queue
        ):
            self._draining = True
        return self._draining

    def _build_candidates(self, now: int):
        """One legally issuable command per transaction needing service."""
        work = self.read_queue
        if self._drain_writes_now():
            work = self.read_queue + self.write_queue

        # Banks whose open row still has pending hits: precharging them is
        # a *policy* decision, so candidates carry the metadata and the
        # scheduler decides (FR-FCFS never closes such a row; criticality
        # schedulers may, for a sufficiently urgent conflict).
        banks = self.banks
        protected = set()
        protected_critical = set()
        for txn in work:
            loc = txn.loc
            bank = banks[loc.rank][loc.bank]
            if bank.open_row == loc.row:
                key = (loc.rank, loc.bank)
                protected.add(key)
                if txn.critical:
                    protected_critical.add(key)

        timing = self.timing
        activate = CommandKind.ACTIVATE
        precharge = CommandKind.PRECHARGE
        candidates = []
        seen_bank_cmd = set()
        for txn in work:
            loc = txn.loc
            rank, bindex, row = loc.rank, loc.bank, loc.row
            if self._refresh_due[rank]:
                continue
            bank = banks[rank][bindex]
            open_row = bank.open_row
            if open_row == row:
                if now >= bank.cas_ready and timing.cas_issue_ok(
                    rank, txn.is_write, now
                ):
                    kind = CommandKind.WRITE if txn.is_write else CommandKind.READ
                    candidates.append(CandidateCommand(kind, txn, rank, bindex, row))
            elif open_row is None:
                key = (activate, rank, bindex)
                if key in seen_bank_cmd:
                    continue
                if now >= bank.act_ready and timing.can_activate(rank, now):
                    seen_bank_cmd.add(key)
                    candidates.append(
                        CandidateCommand(activate, txn, rank, bindex, row)
                    )
            else:
                key = (precharge, rank, bindex)
                if key in seen_bank_cmd:
                    continue
                if now >= bank.pre_ready:
                    seen_bank_cmd.add(key)
                    bkey = (rank, bindex)
                    candidates.append(
                        CandidateCommand(
                            precharge, txn, rank, bindex, open_row,
                            blocked_by_hits=bkey in protected,
                            hit_is_critical=bkey in protected_critical,
                            row_idle=now - bank.last_use,
                        )
                    )
        return candidates

    # -- command execution ------------------------------------------------------

    def _execute(self, cmd: CandidateCommand, now: int) -> None:
        bank = self.banks[cmd.rank][cmd.bank]
        stats = self.stats
        sanitizer = self.sanitizer
        trace = self.trace
        stats.busy_cycles += 1
        kind = cmd.kind
        if kind == CommandKind.ACTIVATE:
            if sanitizer is not None:
                sanitizer.on_activate(cmd.rank, cmd.bank, cmd.row, now)
            bank.do_activate(cmd.row, now, opened_by=cmd.txn.seq)
            self.timing.did_activate(cmd.rank, now)
            stats.activates += 1
            if trace is not None:
                ratio = self._cpu_ratio
                trace.command(now * ratio, self.channel_id, cmd.rank, cmd.bank,
                              "ACT", cmd.row, self.timings.tRCD * ratio)
        elif kind == CommandKind.PRECHARGE:
            if sanitizer is not None:
                sanitizer.on_precharge(cmd.rank, cmd.bank, now)
            bank.do_precharge(now)
            stats.precharges += 1
            if trace is not None:
                ratio = self._cpu_ratio
                trace.command(now * ratio, self.channel_id, cmd.rank, cmd.bank,
                              "PRE", cmd.row, self.timings.tRP * ratio)
        elif kind == CommandKind.READ:
            txn = cmd.txn
            # A read is a row-buffer hit if it reused a row someone else's
            # ACTIVATE (or a previous access) opened.
            txn.row_hit = bank.opened_by != txn.seq
            bank.do_read(now)
            data_end = self.timing.did_cas(cmd.rank, False, now)
            if sanitizer is not None:
                sanitizer.on_cas(
                    cmd.rank, cmd.bank, cmd.row, now, False, data_end, txn.arrival
                )
            self.read_queue.remove(txn)
            stats.reads_done += 1
            if txn.row_hit:
                stats.row_hit_reads += 1
            wait = now - txn.arrival
            if txn.critical:
                stats.crit_wait.record(wait)
            else:
                stats.noncrit_wait.record(wait)
            if trace is not None:
                ratio = self._cpu_ratio
                trace.command(now * ratio, self.channel_id, cmd.rank, cmd.bank,
                              "READ", cmd.row, (data_end - now) * ratio)
            if txn.callback is not None:
                txn.callback(data_end)
        elif kind == CommandKind.WRITE:
            txn = cmd.txn
            bank.do_write(now)
            data_end = self.timing.did_cas(cmd.rank, True, now)
            if sanitizer is not None:
                sanitizer.on_cas(
                    cmd.rank, cmd.bank, cmd.row, now, True, data_end, txn.arrival
                )
            self.write_queue.remove(txn)
            stats.writes_done += 1
            stats.write_wait_sum += now - txn.arrival
            if trace is not None:
                ratio = self._cpu_ratio
                trace.command(now * ratio, self.channel_id, cmd.rank, cmd.bank,
                              "WRITE", cmd.row, (data_end - now) * ratio)
            if txn.callback is not None:
                txn.callback(data_end)
        else:
            raise ValueError(f"scheduler returned unexpected command {cmd!r}")

    # -- telemetry -----------------------------------------------------------

    def register_metrics(self, registry, prefix: str) -> None:
        """Register this channel's instruments under ``prefix``.

        Sampled gauges are all command-driven (they change only when a
        DRAM command executes, which never happens inside a skipped
        window), so the interval sampler reads identical values on every
        engine.  The per-cycle occupancy accumulators
        (``queue_occupancy_sum``/``queue_samples``) are settled lazily by
        :meth:`account_window` and are deliberately NOT sampled.
        """
        stats = self.stats
        registry.histogram(f"{prefix}.crit_wait", stats.crit_wait)
        registry.histogram(f"{prefix}.noncrit_wait", stats.noncrit_wait)
        registry.gauge(f"{prefix}.read_queue",
                       lambda: len(self.read_queue), sampled=True)
        registry.gauge(f"{prefix}.write_queue",
                       lambda: len(self.write_queue), sampled=True)
        registry.gauge(f"{prefix}.reads_done",
                       lambda: stats.reads_done, sampled=True)
        registry.gauge(f"{prefix}.row_hit_reads",
                       lambda: stats.row_hit_reads, sampled=True)
        registry.gauge(f"{prefix}.writes_done", lambda: stats.writes_done)
        registry.gauge(f"{prefix}.activates", lambda: stats.activates)
        registry.gauge(f"{prefix}.precharges", lambda: stats.precharges)
        registry.gauge(f"{prefix}.refreshes", lambda: stats.refreshes)
        self.scheduler.register_metrics(registry, f"{prefix}.sched")


class MemorySystem:
    """All channels plus the CPU-clock/DRAM-clock boundary.

    The CPU domain calls :meth:`step` once per CPU cycle; the controllers
    advance on DRAM command-clock boundaries (every
    ``cpu_cycles_per_dram_cycle`` CPU cycles).  Read completions are returned
    as ``(txn, cpu_cycle)`` pairs for the cache hierarchy to consume.
    """

    def __init__(self, config: DramConfig, scheduler_factory):
        self.config = config
        self.address_map = AddressMap(config)
        self.channels = [
            ChannelController(c, config, scheduler_factory(c))
            for c in range(config.channels)
        ]
        self._ratio = config.cpu_ratio
        # Wake-driven clocking (the batched engine, see repro.sim.system):
        # per channel, the DRAM cycle at which it must next be stepped and
        # the DRAM cycle *after* the last one whose occupancy sample has
        # been accounted.  ``try_enqueue`` keeps the wake current in every
        # engine, so the bookkeeping never needs re-wiring when the loop
        # implementation is switched mid-experiment.
        self._chan_wake = [0] * config.channels
        self._chan_settled = [0] * config.channels
        # Batched-engine mode flag (set by System._run_batched before any
        # stepping): only then do channels skip edges whose samples are
        # settled lazily, so only then must queue mutations pre-settle the
        # open gap (try_enqueue / presettle).  The naive loop samples every
        # edge itself through :meth:`step`.
        self._batched = False

    # -- request path -----------------------------------------------------------

    def make_transaction(self, address: int, **kwargs) -> Transaction:
        return Transaction(address, self.address_map.locate(address), **kwargs)

    def try_enqueue(self, txn: Transaction, cpu_now: int) -> bool:
        """Queue ``txn`` if its channel has room; False => caller retries."""
        ch = txn.loc.channel
        channel = self.channels[ch]
        if not channel.can_accept(txn.is_write):
            return False
        # Wake registration: the channel becomes serviceable at the first
        # DRAM edge at or after ``cpu_now``.  Enqueues only happen in the
        # event phase — before :meth:`step_window` for the same cycle — so
        # an enqueue landing exactly on an edge is serviced at that edge,
        # matching the naive loop.
        wake = (cpu_now + self._ratio - 1) // self._ratio
        if self._batched:
            # Settle the open gap with the queue as it was: every edge
            # before ``wake`` sampled the pre-enqueue occupancy.
            gap = wake - self._chan_settled[ch]
            if gap > 0:
                channel.account_window(gap)
                self._chan_settled[ch] = wake
        channel.enqueue(txn, cpu_now // self._ratio)
        if wake < self._chan_wake[ch]:
            self._chan_wake[ch] = wake
        return True

    def presettle(self, txn: Transaction, cpu_now: int, event_phase: bool) -> None:
        """Settle a channel's open gap before ``txn``'s flags mutate.

        The batched engine settles skipped DRAM cycles lazily with the
        queue state current *at settlement time*, so a criticality bump on
        a queued transaction would otherwise be visible retroactively in
        the lazily-settled criticality counters.  Settling the bumped
        transaction's channel first — up to the last DRAM edge that
        sampled the old flags — keeps them bit-identical to the naive
        loop.  The boundary depends on the caller's phase: a DRAM edge
        shares its CPU cycle with event-phase work that *precedes* it (the
        edge samples the new flags) but with core-phase work that
        *follows* it (the edge already sampled the old flags).
        """
        if not self._batched:
            return
        ratio = self._ratio
        if event_phase:
            boundary = -(-cpu_now // ratio)
        else:
            boundary = cpu_now // ratio + 1
        ch = txn.loc.channel
        gap = boundary - self._chan_settled[ch]
        if gap > 0:
            self.channels[ch].account_window(gap)
            self._chan_settled[ch] = boundary

    # -- clocking ----------------------------------------------------------------

    def step(self, cpu_now: int) -> None:
        """Advance controllers if ``cpu_now`` is a DRAM clock edge.

        Completion delivery happens through each transaction's callback,
        which receives the DRAM cycle at which its data burst ends.
        """
        if cpu_now % self._ratio:
            return
        dram_now = cpu_now // self._ratio
        for channel in self.channels:
            channel.step(dram_now)

    def dram_to_cpu(self, dram_cycle: int) -> int:
        return dram_cycle * self._ratio

    def finish_sanitize(self, cpu_now: int) -> None:
        """End-of-run protocol checks (refresh cadence) on every channel."""
        dram_now = cpu_now // self._ratio
        for channel in self.channels:
            if channel.sanitizer is not None:
                channel.sanitizer.finish(dram_now)

    def pending(self) -> int:
        return sum(channel.pending() for channel in self.channels)

    # -- wake-driven clocking (batched engine) -----------------------------------

    def step_window(self, cpu_now: int) -> None:
        """Like :meth:`step`, but only steps channels that are *due*.

        A channel is due when its registered wake (``_chan_wake``, kept
        current by :meth:`try_enqueue` and by
        :meth:`ChannelController.next_wake_window` after every step) has
        arrived.  Wakes are timing-aware: a channel may sleep across
        cycles with *queued* work when no command can legally issue
        before its registered wake.  Such gaps owe per-cycle occupancy and
        criticality statistics, settled in bulk by ``account_window``
        against the queue that was constant throughout the gap (enqueues
        and criticality bumps pre-settle, see :meth:`try_enqueue` /
        :meth:`presettle`).  Occupancy accumulators are statistics outside
        the determinism chain and never sampled by telemetry (see
        :meth:`ChannelController.register_metrics`).
        """
        if cpu_now % self._ratio:
            return
        dram_now = cpu_now // self._ratio
        wakes = self._chan_wake
        settled = self._chan_settled
        for i, channel in enumerate(self.channels):
            if wakes[i] > dram_now:
                continue
            gap = dram_now - settled[i]
            if gap > 0:
                # repro-batch: cert=ChannelController.account_window
                channel.account_window(gap)
            channel.step(dram_now)
            settled[i] = dram_now + 1
            # repro-batch: cert=ChannelController.next_wake_window
            wakes[i] = channel.next_wake_window(dram_now)

    # The per-layer benchmark tracer (bench/spans.py) wraps this method by
    # its former name; the alias keeps that harness installable.
    step_event = step_window

    def wake_cpu(self, cpu_now: int) -> int:
        """Earliest CPU cycle > ``cpu_now`` at which stepping a channel
        matters, read in O(channels) from the registered wakes."""
        ratio = self._ratio
        next_edge = (cpu_now // ratio + 1) * ratio
        wake = min(self._chan_wake) * ratio
        return wake if wake > next_edge else next_edge

    def settle_idle(self, cpu_end: int) -> None:
        """Account every not-yet-settled idle edge before ``cpu_end``.

        The naive loop samples channel occupancy at every DRAM edge in
        ``[0, cpu_end)``; the batched engine defers skipped samples, so the
        end of the run (or any point statistics are read) must settle the
        tail.
        """
        edge_count = (cpu_end - 1) // self._ratio + 1 if cpu_end > 0 else 0
        settled = self._chan_settled
        for i, channel in enumerate(self.channels):
            gap = edge_count - settled[i]
            if gap > 0:
                channel.account_window(gap)
                settled[i] = edge_count
