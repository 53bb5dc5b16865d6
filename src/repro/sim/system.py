"""System: cores + hierarchy + memory, and the global cycle loop.

Two loop implementations produce bit-identical results (same
determinism chain, result fingerprint, and streamed telemetry bytes):

* ``naive``   — the default and the reference: step every component
  every cycle.  Between det-chain samples its cycles run in the event
  kernel's compiled loop (``run_cycles`` in ``sim/_kernel.c``) while
  :meth:`System._compiled_loop` allows; the Python loop body in
  :meth:`System._run_naive` is that loop's reference and its fallback;
* ``batched`` — a wake-driven loop that visits only cycles
  where something can happen, tracking skipping cores in a wake heap
  and idle DRAM channels by registered wakes, plus model-level
  windowing: a single active core steps whole ready-windows in one call
  (:meth:`OutOfOrderCore.step_window`) and DRAM channels sleep through
  cycles at which no command can legally issue
  (:meth:`ChannelController.next_wake_window`), leaning on the
  batchability certificates (see :meth:`_run_batched` and DESIGN.md
  §5.7).  It stays selectable until ROADMAP item 4 deletes it.

Select with ``System.run(engine=...)``, ``REPRO_ENGINE``, or the
``--engine`` CLI flag.
"""

from __future__ import annotations

import copy
import heapq
import os

from repro.analysis import detchain, effectcheck
from repro.config import SystemConfig
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.provider import (
    CriticalityProvider,
    NaiveForwardingProvider,
    NullProvider,
)
from repro.cpu import core as _core
from repro.cpu.core import OutOfOrderCore
from repro.dram import controller as _controller
from repro.dram.controller import MemorySystem
from repro.sched.registry import make_scheduler_factory
from repro.sim import events as _events
from repro.sim.stats import SimResult
from repro.telemetry import Telemetry

# Sentinel "wake cycle" for cores quiescent until externally woken.
_FOREVER = 1 << 62

#: Every registered loop implementation, in reference-first order.  The
#: CLI, ``verify_determinism``, and ``profile --engines all`` enumerate
#: this tuple rather than hard-coding engine names.
ENGINES = ("naive", "batched")

#: The entry points the compiled loop calls without their Python frames,
#: as their classes define them.  The loop runs a System only while its
#: cores and memory system still resolve ``step`` to these (see
#: :meth:`System._compiled_loop`).
_CORE_STEP = OutOfOrderCore.step
_MEMORY_STEP = MemorySystem.step

#: Simulated cycles each loop ran in this process, summed over every
#: finished run's :attr:`System.loop_cycles`: host-side only, like wall
#: time (``repro profile`` reports each run's share).
loop_totals = {"compiled": 0, "python": 0}


def _loop_kernels():
    """``(run_cycles, step, memory_step)`` of the event, core and DRAM
    kernels, or None when any of them is not loaded."""
    loop, cpu, dram = _events._kernel, _core._kernel, _controller._kernel
    if loop is None or cpu is None or dram is None:
        return None
    return loop.run_cycles, cpu.step, dram.memory_step


def loop_implementation() -> str:
    """``"compiled"`` when the naive engine's cycles can run in the event
    kernel's loop (the core, DRAM and event kernels are loaded), else
    ``"python"``."""
    return "python" if _loop_kernels() is None else "compiled"


def _resolves_to(obj, name: str, original) -> bool:
    """Whether ``obj.name`` is ``original``: the class attribute is not
    replaced and the instance sets none of its own."""
    return (getattr(type(obj), name, None) is original
            and name not in getattr(obj, "__dict__", ()))


def make_provider_factory(spec):
    """Build a per-core criticality-provider factory from a spec.

    Specs:
        None or "null"            — no criticality (baseline machine).
        ("cbp", {...})            — :class:`CbpProvider` kwargs.
        ("clpt", {...})           — :class:`ClptProvider` kwargs.
        ("naive", {...})          — :class:`NaiveForwardingProvider` kwargs.
        callable                  — used directly as ``factory(core_id)``.
    """
    if spec is None or spec == "null":
        return lambda core_id: NullProvider()
    if callable(spec):
        return spec
    kind, kwargs = spec
    from repro.core.fields import FieldsLikeProvider
    from repro.core.provider import CbpProvider, ClptProvider

    classes = {
        "cbp": CbpProvider,
        "clpt": ClptProvider,
        "naive": NaiveForwardingProvider,
        "fields": FieldsLikeProvider,
    }
    try:
        cls = classes[kind]
    except KeyError:
        raise ValueError(f"unknown provider kind {kind!r}") from None
    # Deep-copy the kwargs per instantiation: the factory is called once
    # per core, and a provider that mutates a mutable kwarg (a list of
    # thresholds, a config dict) must not alias state across cores.
    return lambda core_id: cls(**copy.deepcopy(kwargs))


class System:
    """One simulated machine bound to one workload."""

    def __init__(
        self,
        config: SystemConfig,
        traces,
        scheduler: str = "fr-fcfs",
        scheduler_kwargs: dict | None = None,
        provider_spec=None,
        label: str | None = None,
    ):
        if len(traces) != config.cores:
            raise ValueError(
                f"need {config.cores} traces (one per core), got {len(traces)}"
            )
        self.config = config
        self.label = label or scheduler
        self.events = _events.EventQueue()
        self.memory = MemorySystem(
            config.dram, make_scheduler_factory(scheduler, **(scheduler_kwargs or {}))
        )
        self.hierarchy = MemoryHierarchy(config, self.memory, self.events)
        self._now = 0
        self.hierarchy.bind_clock(lambda: self._now)
        self.hierarchy.bind_core_waker(
            lambda core_id: self.cores[core_id].wake_skip()
        )
        provider_factory = make_provider_factory(provider_spec)
        self.providers: list[CriticalityProvider] = [
            provider_factory(i) for i in range(config.cores)
        ]
        self.cores = [
            OutOfOrderCore(
                i, config.core, traces[i], self.hierarchy, self.providers[i], self.events
            )
            for i in range(config.cores)
        ]
        self._finish_cycles = [0] * config.cores
        #: Simulated cycles run by the compiled loop and by a Python loop
        #: (host-side only: no result or fingerprint reads them).
        self.loop_cycles = {"compiled": 0, "python": 0}
        for core_id, trace in enumerate(traces):
            ranges = getattr(trace, "prewarm", None)
            if ranges:
                self.hierarchy.prewarm(core_id, ranges)
        # Telemetry spine: every component registers its instruments into
        # one registry; the sampler and event trace attach only when their
        # environment knobs enable them (see repro.telemetry).
        self.telemetry = Telemetry.from_env()
        registry = self.telemetry.registry
        self.hierarchy.register_metrics(registry, "hier")
        for channel in self.memory.channels:
            channel.register_metrics(registry, f"chan{channel.channel_id}")
        for core in self.cores:
            core.register_metrics(registry, f"core{core.core_id}")
        self.telemetry.bind_sampler()
        recorder = self.telemetry.trace
        if recorder is not None:
            for core in self.cores:
                core.tracer = recorder
            for channel in self.memory.channels:
                channel.trace = recorder
            self.hierarchy.trace = recorder
        self.telemetry.begin_stream(self.label)
        # Purity-certificate cross-check (REPRO_VERIFY_EFFECTS=1): bracket
        # certified window-invariant hooks with det_state snapshots so an
        # undeclared mutation fails at the call, not as a later chain split.
        if effectcheck.enabled():
            effectcheck.instrument_system(self)

    @staticmethod
    def resolve_engine(engine: str | None) -> str:
        """Pick the loop implementation: explicit argument, then the
        ``REPRO_ENGINE`` environment knob, then the default (``naive``)."""
        if engine is None:
            engine = os.environ.get("REPRO_ENGINE", "").strip() or "naive"
        if engine not in ENGINES:
            raise ValueError(
                f"unknown engine {engine!r}: expected one of "
                + ", ".join(ENGINES)
            )
        return engine

    def run(
        self,
        max_cycles: int | None = None,
        engine: str | None = None,
    ) -> SimResult:
        """Run every core's trace to completion; returns the results.

        ``engine`` selects the loop implementation (see the module
        docstring); both are bit-identical, so the choice only affects
        wall clock.

        When a streaming writer is attached (``REPRO_STREAM_DIR``) the
        stream is finalized on success and aborted — torn tail removed,
        manifest marked ``failed`` — on any failure, so a crashed run
        never leaves an ambiguous half-written stream behind.

        A System runs once: a successful run ends by releasing its pending
        events and in-flight callbacks (:meth:`_release`), leaving its
        state readable but no longer steppable.
        """
        engine = self.resolve_engine(engine)
        stream = self.telemetry.stream
        if stream is None:
            result = self._dispatch(engine, max_cycles)
        else:
            try:
                result = self._dispatch(engine, max_cycles)
            except BaseException:
                stream.abort()
                raise
            stream.finalize(result.cycles, result.trace_dropped)
        self._release()
        return result

    def _release(self) -> None:
        """Break the reference cycles of a finished run (DESIGN.md §6).

        Pending event callbacks close over the models that scheduled
        them; the hierarchy's clock and core-waker closures close over
        this System, and its in-flight misses call back into the cores
        and itself.  With those cut, reference counting frees a dead
        System and its models the moment the last reference goes, rather
        than leaving tens of thousands of objects to the cyclic
        collector.  Providers outlive the run inside the result, so they
        drop their hooks into the event queue and memory system.
        """
        self.events.clear()
        self.hierarchy.detach()
        for provider in self.providers:
            if isinstance(provider, NaiveForwardingProvider):
                provider.bind_defer(None)

    def _dispatch(self, engine: str, max_cycles: int | None) -> SimResult:
        if engine == "batched":
            return self._run_batched(max_cycles)
        return self._run_naive(max_cycles)

    def _fold_telemetry(self, sampler, stream, limit: int) -> None:
        """Fold sampler and stream-flush points, interleaved on the
        virtual cycle axis.

        The naive loop reaches this once per cycle, so a sample at cycle
        P lands *before* a flush point at P seals the segment.  The
        batched loop calls it with a whole jumped window as ``limit``;
        stepping the two point streams in merged cycle order (sample
        first on ties) reproduces that per-cycle interleaving exactly,
        keeping streamed segment boundaries bit-identical across engines.
        """
        if stream is None:
            sampler.sample_upto(limit)
            return
        while True:
            next_s = sampler.next_sample if sampler is not None else _FOREVER
            point = min(next_s, stream.next_flush)
            if point >= limit:
                break
            if next_s == point:
                sampler.sample_upto(point + 1)
            if stream.next_flush <= point:
                stream.flush_upto(point + 1)
                if stream.next_flush <= point:
                    # A flush that does not advance the next flush point
                    # would spin this loop forever; surface the stuck
                    # cycle instead of hanging the worker.
                    raise RuntimeError(
                        f"telemetry stream stalled at cycle {point}: "
                        f"flush_upto({point + 1}) left next_flush at "
                        f"{stream.next_flush}"
                    )

    def _compiled_loop(self, sampler, stream):
        """``(run_cycles, step, memory_step)`` while the compiled loop may
        run this System's cycles, else None (DESIGN.md §6).

        It may while the core, DRAM and event kernels are loaded, no
        telemetry sampler or stream is attached, and no entry point it
        calls without a Python frame is replaced on its class or set on
        the instance: ``EventQueue.run_due``, ``MemorySystem.step`` and
        each core's ``OutOfOrderCore.step``.  A tracer that wraps one of
        them therefore sees every call, on the Python loop.
        """
        if sampler is not None or stream is not None:
            return None
        kernels = _loop_kernels()
        if kernels is None:
            return None
        if not (_resolves_to(self.events, "run_due",
                             _events._kernel.EventQueue.run_due)
                and _resolves_to(self.memory, "step", _MEMORY_STEP)):
            return None
        for core in self.cores:
            if not _resolves_to(core, "step", _CORE_STEP):
                return None
        return kernels

    def _run_naive(self, max_cycles: int | None = None) -> SimResult:
        """The reference loop: step every component every cycle.

        While :meth:`_compiled_loop` allows, the event kernel's
        ``run_cycles`` runs the cycles up to the next det-chain sample,
        the cap or the end of the run in C, the same calls in the same
        order as the Python body below; control comes back here for each
        sample, and the guard is checked again.  Once it fails, the rest
        of the run takes the Python body, the reference and the fallback.
        """
        cores = self.cores
        events = self.events
        memory = self.memory
        finish = self._finish_cycles
        remaining = len(cores)
        now = self._now
        hit_cap = False
        # Determinism hash-chain: fold a snapshot of architectural state
        # every `every` cycles.  Sample points live on the virtual cycle
        # axis, so the batched loop folds the same states at the same
        # cycles even across windows it jumps.
        every = detchain.interval()
        chain = detchain.DetChain(every) if every else None
        next_sample = every
        # Interval sampler and stream-flush points live on the same axis
        # and are interleaved in cycle order (see _fold_telemetry).
        sampler = self.telemetry.sampler
        stream = self.telemetry.stream
        start = now
        compiled = self._compiled_loop(sampler, stream)
        while remaining:
            if max_cycles is not None and now >= max_cycles:
                hit_cap = True
                break
            if compiled is not None:
                run_cycles, step, memory_step = compiled
                span = now
                now, remaining, sampled = run_cycles(
                    self, step, memory_step, now, remaining,
                    next_sample if chain is not None else None, max_cycles,
                )
                self.loop_cycles["compiled"] += now + sampled - span
                compiled = self._compiled_loop(sampler, stream)
                if not sampled:
                    continue
            else:
                events.run_due(now)
                memory.step(now)
                for core in cores:
                    if core.done:
                        continue
                    core.step(now)
                    if core.done:
                        finish[core.core_id] = now + 1
                        remaining -= 1
            if chain is not None and next_sample == now:
                chain.sample(now, detchain.snapshot(self))
                next_sample += every
            nxt = now + 1
            if sampler is not None or stream is not None:
                self._fold_telemetry(sampler, stream, nxt)
            self._now = now = nxt
        self.loop_cycles["python"] += now - start - self.loop_cycles["compiled"]
        return self._finish_run(now, hit_cap, chain, sampler)

    def _run_batched(self, max_cycles: int | None = None) -> SimResult:
        """Wake-driven, windowed loop: visit only cycles where something
        can happen, and batch whole windows inside the models.

        The naive loop spends most of its time discovering that nothing
        is due; this loop tracks *who is due when* instead (DESIGN.md
        §5.7):

        * **Cores** are either active (stepped every visited cycle, in
          core-id order, forcing the next cycle to be visited) or
          skipping.  A skipping core holds a lazily-invalidated entry in
          a wake heap at its ``skip_until`` and carries a wake hook
          (``_wake_hook``) that fires when an event clears its skip
          early.  Since every wake originates inside an event callback
          (store-buffer retries, DRAM-bound promotions, the core's own
          completion events), hooks only fire during the ``run_due``
          phase — before the core phase — so a core woken at cycle
          ``now`` is stepped at ``now``, exactly as the naive loop would.
        * **Core windows** — when exactly one core is active, it advances
          through :meth:`OutOfOrderCore.step_window` over the span in
          which no event, DRAM edge, or parked-core wake can intervene.
          Windowed stages replay the per-cycle stages exactly, but they
          *do* change state cycle by cycle, so — unlike quiescent jumps —
          a window may only end at a det-chain/sampler/stream fold point,
          never span one: fold points read end-of-cycle state on the
          virtual axis, and the limit computation clamps to the next one.
        * **DRAM channels** register timing-aware wakes
          (:meth:`ChannelController.next_wake_window`) instead of being
          polled: a channel sleeps until the first cycle a command could
          legally issue; the skipped cycles' occupancy/criticality
          statistics are settled in bulk (``account_window``) and their
          det_state is provably constant.
        * **Events** run only when the queue's head is due.

        When every live core is skipping, the loop jumps to the next
        cycle at which anything can happen.  Det-chain, sampler, and
        stream fold points due inside a jump fold the same constant state
        the naive loop would have read cycle by cycle.  The engine
        differential suite and ``REPRO_VERIFY_SKIP`` hold the loop to
        bit-identity with the naive one.

        Only hooks certified in batchability.json are windowed (SEM032
        pins every shortcut site to its certificate; REPRO_VERIFY_EFFECTS
        re-checks the pure ones at runtime).
        """
        cores = self.cores
        events = self.events
        memory = self.memory
        memory._batched = True
        finish = self._finish_cycles
        remaining = len(cores)
        now = start = self._now
        hit_cap = False
        forever = _FOREVER
        every = detchain.interval()
        chain = detchain.DetChain(every) if every else None
        next_sample = every
        sampler = self.telemetry.sampler
        stream = self.telemetry.stream
        fold_telemetry = sampler is not None or stream is not None

        wake_heap: list = []  # (skip_until, core_id); stale entries dropped
        woken: list = []  # skipping cores whose wake hook fired

        def on_wake(core):
            core._wake_hook = None
            woken.append(core)

        is_active = [not core.done for core in cores]
        active = [core for core in cores if not core.done]
        dirty = False

        while remaining:
            if max_cycles is not None and now >= max_cycles:
                hit_cap = True
                break
            due = events.next_cycle()
            if due is not None and due <= now:
                events.run_due(now)
                if woken:
                    for core in woken:
                        cid = core.core_id
                        if not is_active[cid] and not core.done:
                            is_active[cid] = True
                            dirty = True
                    del woken[:]
            memory.step_window(now)
            while wake_heap:
                cycle, cid = wake_heap[0]
                core = cores[cid]
                if core.done or core.skip_until != cycle:
                    heapq.heappop(wake_heap)  # stale: woken or re-planned
                    continue
                if cycle > now:
                    break
                heapq.heappop(wake_heap)
                core._wake_hook = None
                if not is_active[cid]:
                    is_active[cid] = True
                    dirty = True
            if dirty:
                active = [core for core in cores if is_active[core.core_id]]
                dirty = False
            nxt = now + 1
            if len(active) == 1:
                # Single active core: find the span in which nothing else
                # can intervene and let the core advance through it.
                core = active[0]
                target = memory.wake_cpu(now)
                event_cycle = events.next_cycle()
                if event_cycle is not None and event_cycle < target:
                    target = event_cycle
                while wake_heap:
                    cycle, cid = wake_heap[0]
                    other = cores[cid]
                    if other.done or other.skip_until != cycle:
                        heapq.heappop(wake_heap)
                        continue
                    if cycle < target:
                        target = cycle
                    break
                if chain is not None and next_sample + 1 < target:
                    target = next_sample + 1
                if sampler is not None and sampler.next_sample + 1 < target:
                    target = sampler.next_sample + 1
                if stream is not None and stream.next_flush + 1 < target:
                    target = stream.next_flush + 1
                if max_cycles is not None and target > max_cycles:
                    target = max_cycles
                if core._quiet_deltas is not None:
                    core.flush_skip(now)
                if target > nxt:
                    # The span is sound because the DRAM side publishes
                    # no CPU-visible edge before ``target``:
                    # repro-batch: cert=MemorySystem.wake_cpu
                    nxt = now + core.step_window(now, target)
                else:
                    core.step(now)
                if core.done:
                    finish[core.core_id] = nxt
                    remaining -= 1
                    is_active[core.core_id] = False
                    dirty = True
                elif core.plan_defer:
                    core.plan_defer -= 1
                else:
                    plan = core.skip_plan(nxt - 1)
                    if plan is None:
                        core.plan_defer = 3
                    else:
                        core.begin_skip(plan, nxt - 1, forever)
                        is_active[core.core_id] = False
                        dirty = True
                        core._wake_hook = on_wake
                        if core.skip_until < forever:
                            heapq.heappush(
                                wake_heap, (core.skip_until, core.core_id)
                            )
            else:
                for core in active:
                    if core._quiet_deltas is not None:
                        core.flush_skip(now)
                    core.step(now)
                    if core.done:
                        finish[core.core_id] = now + 1
                        remaining -= 1
                        is_active[core.core_id] = False
                        dirty = True
                    elif core.plan_defer:
                        core.plan_defer -= 1
                    else:
                        plan = core.skip_plan(now)
                        if plan is None:
                            core.plan_defer = 3
                        else:
                            core.begin_skip(plan, now, forever)
                            is_active[core.core_id] = False
                            dirty = True
                            core._wake_hook = on_wake
                            if core.skip_until < forever:
                                heapq.heappush(
                                    wake_heap, (core.skip_until, core.core_id)
                                )
            if dirty:
                active = [core for core in cores if is_active[core.core_id]]
                dirty = False
            if not active and remaining:
                # Every live core is skipping: jump to the next cycle at
                # which anything can happen.  DRAM gap-skipping rides on
                # this jump — windowed channel wakes land in _chan_wake,
                # so wake_cpu already reflects them.
                target = memory.wake_cpu(nxt - 1)
                event_cycle = events.next_cycle()
                if event_cycle is not None and event_cycle < target:
                    target = event_cycle
                while wake_heap:
                    cycle, cid = wake_heap[0]
                    core = cores[cid]
                    if core.done or core.skip_until != cycle:
                        heapq.heappop(wake_heap)
                        continue
                    if cycle < target:
                        target = cycle
                    break
                if max_cycles is not None and target > max_cycles:
                    target = max_cycles
                if target > nxt:
                    nxt = target
            if chain is not None and next_sample < nxt:
                state = detchain.snapshot(self)
                while next_sample < nxt:
                    chain.sample(next_sample, state)
                    next_sample += every
            if fold_telemetry:
                self._fold_telemetry(sampler, stream, nxt)
            self._now = now = nxt
        for core in cores:
            core._wake_hook = None
        memory.settle_idle(now)
        self.loop_cycles["python"] += now - start
        return self._finish_run(now, hit_cap, chain, sampler)

    def _check_core_ledger(self) -> None:
        """Every core of a finished run committed its whole trace once and
        left its ROB, load queue and store queue empty."""
        for core in self.cores:
            committed = core.stats.committed
            expected = len(core.trace)
            held = (core.rob_occupancy(), core._lq_used, core._sq_used)
            if committed != expected or any(held):
                raise RuntimeError(
                    f"core {core.core_id} ledger broken at run end: "
                    f"committed {committed} of {expected} trace "
                    f"instructions; ROB/LQ/SQ hold {held[0]}/{held[1]}/"
                    f"{held[2]} entries"
                )

    def _finish_run(self, now, hit_cap, chain, sampler) -> SimResult:
        """Shared end-of-run settlement and result assembly."""
        cores = self.cores
        finish = self._finish_cycles
        for core in cores:
            if not core.done:
                core.flush_skip(now)
                if finish[core.core_id] == 0:
                    finish[core.core_id] = now
        if not hit_cap:
            self._check_core_ledger()
        self.memory.finish_sanitize(now)

        if chain is not None:
            chain.finalize(now, detchain.snapshot(self))
        for path, cycles in self.loop_cycles.items():
            loop_totals[path] += cycles
        recorder = self.telemetry.trace
        result = SimResult(
            label=self.label,
            cycles=now,
            finish_cycles=list(finish),
            committed=[c.stats.committed for c in cores],
            core_stats=[c.stats for c in cores],
            hierarchy=self.hierarchy.stats,
            channels=[ch.stats for ch in self.memory.channels],
            providers=self.providers,
            hit_max_cycles=hit_cap,
            det_chain=chain.digest if chain is not None else None,
            det_checkpoints=chain.checkpoints if chain is not None else [],
            metrics=self.telemetry.registry.snapshot(),
            sample_cycles=list(sampler.cycles) if sampler is not None else [],
            timeseries=(
                {name: list(series) for name, series in sampler.series.items()}
                if sampler is not None
                else {}
            ),
            trace_events=list(recorder.events) if recorder is not None else [],
            trace_dropped=recorder.dropped if recorder is not None else 0,
        )
        return result
