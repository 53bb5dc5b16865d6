"""Differential and property harness for the batched (windowed) engine.

The batched engine (``--engine batched``) steps the core and DRAM
models over whole ready-windows instead of cycle by cycle, citing the
batchability certificates at every shortcut site.  This module is the
gate that keeps it honest:

* **Engine differential** — det-chain and ``result_fingerprint`` (which
  covers the sampled series and every traced event) for naive/batched
  across every registered scheduler, with the batched run additionally
  instrumented by ``REPRO_VERIFY_EFFECTS=1`` (runtime purity brackets
  around every certified hook).
* **Hypothesis properties** — randomly generated traces driven through
  `OutOfOrderCore.step_window` with random window spans (including
  spans cut short by mid-window wakes from the event queue and the DRAM
  wake schedule) must be bit-equal to the per-cycle reference; the DRAM
  side's `next_wake_window` promises are checked against per-cycle
  stepping, and the incrementally maintained cache det_state words are
  re-validated against the full-scan reference after every run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.hierarchy import MemoryHierarchy
from repro.config import SimScale, SystemConfig
from repro.core.cbp import CbpMetric
from repro.core.provider import CbpProvider, CriticalityProvider
from repro.cpu.core import OutOfOrderCore
from repro.cpu.instruction import BRANCH, FP, INT, LOAD, STORE, Trace
from repro.dram.controller import MemorySystem
from repro.sched.frfcfs import FrFcfsScheduler
from repro.sched.registry import SCHEDULERS
from repro.sim.stats import _stat_items, result_fingerprint
from repro.sim.system import ENGINES, System
from repro.sim.events import EventQueue
from repro.workloads.parallel import parallel_traces

SCALE = SimScale(instructions_per_core=400, warmup_instructions=0, seed=11)


def _provider_for(scheduler: str):
    if "crit" in scheduler:
        return ("cbp", {"entries": 64})
    return None


def _make_system(scheduler="fr-fcfs"):
    config = SystemConfig.parallel_default()
    traces = parallel_traces(
        "fft", config.cores, SCALE.instructions_per_core, seed=SCALE.seed
    )
    return System(
        config, traces, scheduler=scheduler,
        provider_spec=_provider_for(scheduler),
    )


@pytest.fixture
def telemetry_on(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


# ------------------------------------------------------- engine identity


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_engines_bit_identical_for_every_scheduler(
    telemetry_on, monkeypatch, scheduler
):
    """naive == batched: det-chain and fingerprint, every traced event
    included.

    The batched leg runs with the runtime effect checker on, so every
    window-invariance certificate it leans on is re-verified while the
    identity is proven.
    """
    results = {}
    for engine in ENGINES:
        if engine == "batched":
            monkeypatch.setenv("REPRO_VERIFY_EFFECTS", "1")
            monkeypatch.setenv("REPRO_VERIFY_EFFECTS_EVERY", "5")
        else:
            monkeypatch.delenv("REPRO_VERIFY_EFFECTS", raising=False)
        results[engine] = _make_system(scheduler).run(engine=engine)
    reference = results["naive"]
    fingerprint = result_fingerprint(reference)
    assert reference.trace_events, "trace recorded nothing"
    # An unwrapped ring holds every event the run recorded, so the
    # fingerprint's trace_events compares all of them.
    assert reference.trace_dropped == 0
    for engine in ENGINES[1:]:
        other = results[engine]
        assert other.det_chain == reference.det_chain, engine
        assert result_fingerprint(other) == fingerprint, engine


class TestBatchedCapAndBoundaries:
    """Caps and fold points landing inside planned windows."""

    def _run(self, engine, cap, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        return _make_system().run(max_cycles=cap, engine=engine)

    @pytest.mark.parametrize("cap", (257, 500))
    def test_cap_inside_a_window(self, telemetry_on, monkeypatch, cap):
        """A max_cycles cap must clamp windows exactly, including caps
        that land mid-stride on no fold boundary (257 is prime)."""
        naive = self._run("naive", cap, monkeypatch)
        batched = self._run("batched", cap, monkeypatch)
        assert naive.hit_max_cycles and batched.hit_max_cycles
        assert naive.cycles == batched.cycles == cap
        assert result_fingerprint(naive) == result_fingerprint(batched)

    def test_chain_boundary_equals_window_end(self, monkeypatch):
        """Det-chain fold points may only sit at a window's final cycle;
        a cap on a chain sample cycle exercises exactly that edge."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "128")
        results = [
            _make_system().run(max_cycles=256, engine=engine)
            for engine in ("naive", "batched")
        ]
        assert all(r.hit_max_cycles for r in results)
        assert len({r.det_chain for r in results}) == 1
        assert len({len(r.det_checkpoints) for r in results}) == 1

    def test_incremental_cache_det_state_matches_scan(self):
        system = _make_system("crit-casras")
        system.run(engine="batched")
        caches = list(system.hierarchy.l1) + [system.hierarchy.l2]
        for cache in caches:
            assert cache.det_state() == cache.det_state_scan()


# ------------------------------------------------- property-based harness


class _SoloHarness:
    """One core on a private hierarchy/DRAM, driven cycle by cycle.

    Mirrors the naive engine's per-cycle phase order (events, memory,
    core) so windowed and per-cycle stepping can be compared in
    isolation from the engine loop.
    """

    def __init__(self, trace, provider=None):
        self.config = SystemConfig(cores=1)
        self.events = EventQueue()
        self.memory = MemorySystem(self.config.dram, lambda c: FrFcfsScheduler())
        self.hier = MemoryHierarchy(self.config, self.memory, self.events)
        self.now = 0
        self.hier.bind_clock(lambda: self.now)
        self.core = OutOfOrderCore(
            0, self.config.core, trace, self.hier,
            provider or CriticalityProvider(), self.events,
        )

    def state(self):
        """Everything the differential asserts on: architectural words
        plus the full statistics surface (settled)."""
        return (
            self.now,
            tuple(self.core.det_state()),
            _stat_items(self.core.stats),
            tuple(
                tuple(ch.det_state()) for ch in self.memory.channels
            ),
            tuple(_stat_items(ch.stats) for ch in self.memory.channels),
            _stat_items(self.hier.stats),
        )

    def run_reference(self, max_cycles, check_wake_promises=False):
        """Per-cycle stepping; optionally audit next_wake_window promises.

        With ``check_wake_promises`` each DRAM edge first asks every
        channel for its windowed wake; edges strictly inside a promised
        quiet span must then leave that channel's det_state untouched —
        the soundness contract the batched engine relies on.  A new
        enqueue voids the promise (the engine re-registers the wake via
        ``try_enqueue``), so promises only bind while the channel's
        queue contents are unchanged since the promise was made.
        """
        ratio = self.memory._ratio
        channels = self.memory.channels
        promised = [0] * len(channels)
        pend_at_promise = [c.pending() for c in channels]
        while not self.core.done and self.now < max_cycles:
            now = self.now
            self.events.run_due(now)
            if check_wake_promises and now % ratio == 0:
                dram_now = now // ratio
                before = None
                quiet = [
                    i for i in range(len(channels))
                    if dram_now < promised[i]
                    and channels[i].pending() == pend_at_promise[i]
                ]
                if quiet:
                    before = {i: channels[i].det_state() for i in quiet}
                self.memory.step(now)
                if quiet:
                    for i in quiet:
                        assert channels[i].det_state() == before[i], (
                            f"channel {i} acted at dram cycle {dram_now} "
                            f"inside a span next_wake_window promised "
                            f"quiet (until {promised[i]})"
                        )
                for i, channel in enumerate(channels):
                    promised[i] = channel.next_wake_window(dram_now)
                    pend_at_promise[i] = channel.pending()
            else:
                self.memory.step(now)
            self.core.step(now)
            self.now = now + 1
        # No settle_idle here: the per-cycle loop samples every edge
        # eagerly, exactly like the naive engine (which never settles).

    def run_windowed(self, spans, max_cycles):
        """Advance via step_window with externally chosen span requests.

        Each requested span is clamped exactly as the batched engine
        clamps it — to the next due event and the DRAM wake — so random
        spans explore every legal window boundary, including windows cut
        short by mid-window wakes.
        """
        self.memory._batched = True
        core = self.core
        i = 0
        while not core.done and self.now < max_cycles:
            now = self.now
            self.events.run_due(now)
            self.memory.step_window(now)
            span = spans[i % len(spans)]
            i += 1
            target = now + span
            wake = self.memory.wake_cpu(now)
            if wake < target:
                target = wake
            due = self.events.next_cycle()
            if due is not None and due < target:
                target = due
            if target > max_cycles:
                target = max_cycles
            if target > now + 1:
                consumed = core.step_window(now, target)
            else:
                core.step(now)
                consumed = 1
            self.now = now + consumed
        self.memory.settle_idle(self.now)


#: (kind, pc, page, dep1) — dependencies as backward distances, pages
#: spread far enough apart that loads miss to DRAM.
_instruction = st.tuples(
    st.sampled_from(["int", "fp", "load", "store", "branch", "misp"]),
    st.integers(0, 31),
    st.integers(0, 24),
    st.integers(0, 3),
)


def _build_trace(items) -> Trace:
    trace = Trace("prop")
    for kind, pc, page, dep in items:
        addr = (page << 14) | ((pc * 64) & 0x3FC0)
        if kind == "int":
            trace.append(INT, pc, 0, dep)
        elif kind == "fp":
            trace.append(FP, pc, 0, dep)
        elif kind == "load":
            trace.append(LOAD, pc, addr, dep)
        elif kind == "store":
            trace.append(STORE, pc, addr, dep)
        else:
            trace.append(BRANCH, pc, 0, dep, misp=(kind == "misp"))
    return trace


_CYCLE_BUDGET = 60_000


@settings(max_examples=25, deadline=None)
@given(
    items=st.lists(_instruction, min_size=20, max_size=120),
    spans=st.lists(st.integers(1, 96), min_size=1, max_size=16),
)
def test_windowed_core_stepping_equals_per_cycle(items, spans):
    """step_window over random spans == step over every cycle, bit for
    bit: core det_state, all statistics, channel state, run length."""
    reference = _SoloHarness(_build_trace(items))
    windowed = _SoloHarness(_build_trace(items))
    reference.run_reference(_CYCLE_BUDGET)
    windowed.run_windowed(spans, _CYCLE_BUDGET)
    assert reference.core.done and windowed.core.done
    assert windowed.state() == reference.state()


@settings(max_examples=15, deadline=None)
@given(
    items=st.lists(_instruction, min_size=30, max_size=120),
    spans=st.lists(st.integers(1, 96), min_size=1, max_size=16),
)
def test_windowed_stepping_with_criticality_provider(items, spans):
    """Criticality bumps flipping queued transactions' flags mid-gap
    (the presettle path) must not perturb the lazily settled
    criticality counters."""

    def provider():
        return CbpProvider(entries=64, metric=CbpMetric.MAX_STALL)

    reference = _SoloHarness(_build_trace(items), provider())
    windowed = _SoloHarness(_build_trace(items), provider())
    reference.run_reference(_CYCLE_BUDGET)
    windowed.run_windowed(spans, _CYCLE_BUDGET)
    assert windowed.state() == reference.state()


@settings(max_examples=15, deadline=None)
@given(items=st.lists(_instruction, min_size=30, max_size=120))
def test_next_wake_window_promises_are_sound(items):
    """Cycles inside a promised-quiet DRAM span never mutate det_state:
    audited per edge against real per-cycle stepping."""
    harness = _SoloHarness(_build_trace(items))
    harness.run_reference(_CYCLE_BUDGET, check_wake_promises=True)
    assert harness.core.done


@settings(max_examples=10, deadline=None)
@given(
    items=st.lists(_instruction, min_size=20, max_size=80),
    spans=st.lists(st.integers(1, 64), min_size=1, max_size=8),
    cap=st.integers(40, 400),
)
def test_windowed_stepping_respects_caps(items, spans, cap):
    """Capped runs stop at the same cycle with the same state."""
    reference = _SoloHarness(_build_trace(items))
    windowed = _SoloHarness(_build_trace(items))
    reference.run_reference(cap)
    windowed.run_windowed(spans, cap)
    assert windowed.state() == reference.state()


@settings(max_examples=15, deadline=None)
@given(
    items=st.lists(_instruction, min_size=20, max_size=120),
    spans=st.lists(st.integers(1, 96), min_size=1, max_size=16),
)
def test_windowed_core_det_state_incremental_matches_scan(items, spans):
    """After a windowed run the incrementally maintained cache det_state
    words still equal the full tag-array walk, and the core's det_state
    is reproducible on re-read (no hidden latch left mid-window)."""
    windowed = _SoloHarness(_build_trace(items))
    windowed.run_windowed(spans, _CYCLE_BUDGET)
    for cache in list(windowed.hier.l1) + [windowed.hier.l2]:
        assert cache.det_state() == cache.det_state_scan()
    assert windowed.core.det_state() == windowed.core.det_state()
