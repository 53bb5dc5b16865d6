"""Out-of-order core model: dispatch, issue, commit, blocking detection."""

import pytest

from repro.config import CoreConfig, DramConfig, SystemConfig
from repro.cache.hierarchy import MemoryHierarchy
from repro.core.provider import CbpProvider, CriticalityProvider
from repro.core.cbp import CbpMetric
from repro.cpu.core import OutOfOrderCore
from repro.cpu.instruction import BRANCH, INT, LOAD, STORE, Trace
from repro.dram.controller import MemorySystem
from repro.sched.frfcfs import FrFcfsScheduler
from repro.sim.events import EventQueue

def make_compute_trace(n=500, pc_base=0):
    from repro.cpu.instruction import FP

    trace = Trace("compute")
    for i in range(n):
        trace.append(INT if i % 3 else FP, pc_base + (i % 40), 0, 1 if i else 0)
    return trace


class CoreHarness:
    def __init__(self, trace, config=None, provider=None, prewarm=None):
        self.config = config or SystemConfig(cores=1)
        self.events = EventQueue()
        self.memory = MemorySystem(self.config.dram, lambda c: FrFcfsScheduler())
        self.hier = MemoryHierarchy(self.config, self.memory, self.events)
        self.now = 0
        self.hier.bind_clock(lambda: self.now)
        if prewarm:
            self.hier.prewarm(0, prewarm)
        self.core = OutOfOrderCore(
            0, self.config.core, trace, self.hier,
            provider or CriticalityProvider(), self.events,
        )

    def step(self):
        self.events.run_due(self.now)
        self.memory.step(self.now)
        self.core.step(self.now)
        self.now += 1

    def run(self, max_cycles=500_000):
        while not self.core.done and self.now < max_cycles:
            self.step()
        assert self.core.done, "core did not finish"
        return self.core.stats


class TestCompute:
    def test_all_instructions_commit(self):
        h = CoreHarness(make_compute_trace(400))
        stats = h.run()
        assert stats.committed == 400

    def test_ipc_bounded_by_width(self):
        h = CoreHarness(make_compute_trace(400))
        stats = h.run()
        assert 0 < stats.ipc <= 4.0

    def test_dependency_chain_serialises(self):
        # A pure serial INT chain commits ~1 per cycle; an independent
        # stream commits ~4 per cycle.
        serial = Trace("serial")
        for i in range(300):
            serial.append(INT, 1, 0, 1 if i else 0)
        parallel = Trace("parallel")
        for i in range(300):
            parallel.append(INT, 1, 0, 0)
        t_serial = CoreHarness(serial).run().cycles
        t_parallel = CoreHarness(parallel).run().cycles
        # Serial: 1 per cycle; parallel: 2 per cycle (two INT units).
        assert t_serial >= 1.9 * t_parallel


class TestLoads:
    def test_load_hits_from_prewarmed_cache(self):
        trace = Trace("l")
        for i in range(100):
            trace.append(LOAD if i % 4 == 0 else INT, i % 16, (i * 8) % 4096, 0)
        h = CoreHarness(trace, prewarm=[(0, 8192, 1)])
        stats = h.run()
        assert stats.committed == 100
        assert stats.blocking_loads == 0  # L1 hits never block as DRAM loads

    def test_dram_load_blocks_rob_head(self):
        trace = Trace("m")
        trace.append(LOAD, 5, 1 << 22, 0)
        for _ in range(20):
            trace.append(INT, 6, 0, 1)
        h = CoreHarness(trace)
        stats = h.run()
        assert stats.blocking_loads == 1
        assert stats.blocked_cycles > 50
        assert stats.total_block_stall > 50

    def test_blocking_reported_to_provider(self):
        provider = CbpProvider(entries=None, metric=CbpMetric.MAX_STALL)
        trace = Trace("m")
        for rep in range(3):
            trace.append(LOAD, 5, (1 << 22) + rep * (1 << 14), 0)
            for _ in range(30):
                trace.append(INT, 6, 0, 1)
        h = CoreHarness(trace, provider=provider)
        h.run()
        assert provider.cbp.predict(5) > 50  # stall recorded under pc 5

    def test_independent_loads_overlap(self):
        # Two independent DRAM loads should take much less than 2x one.
        one = Trace("one")
        one.append(LOAD, 1, 1 << 22, 0)
        one.append(INT, 2, 0, 1)
        two = Trace("two")
        two.append(LOAD, 1, 1 << 22, 0)
        two.append(LOAD, 3, (1 << 22) + (1 << 16), 0)
        two.append(INT, 2, 0, 1)
        two.append(INT, 4, 0, 1)
        t1 = CoreHarness(one).run().cycles
        t2 = CoreHarness(two).run().cycles
        assert t2 < t1 * 1.5

    def test_dependent_loads_serialise(self):
        dep = Trace("dep")
        dep.append(LOAD, 1, 1 << 22, 0)
        dep.append(LOAD, 3, (1 << 22) + (1 << 16), 1)  # depends on prior load
        one = Trace("one")
        one.append(LOAD, 1, 1 << 22, 0)
        t_dep = CoreHarness(dep).run().cycles
        t_one = CoreHarness(one).run().cycles
        assert t_dep > t_one * 1.6


class TestLoadQueue:
    def test_lq_capacity_stalls_dispatch(self):
        cfg = SystemConfig(cores=1)
        cfg = cfg.scaled(core=cfg.core.scaled(load_queue_entries=4))
        trace = Trace("lq")
        for k in range(40):
            trace.append(LOAD, k % 8, (1 << 22) + k * (1 << 14), 0)
        h = CoreHarness(trace, config=cfg)
        stats = h.run()
        assert stats.lq_full_cycles > 0

    def test_bigger_lq_reduces_stall(self):
        def run_with(lq):
            cfg = SystemConfig(cores=1)
            cfg = cfg.scaled(core=cfg.core.scaled(load_queue_entries=lq))
            trace = Trace("lq")
            for k in range(60):
                trace.append(LOAD, k % 8, (1 << 22) + k * (1 << 14), 0)
                trace.append(INT, 99, 0, 0)
            return CoreHarness(trace, config=cfg).run()
        small = run_with(4)
        big = run_with(64)
        assert big.lq_full_cycles < small.lq_full_cycles


class TestStores:
    def test_stores_commit_without_blocking(self):
        trace = Trace("st")
        for k in range(50):
            trace.append(STORE, 3, (1 << 22) + k * 64, 0)
            trace.append(INT, 4, 0, 0)
        h = CoreHarness(trace)
        stats = h.run()
        assert stats.committed == 100
        assert h.hier.stats.stores == 50


class TestBranches:
    def test_mispredicts_slow_execution(self):
        def branch_trace(misp):
            t = Trace("br")
            for i in range(400):
                if i % 8 == 0:
                    t.append(BRANCH, 1, 0, 1, 0, misp=misp)
                else:
                    t.append(INT, 2, 0, 0)
            return t
        clean = CoreHarness(branch_trace(False)).run().cycles
        dirty = CoreHarness(branch_trace(True)).run().cycles
        assert dirty > clean * 1.5


class TestConsumerCounting:
    def test_clpt_consumer_counts_reported(self):
        counts = []

        class Recorder(CriticalityProvider):
            def on_load_consumers(self, pc, count):
                counts.append((pc, count))

        trace = Trace("cc")
        trace.append(LOAD, 9, 1 << 12, 0)
        trace.append(INT, 1, 0, 1)   # consumer 1
        trace.append(INT, 2, 0, 2)   # consumer 2 (distance 2)
        trace.append(INT, 3, 0, 0)
        h = CoreHarness(trace, provider=Recorder(), prewarm=[(0, 8192, 1)])
        h.run()
        assert counts == [(9, 2)]


class TestRobOccupancy:
    def test_rob_never_exceeds_capacity(self):
        trace = Trace("rob")
        trace.append(LOAD, 1, 1 << 22, 0)
        for _ in range(300):
            trace.append(INT, 2, 0, 0)
        h = CoreHarness(trace)
        peak = 0
        while not h.core.done and h.now < 100_000:
            h.events.run_due(h.now)
            h.memory.step(h.now)
            h.core.step(h.now)
            peak = max(peak, h.core.rob_occupancy())
            h.now += 1
        assert h.core.done
        assert peak <= h.config.core.rob_entries
        assert peak > 64  # the DRAM stall should fill most of the window
