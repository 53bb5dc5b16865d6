"""Memory hierarchy: latencies, MSHR merging, coherence, criticality flow."""

import pytest

from repro.config import DramConfig, SystemConfig
from repro.cache.base import MODIFIED, SHARED
from repro.cache.hierarchy import MemoryHierarchy
from repro.dram.controller import MemorySystem
from repro.sched.frfcfs import FrFcfsScheduler
from repro.sim.events import EventQueue


class Harness:
    """Hierarchy + memory + clock, steppable cycle by cycle."""

    def __init__(self, config=None):
        self.config = config or SystemConfig(cores=2)
        self.events = EventQueue()
        self.memory = MemorySystem(self.config.dram, lambda c: FrFcfsScheduler())
        self.hier = MemoryHierarchy(self.config, self.memory, self.events)
        self.now = 0
        self.hier.bind_clock(lambda: self.now)

    def run(self, cycles):
        for _ in range(cycles):
            self.events.run_due(self.now)
            self.memory.step(self.now)
            self.now += 1

    def load(self, core, addr, pc=1, critical=False, magnitude=0):
        done = []
        handle = self.hier.load(
            core, pc, addr, critical, magnitude, lambda c: done.append(c), self.now
        )
        return handle, done

    def complete(self, done, limit=20_000):
        start = self.now
        while not done and self.now < start + limit:
            self.run(1)
        assert done, "load never completed"
        return done[0]


class TestLoadLatencies:
    def test_l1_hit_latency(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 1)])
        _handle, done = h.load(0, 100)
        t = h.complete(done)
        assert t == h.config.l1d.round_trip_latency

    def test_l2_hit_latency(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 2)])  # L2 only
        _handle, done = h.load(0, 100)
        t = h.complete(done)
        assert t == h.config.l2.round_trip_latency

    def test_dram_load_slower_than_l2(self):
        h = Harness()
        _handle, done = h.load(0, 1 << 22)
        t = h.complete(done)
        assert t > h.config.l2.round_trip_latency
        assert h.hier.stats.dram_loads == 1

    def test_handle_marks_dram(self):
        h = Harness()
        handle, done = h.load(0, 1 << 22)
        h.complete(done)
        assert handle.went_to_dram
        assert handle.txn is not None


class TestMshrMerging:
    def test_same_line_loads_merge(self):
        h = Harness()
        _h1, d1 = h.load(0, 1 << 22)
        _h2, d2 = h.load(0, (1 << 22) + 8)
        h.complete(d1)
        h.complete(d2)
        assert h.hier.stats.dram_loads == 1  # one fill serves both

    def test_merged_critical_load_raises_txn_urgency(self):
        h = Harness()
        h1, d1 = h.load(0, 1 << 22, critical=False)
        h.run(40)  # let it reach the DRAM queue
        h2, d2 = h.load(0, (1 << 22) + 8, critical=True, magnitude=99)
        assert h1.txn is not None
        assert h1.txn.critical
        assert h1.txn.magnitude == 99
        h.complete(d1)
        h.complete(d2)

    def test_l1_mshr_full_rejects(self):
        import dataclasses

        from repro.config import L1D_DEFAULT

        cfg = SystemConfig(
            cores=2, l1d=dataclasses.replace(L1D_DEFAULT, mshr_entries=2)
        )
        h = Harness(cfg)
        assert h.load(0, 1 << 22)[0] is not None
        assert h.load(0, (1 << 22) + 4096)[0] is not None
        assert h.load(0, (1 << 22) + 8192)[0] is None  # full -> replay


class TestCriticalityPropagation:
    def test_annotation_reaches_txn(self):
        h = Harness()
        handle, done = h.load(0, 1 << 23, pc=42, critical=True, magnitude=321)
        h.run(40)
        assert handle.txn is not None
        assert handle.txn.critical
        assert handle.txn.magnitude == 321
        h.complete(done)

    def test_latency_stats_split_by_class(self):
        h = Harness()
        _h1, d1 = h.load(0, 1 << 23, critical=True, magnitude=5)
        _h2, d2 = h.load(0, 2 << 23, critical=False)
        h.complete(d1)
        h.complete(d2)
        s = h.hier.stats
        assert s.crit_latency.count == 1
        assert s.noncrit_latency.count == 1
        assert s.mean_latency(True) > 0

    def test_per_pc_latency_recorded(self):
        h = Harness()
        _h1, d1 = h.load(0, 1 << 23, pc=77)
        h.complete(d1)
        assert 77 in h.hier.stats.pc_latency


class TestStoresAndCoherence:
    def test_store_hit_dirties_line(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 1)])
        h.hier.store(0, 100, h.now)
        l1 = h.hier.l1[0]
        slot = l1.peek(96)
        assert l1.state[slot] == MODIFIED
        assert l1.dirty[slot]

    def test_store_upgrade_invalidates_remote_sharer(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 1)])
        h.hier.prewarm(1, [(0, 4096, 1)])
        h.hier.store(0, 100, h.now)
        assert h.hier.l1[1].peek(96) is None
        assert h.hier.stats.invalidations >= 1

    def test_store_miss_rfo_fetches_line(self):
        h = Harness()
        h.hier.store(0, 1 << 22, h.now)
        h.run(2_000)
        l1 = h.hier.l1[0]
        slot = l1.peek(1 << 22)
        assert slot is not None
        assert l1.state[slot] == MODIFIED

    def test_load_after_remote_modified_gets_shared_copy(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 4096, 1)])
        h.hier.store(0, 100, h.now)
        _handle, done = h.load(1, 100)
        h.complete(done)
        l1 = h.hier.l1[0]
        assert l1.state[l1.peek(96)] == SHARED
        assert h.hier.l1[1].peek(96) is not None
        assert h.hier.stats.interventions >= 1

    def test_store_buffer_backpressure_signal(self):
        h = Harness()
        assert h.hier.can_accept_store(0)


class TestWritebacks:
    def test_dirty_l2_eviction_writes_to_dram(self):
        import dataclasses

        from repro.config import L2_DEFAULT

        tiny_l2 = dataclasses.replace(
            L2_DEFAULT, size_bytes=2 * 64 * 8, ways=2  # 8 sets, 2 ways
        )
        cfg = SystemConfig(cores=2, l2=tiny_l2)
        h = Harness(cfg)
        # Dirty a line, then stream enough lines through its set to evict.
        h.hier.store(0, 0, h.now)
        h.run(2_000)
        for k in range(1, 6):
            _handle, done = h.load(0, k * 8 * 64 * 2)  # same set (8 sets)
            h.complete(done)
        h.run(4_000)
        assert h.hier.stats.writebacks >= 1


class TestPrewarm:
    def test_level1_fills_both_levels(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 1024, 1)])
        assert h.hier.l1[0].peek(0) is not None
        assert h.hier.l2.peek(0) is not None

    def test_level2_fills_l2_only(self):
        h = Harness()
        h.hier.prewarm(0, [(0, 1024, 2)])
        assert h.hier.l1[0].peek(0) is None
        assert h.hier.l2.peek(0) is not None
