"""L2 stream prefetcher behaviour."""

import pytest

from repro.config import PrefetcherConfig
from repro.cache.prefetcher import StreamPrefetcher


def make_pf(enabled=True, streams=4, distance=16, degree=4):
    return StreamPrefetcher(
        PrefetcherConfig(enabled=enabled, streams=streams, distance=distance,
                         degree=degree),
        line_bytes=64,
    )


def train(pf, start_line, count, step=1):
    out = []
    for k in range(count):
        out.extend(pf.observe((start_line + k * step) * 64, is_miss=True))
    return out


class TestTraining:
    def test_disabled_returns_nothing(self):
        pf = make_pf(enabled=False)
        assert train(pf, 100, 10) == []

    def test_needs_confirmations(self):
        pf = make_pf()
        assert pf.observe(100 * 64, True) == []   # allocate
        assert pf.observe(101 * 64, True) == []   # confidence 1
        assert pf.observe(102 * 64, True) != []   # confirmed -> prefetch

    def test_prefetches_ahead_in_direction(self):
        pf = make_pf()
        issued = train(pf, 100, 8)
        lines = [a // 64 for a in issued]
        assert lines
        assert all(line > 100 for line in lines)
        assert lines == sorted(lines)

    def test_degree_limits_per_access(self):
        pf = make_pf(degree=2)
        train(pf, 100, 4)
        burst = pf.observe(104 * 64, True)
        assert len(burst) <= 2

    def test_distance_limits_runahead(self):
        pf = make_pf(distance=8, degree=8)
        issued = train(pf, 100, 12)
        lines = [a // 64 for a in issued]
        # No prefetch more than `distance` lines beyond its trigger.
        assert max(lines) <= 111 + 8

    def test_descending_streams_supported(self):
        pf = make_pf()
        issued = []
        for k in range(8):
            issued.extend(pf.observe((200 - k) * 64, True))
        lines = [a // 64 for a in issued]
        assert lines and all(line < 200 for line in lines)

    def test_descending_stream_stops_at_line_zero(self):
        pf = make_pf()
        issued = []
        for line in (3, 2, 1, 0):
            issued.extend(pf.observe(line * 64, True))
        assert issued == [0]

    def test_descending_stream_near_zero_runs_on_a_system(self):
        """Prefetches of a stream walking down to address 0 reach DRAM
        as real addresses (a negative one would fail to map)."""
        from repro.config import SystemConfig
        from repro.cpu.instruction import INT, LOAD, Trace
        from repro.sim.system import System

        trace = Trace("descending")
        for address in (192, 128, 64, 0):
            trace.append(LOAD, 1, address, 0)
            trace.append(INT, 2, 0, 1)
        config = SystemConfig(cores=1, prefetcher=PrefetcherConfig(
            enabled=True, streams=4, distance=16, degree=4))
        result = System(config, [trace]).run(max_cycles=200_000)
        assert not result.hit_max_cycles
        assert result.hierarchy.prefetches_issued == 1


class TestStreamTable:
    def test_stream_capacity_evicts_lru(self):
        pf = make_pf(streams=2)
        pf.observe(0 * 64, True)        # region A
        pf.observe(1000 * 64, True)     # region B
        pf.observe(2000 * 64, True)     # region C evicts A
        assert pf.active_streams() == 2

    def test_hit_does_not_allocate(self):
        pf = make_pf()
        pf.observe(100 * 64, False)
        assert pf.active_streams() == 0

    def test_issued_counter(self):
        pf = make_pf()
        train(pf, 100, 8)
        assert pf.issued > 0
