"""Bulk cache pre-warming equals the per-line reference.

``MemoryHierarchy.prewarm`` installs each range with one
``SetAssociativeCache.insert_range`` per level and fills the directory
directly.  The reference below is the per-line loop it replaced: one
``insert`` per line, each victim evicted (with back-invalidation) the
moment it leaves, each directory entry added right after its line's
insert.  Both must leave identical caches, LRU clocks, det-state words,
directory and invalidation counts — including when ranges overflow sets,
evict L1 and L2 lines, and re-insert resident lines.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache import base
from repro.cache.base import MODIFIED, SetAssociativeCache
from repro.cache.hierarchy import MemoryHierarchy
from repro.config import CacheConfig, SystemConfig
from repro.dram.controller import MemorySystem
from repro.sched.frfcfs import FrFcfsScheduler
from repro.sim.events import EventQueue
from repro.cpu import native
from repro.workloads.multiprog import BUNDLES, bundle_traces
from repro.workloads.parallel import parallel_traces
from tests.test_kernel import loaded

L1_LINE = 32
L2_LINE = 64


def _hierarchy(l1_sets, l1_ways, l2_sets, l2_ways, cores=2):
    config = SystemConfig(
        cores=cores,
        l1d=CacheConfig(size_bytes=l1_sets * l1_ways * L1_LINE,
                        line_bytes=L1_LINE, ways=l1_ways,
                        round_trip_latency=3, mshr_entries=4),
        l2=CacheConfig(size_bytes=l2_sets * l2_ways * L2_LINE,
                       line_bytes=L2_LINE, ways=l2_ways,
                       round_trip_latency=32, mshr_entries=8),
    )
    hier = MemoryHierarchy(
        config, MemorySystem(config.dram, lambda c: FrFcfsScheduler()),
        EventQueue(),
    )
    hier.bind_clock(lambda: 0)
    return hier


def prewarm_per_line(hier, core, ranges):
    """The per-line reference: one ``insert`` per line, in order."""
    for base, nbytes, level in ranges:
        for line64 in range(hier.l2.line_addr(base), base + nbytes, L2_LINE):
            victim = hier.l2.insert(line64)
            if victim is not None:
                hier._evict_l2_line(victim[0], victim[2])
        if level <= 1:
            l1 = hier.l1[core]
            for line32 in range(l1.line_addr(base), base + nbytes, L1_LINE):
                victim = l1.insert(line32)
                if victim is not None:
                    hier._evict_l1_line(core, *victim)
                hier._dir[line32] = hier._dir.get(line32, 0) | (1 << core)


def _cache_view(cache):
    """Each set's ``(line, state, dirty, lru)`` rows, whatever their slots."""
    return [
        sorted(
            (cache.tag[slot], cache.state[slot], cache.dirty[slot], cache.lru[slot])
            for slot in range(index * cache.ways, index * cache.ways + used)
        )
        for index, used in enumerate(cache.fill)
    ]


def _assert_same(bulk, ref):
    for got, want in zip(bulk.l1 + [bulk.l2], ref.l1 + [ref.l2]):
        assert _cache_view(got) == _cache_view(want)
        assert got.det_state() == want.det_state()
        assert got.det_state_scan() == want.det_state_scan()
        assert got.det_state() == got.det_state_scan()
    assert bulk._dir == ref._dir
    assert bulk.stats.invalidations == ref.stats.invalidations
    assert bulk.stats.writebacks == ref.stats.writebacks
    assert bulk.det_state() == ref.det_state()
    # Write-backs reach the DRAM queues in the same order.
    assert ([ch.det_state() for ch in bulk.memsys.channels]
            == [ch.det_state() for ch in ref.memsys.channels])


def _run_both(geometry, dirty, plan):
    bulk, ref = _hierarchy(*geometry), _hierarchy(*geometry)
    # Lines a run left Modified: refreshing one keeps it dirty, and
    # evicting one from the L2 writes it back.
    for hier in (bulk, ref):
        for level, addr in dirty:
            cache = hier.l2 if level == 2 else hier.l1[0]
            cache.insert(addr, state=MODIFIED, dirty=True)
    for core, ranges in plan:
        bulk.prewarm(core, ranges)
        prewarm_per_line(ref, core, ranges)
        _assert_same(bulk, ref)
    return bulk


_ranges = st.lists(
    st.tuples(st.integers(0, 2047), st.integers(1, 1024), st.sampled_from([1, 2])),
    min_size=1, max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(
    geometry=st.tuples(
        st.sampled_from([1, 2, 4]), st.sampled_from([1, 2]),
        st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4]),
    ),
    dirty=st.lists(
        st.tuples(st.sampled_from([1, 2]), st.integers(0, 2047)), max_size=4
    ),
    plan=st.lists(st.tuples(st.integers(0, 1), _ranges), min_size=1, max_size=4),
)
def test_bulk_prewarm_matches_per_line_reference(geometry, dirty, plan):
    _run_both(geometry, dirty, plan)


@settings(max_examples=60, deadline=None)
@given(
    geometry=st.tuples(
        st.sampled_from([1, 2, 4]), st.sampled_from([1, 2]),
        st.sampled_from([1, 2, 4]), st.sampled_from([1, 2, 4]),
    ),
    plan=st.lists(st.tuples(st.integers(0, 1), _ranges), min_size=1, max_size=4),
)
def test_python_bulk_fill_matches_per_line_reference(geometry, plan):
    """The same with the Python bodies of the bulk fill and its check,
    which the cache kernel's ``fill_run`` replaces."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(base, "_kernel", None)
        _run_both(geometry, [(2, 64)], plan)


def test_overflowing_ranges_evict_and_reinsert():
    """A pinned case that does everything the property is there for:
    both levels overflow, L2 victims back-invalidate L1 copies of both
    cores, dirty victims write back, and the second pass re-inserts
    resident lines."""
    geometry = (2, 2, 2, 2)  # 4-line L1s, 4-line L2
    plan = [
        (0, [(0, 512, 1)]),       # 16 L1 / 8 L2 lines: both levels overflow
        (1, [(2048, 256, 1)]),    # L2 victims: core 0's L1 copies go too
        (0, [(2048, 128, 1), (2048, 128, 2)]),  # resident lines again
    ]
    bulk = _run_both(geometry, [(2, 1024), (1, 96)], plan)
    assert bulk.stats.invalidations == 4
    assert bulk.stats.writebacks == 1
    assert sorted(bulk._dir) == [2048, 2080, 2112, 2144, 2176, 2208, 2240, 2272]


def test_insert_range_matches_inserts():
    """The cache-level bulk call against one ``insert`` per line,
    victims included, on a cache whose lines wrap every set."""
    geometry = (4, 2, 4, 2)
    bulk, ref = _hierarchy(*geometry), _hierarchy(*geometry)
    for cache in (bulk.l2, ref.l2):
        cache.insert(64, state=MODIFIED, dirty=True)
    victims = bulk.l2.insert_range(0, 40 * L2_LINE)
    expected = []
    for addr in range(0, 40 * L2_LINE, L2_LINE):
        victim = ref.l2.insert(addr)
        if victim is not None:
            expected.append(victim)
    assert victims == expected
    assert _cache_view(bulk.l2) == _cache_view(ref.l2)
    assert bulk.l2.det_state() == ref.l2.det_state() == bulk.l2.det_state_scan()


def _machine(config):
    hier = MemoryHierarchy(
        config, MemorySystem(config.dram, lambda c: FrFcfsScheduler()),
        EventQueue(),
    )
    hier.bind_clock(lambda: 0)
    return hier


@pytest.mark.parametrize("workload", ["fft", "RFGI", "AELV"])
def test_full_size_machines_match_per_line_reference(workload, monkeypatch):
    """The real machines with real ranges: one parallel app's eight
    threads on the Table 1 8-core machine, and two bundles on the 4-core
    machine, whose warm ranges wrap the L2 and leave its sets unevenly
    filled.  Every run of sets goes in by slice writes, and the L2's
    columns stay typed arrays of their full length: no int object per
    line."""
    if workload in BUNDLES:
        config = SystemConfig.multiprogrammed_default()
        traces = bundle_traces(workload, 100)
    else:
        config = SystemConfig.parallel_default()
        traces = parallel_traces(workload, config.cores, 100)
    bulk, ref = _machine(config), _machine(config)
    insert_lines = SetAssociativeCache._insert_lines
    per_line = []

    def counting(cache, lines, index, victims):
        per_line.append(len(lines))
        return insert_lines(cache, lines, index, victims)

    monkeypatch.setattr(SetAssociativeCache, "_insert_lines", counting)
    for core, trace in enumerate(traces):
        bulk.prewarm(core, trace.prewarm)
        prewarm_per_line(ref, core, trace.prewarm)
    _assert_same(bulk, ref)
    assert per_line == []
    l2 = bulk.l2
    assert sum(l2.fill) > 0
    assert [(c.typecode, len(c)) for c in (l2.tag, l2.lru, l2.fill)] == [
        ("q", l2.ways * l2.num_sets)] * 2 + [("q", l2.num_sets)]


@pytest.mark.parametrize("workload", ["fft", "AELV"])
def test_compiled_bulk_fill_matches_its_python_body(workload, monkeypatch):
    """``_fill_run`` runs in the cache kernel where it loads; on the
    full-size machines its Python body, which runs without a compiler,
    leaves the same caches, directory and queues."""
    loaded(native.CACHE, base)
    if workload in BUNDLES:
        config = SystemConfig.multiprogrammed_default()
        traces = bundle_traces(workload, 100)
    else:
        config = SystemConfig.parallel_default()
        traces = parallel_traces(workload, config.cores, 100)
    compiled = _machine(config)
    for core, trace in enumerate(traces):
        compiled.prewarm(core, trace.prewarm)
    monkeypatch.setattr(base, "_kernel", None)
    python = _machine(config)
    for core, trace in enumerate(traces):
        python.prewarm(core, trace.prewarm)
    _assert_same(compiled, python)
    assert compiled.l2.det_state()[1] > 0
