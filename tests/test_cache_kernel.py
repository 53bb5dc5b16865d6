"""The cache hierarchy's compiled per-access path (``repro/cache/_kernel.c``)
held to its Python bodies.

``MemoryHierarchy.load``, ``store``, ``can_accept_store`` and the L2-access,
fill, coherence and eviction handlers hand each call to the kernel when
it is loaded; the Python body after the guard is the reference.  A
compiled and a Python hierarchy are driven in lockstep with the same
Hypothesis-generated stream of loads, stores and event drains over tiny
geometries, and compared after every step; end-to-end runs are compared
with the sampler and the event trace on; a raising call out and the
core-count limit of the kernel's sharer masks are pinned too.

Compiled cases skip only where no C compiler exists; where one does, a
kernel that did not load fails them.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import pickle
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache import hierarchy
from repro.cache.base import SetAssociativeCache
from repro.cache.hierarchy import L1_HIT, LoadAccess, MemoryHierarchy
from repro.config import (
    L1D_DEFAULT,
    L2_DEFAULT,
    CacheConfig,
    DramConfig,
    PrefetcherConfig,
    SimScale,
    SystemConfig,
)
from repro.cpu import native
from repro.dram.controller import MemorySystem
from repro.dram.transaction import Transaction
from repro.sched.frfcfs import FrFcfsScheduler
from repro.sim.events import EventQueue
from repro.sim.runner import (
    run_multiprogrammed_workload,
    run_parallel_workload,
)
from repro.sim.stats import _stat_items, result_fingerprint
from repro.sim.system import ENGINES, System
from repro.telemetry.registry import LatencyHistogram
from repro.workloads.parallel import parallel_traces
from tests.test_kernel import loaded


#: What the hierarchy schedules: partials from the Python bodies, events
#: from the kernel.
EVENTS = (functools.partial,) + (
    () if hierarchy._kernel is None else (hierarchy._kernel.Event,))


@pytest.fixture
def kernel():
    """The cache hierarchy's loaded kernel."""
    return loaded(native.CACHE, hierarchy)


class Machine:
    """A hierarchy on its own memory system and clock, driven op by op;
    ``log`` records what it reports back (completions, wakes, handles),
    with the hierarchy's det-state words as the callback sees them: the
    kernel writes its scalars back before every call out."""

    def __init__(self, config, store_buffer_entries):
        self.events = EventQueue()
        self.memory = MemorySystem(config.dram, lambda c: FrFcfsScheduler())
        self.hier = MemoryHierarchy(config, self.memory, self.events)
        self.hier.store_buffer_entries = store_buffer_entries
        self.now = 0
        self.log = []
        self.hier.bind_clock(lambda: self.now)
        self.hier.bind_core_waker(
            lambda core: self.log.append(
                ("wake", core, self.now, self.hier.det_state())))

    def done(self, token, cycle):
        self.log.append(("done", token, cycle, self.hier.det_state()))

    def load(self, token, core, address, critical, magnitude):
        handle = self.hier.load(core, 1 + token % 5, address, critical,
                                magnitude, functools.partial(self.done, token),
                                self.now)
        self.log.append(("load", token, self.describe(handle)))

    def store(self, token, core, address):
        self.log.append(("store", token, self.hier.store(core, address,
                                                          self.now)))

    def accept(self, token, core):
        self.log.append(("accept", token, self.hier.can_accept_store(core)))

    def run(self, cycles):
        for _ in range(cycles):
            self.events.run_due(self.now)
            self.memory.step(self.now)
            self.now += 1

    def idle(self):
        return not len(self.events) and not self.memory.pending()

    def describe(self, obj):
        """A comparable stand-in for an event callback or its argument: a
        kernel event and the partial the Python body schedules in its
        place read the same."""
        if isinstance(obj, EVENTS):
            assert not getattr(obj, "keywords", None), obj
            func, args = obj.func, tuple(obj.args)
            # A partial of a partial is flattened, as functools does.
            while isinstance(func, functools.partial):
                func, args = func.func, func.args + args
            return ("event", self.describe(func),
                    tuple(self.describe(a) for a in args))
        if inspect.ismethod(obj):
            owner = obj.__self__
            name = ("hier" if owner is self.hier
                    else "machine" if owner is self else type(owner).__name__)
            return ("method", name, obj.__func__.__name__)
        if inspect.isfunction(obj):
            return ("function", obj.__name__)
        if isinstance(obj, Transaction):
            return ("txn", obj.address, obj.is_write, obj.core, obj.critical,
                    obj.magnitude, obj.seq, obj.arrival,
                    self.describe(obj.callback))
        if isinstance(obj, LoadAccess):
            return ("handle", obj.pc, obj.issue_cycle, obj.critical,
                    obj.went_to_dram, self.describe(obj.txn))
        if obj is L1_HIT:
            return "L1_HIT"
        if isinstance(obj, tuple):
            return tuple(self.describe(item) for item in obj)
        assert obj is None or isinstance(obj, int), obj
        return obj

    def state(self):
        h = self.hier
        caches = [*h.l1, h.l2]
        mshrs = [*h.l1_mshr, h.l2_mshr]
        return (
            [(list(c.tag), list(c.lru), bytes(c.state), bytes(c.dirty),
              list(c.fill), c.det_state(), c.det_state_scan())
             for c in caches],
            list(h._dir.items()),
            sorted(h._prefetched_lines),
            list(h._store_backlog),
            [m.det_state() for m in mshrs],
            [[(line, self.describe(tuple(e.waiters)), e.rfo,
               self.describe(e.txn)) for line, e in m._entries.items()]
             for m in mshrs],
            _stats(h.stats),
            h.det_state(),
            [(cycle, seq, self.describe(fn))
             for cycle, seq, fn in self.events.pending()],
            list(self.log),
            self.memory.pending(),
        )


def _histogram(hist):
    return (list(hist.counts), hist.count, hist.total, hist.max, hist.min)


def _stats(stats):
    values = {}
    for name in type(stats).FIELDS:
        value = getattr(stats, name)
        if isinstance(value, LatencyHistogram):
            value = _histogram(value)
        elif isinstance(value, dict):
            value = [(pc, _histogram(h)) for pc, h in value.items()]
        values[name] = value
    return values


def _watch(machine, reached):
    """Count, on the Python machine, the paths the stream must reach."""
    h = machine.hier

    def wrap(owner, name, note):
        original = getattr(owner, name)

        def watched(*args):
            before = h.stats.invalidations
            result = original(*args)
            note(args, result, h.stats.invalidations - before)
            return result

        setattr(owner, name, watched)

    def l1_evicted(args, result, invalidated):
        reached["l1 set overflow"] += 1

    def l2_evicted(args, result, invalidated):
        reached["l2 set overflow"] += 1
        if invalidated:
            reached["l2 back-invalidation"] += 1

    def invalidated_remote(args, result, invalidated):
        if len(args) == 3:  # the store-hit path passes ``now``
            reached["rfo upgrade"] += 1

    def allocated(args, result, invalidated):
        if result is None:
            reached["l2 mshr full"] += 1

    wrap(h, "_evict_l1_line", l1_evicted)
    wrap(h, "_evict_l2_line", l2_evicted)
    wrap(h, "_invalidate_remote", invalidated_remote)
    wrap(h.l2_mshr, "allocate", allocated)


BASE = 0


@st.composite
def streams(draw):
    """A tiny machine and a stream of operations on it."""
    cores = draw(st.integers(1, 8))
    l1_sets = draw(st.sampled_from([1, 2, 4]))
    l1_ways = draw(st.integers(1, 2))
    l2_sets = draw(st.sampled_from([1, 2, 4]))
    l2_ways = draw(st.integers(1, 4))
    config = SystemConfig(
        cores=cores,
        l1d=CacheConfig(32 * l1_sets * l1_ways, 32, l1_ways, 3,
                        draw(st.integers(1, 4))),
        l2=CacheConfig(64 * l2_sets * l2_ways, 64, l2_ways, 32,
                       draw(st.integers(1, 4))),
        prefetcher=PrefetcherConfig(enabled=draw(st.booleans()), streams=2,
                                    distance=2, degree=2),
    )
    core = st.integers(0, cores - 1)
    # 16 L1 lines, 8 L2 lines: sets of most geometries overflow.
    address = st.integers(0, 31).map(lambda k: BASE + k * 16)
    op = st.one_of(
        st.tuples(st.just("load"), core, address, st.booleans(),
                  st.integers(0, 200)),
        st.tuples(st.just("store"), core, address),
        st.tuples(st.just("accept"), core),
        st.tuples(st.just("run"), st.integers(1, 300)),
    )
    ops = draw(st.lists(op, min_size=1, max_size=40))
    return config, draw(st.integers(1, 3)), ops


def _apply(machine, token, op):
    kind, *args = op
    if kind == "run":
        machine.run(*args)
    else:
        getattr(machine, kind)(token, *args)


def test_hierarchy_matches_the_python_bodies_step_by_step(kernel,
                                                          monkeypatch):
    """Lockstep: after every load, store, store-buffer query and drain,
    every cache column, ``fill``, the directory, the MSHR files
    (det-state and waiters), store backlogs, statistics and histograms,
    ``det_state``, ``det_state_scan`` and the scheduled events (cycle,
    callback target, arguments) of the compiled hierarchy equal the Python
    bodies'.  Across the examples the streams reach set overflow in both
    levels, RFO upgrades, remote-Modified interventions, L2
    back-invalidations, store-buffer overflow and L2-MSHR-full retries."""
    reached = Counter()

    def use(kernel_on):
        monkeypatch.setattr(hierarchy, "_kernel",
                            kernel if kernel_on else None)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(streams())
    @example((SystemConfig(cores=2), 1, [
        ("load", 0, BASE + 64, False, 0), ("run", 400),
        ("store", 0, BASE + 64), ("load", 1, BASE + 80, True, 9),
        ("store", 0, BASE + 4160), ("store", 0, BASE + 8256), ("run", 400),
    ]))
    def lockstep(stream):
        config, buffer_entries, ops = stream
        compiled = Machine(config, buffer_entries)
        python = Machine(config, buffer_entries)
        _watch(python, reached)
        for token, op in enumerate(ops):
            use(True)
            _apply(compiled, token, op)
            use(False)
            _apply(python, token, op)
            assert compiled.state() == python.state(), (token, op)
            if any(python.hier._store_backlog):
                reached["store-buffer overflow"] += 1
        # Drain what is in flight.
        for _ in range(400):
            if compiled.idle() and python.idle():
                break
            use(True)
            compiled.run(50)
            use(False)
            python.run(50)
            assert compiled.state() == python.state(), python.now
        assert python.idle(), "the stream did not drain"
        stats = python.hier.stats
        reached["l1 load hit"] += stats.l1_load_hits
        reached["l2 load hit"] += stats.l2_load_hits
        reached["remote-Modified intervention"] += stats.interventions

    lockstep()
    use(True)
    wanted = {"l1 load hit", "l2 load hit", "l1 set overflow",
              "l2 set overflow", "l2 back-invalidation", "rfo upgrade",
              "remote-Modified intervention", "store-buffer overflow",
              "l2 mshr full"}
    assert wanted <= {name for name, count in reached.items() if count}, (
        reached)


# ----------------------------------------------------------- failure paths


class Boom(Exception):
    pass


def _raising_machines(kernel, monkeypatch, arm):
    """A 2-core compiled and Python machine run until a call out that
    ``arm`` makes raise fires; returns both final states."""
    config = SystemConfig(
        cores=2,
        l1d=CacheConfig(64, 32, 1, 3, 2),
        l2=CacheConfig(256, 64, 2, 32, 2),
    )
    states = []
    for kernel_on in (True, False):
        monkeypatch.setattr(hierarchy, "_kernel",
                            kernel if kernel_on else None)
        machine = Machine(config, 2)
        machine.store(0, 0, 0)
        machine.load(1, 1, 64, True, 7)
        machine.run(400)
        machine.load(2, 1, 0, False, 0)
        machine.store(3, 1, 128)
        arm(machine)
        with pytest.raises(Boom):
            for _ in range(2_000):
                machine.run(1)
        states.append(machine.state())
    return states


def test_a_raising_completion_callback_leaves_the_python_state(
    kernel, monkeypatch
):
    """The completion callback of a filled load raises inside
    ``_fill_l1_and_respond``: the exception surfaces unchanged from the
    event, and the caches hold what the Python bodies left (the kernel
    wrote its scalars back before the call out)."""

    def arm(machine):
        def raising(token, cycle):
            raise Boom(token, cycle)

        machine.done = raising
        # Calls already scheduled hold the old bound method: reach the
        # next DRAM-bound load through a fresh miss.
        machine.load(4, 0, 512, False, 0)

    compiled, python = _raising_machines(kernel, monkeypatch, arm)
    assert compiled == python


def test_a_raising_trace_recorder_leaves_the_python_state(kernel,
                                                          monkeypatch):
    """The event recorder raises on the first cache event it sees (an L2
    fill or an invalidation), in the middle of a handler."""

    class Recorder:
        def cache_event(self, *args):
            raise Boom(*args)

    def arm(machine):
        machine.hier.trace = Recorder()

    compiled, python = _raising_machines(kernel, monkeypatch, arm)
    assert compiled == python


def test_sharer_masks_hold_64_cores_and_refuse_more(kernel, monkeypatch):
    """The kernel's sharer sets are 64-bit masks: a 64-core hierarchy gets
    the Python bodies' results with core 63 sharing a line, and a larger
    one fails loudly when it is built, while the Python bodies build
    it."""
    wide = SystemConfig(cores=64)
    states = []
    for kernel_on in (True, False):
        monkeypatch.setattr(hierarchy, "_kernel",
                            kernel if kernel_on else None)
        machine = Machine(wide, 12)
        machine.load(0, 63, 4096, False, 0)
        machine.load(1, 0, 4096, True, 3)
        machine.run(600)
        assert machine.hier._dir[4096] == (1 << 63) | 1
        machine.store(2, 63, 4096)
        machine.run(100)
        assert machine.hier._dir[4096] == 1 << 63
        states.append(machine.state())
    assert states[0] == states[1]

    monkeypatch.setattr(hierarchy, "_kernel", kernel)
    with pytest.raises(ValueError, match="at most 64 cores, not 65"):
        Machine(SystemConfig(cores=65), 12)
    monkeypatch.setattr(hierarchy, "_kernel", None)
    Machine(SystemConfig(cores=65), 12)


# ------------------------------------------------------------- end to end

SCALE = SimScale(instructions_per_core=800, warmup_instructions=100, seed=3)
CBP64 = ("cbp", {"entries": 64})
PREFETCHING = SystemConfig(prefetcher=PrefetcherConfig(enabled=True))

RUNS = {
    "fft/FR-FCFS": lambda: run_parallel_workload("fft", "fr-fcfs",
                                                 scale=SCALE),
    "radix/CASRAS-Crit+CBP64": lambda: run_parallel_workload(
        "radix", "casras-crit", CBP64, scale=SCALE),
    "swim/FR-FCFS+prefetch": lambda: run_parallel_workload(
        "swim", "fr-fcfs", config=PREFETCHING, scale=SCALE),
    "RFGI/MORSE-P": lambda: run_multiprogrammed_workload(
        "RFGI", "morse-p", scale=SCALE),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_compiled_cache_matches_python_bodies(kernel, name, engine,
                                              monkeypatch):
    """Same result fingerprint, det-chain checkpoints, sampled series and
    event trace with the sampler and the event trace on."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
    monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "128")
    observed = []
    for kernel_on in (True, False):
        monkeypatch.setattr(hierarchy, "_kernel",
                            kernel if kernel_on else None)
        result = RUNS[name]()
        assert not result.hit_max_cycles
        observed.append((
            result_fingerprint(result), result.det_chain,
            result.det_checkpoints, result.sample_cycles, result.timeseries,
            result.trace_events,
        ))
    assert observed[0] == observed[1]


# ------------------------------------------------------ storage and events


def test_caches_and_counters_are_kernel_storage(kernel):
    """With the kernel loaded a cache's scalars and the hierarchy's
    counters are C fields of the kernel's base types, and a cache keeps
    its lines in typed columns with no line-to-slot map."""
    assert issubclass(SetAssociativeCache, kernel.CacheBase)
    assert issubclass(hierarchy.HierarchyStats, kernel.StatsBase)
    machine = Machine(SystemConfig(cores=2), 4)
    machine.load(0, 1, 4096, False, 0)
    machine.run(400)
    machine.load(1, 1, 4096, False, 0)
    view = machine.hier.__dict__["_kernel_view"]
    assert type(view).__name__ == "View"
    for cache in (*machine.hier.l1, machine.hier.l2):
        assert not hasattr(cache, "where")
        assert {column.typecode for column in
                (cache.tag, cache.lru, cache.fill)} == {"q"}
        assert cache.det_state() == cache.det_state_scan()
    assert machine.hier.l1[1].det_state()[1] == 1


def test_hierarchy_stats_pickle_into_the_readers_class(kernel, monkeypatch):
    """A pickled HierarchyStats is read into the HierarchyStats of the
    reading process, compiled or Python, with every counter and histogram
    kept: the disk cache stores it in each result."""

    class PythonHierarchyStats(hierarchy._Counters):
        __slots__ = hierarchy.HierarchyStats.__slots__
        FIELDS = hierarchy.HierarchyStats.FIELDS
        __reduce__ = hierarchy.HierarchyStats.__reduce__

    compiled = hierarchy.HierarchyStats()
    for k, name in enumerate(hierarchy._COUNTERS):
        setattr(compiled, name, 7 * k + 1)
    compiled.crit_latency.record(240)
    compiled.noncrit_latency.record(96)
    compiled.pc_latency[17] = LatencyHistogram()
    compiled.pc_latency[17].record(240)
    assert len(compiled.FIELDS) == 13
    written = pickle.dumps(compiled)
    monkeypatch.setattr(hierarchy, "HierarchyStats", PythonHierarchyStats)
    read = pickle.loads(written)
    assert type(read) is PythonHierarchyStats
    assert _stat_items(read) == _stat_items(compiled)
    written = pickle.dumps(read)
    monkeypatch.undo()
    back = pickle.loads(written)
    assert type(back) is hierarchy.HierarchyStats
    assert _stat_items(back) == _stat_items(compiled)


#: The handlers the kernel schedules as events, beside the core's
#: completion call it schedules for an L1 hit.
HANDLERS = ("_access_l2", "_fill_l1_and_respond", "store")


def _retrying_system():
    """4-core radix with L1 and L2 MSHR files so small that stores and L2
    accesses wait for a free entry: every kind of event occurs."""
    config = SystemConfig(
        cores=4, dram=DramConfig(channels=2),
        l1d=dataclasses.replace(L1D_DEFAULT, mshr_entries=4),
        l2=dataclasses.replace(L2_DEFAULT, mshr_entries=2),
    )
    traces = parallel_traces("radix", 4, 1500, seed=5)
    return System(config, traces, scheduler="fr-fcfs", provider_spec=CBP64)


def _target(func) -> str:
    """A scheduled call's target: the method's name, else its type's."""
    method = getattr(func, "__func__", None)
    return type(func).__name__ if method is None else method.__name__


def _count_events(monkeypatch):
    """``(scheduled, fired)``: every call scheduled from here on, and
    every one of those that ran, counted as ``(type, target)``, such as
    ``("Event", "store")`` for a kernel event running ``store``."""
    scheduled, fired = Counter(), Counter()
    schedule = EventQueue.schedule

    def counting(queue, cycle, fn):
        key = type(fn).__name__, _target(getattr(fn, "func", fn))
        scheduled[key] += 1

        def fire():
            fired[key] += 1
            return fn()

        return schedule(queue, cycle, fire)

    monkeypatch.setattr(EventQueue, "schedule", counting)
    return scheduled, fired


def test_a_compiled_run_schedules_no_partials(kernel, monkeypatch):
    """The kernel schedules each handler call and each L1 hit's
    completion as a kernel event, never as a functools.partial."""
    counts, _fired = _count_events(monkeypatch)
    result = _retrying_system().run()
    assert not result.hit_max_cycles
    assert [key for key in counts if key[0] == "partial"
            and key[1] in HANDLERS + ("Completion",)] == []
    assert all(counts["Event", name] > 0
               for name in HANDLERS + ("Completion", "_install_l2_fill"))


@pytest.mark.parametrize("where", ("class", "instance"))
@pytest.mark.parametrize("name", HANDLERS)
def test_a_replaced_handler_sees_every_event(kernel, monkeypatch, name,
                                             where):
    """A handler replaced on the class, or set on the instance, is called
    by name for every event that stands for it (and ``store`` for every
    commit too), and the run's fingerprint is the unwrapped run's."""
    _scheduled, fired = _count_events(monkeypatch)
    reference = _retrying_system().run()
    expected = fired["Event", name]
    if name == "store":
        expected += reference.hierarchy.stores
    system = _retrying_system()
    original = getattr(MemoryHierarchy, name)
    calls = []

    def wrapper(hier, *args):
        calls.append(args)
        return original(hier, *args)

    if where == "class":
        monkeypatch.setattr(MemoryHierarchy, name, wrapper)
    else:
        setattr(system.hierarchy, name,
                functools.partial(wrapper, system.hierarchy))
    result = system.run()
    assert result_fingerprint(result) == result_fingerprint(reference)
    assert fired["Event", name] > 0
    assert len(calls) == expected
