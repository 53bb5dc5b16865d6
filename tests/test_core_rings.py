"""The core's cycle rings, on the kernel and on the Python bodies.

Functional-unit reservations and the two schedules (completions, load
issues) are fixed-size rings in typed buffers that both paths share
(``repro.cpu.core.ring_size``).  A Hypothesis property drives the ring
helpers with random streams of bookings, schedule inserts and bucket
takes while the cycle advances, and holds them to a dict-and-list model;
extreme machines run to completion with equal results on both paths;
and a ring one slot smaller than a run needs raises on both paths
instead of overwriting a live slot.

Compiled cases skip only where no C compiler exists; where one does, a
kernel that did not load fails them.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CoreConfig, SimScale, SystemConfig
from repro.cpu import core, native
from repro.cpu.core import _FAR, OutOfOrderCore
from repro.cpu.instruction import BRANCH, FP, INT, LOAD, STORE, Trace
from repro.sim.runner import run_parallel_workload
from repro.sim.stats import result_fingerprint
from repro.sim.system import ENGINES
from tests.test_kernel import _Machine, loaded, rings


@pytest.fixture(params=["compiled", "python"])
def body(request, monkeypatch):
    """Run the test on the kernel, then on the Python bodies."""
    if request.param == "compiled":
        loaded(native.CPU, core)
    else:
        monkeypatch.setattr(core, "_kernel", None)
    return request.param


@pytest.fixture
def kernel():
    return loaded(native.CPU, core)


# ------------------------------------------------------------- property


@st.composite
def streams(draw):
    """A small machine and a stream of ring operations on it: bookings of
    a trace index not in a bucket, from this cycle or the next, and
    takes of this cycle's buckets that advance the cycle."""
    units = draw(st.lists(st.integers(1, 2), min_size=5, max_size=5))
    latencies = draw(st.lists(st.integers(1, 4), min_size=3, max_size=3))
    config = CoreConfig(
        rob_entries=draw(st.sampled_from([4, 8, 16])),
        int_units=units[0], fp_units=units[1], branch_units=units[2],
        load_ports=units[3], store_ports=units[4],
        int_latency=latencies[0], fp_latency=latencies[1],
        branch_latency=latencies[2],
    )
    itypes = draw(st.lists(st.sampled_from([INT, FP, BRANCH, LOAD, STORE]),
                           min_size=config.rob_entries,
                           max_size=config.rob_entries))
    ops = draw(st.lists(
        st.one_of(
            st.tuples(st.just("book"), st.integers(0, 63), st.integers(0, 1)),
            st.tuples(st.just("take")),
        ),
        max_size=120,
    ))
    return config, itypes, ops


class _Model:
    """The rings' reference: FU bookings as dicts of cycle -> units and
    the schedules as dicts of cycle -> list, as the core kept them
    before they were rings."""

    def __init__(self, config, itypes, ring):
        self.caps = (config.int_units, config.fp_units, config.branch_units,
                     config.load_ports, config.store_ports)
        self.latency = (config.int_latency, config.fp_latency,
                        config.branch_latency, 0, 1)
        self.itypes = itypes
        self.ring = ring
        self.booked = [{} for _ in range(5)]
        self.schedules = ({}, {})  # completions, load issues

    def book(self, i, earliest, now):
        """The booked and scheduled cycles, or None past the rings."""
        itype = self.itypes[i]
        booked = self.booked[itype]
        cycle = earliest
        while booked.get(cycle, 0) >= self.caps[itype]:
            cycle += 1
        at = cycle + (0 if itype == LOAD else self.latency[itype])
        if at - now >= self.ring:
            return None
        booked[cycle] = booked.get(cycle, 0) + 1
        self.schedules[itype == LOAD].setdefault(at, []).append(i)
        return at

    def take(self, load, now):
        return self.schedules[load].pop(now, [])

    def view(self, now):
        cycles = range(now, now + self.ring)
        return (
            [sorted((c, b) for c, b in s.items() if c in cycles)
             for s in self.schedules],
            [sorted((c, n) for c, n in b.items() if c in cycles)
             for b in self.booked],
        )

    def next_local(self):
        return min((c for s in self.schedules for c in s), default=_FAR)


def test_rings_match_a_dict_model(body):
    """Every booking lands on the cycle the dict model books, every bucket
    holds the model's entries in the model's order, ``_next_local`` is
    the model's earliest scheduled cycle, and an insert past the rings
    raises with nothing written."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(streams())
    def check(stream):
        config, itypes, ops = stream
        trace = Trace("rings")
        for k, itype in enumerate(itypes):
            trace.append(itype, k)
        c = OutOfOrderCore(0, config, trace, None)
        model = _Model(config, itypes, c._ring_mask + 1)
        scheduled: set[int] = set()
        now = 0
        for op in ops:
            if op[0] == "book":
                free = [i for i in range(len(itypes)) if i not in scheduled]
                if not free:
                    continue
                i = free[op[1] % len(free)]
                before = rings(c, now)
                if model.book(i, now + op[2], now) is None:
                    with pytest.raises(RuntimeError, match="beyond its"):
                        c._book_and_schedule(i, now + op[2], now)
                    assert rings(c, now) == before
                    continue
                c._book_and_schedule(i, now + op[2], now)
                scheduled.add(i)
            else:
                for load, head in ((False, c._wake_head),
                                   (True, c._issue_head)):
                    taken = c._take_bucket(head, now)
                    assert taken == model.take(load, now)
                    scheduled.difference_update(taken)
                now += 1
            schedules, booked, _buffers = rings(c, now)
            assert (schedules, booked) == model.view(now)
            assert c._next_local == model.next_local()

    check()


# ------------------------------------------------------- extreme machines

EXTREMES = {
    "one unit each, 512-entry ROB": CoreConfig(
        rob_entries=512, int_units=1, fp_units=1, branch_units=1,
        load_ports=1, store_ports=1, load_queue_entries=128,
        store_queue_entries=128,
    ),
    "latencies 32": CoreConfig(int_latency=32, fp_latency=32,
                               branch_latency=32),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(EXTREMES))
def test_extreme_machines_match_on_both_paths(kernel, name, engine,
                                              monkeypatch):
    """Machines at the far ends of the ring's reach run to completion with
    the same results on the kernel and on the Python bodies."""
    config = SystemConfig.parallel_default().scaled(core=EXTREMES[name])
    scale = SimScale(instructions_per_core=1500, warmup_instructions=200,
                     seed=5)
    monkeypatch.setenv("REPRO_ENGINE", engine)
    prints = []
    for use_kernel in (True, False):
        monkeypatch.setattr(core, "_kernel", kernel if use_kernel else None)
        result = run_parallel_workload("fft", "casras-crit",
                                       ("cbp", {"entries": 64}),
                                       config=config, scale=scale)
        assert not result.hit_max_cycles
        prints.append(result_fingerprint(result))
    assert prints[0] == prints[1]


# -------------------------------------------------------------- overflow


def _ints(n=200):
    trace = Trace("ints")
    for k in range(n):
        trace.append(INT, k)
    return trace


#: Independent INTs through one INT unit and an 8-entry ROB: a completion
#: lands 8 cycles ahead, so the run needs a ring of 9 slots or more.
NARROW = SystemConfig(cores=1, core=CoreConfig(rob_entries=8, int_units=1))


def _run_until_raise(harness):
    for _ in range(10_000):
        try:
            harness.step()
        except RuntimeError as exc:
            return exc
        if harness.core.done:
            return None
    raise AssertionError("run did not finish")


def test_a_ring_one_slot_too_small_raises_on_both_paths(kernel, monkeypatch):
    """With its derived ring the narrow machine finishes; with 8 slots
    the first completion scheduled 8 cycles ahead raises RuntimeError on
    both paths, at the same cycle and with the same core state, instead
    of landing on the slot of the cycle being stepped."""
    states = {}
    for size in (None, 8):
        if size is not None:
            monkeypatch.setattr(core, "ring_size", lambda config: size)
        for use_kernel in (True, False):
            monkeypatch.setattr(core, "_kernel",
                                kernel if use_kernel else None)
            machine = _Machine(_ints(), NARROW)
            raised = _run_until_raise(machine)
            if size is None:
                assert raised is None
                assert machine.core._ring_mask + 1 == 16
                assert machine.core.stats.committed == 200
                continue
            assert "beyond its 8-slot cycle rings" in str(raised)
            states[use_kernel] = (machine.now, str(raised), machine.state())
    assert states[True] == states[False]
