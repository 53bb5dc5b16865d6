"""Event queue determinism, on both queues.

``TestEventQueue`` and ``TestRunDueReentrancy`` run the simulator's
queue, the compiled heap wherever its kernel loads; their ``Heap``
subclasses run every one of the same tests on the heapq reference, and a
Hypothesis lockstep holds the two to each other over random programs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu import native
from repro.sim import events
from repro.sim.events import EventQueue, HeapEventQueue


class TestEventQueue:
    #: The queue class under test.
    queue = EventQueue

    def test_fires_in_time_order(self):
        q = self.queue()
        order = []
        q.schedule(5, lambda: order.append(5))
        q.schedule(2, lambda: order.append(2))
        q.schedule(9, lambda: order.append(9))
        q.run_due(10)
        assert order == [2, 5, 9]

    def test_same_cycle_fires_in_schedule_order(self):
        q = self.queue()
        order = []
        for k in range(5):
            q.schedule(3, lambda k=k: order.append(k))
        q.run_due(3)
        assert order == [0, 1, 2, 3, 4]

    def test_future_events_wait(self):
        q = self.queue()
        fired = []
        q.schedule(10, lambda: fired.append(1))
        assert q.run_due(9) == 0
        assert not fired
        assert q.run_due(10) == 1
        assert fired

    def test_next_cycle(self):
        q = self.queue()
        assert q.next_cycle() is None
        q.schedule(7, lambda: None)
        assert q.next_cycle() == 7

    def test_events_scheduled_during_run_respected(self):
        q = self.queue()
        order = []

        def first():
            order.append("first")
            q.schedule(1, lambda: order.append("nested"))

        q.schedule(1, first)
        q.run_due(1)
        assert order == ["first", "nested"]

    def test_len(self):
        q = self.queue()
        q.schedule(1, lambda: None)
        q.schedule(2, lambda: None)
        assert len(q) == 2

    def test_pending_is_sorted_by_cycle_then_seq(self):
        q = self.queue()
        a, b, c = (lambda: None), (lambda: None), (lambda: None)
        q.schedule(9, a)
        q.schedule(4, b)
        q.schedule(4, c)
        assert q.pending() == [(4, 2, b), (4, 3, c), (9, 1, a)]
        q.run_due(4)
        assert q.pending() == [(9, 1, a)]

    def test_clear_drops_events_and_numbering_goes_on(self):
        q = self.queue()
        q.schedule(1, lambda: None)
        q.schedule(2, lambda: None)
        q.clear()
        assert len(q) == 0 and q.next_cycle() is None and q.pending() == []
        fn = lambda: None  # noqa: E731
        q.schedule(1, fn)
        assert q.pending() == [(1, 3, fn)]
        assert q.run_due(5) == 1

    def test_a_raising_callback_propagates_and_later_events_stay(self):
        q = self.queue()
        order = []

        def boom():
            raise ValueError("boom")

        q.schedule(1, lambda: order.append(1))
        q.schedule(2, boom)
        q.schedule(3, lambda: order.append(3))
        with pytest.raises(ValueError, match="boom"):
            q.run_due(3)
        assert order == [1]
        assert [cycle for cycle, _, _ in q.pending()] == [3]
        assert q.run_due(3) == 1
        assert order == [1, 3]


class TestRunDueReentrancy:
    """The reentrancy contract the wake-driven engine leans on: anything
    a callback schedules at ``cycle <= now`` fires within the same
    ``run_due`` call, in (cycle, seq) order."""

    queue = EventQueue

    def test_same_cycle_chain_drains_in_one_call(self):
        q = self.queue()
        order = []

        def link(n):
            order.append(n)
            if n < 4:
                q.schedule(3, lambda: link(n + 1))

        q.schedule(3, lambda: link(0))
        fired = q.run_due(3)
        assert order == [0, 1, 2, 3, 4]
        assert fired == 5
        assert len(q) == 0  # nothing due was left behind

    def test_earlier_cycle_schedule_fires_immediately(self):
        q = self.queue()
        order = []

        def schedules_into_the_past():
            order.append("now")
            q.schedule(1, lambda: order.append("past"))  # cycle < now

        q.schedule(5, schedules_into_the_past)
        q.schedule(7, lambda: order.append("later"))
        assert q.run_due(6) == 2
        assert order == ["now", "past"]  # "past" is due immediately
        assert q.next_cycle() == 7  # future events untouched

    def test_mid_drain_schedules_order_after_preexisting_same_cycle(self):
        q = self.queue()
        order = []

        def first():
            order.append("first")
            # Scheduled mid-drain at the same cycle: _seq puts it after
            # everything already pending at cycle 4.
            q.schedule(4, lambda: order.append("nested"))

        q.schedule(4, first)
        q.schedule(4, lambda: order.append("second"))
        q.run_due(4)
        assert order == ["first", "second", "nested"]

    def test_callback_scheduling_future_event_does_not_fire(self):
        q = self.queue()
        order = []

        def now_then_later():
            order.append("now")
            q.schedule(11, lambda: order.append("later"))

        q.schedule(10, now_then_later)
        assert q.run_due(10) == 1
        assert order == ["now"]
        assert q.next_cycle() == 11


class TestHeapEventQueue(TestEventQueue):
    """Every test above on the heapq reference."""

    queue = HeapEventQueue


class TestHeapRunDueReentrancy(TestRunDueReentrancy):
    """Every test above on the heapq reference."""

    queue = HeapEventQueue


def test_the_compiled_queue_loads_where_a_compiler_exists():
    from tests.test_kernel import loaded

    loaded(native.EVENTS, events)
    assert events.implementation() == "compiled"
    assert issubclass(EventQueue, events._kernel.EventQueue)


# ----------------------------------------------------------- lockstep


class _Callback:
    """An event that logs its label when it fires and then, by kind,
    schedules a follow-up at its own, an earlier or a later cycle, runs
    or clears the queue from inside, or raises."""

    def __init__(self, q, log, label, cycle, kind):
        self.q, self.log, self.label = q, log, label
        self.cycle, self.kind = cycle, kind

    def __call__(self):
        self.log.append(("fire", self.label))
        kind, q = self.kind, self.q
        follow = {"same": 0, "earlier": -3, "later": 2}.get(kind)
        if follow is not None:
            q.schedule(self.cycle + follow, _Callback(
                q, self.log, self.label + "'", self.cycle + follow, "plain"))
        elif kind == "nested":
            self.log.append(("nested", q.run_due(self.cycle)))
        elif kind == "clear":
            q.clear()
        elif kind == "raise":
            raise RuntimeError(self.label)


_KINDS = ("plain", "same", "earlier", "later", "nested", "clear", "raise")

_PROGRAMS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), st.integers(0, 30),
                  st.sampled_from(_KINDS)),
        st.tuples(st.just("run_due"), st.integers(-2, 35)),
        st.tuples(st.just("next_cycle")),
        st.tuples(st.just("len")),
        st.tuples(st.just("clear")),
    ),
    max_size=60,
)


def _run(queue_class, program):
    """The log of ``program`` on a new queue: what each operation
    returned or raised, every firing in order, and after each operation
    the pending events as ``(cycle, seq, label)``."""
    q, log = queue_class(), []
    for number, op in enumerate(program):
        try:
            if op[0] == "schedule":
                _, cycle, kind = op
                q.schedule(cycle, _Callback(q, log, str(number), cycle, kind))
                result = None
            elif op[0] == "run_due":
                result = q.run_due(op[1])
            elif op[0] == "next_cycle":
                result = q.next_cycle()
            elif op[0] == "len":
                result = len(q)
            else:
                result = q.clear()
        except RuntimeError as exc:
            result = ("raised", str(exc))
        log.append((op, result,
                    [(cycle, seq, fn.label) for cycle, seq, fn in q.pending()]))
    return log


@settings(max_examples=300, deadline=None)
@given(_PROGRAMS)
def test_the_compiled_queue_matches_the_heapq_reference(program):
    """Same firing order, return values, exceptions and pending events
    after every operation, with callbacks that schedule at their own and
    at earlier cycles, re-enter ``run_due``, clear the queue and raise."""
    assert _run(EventQueue, program) == _run(HeapEventQueue, program)
