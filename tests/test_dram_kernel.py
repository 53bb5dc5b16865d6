"""The DRAM controller's compiled per-edge path (``repro/dram/_kernel.c``)
held to its Python bodies.

``ChannelController.step``, ``next_wake_window`` and ``account_window``,
and ``MemorySystem.step`` and ``step_window``, hand each call to the
kernel when it is loaded; the Python body after the guard is the
reference.  A compiled and a Python memory system are driven in lockstep
with the same Hypothesis-generated stream of enqueues, criticality bumps
and clock edges over tiny geometries, under every registered scheduler,
and compared after every step; the streams run again with the protocol
sanitizer and a trace recorder attached.  End-to-end runs are compared
with every telemetry stream on, and a scheduler that returns a command
of another kind, a raising call out, the classes the kernel refuses, a
channel ``step`` replaced on the class or the channel (called by name)
and the determinism chain's compiled fold (``sample`` and ``finalize``)
are pinned too.

Compiled cases skip only where no C compiler exists; where one does, a
kernel that did not load fails them.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter, deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.detchain import DetChain
from repro.config import DDR3_2133, DramConfig, SimScale, SystemConfig
from repro.cpu import native
from repro.dram import controller
from repro.dram.addressmap import DramLocation
from repro.dram.bank import Bank
from repro.dram.channel import ChannelTiming
from repro.dram.command import CandidateCommand, CommandKind
from repro.dram.controller import ChannelController, ChannelStats, MemorySystem
from repro.dram.transaction import Transaction
from repro.sched.frfcfs import FrFcfsScheduler
from repro.sched.registry import SCHEDULERS, make_scheduler_factory
from repro.sim import events
from repro.sim.runner import (
    run_multiprogrammed_workload,
    run_parallel_workload,
)
from repro.sim.stats import result_fingerprint
from repro.sim.system import ENGINES, System
from repro.telemetry.registry import LatencyHistogram, MetricRegistry
from repro.workloads.parallel import parallel_traces
from tests.test_kernel import loaded


@pytest.fixture
def kernel():
    """The DRAM controller's loaded kernel."""
    return loaded(native.DRAM, controller)


def use(monkeypatch, kernel, on):
    monkeypatch.setattr(controller, "_kernel", kernel if on else None)


class Recorder:
    """A trace recorder that logs every DRAM command into ``log``."""

    def __init__(self, log):
        self.log = log

    def command(self, *args):
        self.log.append(("command", *args))


class Machine:
    """A memory system on its own clock, driven op by op; ``log`` records
    what it reports back (acceptances, completions with their cycles and
    row-hit flags, and traced commands)."""

    def __init__(self, config, scheduler, batched, traced):
        self.memory = MemorySystem(config, make_scheduler_factory(scheduler))
        self.memory._batched = batched
        self.registry = MetricRegistry()
        for channel in self.memory.channels:
            channel.register_metrics(self.registry,
                                     f"chan{channel.channel_id}")
        self.now = 0
        self.log = []
        self.txns = {}
        if traced:
            for channel in self.memory.channels:
                channel.trace = Recorder(self.log)

    def done(self, token, cycle):
        self.log.append(("done", token, cycle, self.txns[token].row_hit))

    def enqueue(self, token, burst):
        """Offer each transaction of ``burst`` at this cycle."""
        memory = self.memory
        for k, (channel, rank, bank, row, is_write, core, critical,
                magnitude) in enumerate(burst):
            key = (token, k)
            address = memory.address_map.compose(
                DramLocation(channel, rank, bank, row, 0))
            txn = memory.make_transaction(
                address, is_write=is_write, core=core, critical=critical,
                magnitude=magnitude,
                callback=(None if is_write
                          else functools.partial(self.done, key)),
            )
            self.txns[key] = txn
            self.log.append(("enqueue", key,
                             memory.try_enqueue(txn, self.now)))

    def bump(self, token, pick, magnitude):
        """Raise a queued read's criticality, as the hierarchy does for a
        critical load that merges into an outstanding miss."""
        reads = [txn for channel in self.memory.channels
                 for txn in channel.read_queue]
        if not reads:
            return
        txn = reads[pick % len(reads)]
        if not txn.critical:
            self.memory.presettle(txn, self.now, event_phase=True)
        txn.critical = True
        if magnitude > txn.magnitude:
            txn.magnitude = magnitude

    def run(self, token, cycles):
        memory = self.memory
        step = memory.step_window if memory._batched else memory.step
        for _ in range(cycles):
            step(self.now)
            self.now += 1

    def settle(self):
        if self.memory._batched:
            self.memory.settle_idle(self.now)

    def state(self):
        memory = self.memory
        return (
            [_channel_state(channel) for channel in memory.channels],
            list(memory._chan_wake),
            list(memory._chan_settled),
            self.registry.snapshot(),
            list(self.log),
        )


def _fields(obj, cls):
    return tuple(_plain(getattr(obj, name)) for name in cls.__slots__)


def _plain(value):
    if isinstance(value, LatencyHistogram):
        return (list(value.counts), value.count, value.total, value.max,
                value.min)
    if isinstance(value, functools.partial):
        return ("callback", value.args)
    if isinstance(value, (list, tuple, deque)):
        return tuple(_plain(item) for item in value)
    return value


def _channel_state(channel):
    return (
        [_fields(txn, Transaction) for txn in channel.read_queue],
        [_fields(txn, Transaction) for txn in channel.write_queue],
        [[_fields(bank, Bank) for bank in rank] for rank in channel.banks],
        _fields(channel.timing, ChannelTiming),
        _fields(channel.stats, ChannelStats),
        channel._draining,
        list(channel._next_refresh),
        list(channel._refresh_due),
        channel._seq,
        tuple(channel.scheduler.det_state()),
        channel.det_state(),
    )


@st.composite
def streams(draw):
    """A tiny memory system and a stream of operations on it."""
    channels = draw(st.integers(1, 2))
    ranks = draw(st.integers(1, 2))
    banks = draw(st.integers(1, 4))
    # A short refresh interval (213 to 533 DRAM cycles) so REF trains
    # occur within a stream.
    timings = dataclasses.replace(
        DDR3_2133, refresh_interval_us=draw(st.sampled_from([0.2, 0.3, 0.5])))
    config = DramConfig(
        channels=channels, ranks_per_channel=ranks, banks_per_rank=banks,
        transaction_queue_entries=draw(st.integers(1, 16)),
        unified_queue=draw(st.booleans()), timings=timings,
    )
    # Bursts over few banks and rows keep several requests to one bank
    # queued at once: row-hit trains, conflicts behind them and the
    # precharge policy's metadata.
    txn = st.tuples(st.integers(0, channels - 1), st.integers(0, ranks - 1),
                    st.integers(0, banks - 1), st.integers(0, 2),
                    st.booleans(), st.integers(0, 3), st.booleans(),
                    st.integers(0, 40))
    op = st.one_of(
        st.tuples(st.just("enqueue"), st.lists(txn, min_size=1, max_size=8)),
        st.tuples(st.just("bump"), st.integers(0, 63), st.integers(0, 40)),
        st.tuples(st.just("run"), st.integers(1, 240)),
    )
    return config, draw(st.booleans()), draw(
        st.lists(op, min_size=1, max_size=60))


def _apply(machine, token, op):
    kind, *args = op
    getattr(machine, kind)(token, *args)


def _watch(machine, reached):
    """Count, on the Python machine, the choices its schedulers get."""
    for channel in machine.memory.channels:
        select = channel.scheduler.select

        def watched(candidates, controller, now, select=select):
            if len(candidates) > 1:
                reached["choice of candidates"] += 1
            if any(c.blocked_by_hits for c in candidates):
                reached["precharge blocked by hits"] += 1
            return select(candidates, controller, now)

        channel.scheduler.select = watched


def _lockstep(kernel, monkeypatch, scheduler, traced, examples, reached):
    @settings(max_examples=examples, deadline=None, derandomize=True)
    @given(streams())
    def lockstep(stream):
        config, batched, ops = stream
        machines = []
        for on in (True, False):
            use(monkeypatch, kernel, on)
            machines.append(Machine(config, scheduler, batched, traced))
        compiled, python = machines
        _watch(python, reached)
        for token, op in enumerate(ops):
            use(monkeypatch, kernel, True)
            _apply(compiled, token, op)
            use(monkeypatch, kernel, False)
            _apply(python, token, op)
            assert compiled.state() == python.state(), (token, op)
            reached["draining"] += sum(
                bool(ch._draining) for ch in python.memory.channels)
        # Drain what is queued, through at least one refresh interval.
        for _ in range(60):
            use(monkeypatch, kernel, True)
            compiled.run(None, 64)
            use(monkeypatch, kernel, False)
            python.run(None, 64)
            assert compiled.state() == python.state(), python.now
        use(monkeypatch, kernel, True)
        compiled.settle()
        use(monkeypatch, kernel, False)
        python.settle()
        assert compiled.state() == python.state()
        assert not python.memory.pending(), "the stream did not drain"
        for channel in python.memory.channels:
            stats = channel.stats
            reached["refresh"] += stats.refreshes
            reached["precharge"] += stats.precharges
            reached["row hit"] += stats.row_hit_reads
            reached["write"] += stats.writes_done
            reached["two critical reads queued"] += (
                stats.multi_critical_queue_cycles)

    lockstep()
    use(monkeypatch, kernel, True)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_controller_matches_the_python_bodies_step_by_step(
    kernel, monkeypatch, scheduler
):
    """Lockstep: after every enqueue, criticality bump and run of clock
    edges (``step`` on every cycle, or ``step_window`` with the batched
    engine's lazy settlement), both queues (every field of every
    transaction), every bank slot, the channel timing (deques included),
    the statistics and both histograms, the drain and refresh state,
    ``_chan_wake``/``_chan_settled``, the scheduler's det-state, its
    decision counters and the completions with their cycles are equal.
    Across the examples the streams reach REF trains, precharges, row
    hits, write drains, cycles with two critical reads queued, choices
    among several candidates and precharges blocked by queued hits."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    reached = Counter()
    _lockstep(kernel, monkeypatch, scheduler, False, 60, reached)
    wanted = {"refresh", "precharge", "row hit", "write", "draining",
              "two critical reads queued", "choice of candidates",
              "precharge blocked by hits"}
    assert wanted <= {name for name, count in reached.items() if count}, (
        reached)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_sanitized_and_traced_controller_matches_the_python_bodies(
    kernel, monkeypatch, scheduler
):
    """The same lockstep with ``REPRO_SANITIZE=1`` (every command is
    checked by the protocol sanitizer) and a trace recorder attached,
    whose records are compared too."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    _lockstep(kernel, monkeypatch, scheduler, True, 15, Counter())


# ------------------------------------------------------------ failure paths


class Boom(Exception):
    pass


class RefreshChooser(FrFcfsScheduler):
    """Returns FR-FCFS's choice re-labelled as a REFRESH command."""

    def select(self, candidates, controller, now):
        chosen = super().select(candidates, controller, now)
        if chosen is None:
            return None
        return CandidateCommand(CommandKind.REFRESH, chosen.txn, chosen.rank,
                                chosen.bank, chosen.row)


def _one_channel(scheduler, callback=None):
    channel = ChannelController(0, DramConfig(channels=1), scheduler)
    loc = DramLocation(0, 0, 0, 5, 0)
    channel.enqueue(Transaction(0, loc, callback=callback), 0)
    return channel


def _raising_states(kernel, monkeypatch, make_channel, exception):
    states = []
    for on in (True, False):
        use(monkeypatch, kernel, on)
        channel = make_channel()
        with pytest.raises(exception) as caught:
            for now in range(200):
                channel.step(now)
        states.append((_channel_state(channel), str(caught.value)))
    use(monkeypatch, kernel, True)
    return states


def test_a_command_of_another_kind_raises_on_both_paths(kernel,
                                                        monkeypatch):
    """A scheduler that returns a REFRESH candidate gets ValueError from
    ``_execute`` on both paths, after ``busy_cycles`` counted the slot,
    and both leave the same state behind."""
    compiled, python = _raising_states(
        kernel, monkeypatch, lambda: _one_channel(RefreshChooser()),
        ValueError)
    assert compiled == python
    assert "scheduler returned unexpected command" in python[1]
    stats = python[0][4]
    assert stats[ChannelStats.__slots__.index("busy_cycles")] == 1


def test_a_raising_completion_callback_leaves_the_python_state(
    kernel, monkeypatch
):
    """The read's completion callback raises: the exception surfaces
    unchanged from ``step``, and the controller holds what the Python
    body left (the read is dequeued and counted)."""

    def raising(cycle):
        raise Boom(cycle)

    compiled, python = _raising_states(
        kernel, monkeypatch,
        lambda: _one_channel(FrFcfsScheduler(), raising), Boom)
    assert compiled == python
    assert python[0][0] == []


def test_a_raising_scheduler_leaves_the_python_state(kernel, monkeypatch):
    class Raising(FrFcfsScheduler):
        def select(self, candidates, controller, now):
            raise Boom(len(candidates), now)

    compiled, python = _raising_states(
        kernel, monkeypatch, lambda: _one_channel(Raising()), Boom)
    assert compiled == python


def test_the_kernel_refuses_other_classes(kernel, monkeypatch):
    """Fields are reached at slot offsets, so an object of another class
    than the model's fails loudly instead of being read as one; so does a
    bank on other timings than its controller's."""

    class Duck:
        pass

    class Subclassed(ChannelController):
        pass

    use(monkeypatch, kernel, True)
    with pytest.raises(TypeError, match="ChannelController"):
        Subclassed(0, DramConfig(channels=1), FrFcfsScheduler()).step(0)
    channel = _one_channel(FrFcfsScheduler())
    channel.read_queue.append(Duck())
    with pytest.raises(TypeError, match="Transaction"):
        channel.step(0)
    channel = ChannelController(0, DramConfig(channels=1), FrFcfsScheduler())
    channel.banks[0][1] = Duck()
    with pytest.raises(TypeError, match="Bank"):
        channel.step(0)
    # The timing constants are read once, from the controller's timings,
    # which every bank and the channel timing must share.
    channel = ChannelController(0, DramConfig(channels=1), FrFcfsScheduler())
    channel.banks[0][1]._t = dataclasses.replace(DDR3_2133)
    with pytest.raises(ValueError, match="timings"):
        channel.step(0)


# ------------------------------------------------------------- end to end

SCALE = SimScale(instructions_per_core=800, warmup_instructions=100, seed=3)
CBP64 = ("cbp", {"entries": 64})

RUNS = {
    "fft/FR-FCFS": lambda: run_parallel_workload("fft", "fr-fcfs",
                                                 scale=SCALE),
    "radix/CASRAS-Crit+CBP64": lambda: run_parallel_workload(
        "radix", "casras-crit", CBP64, scale=SCALE),
    "RFGI/TCM+Crit": lambda: run_multiprogrammed_workload(
        "RFGI", "tcm+crit", CBP64, scale=SCALE),
}


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(RUNS))
def test_compiled_controller_matches_python_bodies(kernel, name, engine,
                                                   monkeypatch):
    """Same result fingerprint, det-chain checkpoints, sampled series and
    event trace with every telemetry stream and the sanitizer on."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
    monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "128")
    observed = []
    for on in (True, False):
        use(monkeypatch, kernel, on)
        result = RUNS[name]()
        assert not result.hit_max_cycles
        observed.append((
            result_fingerprint(result), result.det_chain,
            result.det_checkpoints, result.sample_cycles, result.timeseries,
            result.trace_events,
        ))
    assert observed[0] == observed[1]


def _channel_steps(engine, where):
    """Run 2-core fft with ``ChannelController.step`` wrapped on the
    class or on channel 1; the wrapper's calls per channel and the
    result's fingerprint."""
    calls = Counter()

    def counting(step):
        def wrapper(*args):
            channel = args[0] if where == "class" else channel_one
            calls[channel.channel_id] += 1
            return step(*args)

        return wrapper

    system = System(
        SystemConfig(cores=2, dram=DramConfig(channels=2)),
        parallel_traces("fft", 2, 400, seed=5),
    )
    channel_one = system.memory.channels[1]
    with pytest.MonkeyPatch.context() as mp:
        if where == "class":
            mp.setattr(ChannelController, "step",
                       counting(ChannelController.step))
        else:
            channel_one.step = counting(channel_one.step)
        result = system.run(engine=engine)
    return calls, result_fingerprint(result)


@pytest.mark.parametrize("where", ("class", "instance"))
@pytest.mark.parametrize("engine", ENGINES)
def test_a_replaced_channel_step_is_called_by_name(kernel, monkeypatch,
                                                   engine, where):
    """``MemorySystem.step`` and ``step_window`` run a channel's step in C
    only while ``channel.step`` is the class's own function: a ``step``
    replaced on the class or set on a channel sees every call the Python
    bodies make, and the result is unchanged."""
    observed = []
    for on in (True, False):
        use(monkeypatch, kernel, on)
        observed.append(_channel_steps(engine, where))
    (calls, fingerprint), (python_calls, python_fingerprint) = observed
    assert fingerprint == python_fingerprint
    assert calls == python_calls
    assert sorted(calls) == ([0, 1] if where == "class" else [1])


# --------------------------------------------------------- det-chain fold

WORDS = st.one_of(st.integers(-(1 << 70), 1 << 70), st.booleans(),
                  st.integers(0, 255))


def test_the_compiled_fold_equals_the_python_loop(monkeypatch):
    """``DetChain.sample`` folds through the event kernel's ``fold`` when
    it is loaded: the digest equals the Python loop's and the per-word
    reference's, for words of any sign and width (each taken mod 2**64)."""
    kernel = loaded(native.EVENTS, events)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, (1 << 64) - 1), st.integers(-(1 << 70), 1 << 70),
           st.lists(WORDS, max_size=40))
    def same_digest(digest, cycle, words):
        chains = [DetChain(1) for _ in range(3)]
        for chain in chains:
            chain.digest = digest
        monkeypatch.setattr(events, "_kernel", kernel)
        chains[0].sample(cycle, tuple(words))
        monkeypatch.setattr(events, "_kernel", None)
        chains[1].sample(cycle, tuple(words))
        chains[2].fold_words(cycle, tuple(words))
        assert chains[0].digest == chains[1].digest == chains[2].digest
        assert chains[0].checkpoints == chains[1].checkpoints

    same_digest()
    with pytest.raises(TypeError):
        kernel.fold(0, 0, (1.5,))


def test_finalize_folds_through_the_kernel(monkeypatch):
    """``DetChain.finalize`` folds the end-of-run state through the event
    kernel's ``fold`` when it is loaded: the digest and the checkpoints
    equal those of its per-word Python loop, after any samples."""
    kernel = loaded(native.EVENTS, events)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(0, 1 << 40),
                              st.lists(WORDS, max_size=12)), max_size=4),
           st.integers(-(1 << 70), 1 << 70), st.lists(WORDS, max_size=40))
    def same_chain(samples, cycle, words):
        chains = []
        for use_kernel in (kernel, None):
            monkeypatch.setattr(events, "_kernel", use_kernel)
            chain = DetChain(1)
            for at, state in samples:
                chain.sample(at, tuple(state))
            chain.finalize(cycle, tuple(words))
            chains.append(chain)
        compiled, python = chains
        assert compiled.digest == python.digest
        assert compiled.checkpoints == python.checkpoints
        assert compiled.checkpoints[-1] == (cycle, python.digest)

    same_chain()
