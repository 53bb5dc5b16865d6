"""The naive engine's compiled cycle loop against its Python loop body.

``System._run_naive`` runs its cycles in the event kernel's
``run_cycles`` (``sim/_kernel.c``) while ``System._compiled_loop``
allows, and in its Python loop body otherwise: the reference and the
fallback.  This module holds the two to each other:

* a Hypothesis lockstep over small machines, every registered scheduler
  and the null, CBP and CLPT providers, with caps inside a compiled span
  and det-chain intervals of 0, 1 and odd values;
* failure paths: a raising provider hook, ``select`` and event callback
  leave equal state on both loops;
* every fallback trigger takes the Python loop and is counted there,
  and a patch made mid-run takes effect at the next return to Python;
* signals reach Python handlers while the compiled loop runs.
"""

from __future__ import annotations

import gc
import operator
import signal
import time
import types

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.analysis import detchain
from repro.config import DramConfig, SimScale, SystemConfig
from repro.core.provider import CbpProvider
from repro.cpu import core as core_mod
from repro.cpu import native
from repro.cpu.core import OutOfOrderCore
from repro.dram import controller
from repro.dram.controller import MemorySystem
from repro.sched.registry import SCHEDULERS
from repro.sim import events, system as system_mod
from repro.sim.events import EventQueue
from repro.sim.stats import result_fingerprint
from repro.sim.system import System, loop_implementation
from repro.workloads.parallel import parallel_traces
from tests.test_batched_differential import _build_trace, _instruction
from tests.test_kernel import loaded

SCALE = SimScale(instructions_per_core=400, warmup_instructions=0, seed=11)

#: Knobs that attach telemetry or change what a run folds.
_KNOBS = ("REPRO_DETCHAIN_EVERY", "REPRO_SAMPLE_EVERY", "REPRO_TRACE",
          "REPRO_VERIFY_EFFECTS", "REPRO_ENGINE")

PROVIDERS = {
    "null": None,
    "cbp": ("cbp", {"entries": 16}),
    "clpt": ("clpt", {"ranked": True}),
}


@pytest.fixture(autouse=True)
def _default_knobs(monkeypatch):
    for name in _KNOBS:
        monkeypatch.delenv(name, raising=False)


@pytest.fixture
def compiled():
    """Skips without a compiler; fails if one exists and a kernel the
    compiled loop calls did not load."""
    loaded(native.EVENTS, events)
    loaded(native.CPU, core_mod)
    loaded(native.DRAM, controller)
    assert loop_implementation() == "compiled"


def _fft_system(cores=4, scheduler="fr-fcfs", provider=None,
                instructions=SCALE.instructions_per_core):
    config = SystemConfig(cores=cores, dram=DramConfig(channels=2))
    traces = parallel_traces("fft", cores, instructions, seed=SCALE.seed)
    return System(config, traces, scheduler=scheduler,
                  provider_spec=provider)


def _on_python_loop(system):
    """``system`` with its compiled loop refused, as a fallback does."""
    system._compiled_loop = lambda sampler: None
    return system


def _state(system):
    """What a stopped run leaves: the clock, the finish cycles, the
    architectural state and each core's counters."""
    return (
        system._now,
        list(system._finish_cycles),
        detchain.snapshot(system),
        [tuple(getattr(c.stats, f) for f in type(c.stats).FIELDS)
         for c in system.cores],
    )


def _outcome(system, result):
    return (
        result.cycles,
        result.det_chain,
        result.det_checkpoints,
        result_fingerprint(result),
        list(system._finish_cycles),
        system._now,
        result.hit_max_cycles,
    )


# ------------------------------------------------------------- lockstep


@pytest.mark.parametrize("provider", sorted(PROVIDERS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cores=st.integers(1, 3),
    channels=st.integers(1, 2),
    ranks=st.integers(1, 2),
    items=st.lists(st.lists(_instruction, min_size=8, max_size=60),
                   min_size=3, max_size=3),
    every=st.sampled_from(("0", "1", "7", "61")),
    cap=st.one_of(st.none(), st.integers(1, 1500)),
)
def test_compiled_loop_equals_python_loop(
    compiled, scheduler, provider, cores, channels, ranks, items, every, cap
):
    """Both loops leave the same chain, checkpoints, fingerprint, finish
    cycles, clock and cap flag, and each ran every cycle itself."""
    config = SystemConfig(
        cores=cores,
        dram=DramConfig(channels=channels, ranks_per_channel=ranks),
    )
    outcomes, counts = [], []
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("REPRO_DETCHAIN_EVERY", every)
        for python in (False, True):
            system = System(
                config, [_build_trace(t) for t in items[:cores]],
                scheduler=scheduler, provider_spec=PROVIDERS[provider],
            )
            if python:
                _on_python_loop(system)
            result = system.run(max_cycles=cap)
            outcomes.append(_outcome(system, result))
            counts.append(dict(system.loop_cycles))
    assert outcomes[0] == outcomes[1]
    cycles = outcomes[0][0]
    assert counts == [{"compiled": cycles, "python": 0},
                      {"compiled": 0, "python": cycles}]


@pytest.mark.parametrize("cap", (1, 63, 64, 65, 300))
def test_caps_around_a_sample(compiled, monkeypatch, cap):
    """Caps before, on and after a det-chain sample cycle, and inside a
    later span, stop both loops at the same cycle with the same chain."""
    monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "64")
    runs = []
    for python in (False, True):
        system = _fft_system()
        if python:
            _on_python_loop(system)
        runs.append(_outcome(system, system.run(max_cycles=cap)))
    assert runs[0] == runs[1]
    assert runs[0][0] == cap and runs[0][-1]


# -------------------------------------------------------- failure paths


def _failing_provider(after):
    """A CBP-16 provider factory whose ``annotate`` raises at its
    ``after``-th call over all cores."""
    calls = [0]

    class Failing(CbpProvider):
        def annotate(self, pc):
            calls[0] += 1
            if calls[0] == after:
                raise RuntimeError("provider failed")
            return super().annotate(pc)

    return lambda core_id: Failing(entries=16)


def _fail_select(system, after):
    scheduler = system.memory.channels[1].scheduler
    real = scheduler.select
    calls = [0]

    def select(*args):
        calls[0] += 1
        if calls[0] == after:
            raise RuntimeError("select failed")
        return real(*args)

    scheduler.select = select


def _fail_event(system, cycle):
    def boom():
        raise RuntimeError("event failed")

    system.events.schedule(cycle, boom)


@pytest.mark.parametrize("where", ("provider", "select", "event"))
def test_an_exception_leaves_equal_state(compiled, monkeypatch, where):
    monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "64")
    states = []
    for python in (False, True):
        if where == "provider":
            system = _fft_system(provider=_failing_provider(150))
        else:
            system = _fft_system(scheduler="casras-crit",
                                 provider=("cbp", {"entries": 16}))
            if where == "select":
                _fail_select(system, 12)
            else:
                _fail_event(system, 333)
        if python:
            _on_python_loop(system)
        with pytest.raises(RuntimeError, match=f"{where} failed"):
            system.run()
        states.append(_state(system))
    assert states[0] == states[1]
    assert states[0][0] > 0


# ------------------------------------------------------------- fallbacks


def _counting(fn, calls):
    def wrapper(*args):
        calls.append(args[-1])
        return fn(*args)

    return wrapper


def _patch(trigger, system, monkeypatch, calls):
    """Replace one entry point with a wrapper that logs each call's
    cycle into ``calls``."""
    if trigger == "core step (class)":
        monkeypatch.setattr(OutOfOrderCore, "step",
                            _counting(OutOfOrderCore.step, calls))
    elif trigger == "core step (instance)":
        core = system.cores[1]
        core.step = _counting(core.step, calls)
    elif trigger == "memory step (class)":
        monkeypatch.setattr(MemorySystem, "step",
                            _counting(MemorySystem.step, calls))
    elif trigger == "memory step (instance)":
        system.memory.step = _counting(system.memory.step, calls)
    elif trigger == "run_due (class)":
        monkeypatch.setattr(EventQueue, "run_due",
                            _counting(EventQueue.run_due, calls))
    elif trigger == "run_due (instance)":
        system.events.run_due = _counting(system.events.run_due, calls)


_PATCHES = ("core step (class)", "core step (instance)",
            "memory step (class)", "memory step (instance)",
            "run_due (class)", "run_due (instance)")


@pytest.mark.parametrize("trigger", _PATCHES)
def test_a_replaced_entry_point_takes_the_python_loop(
    compiled, monkeypatch, trigger
):
    """Each replaced entry point sees every call, on the Python loop,
    and the result is the compiled loop's."""
    reference = _fft_system()
    expected = result_fingerprint(reference.run())
    assert reference.loop_cycles["python"] == 0
    system = _fft_system()
    calls = []
    _patch(trigger, system, monkeypatch, calls)
    result = system.run()
    assert result_fingerprint(result) == expected
    assert system.loop_cycles == {"compiled": 0, "python": result.cycles}
    if trigger == "core step (class)":
        assert len(calls) == sum(system._finish_cycles)
    elif trigger == "core step (instance)":
        assert len(calls) == system._finish_cycles[1]
    else:
        assert calls == list(range(result.cycles))


@pytest.mark.parametrize("trigger", ("sampler", "cpu kernel",
                                     "dram kernel", "event kernel"))
def test_telemetry_or_a_missing_kernel_takes_the_python_loop(
    monkeypatch, trigger
):
    if trigger == "sampler":
        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
    else:
        owner = {"cpu kernel": core_mod, "dram kernel": controller,
                 "event kernel": events}[trigger]
        monkeypatch.setattr(owner, "_kernel", None)
        assert loop_implementation() == "python"
    system = _fft_system()
    result = system.run()
    assert system.loop_cycles == {"compiled": 0, "python": result.cycles}


def test_a_patch_made_mid_run_takes_effect_at_the_next_sample(
    compiled, monkeypatch
):
    """The guard is checked each time control comes back to Python: a
    ``step`` set on the memory system by an event at cycle 300 moves the
    run to the Python loop after the sample at cycle 320."""
    monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "64")
    reference = _fft_system()
    # The same pending event, so the det-chain samples equal queues.
    reference.events.schedule(300, lambda: None)
    expected = result_fingerprint(reference.run())
    system = _fft_system()
    calls = []

    def patch():
        system.memory.step = _counting(system.memory.step, calls)

    system.events.schedule(300, patch)
    result = system.run()
    assert result_fingerprint(result) == expected
    assert system.loop_cycles == {"compiled": 321,
                                  "python": result.cycles - 321}
    assert calls == list(range(321, result.cycles))


def test_loop_totals_add_up_each_run(compiled):
    before = dict(system_mod.loop_totals)
    result = _fft_system().run()
    python = _on_python_loop(_fft_system()).run()
    assert {path: system_mod.loop_totals[path] - before[path]
            for path in before} == {"compiled": result.cycles,
                                    "python": python.cycles}


# --------------------------------------------------------------- signals


@pytest.fixture
def prof_timer():
    """Arms ``ITIMER_PROF`` with a handler; restores both afterwards.

    The cyclic collector is off meanwhile: a handler runs wherever Python
    code runs, and an exception it raises inside a collector callback
    would be reported as unraisable instead of stopping the run."""
    old = signal.getsignal(signal.SIGPROF)
    collecting = gc.isenabled()
    gc.disable()

    def arm(handler, interval):
        signal.signal(signal.SIGPROF, handler)
        signal.setitimer(signal.ITIMER_PROF, interval, interval)

    yield arm
    signal.setitimer(signal.ITIMER_PROF, 0, 0)
    signal.signal(signal.SIGPROF, old)
    if collecting:
        gc.enable()


def test_the_loop_checks_signals_every_cycle(compiled, prof_timer):
    """A cycle loop that calls no Python code still runs a pending
    handler: with C callables for the steps and an empty queue, the
    handler's KeyboardInterrupt stops the loop after one timer interval,
    at the top of a cycle, with the clock at the cycles it finished."""
    machine = types.SimpleNamespace(
        events=EventQueue(), memory=0,
        cores=[types.SimpleNamespace(done=False, core_id=0)],
        _finish_cycles=[0], _now=0,
    )

    def interrupt(signum, frame):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        raise KeyboardInterrupt

    prof_timer(interrupt, 0.02)
    start = time.process_time()
    with pytest.raises(KeyboardInterrupt):
        # Without the check this spins through 5 * 10**7 cycles (seconds)
        # and returns at the cap.
        events._kernel.run_cycles(machine, operator.is_, operator.is_,
                                  0, 1, None, 5 * 10**7)
    assert time.process_time() - start < 5
    assert machine._now > 0 and machine._finish_cycles == [0]


def test_handlers_fire_during_a_compiled_run(compiled, monkeypatch,
                                             prof_timer):
    monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "0")
    fired = []
    interval = 0.002
    prof_timer(lambda signum, frame: fired.append(signum), interval)
    system = _fft_system(cores=8, instructions=3000)
    start = time.process_time()
    result = system.run()
    spent = time.process_time() - start
    assert system.loop_cycles["compiled"] == result.cycles
    assert spent > 10 * interval, "the run is too short to time"
    assert len(fired) >= spent / interval / 4


def test_an_interrupt_leaves_the_python_loops_state(compiled, monkeypatch):
    """A KeyboardInterrupt raised from a handler, for a signal an event
    sends at cycle 333, stops both loops with equal state."""
    monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "64")

    def interrupt(signum, frame):
        raise KeyboardInterrupt

    old = signal.signal(signal.SIGUSR1, interrupt)
    try:
        states = []
        for python in (False, True):
            system = _fft_system()
            system.events.schedule(
                333, lambda: signal.raise_signal(signal.SIGUSR1)
            )
            if python:
                _on_python_loop(system)
            with pytest.raises(KeyboardInterrupt):
                system.run()
            states.append(_state(system))
    finally:
        signal.signal(signal.SIGUSR1, old)
    assert states[0] == states[1]
    assert states[0][0] == 333


def test_a_timer_interrupt_stops_a_compiled_run(compiled, monkeypatch,
                                               prof_timer):
    monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "0")
    full = _fft_system(cores=8, instructions=3000).run().cycles
    ticks = []

    def interrupt(signum, frame):
        ticks.append(signum)
        if len(ticks) == 3:
            signal.setitimer(signal.ITIMER_PROF, 0, 0)
            raise KeyboardInterrupt

    system = _fft_system(cores=8, instructions=3000)
    prof_timer(interrupt, 0.005)
    with pytest.raises(KeyboardInterrupt):
        system.run()
    assert 0 < system._now < full
    assert all(end <= system._now for end in system._finish_cycles)
