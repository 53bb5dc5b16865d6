"""A finished System is freed by reference counting alone.

Once ``System.run`` has assembled its result it empties the event queue
and cuts the hierarchy's clock and core-waker closures and the callbacks
of misses still in flight: the only references that make a finished
machine cyclic.  With the cyclic collector off, the System and its models
must die with their last reference, so a sweep of runs never holds more
than one dead machine's memory (DESIGN.md §6).
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.config import SystemConfig
from repro.sched.registry import SCHEDULERS
from repro.sim.system import ENGINES, System
from repro.workloads.parallel import parallel_traces

#: fft at this length ends with a store's read-for-ownership still in
#: flight, the case that needs the in-flight callbacks cut too.
INSTRUCTIONS = 2000
CAP = 1500  # a capped run leaves loads waiting in the L1 MSHRs


@pytest.fixture
def no_collector():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize("max_cycles", [None, CAP], ids=["complete", "capped"])
@pytest.mark.parametrize("stream", [False, True], ids=["plain", "streamed"])
@pytest.mark.parametrize("engine", ENGINES)
def test_finished_system_freed_without_collector(
    engine, stream, max_cycles, tmp_path, monkeypatch, no_collector
):
    if stream:
        monkeypatch.setenv("REPRO_STREAM_DIR", str(tmp_path))
    else:
        monkeypatch.delenv("REPRO_STREAM_DIR", raising=False)
    config = SystemConfig.parallel_default()
    traces = parallel_traces("fft", config.cores, INSTRUCTIONS, seed=1)
    system = System(config, traces, scheduler="fr-fcfs")
    result = system.run(engine=engine, max_cycles=max_cycles)
    assert result.hit_max_cycles == (max_cycles is not None)
    assert len(system.hierarchy.l2_mshr) > 0, "no miss left in flight"
    machine = [system, system.hierarchy, system.memory, system.events,
               *system.cores]
    refs = [weakref.ref(part) for part in machine]
    del system, machine
    assert [type(r()).__name__ for r in refs if r() is not None] == []
    assert result.cycles > 0  # the result outlives its machine


@pytest.mark.parametrize(
    "scheduler,provider",
    [(name, None) for name in sorted(SCHEDULERS)]
    # Explicit ids pin each provider case's name; pytest would otherwise
    # number it by list position, which shifts with the scheduler registry.
    + [pytest.param("crit-casras", (kind, {}), id=f"crit-casras-provider{number}")
       for number, kind in enumerate(("cbp", "clpt", "naive", "fields"), start=12)],
)
def test_no_policy_or_provider_keeps_the_machine(scheduler, provider, no_collector):
    """No scheduler keeps its channel alive, and no criticality provider,
    which outlives the run inside the result (``SimResult.providers``),
    reaches back into the machine."""
    config = SystemConfig.parallel_default()
    traces = parallel_traces("fft", config.cores, 600, seed=1)
    system = System(config, traces, scheduler=scheduler, provider_spec=provider)
    result = system.run(engine="batched")
    machine = [system, system.hierarchy, system.memory, *system.cores,
               *system.memory.channels,
               *(channel.scheduler for channel in system.memory.channels)]
    refs = [weakref.ref(part) for part in machine]
    del system, machine
    assert [type(r()).__name__ for r in refs if r() is not None] == []
    assert result.providers
