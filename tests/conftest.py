"""Shared fixtures: tiny deterministic systems and traces."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True, scope="session")
def _isolated_disk_cache(tmp_path_factory):
    """Keep the engine's disk cache out of the user's real cache dir."""
    import os

    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = str(tmp_path_factory.mktemp("repro-cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old

from repro.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    SimScale,
    SystemConfig,
)
from repro.cpu.instruction import BRANCH, FP, INT, LOAD, STORE, Trace

#: A fast scale for end-to-end tests.
TEST_SCALE = SimScale(instructions_per_core=1_200, warmup_instructions=100)


@pytest.fixture
def python_core(monkeypatch):
    """Run the core's Python bodies instead of its compiled stages."""
    from repro.cpu import core

    monkeypatch.setattr(core, "_kernel", None)


@pytest.fixture
def python_cache(monkeypatch):
    """Run the cache hierarchy's Python bodies instead of its compiled
    per-access path."""
    from repro.cache import hierarchy

    monkeypatch.setattr(hierarchy, "_kernel", None)


@pytest.fixture
def python_events(monkeypatch):
    """Build every System's event queue from the heapq reference instead
    of the compiled heap, and fold the determinism chain in its Python
    loop instead of the event kernel's ``fold``."""
    from repro.sim import events

    monkeypatch.setattr(events, "EventQueue", events.HeapEventQueue)
    monkeypatch.setattr(events, "_kernel", None)


@pytest.fixture
def python_dram(monkeypatch):
    """Run the DRAM controller's Python bodies instead of its compiled
    per-edge path."""
    from repro.dram import controller

    monkeypatch.setattr(controller, "_kernel", None)


@pytest.fixture
def python_loop(monkeypatch):
    """Run the naive engine's cycles on the Python loop body of
    ``System._run_naive``, with every kernel loaded, instead of the event
    kernel's compiled loop."""
    from repro.sim.system import System

    monkeypatch.setattr(
        System, "_compiled_loop", lambda self, sampler, stream: None
    )


@pytest.fixture
def dram_config():
    return DramConfig()


@pytest.fixture
def small_system_config():
    """A 2-core machine that runs quickly."""
    return SystemConfig(cores=2, dram=DramConfig(channels=2))


def make_compute_trace(n=500, pc_base=0):
    """Pure register compute: no memory traffic at all."""
    trace = Trace("compute")
    for i in range(n):
        trace.append(INT if i % 3 else FP, pc_base + (i % 40), 0, 1 if i else 0)
    return trace


def make_load_trace(n=300, stride=64, base=1 << 20, pc=7, dep_on_prev=False):
    """A simple strided load stream with optional serial dependence."""
    trace = Trace("loads")
    addr = base
    last_load = None
    for i in range(n):
        if i % 5 == 0:
            dep = 0
            if dep_on_prev and last_load is not None:
                dep = len(trace) - last_load
            last_load = len(trace)
            trace.append(LOAD, pc, addr, dep)
            addr += stride
        else:
            trace.append(INT, 100 + (i % 10), 0, 1)
    return trace


def make_store_trace(n=200, base=2 << 20):
    trace = Trace("stores")
    addr = base
    for i in range(n):
        if i % 4 == 0:
            trace.append(STORE, 50, addr, 0)
            addr += 64
        else:
            trace.append(INT, 60 + (i % 5), 0, 1)
    return trace


def make_branch_trace(n=400, mispredict_every=10):
    trace = Trace("branches")
    for i in range(n):
        if i % 5 == 0:
            trace.append(BRANCH, 200 + (i % 8), 0, 1, 0,
                         misp=(i % (5 * mispredict_every) == 0 and i > 0))
        else:
            trace.append(INT, 300 + (i % 16), 0, 1)
    return trace
