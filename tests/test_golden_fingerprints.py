"""Results pinned to recorded values, not only to the other engine.

Both engines share ``OutOfOrderCore`` and every model below it, so the
naive/batched differential cannot see a model bug that both inherit.
This module pins, for a spread of workloads, schedulers and every
criticality-provider kind, the values a run produced when they were
recorded: total cycles, the determinism-chain digest, and a short
digest of the whole ``result_fingerprint``.  A change that is meant to
be bit-identical (a refactor or an optimisation) must leave every
value here untouched on both engines, on the compiled kernels (the
core's per-cycle stages, the cache hierarchy's per-access path, the
event queue with the determinism chain's fold and the naive engine's
cycle loop, and the DRAM controller's per-edge path), on the naive
engine's Python loop body, and on each kernel's Python bodies alike; a
change that is meant to alter results re-records them and says why.

Scale: 600 measured + 100 warm-up instructions per core, seed 7, with
the telemetry and determinism knobs at their defaults.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.cache import hierarchy
from repro.config import DramConfig, SimScale, SystemConfig
from repro.core.cbp import CbpMetric
from repro.cpu import core, native
from repro.dram import controller
from repro.sim import events
from repro.sim.engine import RunSpec
from repro.sim.runner import (
    run_application_alone,
    run_multiprogrammed_workload,
    run_parallel_workload,
    run_spec,
)
from repro.sim.stats import result_fingerprint
from repro.sim.system import ENGINES

SCALE = SimScale(instructions_per_core=600, warmup_instructions=100, seed=7)

CBP64 = ("cbp", {"entries": 64})

#: Environment knobs that change what a run records or how it is run.
_KNOBS = (
    "REPRO_ENGINE", "REPRO_VERIFY_SKIP", "REPRO_VERIFY_EFFECTS",
    "REPRO_DETCHAIN_EVERY", "REPRO_SAMPLE_EVERY", "REPRO_TRACE",
    "REPRO_TRACE_CAP",
)


class _Quiet:
    """Duck-typed provider without ``next_tick_cycle``: never skipped."""

    def annotate(self, pc):
        return (False, 0)

    def on_block_start(self, *args, **kwargs):
        pass

    def on_blocked_commit(self, *args, **kwargs):
        pass

    def on_load_consumers(self, *args, **kwargs):
        pass

    def tick(self, *args, **kwargs):
        pass


def _parallel(app, scheduler, provider=None):
    return lambda: run_parallel_workload(
        app, scheduler, provider, scale=SCALE
    )


#: name -> (run thunk, (cycles, det_chain, fingerprint digest)).
GOLDEN = {
    "fft/FR-FCFS": (
        _parallel("fft", "fr-fcfs"),
        (1645, 6384262972442217943, "f8d1b9510e455936"),
    ),
    "art/CASRAS-Crit+CBP64": (
        _parallel("art", "casras-crit", CBP64),
        (1428, 16261395861371494347, "bc44c13d920b291b"),
    ),
    "swim/Crit-CASRAS+CLPT-Consumers": (
        _parallel("swim", "crit-casras", ("clpt", {"ranked": True})),
        (1120, 13991124028309959694, "e505b2f6e9e44a23"),
    ),
    "ocean/CASRAS-Crit+CBP64-reset300": (
        _parallel("ocean", "casras-crit",
                  ("cbp", {"entries": 64, "reset_interval": 300})),
        (1040, 15746552032249775792, "4f3472e8ef21c2e4"),
    ),
    "mg/CASRAS-Crit+naive": (
        _parallel("mg", "casras-crit", ("naive", {})),
        (1061, 9586448096516272772, "e06bd5ad8b61c30f"),
    ),
    "fft/CASRAS-Crit+Fields": (
        _parallel("fft", "casras-crit", ("fields", {})),
        (1681, 1459201405968466891, "f946dd0ffcd2a333"),
    ),
    "radix/Crit-CASRAS+CBP64-Binary": (
        _parallel("radix", "crit-casras",
                  ("cbp", {"entries": 64, "metric": CbpMetric.BINARY})),
        (969, 18268543141909031660, "c669ba27b23eb80a"),
    ),
    "art/TCM+duck-typed": (
        _parallel("art", "tcm", lambda core_id: _Quiet()),
        (1648, 10901440750118919427, "0bc25597ebed0d79"),
    ),
    "RFGI/Crit-RL+CBP64": (
        lambda: run_multiprogrammed_workload(
            "RFGI", "crit-rl", CBP64, scale=SCALE
        ),
        (1228, 9714150110648068583, "76a7adaf75450808"),
    ),
    "RFGI/MORSE-P": (
        lambda: run_multiprogrammed_workload("RFGI", "morse-p", scale=SCALE),
        (1222, 15876388825345311636, "3195ef671a8394bc"),
    ),
    "RFGI[1]/PAR-BS-alone": (
        lambda: run_application_alone("RFGI", 1, "par-bs", scale=SCALE),
        (752, 15377587593544245303, "1be03a3cafda6033"),
    ),
    # The mechanism experiment's machine and predictor; recorded by
    # running System directly on that experiment's own traces.
    "LS/Crit-CASRAS+CBP-unlimited": (
        lambda: run_spec(RunSpec(
            kind="scenario", workload="LS", scheduler="crit-casras",
            provider_spec=("cbp", {"entries": None}),
            config=SystemConfig(cores=2, dram=DramConfig(channels=1)),
            scale=SCALE,
        )),
        (2238, 3918409919191970232, "ebbf8faea07a8fa5"),
    ),
}


def observed(result) -> tuple[int, int | None, str]:
    """The pinned triple for one finished run."""
    digest = hashlib.sha256(
        repr(result_fingerprint(result)).encode()
    ).hexdigest()[:16]
    return result.cycles, result.det_chain, digest


@pytest.fixture
def default_knobs(monkeypatch):
    for name in _KNOBS:
        monkeypatch.delenv(name, raising=False)


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_matches_recorded_values(default_knobs, monkeypatch, name, engine):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    run, expected = GOLDEN[name]
    assert observed(run()) == expected


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_python_loop_matches_recorded_values(
    default_knobs, python_loop, monkeypatch, name
):
    """The same values from the naive engine's Python loop body with every
    kernel loaded (the test above runs the naive engine's cycles in the
    event kernel's compiled loop wherever the kernels build)."""
    monkeypatch.setenv("REPRO_ENGINE", "naive")
    run, expected = GOLDEN[name]
    assert observed(run()) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_python_core_matches_recorded_values(
    default_knobs, python_core, monkeypatch, name, engine
):
    """The same values from the Python bodies of the core's compiled
    stages (the test above runs both kernels wherever they build)."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    run, expected = GOLDEN[name]
    assert observed(run()) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_python_cache_matches_recorded_values(
    default_knobs, python_cache, monkeypatch, name, engine
):
    """The same values from the Python bodies of the cache hierarchy's
    compiled per-access path."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    run, expected = GOLDEN[name]
    assert observed(run()) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_python_dram_matches_recorded_values(
    default_knobs, python_dram, monkeypatch, name, engine
):
    """The same values from the Python bodies of the DRAM controller's
    compiled per-edge path."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    run, expected = GOLDEN[name]
    assert observed(run()) == expected


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_python_events_matches_recorded_values(
    default_knobs, python_events, monkeypatch, name, engine
):
    """The same values from the heapq reference of the compiled event
    queue and the Python loop of the determinism chain's fold."""
    monkeypatch.setenv("REPRO_ENGINE", engine)
    run, expected = GOLDEN[name]
    assert observed(run()) == expected


def test_failed_build_selects_the_python_core(
    default_knobs, monkeypatch, tmp_path
):
    """With the compiler call failing and no built kernel on disk,
    loading selects the Python bodies of all four kernels, and every
    recorded value holds on both engines."""

    def no_compiler(argv):
        raise FileNotFoundError(argv[0])

    monkeypatch.setattr(native, "_compile", no_compiler)
    for spec, owner in ((native.CPU, core), (native.CACHE, hierarchy),
                        (native.EVENTS, events), (native.DRAM, controller)):
        monkeypatch.setattr(spec, "failure", spec.failure)
        monkeypatch.setattr(spec, "build_dir", str(tmp_path / spec.stem))
        kernel = spec.load()
        assert kernel is None
        assert "cannot build the kernel" in spec.failure
        monkeypatch.setattr(owner, "_kernel", kernel)
    # The queue's class is chosen when its module loads; this is the one
    # a module load without the kernel builds on.
    monkeypatch.setattr(events, "EventQueue", events.HeapEventQueue)
    assert not list(tmp_path.iterdir())
    assert (core.implementation(), hierarchy.implementation(),
            events.implementation(), controller.implementation()) == (
        "python", "python", "python", "python")
    for engine in ENGINES:
        monkeypatch.setenv("REPRO_ENGINE", engine)
        for name in sorted(GOLDEN):
            run, expected = GOLDEN[name]
            assert observed(run()) == expected, (name, engine)
