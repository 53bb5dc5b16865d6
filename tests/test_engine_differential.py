"""Cross-engine differential oracle: naive vs batched.

The two loop implementations in :mod:`repro.sim.system` must be
bit-identical — same determinism chain, same result fingerprint, same
sampled series and event trace.  The per-scheduler
identity lives in ``test_batched_differential.py``; this module pins
the ``max_cycles`` cap path (a capped run breaks out of the loop
mid-flight, which must not perturb telemetry folding) and engine
selection.

The capped-run cases run on the core's compiled stages and again on
their Python bodies.  The shared-kwargs aliasing fix in
``make_provider_factory`` rides along.
"""

from __future__ import annotations

import pytest

from repro.config import SimScale, SystemConfig
from repro.sim.stats import result_fingerprint
from repro.sim.system import ENGINES, System, make_provider_factory
from repro.workloads.parallel import parallel_traces

SCALE = SimScale(instructions_per_core=400, warmup_instructions=0, seed=11)


def _provider_for(scheduler: str):
    if "crit" in scheduler:
        return ("cbp", {"entries": 64})
    return None


def _make_system(scheduler="fr-fcfs"):
    config = SystemConfig.parallel_default()
    traces = parallel_traces(
        "fft", config.cores, SCALE.instructions_per_core, seed=SCALE.seed
    )
    return System(
        config, traces, scheduler=scheduler,
        provider_spec=_provider_for(scheduler),
    )


@pytest.fixture
def telemetry_on(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


class TestMaxCyclesCap:
    """``hit_max_cycles`` runs must stay differential-clean: the cap
    ``break`` leaves the loop between fold points, which previously had
    no coverage against telemetry folding."""

    CAP = 500  # the uncapped fft run at this scale takes ~730 cycles

    def test_capped_runs_identical_across_engines(self, telemetry_on):
        results = {
            engine: _make_system().run(max_cycles=self.CAP, engine=engine)
            for engine in ENGINES
        }
        reference = results["naive"]
        assert reference.hit_max_cycles, "cap too high to exercise the break"
        assert reference.cycles == self.CAP
        assert reference.sample_cycles, "sampler produced nothing under cap"
        assert reference.trace_events, "trace recorded nothing under cap"
        # An unwrapped ring holds every event the run recorded.
        assert reference.trace_dropped == 0
        for engine in ENGINES[1:]:
            other = results[engine]
            assert other.hit_max_cycles
            assert other.det_chain == reference.det_chain, engine
            assert other.sample_cycles == reference.sample_cycles, engine
            assert other.timeseries == reference.timeseries, engine
            assert other.trace_events == reference.trace_events, engine
            assert other.trace_dropped == reference.trace_dropped, engine
            assert result_fingerprint(other) == result_fingerprint(
                reference
            ), engine

    def test_cap_on_detchain_boundary(self, monkeypatch):
        """A cap landing exactly on a chain-sample cycle must fold the
        same number of checkpoints in every engine."""
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "128")
        cap = 256  # multiple of the chain interval, below run length
        results = [
            _make_system().run(max_cycles=cap, engine=engine)
            for engine in ENGINES
        ]
        assert all(r.hit_max_cycles for r in results)
        chains = {r.det_chain for r in results}
        checkpoints = {len(r.det_checkpoints) for r in results}
        assert len(chains) == 1
        assert len(checkpoints) == 1


class TestMaxCyclesCapOnPythonCore(TestMaxCyclesCap):
    """The same on the Python bodies of the core's compiled stages."""

    @pytest.fixture(autouse=True)
    def _python_bodies(self, python_core):
        pass


def test_incremental_det_state_matches_scan_after_real_run():
    """After a coherence-heavy run, every cache's incrementally
    maintained det_state words equal the full tag-array walk."""
    system = _make_system("crit-casras")
    system.run()
    caches = list(system.hierarchy.l1) + [system.hierarchy.l2]
    for cache in caches:
        assert cache.det_state() == cache.det_state_scan()


class TestEngineSelection:
    def test_resolve_engine_defaults_to_naive(self, monkeypatch):
        monkeypatch.delenv("REPRO_ENGINE", raising=False)
        assert ENGINES == ("naive", "batched")
        assert System.resolve_engine(None) == "naive"
        assert System.resolve_engine("batched") == "batched"

    def test_resolve_engine_reads_env(self, monkeypatch):
        # The environment names the engine that is not the default, so
        # the knob is seen to be read.
        monkeypatch.setenv("REPRO_ENGINE", "batched")
        assert System.resolve_engine(None) == "batched"

    def test_unknown_engine_rejected(self):
        # Retired engine names are rejected like any other.
        for name in ("warp", "fast", "event"):
            with pytest.raises(ValueError, match="one of naive, batched"):
                System.resolve_engine(name)

    def test_engine_not_part_of_cache_key(self):
        from repro.sim.engine import RunSpec, spec_key

        base = RunSpec(kind="parallel", workload="fft", scale=SCALE)
        pinned = RunSpec(
            kind="parallel", workload="fft", scale=SCALE, engine="batched"
        )
        assert spec_key(base) == spec_key(pinned)


class TestProviderFactoryAliasing:
    """`make_provider_factory` must not share one kwargs dict across
    cores: a provider mutating a mutable kwarg would leak state."""

    def test_list_kwarg_not_aliased(self, monkeypatch):
        # Route through the ("kind", kwargs) path with a stand-in class
        # that keeps a mutable kwarg, the shape of the original bug.
        from repro.core import provider as provider_mod

        class FakeCbp:
            def __init__(self, entries=0, history=None):
                self.entries = entries
                self.history = history if history is not None else []

        monkeypatch.setattr(provider_mod, "CbpProvider", FakeCbp)
        factory = make_provider_factory(
            ("cbp", {"entries": 4, "history": []})
        )
        a, b = factory(0), factory(1)
        a.history.append("core0-private")
        assert b.history == [], "kwargs dict aliased across cores"

    def test_separate_instances_per_core(self):
        factory = make_provider_factory(("cbp", {"entries": 16}))
        assert factory(0) is not factory(1)
