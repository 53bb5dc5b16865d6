"""Cross-engine differential oracle: naive vs batched.

The two loop implementations in :mod:`repro.sim.system` must be
bit-identical — same determinism chain, same result fingerprint, and
byte-identical streamed telemetry segments on disk.  The per-scheduler
identity lives in ``test_batched_differential.py``; this module pins
the ``max_cycles`` cap path (a capped run breaks out of the loop
mid-flight, which must not perturb telemetry folding) and engine
selection.

The capped-run cases run on the core's compiled stages and again on
their Python bodies.  The satellite regressions ride along: the
shared-kwargs aliasing fix in ``make_provider_factory`` and the stall
guard in ``_fold_telemetry``.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

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


def _stream_digest(directory) -> dict[str, str]:
    """Name -> sha256 of every streamed segment file (raw on-disk bytes)."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(directory).glob("*.jsonl"))
    }


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

    def _run(self, engine, stream_dir, monkeypatch):
        monkeypatch.setenv("REPRO_STREAM_DIR", str(stream_dir))
        return _make_system().run(max_cycles=self.CAP, engine=engine)

    def test_capped_runs_identical_across_engines(
        self, telemetry_on, tmp_path, monkeypatch
    ):
        results = {}
        digests = {}
        for engine in ENGINES:
            stream_dir = tmp_path / engine
            results[engine] = self._run(engine, stream_dir, monkeypatch)
            digests[engine] = _stream_digest(stream_dir)
        reference = results["naive"]
        assert reference.hit_max_cycles, "cap too high to exercise the break"
        assert reference.cycles == self.CAP
        assert reference.sample_cycles, "sampler produced nothing under cap"
        for engine in ENGINES[1:]:
            other = results[engine]
            assert other.hit_max_cycles
            assert other.det_chain == reference.det_chain, engine
            assert other.sample_cycles == reference.sample_cycles, engine
            assert other.timeseries == reference.timeseries, engine
            assert result_fingerprint(other) == result_fingerprint(
                reference
            ), engine
            assert digests[engine] == digests["naive"], engine

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


class TestFoldTelemetryStallGuard:
    """A stream whose flush_upto never advances must raise, not hang."""

    class _StalledStream:
        next_flush = 100

        def flush_upto(self, limit):  # never advances next_flush
            pass

    def test_stalled_stream_raises_with_cycle(self):
        system = _make_system()
        with pytest.raises(RuntimeError, match="stalled at cycle 100"):
            system._fold_telemetry(None, self._StalledStream(), 1_000)

    def test_advancing_fake_stream_is_fine(self):
        class Advancing:
            next_flush = 100

            def flush_upto(self, limit):
                self.next_flush = limit + 100

        system = _make_system()
        stream = Advancing()
        system._fold_telemetry(None, stream, 1_000)
        assert stream.next_flush >= 1_000
