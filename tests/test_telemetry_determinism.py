"""Telemetry output must be bit-identical across loop modes and processes.

The interval sampler folds sample points inside jumped windows and the
trace records only at stepped cycles, so histograms, sample streams, and
trace events must come out exactly the same whether the loop skips,
steps cycle by cycle, or runs in a forked worker.  ``result_fingerprint``
covers all the new telemetry fields, so fingerprint equality pins every
one of them at once.
"""

from __future__ import annotations

import os

import pytest

from repro.config import SimScale, SystemConfig
from repro.sim.stats import result_fingerprint
from repro.sim.system import ENGINES, System
from repro.workloads.parallel import parallel_traces

SCALE = SimScale(instructions_per_core=800, warmup_instructions=0, seed=11)


def _system(app="fft", scheduler="fr-fcfs", provider_spec=None):
    config = SystemConfig.parallel_default()
    traces = parallel_traces(
        app, config.cores, SCALE.instructions_per_core, seed=SCALE.seed
    )
    return System(config, traces, scheduler=scheduler,
                  provider_spec=provider_spec)


@pytest.fixture
def telemetry_on(monkeypatch):
    monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


class TestSkipIdentity:
    def test_samples_and_trace_identical_across_modes(self, telemetry_on):
        naive = _system().run(engine="naive")
        fast = _system().run(engine="batched")
        assert naive.sample_cycles, "sampler produced nothing"
        assert naive.trace_events, "trace produced nothing"
        assert naive.sample_cycles == fast.sample_cycles
        assert naive.timeseries == fast.timeseries
        assert list(naive.trace_events) == list(fast.trace_events)
        assert naive.metrics == fast.metrics
        assert result_fingerprint(naive) == result_fingerprint(fast)

    def test_with_criticality_machinery(self, telemetry_on):
        def make():
            return _system(scheduler="casras-crit",
                           provider_spec=("cbp", {"entries": 64}))

        naive = make().run(engine="naive")
        fast = make().run(engine="batched")
        assert result_fingerprint(naive) == result_fingerprint(fast)
        # The criticality path exercises the prediction trace family.
        assert any(e[0] == "pred" for e in naive.trace_events)

    def test_histograms_identical_across_modes(self, monkeypatch):
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        naive = _system().run(engine="naive")
        fast = _system().run(engine="batched")
        assert naive.hierarchy.noncrit_latency.state() == \
            fast.hierarchy.noncrit_latency.state()
        for a, b in zip(naive.channels, fast.channels):
            assert a.crit_wait.state() == b.crit_wait.state()
            assert a.noncrit_wait.state() == b.noncrit_wait.state()

    def test_decimated_streams_identical(self, telemetry_on, monkeypatch):
        from repro.telemetry import sampler as sampler_mod

        monkeypatch.setattr(sampler_mod, "_SAMPLE_CAP", 16)
        naive = _system().run(engine="naive")
        fast = _system().run(engine="batched")
        assert len(naive.sample_cycles) < 32
        assert naive.sample_cycles == fast.sample_cycles
        assert naive.timeseries == fast.timeseries


class TestCrossProcess:
    def test_worker_process_matches_inline(self, telemetry_on, tmp_path,
                                           monkeypatch):
        from repro.sim.engine import RunSpec, run_many, run_one

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.delenv("REPRO_NO_CACHE", raising=False)
        specs = [
            RunSpec(kind="parallel", workload="fft", scale=SCALE),
            RunSpec(kind="parallel", workload="radix", scale=SCALE),
        ]
        pooled = run_many(specs, jobs=2)
        for spec, result in zip(specs, pooled):
            inline = run_one(spec)
            assert result.sample_cycles
            assert result_fingerprint(inline) == result_fingerprint(result)

    def test_verify_determinism_with_telemetry(self, telemetry_on):
        from repro.sim.engine import RunSpec, verify_determinism

        spec = RunSpec(kind="parallel", workload="fft", scale=SCALE)
        report = verify_determinism(spec, subprocess=True)
        assert report["ok"], report


class TestDisabledPath:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLE_EVERY", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        result = _system().run()
        assert result.sample_cycles == []
        assert result.timeseries == {}
        assert result.trace_events == []
        assert result.trace_dropped == 0
        # The registry itself is always on: histograms ride on state the
        # simulator keeps anyway.
        assert result.metrics["hier.noncrit_latency"]["count"] > 0

    def test_trace_cap_bounds_memory(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_CAP", "32")
        result = _system().run()
        assert len(result.trace_events) == 32
        assert result.trace_dropped > 0


def _stream_digest(directory) -> dict[str, bytes]:
    """Every stream artifact's bytes, keyed by file name."""
    import pathlib

    return {
        path.name: path.read_bytes()
        for path in sorted(pathlib.Path(directory).iterdir())
    }


class TestStreamingSkipIdentity:
    """Streamed segments are bit-identical across loop modes/processes.

    Segment seals happen either at record counts (a pure function of the
    mode-invariant record stream) or at flush points folded on the
    virtual cycle axis, so the bytes on disk — including segment
    boundaries and the manifest — must not depend on how the loop got
    there.
    """

    @pytest.fixture
    def stream_env(self, monkeypatch, telemetry_on):
        # Small segments + a flush cadence that lands inside fast-forward
        # windows, to exercise both seal triggers.
        monkeypatch.setenv("REPRO_STREAM_SEGMENT", "64")
        monkeypatch.setenv("REPRO_STREAM_FLUSH_EVERY", "500")

    def test_streams_identical_across_modes(self, stream_env, tmp_path,
                                            monkeypatch):
        digests = {}
        for engine in ENGINES:
            directory = tmp_path / engine
            monkeypatch.setenv("REPRO_STREAM_DIR", str(directory))
            digests[engine] = (
                _system().run(engine=engine), _stream_digest(directory)
            )
        naive, naive_files = digests["naive"]
        fast, fast_files = digests["batched"]
        assert len(naive_files) > 2, "expected multiple sealed segments"
        assert naive_files == fast_files
        assert result_fingerprint(naive) == result_fingerprint(fast)

    def test_stream_identical_from_fresh_subprocess(self, stream_env,
                                                    tmp_path, monkeypatch):
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        from repro.sim.engine import RunSpec, run_one

        inline_dir = tmp_path / "inline"
        child_dir = tmp_path / "child"
        monkeypatch.delenv("REPRO_STREAM_DIR", raising=False)
        spec = RunSpec(kind="parallel", workload="fft", scale=SCALE,
                       stream_dir=str(inline_dir))
        run_one(spec)
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            pool.submit(
                run_one,
                RunSpec(kind="parallel", workload="fft", scale=SCALE,
                        stream_dir=str(child_dir)),
            ).result()
        assert _stream_digest(inline_dir) == _stream_digest(child_dir)

    def test_streaming_leaves_results_untouched(self, stream_env, tmp_path,
                                                monkeypatch):
        """Enabling the stream must not perturb the simulation."""
        monkeypatch.setenv("REPRO_DETCHAIN_EVERY", "256")
        monkeypatch.delenv("REPRO_STREAM_DIR", raising=False)
        plain = _system().run()
        monkeypatch.setenv("REPRO_STREAM_DIR", str(tmp_path / "s"))
        streamed = _system().run()
        assert plain.det_chain is not None
        assert plain.det_chain == streamed.det_chain
        assert result_fingerprint(plain) == result_fingerprint(streamed)

    def test_verify_skip_does_not_clobber_stream(self, stream_env, tmp_path,
                                                 monkeypatch):
        from repro.sim.runner import run_parallel_workload
        from repro.telemetry import stream as stream_mod

        directory = tmp_path / "verify"
        monkeypatch.setenv("REPRO_STREAM_DIR", str(directory))
        monkeypatch.setenv("REPRO_VERIFY_SKIP", "1")
        result = run_parallel_workload("fft", scale=SCALE)
        manifest = stream_mod.read_manifest(directory)
        assert manifest["status"] == "complete"
        assert manifest["cycles"] == result.cycles
        streamed = sum(1 for _ in stream_mod.iter_records(directory))
        assert streamed == len(result.trace_events)
        # The reference run hides the stream knob; it must come back.
        assert os.environ["REPRO_STREAM_DIR"] == str(directory)


class TestDetStateCoverage:
    """PR satellite: hierarchy/MSHR/channel-timing state is in the chain."""

    def test_hierarchy_det_state_changes_with_occupancy(self):
        system = _system()
        before = list(system.hierarchy.det_state())
        system.run(max_cycles=400)
        after = list(system.hierarchy.det_state())
        assert before != after

    def test_snapshot_includes_hierarchy(self):
        from repro.analysis import detchain

        system = _system()
        base = detchain.snapshot(system)
        assert len(base) > sum(
            len(core.det_state()) for core in system.cores
        ) + 2, "snapshot should extend past cores + event queue"
