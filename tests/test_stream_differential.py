"""Differential oracle: the streamed event log vs the in-memory ring.

The streaming writer spills every trace event *before* the ring applies
its drop-oldest policy, and encodes each record with exactly the same
``json.dumps(..., sort_keys=True)`` line the post-run JSONL exporter
uses.  Two invariants follow, and this module pins both for every
registered scheduler:

* with a roomy ring, the streamed JSONL is byte-identical to
  ``to_jsonl(result.trace_events)``;
* with a ring smaller than the run (``REPRO_TRACE_CAP`` exceeded), the
  stream still holds **all** events and the ring's JSONL is a byte
  suffix of it — the ring is always a tail window of the stream.
"""

from __future__ import annotations

import json

import pytest

from repro.config import SimScale, SystemConfig
from repro.sched.registry import SCHEDULERS
from repro.sim.system import System
from repro.telemetry import stream as stream_mod
from repro.telemetry.trace import to_jsonl
from repro.workloads.parallel import parallel_traces

SCALE = SimScale(instructions_per_core=400, warmup_instructions=0, seed=11)


def _provider_for(scheduler: str):
    if "crit" in scheduler:
        return ("cbp", {"entries": 64})
    return None


def _run_streamed(stream_dir, scheduler="fr-fcfs"):
    config = SystemConfig.parallel_default()
    traces = parallel_traces(
        "fft", config.cores, SCALE.instructions_per_core, seed=SCALE.seed
    )
    system = System(
        config, traces, scheduler=scheduler,
        provider_spec=_provider_for(scheduler),
    )
    return system.run()


def _streamed_jsonl(directory) -> str:
    return "".join(
        json.dumps(record, sort_keys=True) + "\n"
        for record in stream_mod.iter_records(directory, "events")
    )


@pytest.fixture
def streaming(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_NO_CACHE", "1")
    monkeypatch.setenv("REPRO_STREAM_DIR", str(tmp_path))
    return tmp_path


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_stream_matches_ring_for_every_scheduler(streaming, scheduler):
    result = _run_streamed(streaming, scheduler)
    assert result.trace_events, "trace produced nothing"
    assert result.trace_dropped == 0, "ring wrapped; enlarge for this test"
    assert _streamed_jsonl(streaming) == to_jsonl(result.trace_events)
    manifest = stream_mod.read_manifest(streaming)
    assert manifest["status"] == "complete"
    assert manifest["events"]["total"] == len(result.trace_events)


class TestCappedRing:
    """A wrapped ring keeps the tail; the stream keeps everything."""

    @pytest.fixture
    def capped(self, streaming, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CAP", "64")
        return streaming

    def test_stream_is_superset_prefix(self, capped):
        result = _run_streamed(capped)
        assert result.trace_dropped > 0, "run too short to wrap the ring"
        assert len(result.trace_events) == 64
        streamed = _streamed_jsonl(capped)
        ring = to_jsonl(result.trace_events)
        assert streamed.endswith(ring)
        assert streamed != ring
        total = len(streamed.splitlines())
        assert total == len(result.trace_events) + result.trace_dropped
        manifest = stream_mod.read_manifest(capped)
        assert manifest["events"]["total"] == total
        assert manifest["trace_dropped"] == result.trace_dropped

    def test_small_segments_cover_the_same_bytes(self, capped, monkeypatch):
        """Segmentation must never lose or reorder records."""
        monkeypatch.setenv("REPRO_STREAM_SEGMENT", "37")
        result = _run_streamed(capped)
        streamed = _streamed_jsonl(capped)
        assert streamed.endswith(to_jsonl(result.trace_events))
        manifest = stream_mod.read_manifest(capped)
        assert len(manifest["events"]["segments"]) > 3
        # Per-segment counts in the manifest sum to the full stream.
        assert sum(
            s["count"] for s in manifest["events"]["segments"]
        ) == len(streamed.splitlines())


def test_samples_streamed_at_full_resolution(streaming, monkeypatch):
    """The stream keeps every sample the in-memory series decimates."""
    from repro.telemetry import sampler as sampler_mod

    monkeypatch.setenv("REPRO_SAMPLE_EVERY", "32")
    monkeypatch.setattr(sampler_mod, "_SAMPLE_CAP", 16)
    result = _run_streamed(streaming)
    cycles, series = stream_mod.read_samples(streaming)
    assert len(result.sample_cycles) < len(cycles)
    # The decimated in-memory stream is a subsequence of the full one.
    assert set(result.sample_cycles) <= set(cycles)
    name = next(iter(series))
    by_cycle = dict(zip(cycles, series[name]))
    for cycle, value in zip(result.sample_cycles, result.timeseries[name]):
        assert by_cycle[cycle] == value
