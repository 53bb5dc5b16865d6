"""Host perf counters (``REPRO_PERF=1``): populated when on, free when off.

The layer's contract has two halves:

* **observability** — with the knob on, every engine reports its own
  internals (the batched engine its wake-heap churn and skip windows)
  plus per-phase host-clock attribution;
* **identity** — turning the knob on changes *nothing* the simulation
  produces: det-chain, result fingerprint, streamed bytes, and the
  engine cache key are bit-identical, and with the knob off no counter
  object is ever even constructed.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.sim.stats import result_fingerprint
from repro.sim.system import ENGINES, System
from repro.telemetry import perfcounters
from repro.workloads.parallel import parallel_traces


def _run(engine: str, monkeypatch=None, instructions: int = 1_200):
    config = SystemConfig.parallel_default()
    traces = parallel_traces("fft", config.cores, instructions, seed=7)
    system = System(config, traces)
    return system.run(engine=engine)


@pytest.fixture
def perf_on(monkeypatch):
    monkeypatch.setenv("REPRO_PERF", "1")


class TestCountersPopulate:
    def test_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        assert not perfcounters.enabled()
        assert _run("batched").host_perf is None

    def test_zero_is_off(self, monkeypatch):
        monkeypatch.setenv("REPRO_PERF", "0")
        assert not perfcounters.enabled()

    @pytest.mark.parametrize("engine", ENGINES)
    def test_snapshot_schema(self, perf_on, engine):
        snap = _run(engine).host_perf
        assert snap["version"] == 1
        assert set(snap["counters"]) == {n for n, _ in perfcounters.FIELDS}
        assert set(snap["phase_ns"]) == set(perfcounters.PHASES)
        assert all(v >= 0 for v in snap["counters"].values())

    @pytest.mark.parametrize("engine", ENGINES)
    def test_universal_counters(self, perf_on, engine):
        counters = _run(engine).host_perf["counters"]
        assert counters["visited_cycles"] > 0
        assert counters["event_pushes"] > 0
        assert counters["event_pops"] > 0
        assert counters["event_pops"] <= counters["event_pushes"]

    def test_batched_engine_heap_counters(self, perf_on):
        counters = _run("batched").host_perf["counters"]
        assert counters["heap_pushes"] > 0
        assert counters["wake_hook_fires"] > 0
        assert counters["chan_wake_republishes"] > 0
        # every heap entry is either consumed at its wake cycle or
        # dropped stale; drops cannot exceed what was pushed
        assert counters["heap_stale_drops"] <= counters["heap_pushes"]

    def test_skip_window_counters(self, perf_on):
        counters = _run("batched").host_perf["counters"]
        assert counters["skip_windows"] > 0
        assert counters["skip_cycles_planned"] >= 0
        assert counters["skip_forever"] <= counters["skip_windows"]

    def test_naive_never_skips(self, perf_on):
        counters = _run("naive").host_perf["counters"]
        assert counters["skip_windows"] == 0
        assert counters["heap_pushes"] == 0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_phase_attribution_accumulates(self, perf_on, engine):
        phases = _run(engine).host_perf["phase_ns"]
        assert sum(phases.values()) > 0
        assert all(v >= 0 for v in phases.values())

    def test_visited_cycles_batched_at_most_naive(self, perf_on):
        visited = {
            engine: _run(engine).host_perf["counters"]["visited_cycles"]
            for engine in ENGINES
        }
        assert visited["batched"] <= visited["naive"]


class TestIdentity:
    """REPRO_PERF=1 must be invisible to everything the run computes."""

    def test_fingerprint_and_chain_unchanged(self, monkeypatch):
        monkeypatch.delenv("REPRO_PERF", raising=False)
        baseline = {e: _run(e) for e in ENGINES}
        monkeypatch.setenv("REPRO_PERF", "1")
        perfed = {e: _run(e) for e in ENGINES}
        for engine in ENGINES:
            assert result_fingerprint(perfed[engine]) == result_fingerprint(
                baseline[engine]
            ), engine
            assert perfed[engine].det_chain == baseline[engine].det_chain

    def test_host_perf_not_in_fingerprint(self, perf_on):
        result = _run("batched")
        assert result.host_perf is not None
        stripped = result_fingerprint(result)
        result.host_perf = None
        assert result_fingerprint(result) == stripped

    def test_streamed_bytes_identical(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_STREAM_SEGMENT", "64")

        def streamed(directory) -> dict[str, bytes]:
            return {
                p.name: p.read_bytes()
                for p in sorted(directory.glob("*.jsonl"))
            }

        byte_maps = []
        for perf in ("", "1"):
            directory = tmp_path / f"stream{perf or '0'}"
            if perf:
                monkeypatch.setenv("REPRO_PERF", perf)
            else:
                monkeypatch.delenv("REPRO_PERF", raising=False)
            monkeypatch.setenv("REPRO_STREAM_DIR", str(directory))
            _run("batched")
            byte_maps.append(streamed(directory))
        assert byte_maps[0] == byte_maps[1]
        assert any(byte_maps[0].values())  # the comparison saw real data

    def test_cache_key_unchanged(self, monkeypatch):
        from repro.sim.engine import RunSpec, spec_key

        spec = RunSpec(kind="parallel", workload="fft", scheduler="fr-fcfs")
        monkeypatch.delenv("REPRO_PERF", raising=False)
        off = spec_key(spec)
        monkeypatch.setenv("REPRO_PERF", "1")
        assert spec_key(spec) == off

    def test_disabled_path_never_constructs_counters(self, monkeypatch):
        """With the knob off the hot path must not even allocate the
        counter object — the CI overhead guard in spirit, enforced
        structurally: a booby-trapped constructor proves no code path
        instantiates PerfCounters during an unperfed run."""
        monkeypatch.delenv("REPRO_PERF", raising=False)

        def boom(self):
            raise AssertionError(
                "PerfCounters constructed with REPRO_PERF off"
            )

        monkeypatch.setattr(perfcounters.PerfCounters, "__init__", boom)
        for engine in ENGINES:
            result = _run(engine)
            assert result.host_perf is None


class TestRender:
    def test_render_none_is_a_hint(self):
        text = perfcounters.render(None)
        assert "REPRO_PERF" in text

    def test_render_table(self, perf_on):
        result = _run("batched")
        text = perfcounters.render(result.host_perf, wall_seconds=1.0)
        assert "event_pushes" in text
        assert "phase" in text
        for phase in perfcounters.PHASES:
            assert phase in text
