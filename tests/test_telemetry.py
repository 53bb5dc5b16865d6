"""Unit tests for the telemetry spine: instruments, registry, sampler, trace."""

from __future__ import annotations

import os

import pytest

from repro.telemetry import Telemetry, config_fingerprint
from repro.telemetry.registry import (
    HISTOGRAM_BUCKETS,
    Counter,
    Gauge,
    LatencyHistogram,
    MetricRegistry,
)
from repro.telemetry.sampler import IntervalSampler
from repro.telemetry.sampler import interval as sample_interval
from repro.telemetry.trace import TraceRecorder, capacity, enabled


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.add()
        c.add(4)
        assert c.read() == 5
        assert c.kind == "counter"

    def test_gauge_reads_through(self):
        box = {"v": 3}
        g = Gauge(lambda: box["v"])
        assert g.read() == 3
        box["v"] = 9
        assert g.read() == 9


class TestLatencyHistogram:
    def test_exact_mean_matches_sum_over_count(self):
        h = LatencyHistogram()
        values = [0, 1, 2, 3, 100, 255, 256, 1000]
        for v in values:
            h.record(v)
        assert h.count == len(values)
        assert h.total == sum(values)
        assert h.mean == sum(values) / len(values)
        assert h.max == 1000
        assert h.min == 0

    def test_bucket_indexing_powers_of_two(self):
        h = LatencyHistogram()
        h.record(0)  # bucket 0
        h.record(1)  # bucket 1
        h.record(2)  # bucket 2 (bit_length 2)
        h.record(3)  # bucket 2
        h.record(4)  # bucket 3
        assert h.counts[0] == 1
        assert h.counts[1] == 1
        assert h.counts[2] == 2
        assert h.counts[3] == 1

    def test_percentile_is_bucket_upper_bound(self):
        h = LatencyHistogram()
        for _ in range(99):
            h.record(10)  # bucket 4, upper bound 15
        h.record(1000)  # bucket 10, upper bound 1023
        assert h.percentile(50) == 15
        assert h.percentile(99) == 15
        assert h.percentile(100) == 1023

    def test_percentile_rejects_out_of_range(self):
        h = LatencyHistogram()
        with pytest.raises(ValueError):
            h.percentile(0)
        with pytest.raises(ValueError):
            h.percentile(101)

    def test_empty_histogram(self):
        h = LatencyHistogram()
        assert h.mean == 0.0
        assert h.percentile(99) == 0
        assert h.summary()["count"] == 0
        assert h.summary()["buckets"] == []

    def test_overflow_values_clamp_to_last_bucket(self):
        h = LatencyHistogram()
        h.record(1 << 60)
        assert h.counts[HISTOGRAM_BUCKETS - 1] == 1
        assert h.total == 1 << 60

    def test_state_is_hashable_and_exact(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for v in (7, 7, 300):
            a.record(v)
            b.record(v)
        assert a.state() == b.state()
        hash(a.state())
        b.record(7)
        assert a.state() != b.state()

    def test_summary_has_tail_quantities(self):
        h = LatencyHistogram()
        for v in range(1, 101):
            h.record(v)
        s = h.summary()
        assert set(s) == {
            "count", "mean", "p50", "p90", "p99", "max", "min", "buckets",
        }
        assert s["p50"] <= s["p90"] <= s["p99"]
        assert s["min"] == 1 and s["max"] == 100


class TestMetricRegistry:
    def test_register_and_snapshot(self):
        r = MetricRegistry()
        c = r.counter("a.events")
        r.gauge("a.depth", lambda: 2, sampled=True)
        h = r.histogram("a.lat")
        c.add(3)
        h.record(10)
        snap = r.snapshot()
        assert snap["a.events"] == 3
        assert snap["a.depth"] == 2
        assert snap["a.lat"]["count"] == 1
        assert "a.events" in r and r.get("a.missing") is None
        assert r.names() == ["a.events", "a.depth", "a.lat"]

    def test_duplicate_name_rejected(self):
        r = MetricRegistry()
        r.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            r.counter("x")

    def test_sampled_histogram_rejected(self):
        r = MetricRegistry()
        with pytest.raises(ValueError, match="sample a histogram"):
            r.register("h", LatencyHistogram(), sampled=True)

    def test_sampled_items_and_histograms(self):
        r = MetricRegistry()
        r.counter("plain")
        r.counter("hot", sampled=True)
        r.histogram("lat")
        assert [name for name, _ in r.sampled_items()] == ["hot"]
        assert [name for name, _ in r.histograms()] == ["lat"]


class TestIntervalSampler:
    def test_folds_every_due_point(self):
        s = IntervalSampler(10)
        c = Counter()
        s.bind([("c", c)])
        c.add(5)
        s.sample_upto(35)  # due points 10, 20, 30
        assert s.cycles == [10, 20, 30]
        assert s.series["c"] == [5, 5, 5]
        c.add(1)
        s.sample_upto(41)
        assert s.cycles[-1] == 40
        assert s.series["c"][-1] == 6

    def test_window_fold_equals_stepping(self):
        """One big sample_upto == many small ones (the skip contract)."""
        a, b = IntervalSampler(7), IntervalSampler(7)
        ca, cb = Counter(), Counter()
        a.bind([("c", ca)])
        b.bind([("c", cb)])
        a.sample_upto(100)
        for cycle in range(100):
            b.sample_upto(cycle + 1)
        assert a.cycles == b.cycles
        assert a.series == b.series

    def test_decimation_is_deterministic(self, monkeypatch):
        from repro.telemetry import sampler as sampler_mod

        monkeypatch.setattr(sampler_mod, "_SAMPLE_CAP", 8)
        s = IntervalSampler(1)
        c = Counter()
        s.bind([("c", c)])
        for cycle in range(40):
            c.add()
            s.sample_upto(cycle + 2)
        assert len(s.cycles) < 8 + 8  # stays bounded
        # Post-decimation the stride doubled but phase is preserved.
        assert s.every > 1
        assert s.cycles == sorted(s.cycles)
        # The series store is still the object bind() aliased.
        assert s.series["c"] is s._sources[0][0]

    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            IntervalSampler(0)

    def test_env_interval(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLE_EVERY", raising=False)
        assert sample_interval() == 0
        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "128")
        assert sample_interval() == 128
        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "nope")
        with pytest.raises(ValueError):
            sample_interval()

    def test_env_interval_rejects_a_negative_value(self, monkeypatch):
        """0 turns sampling off; below 0 is an error, not a silent 0."""
        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "0")
        assert sample_interval() == 0
        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "-5")
        with pytest.raises(ValueError, match="0 .off. or positive, got -5"):
            sample_interval()


class TestTraceRecorder:
    def test_ring_drops_oldest(self):
        t = TraceRecorder(cap=3)
        for i in range(5):
            t.prediction(i, 0, 0x10, 1)
        assert t.dropped == 2
        assert len(t.events) == 3
        assert t.events[0][1] == 2  # oldest two dropped

    def test_event_families(self):
        t = TraceRecorder(cap=16)
        t.command(10, 0, 1, 2, "ACT", 7, 44)
        t.block_episode(20, 3, 0xABC, 100)
        t.prediction(30, 3, 0xABC, 2)
        tags = [e[0] for e in t.events]
        assert tags == ["cmd", "block", "pred"]

    def test_env_knobs(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert not enabled()
        monkeypatch.setenv("REPRO_TRACE", "1")
        assert enabled()
        monkeypatch.setenv("REPRO_TRACE", "0")
        assert not enabled()
        monkeypatch.setenv("REPRO_TRACE_CAP", "7")
        assert capacity() == 7
        monkeypatch.setenv("REPRO_TRACE_CAP", "0")
        with pytest.raises(ValueError):
            capacity()
        monkeypatch.setenv("REPRO_TRACE_CAP", "xyz")
        with pytest.raises(ValueError):
            capacity()


class TestTelemetryBundle:
    def test_from_env_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLE_EVERY", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        t = Telemetry.from_env()
        assert t.sampler is None and t.trace is None
        assert isinstance(t.registry, MetricRegistry)

    def test_from_env_enabled(self, monkeypatch):
        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
        monkeypatch.setenv("REPRO_TRACE", "1")
        t = Telemetry.from_env()
        assert t.sampler is not None and t.sampler.every == 64
        assert t.trace is not None

    def test_config_fingerprint_tracks_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_SAMPLE_EVERY", raising=False)
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        off = config_fingerprint()
        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
        assert config_fingerprint() != off

    def test_fingerprint_changes_engine_cache_key(self, monkeypatch):
        from repro.sim.engine import RunSpec, spec_key

        monkeypatch.delenv("REPRO_SAMPLE_EVERY", raising=False)
        spec = RunSpec(kind="parallel", workload="fft")
        plain = spec_key(spec)
        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "64")
        assert spec_key(spec) != plain


class TestCliKnobs:
    """A bad telemetry knob is a one-line usage error (exit 2) before any
    run starts, from the flag or from the environment."""

    @pytest.fixture(autouse=True)
    def _scoped_knobs(self, monkeypatch):
        # The CLI writes its flags into these; keep them to each test.
        for name in ("REPRO_SAMPLE_EVERY", "REPRO_TRACE_CAP", "REPRO_TRACE"):
            monkeypatch.delenv(name, raising=False)

    @pytest.mark.parametrize("value", ["-5", "0", "often"])
    def test_sample_every_flag_below_one_is_a_usage_error(self, capsys,
                                                          value):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(["stats", "fft", "--sample-every", value])
        assert exc.value.code == 2
        assert "argument --sample-every" in capsys.readouterr().err
        assert "REPRO_SAMPLE_EVERY" not in os.environ

    @pytest.mark.parametrize("name,value", [
        ("REPRO_SAMPLE_EVERY", "abc"), ("REPRO_SAMPLE_EVERY", "-5"),
        ("REPRO_TRACE_CAP", "0"), ("REPRO_TRACE_CAP", "xyz"),
    ])
    @pytest.mark.parametrize("argv", [
        ["run", "fft"], ["experiment", "fig4"], ["stats", "fft"],
        ["trace", "fft", "--out", os.devnull], ["profile", "fft"],
        ["check-determinism", "fft"],
    ], ids=lambda argv: argv[0])
    def test_a_bad_env_knob_stops_every_simulating_command(
        self, monkeypatch, capsys, argv, name, value
    ):
        from repro.__main__ import main
        from repro.sim import engine

        def no_run(*args, **kwargs):
            raise AssertionError("a run started")

        monkeypatch.setattr(engine, "run_one", no_run)
        monkeypatch.setattr(engine, "run_many", no_run)
        monkeypatch.setenv(name, value)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith(f"repro {argv[0]}: error: {name} must be")

    def test_the_flag_overrides_a_bad_env_value(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_SAMPLE_EVERY", "abc")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(["stats", "fft", "--instructions", "400",
                     "--sample-every", "64"]) == 0
        assert "samples x" in capsys.readouterr().out
