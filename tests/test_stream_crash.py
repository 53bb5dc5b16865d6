"""Crash-safety: a SIGKILL'd streaming run leaves a usable prefix.

Segments are sealed with flush+fsync and recorded by an atomically
replaced manifest, so a crash can tear at most the *active* (unlisted)
segment.  Everything the manifest names must parse clean, the export CLI
must refuse the torn tail with a clear error (not a stack trace), and
``--allow-torn`` must salvage the sealed prefix.
"""

from __future__ import annotations

import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.telemetry import monitor
from repro.telemetry import stream as stream_mod
from repro.telemetry.trace import validate_chrome_trace

_SRC = str(Path(__file__).resolve().parent.parent / "src")


def _cli_env(stream_dir=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = _SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if stream_dir is not None:
        env.update({
            "REPRO_STREAM_DIR": str(stream_dir),
            "REPRO_STREAM_SEGMENT": "64",
            "REPRO_TRACE": "1",
            "REPRO_SAMPLE_EVERY": "64",
            "REPRO_NO_CACHE": "1",
        })
    return env


_CHILD = """
import sys
sys.path.insert(0, {src!r})
from repro.config import SimScale
from repro.sim.runner import run_parallel_workload

scale = SimScale(instructions_per_core=2_000_000, warmup_instructions=0,
                 seed=11)
run_parallel_workload("fft", scale=scale)
"""


def _run_trace_cli(stream_dir, out, *extra):
    return subprocess.run(
        [sys.executable, "-m", "repro", "trace",
         "--from-stream", str(stream_dir), "--out", str(out), *extra],
        env=_cli_env(), capture_output=True, text=True, timeout=120,
    )


class TestSigkillMidRun:
    @pytest.fixture(scope="class")
    def killed_stream(self, tmp_path_factory):
        """Start a long streaming run, SIGKILL it after one sealed segment."""
        stream_dir = tmp_path_factory.mktemp("killed")
        child = subprocess.Popen(
            [sys.executable, "-c", _CHILD.format(src=_SRC)],
            env=_cli_env(stream_dir),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 120
            while time.monotonic() < deadline:
                manifest = stream_mod.read_manifest(stream_dir,
                                                    missing_ok=True)
                if manifest and manifest["events"]["segments"]:
                    break
                if child.poll() is not None:
                    raise RuntimeError(
                        "streaming child exited before sealing a segment"
                    )
                time.sleep(0.05)
            else:
                raise RuntimeError("no sealed segment within the deadline")
        finally:
            if child.poll() is None:
                child.send_signal(signal.SIGKILL)
            child.wait(timeout=30)
        return stream_dir

    def test_manifest_survives_and_reports_running(self, killed_stream):
        manifest = stream_mod.read_manifest(killed_stream)
        assert manifest["status"] == "running"
        assert manifest["events"]["segments"]

    def test_sealed_segments_parse_clean(self, killed_stream):
        manifest = stream_mod.read_manifest(killed_stream)
        for entry in manifest["events"]["segments"]:
            path = killed_stream / entry["file"]
            text = path.read_text()
            assert text.endswith("\n"), "sealed segment lacks final newline"
            lines = text.splitlines()
            assert len(lines) == entry["count"]
            for line in lines:
                json.loads(line)

    def test_trace_cli_refuses_torn_tail_clearly(self, killed_stream,
                                                 tmp_path):
        proc = _run_trace_cli(killed_stream, tmp_path / "out.json")
        assert proc.returncode == 1
        assert "error:" in proc.stderr
        assert "--allow-torn" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert "Traceback" not in proc.stdout

    def test_allow_torn_salvages_sealed_prefix(self, killed_stream,
                                               tmp_path):
        out = tmp_path / "salvaged.json"
        proc = _run_trace_cli(killed_stream, out, "--allow-torn")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []
        manifest = stream_mod.read_manifest(killed_stream)
        sealed = sum(s["count"] for s in manifest["events"]["segments"])
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert len(events) >= sealed


def _event(i: int) -> tuple:
    return ("cmd", 10 * i, 0, 0, i % 4, "ACT", i, 6)


class TestTornTailDeterministic:
    """Hand-built torn tails, independent of scheduling/timing."""

    @pytest.fixture
    def torn_dir(self, tmp_path):
        writer = stream_mod.StreamWriter(tmp_path, segment_cap=4,
                                         flush_cycles=1 << 40)
        writer.begin("torn-test", [])
        for i in range(4):  # exactly one sealed segment
            writer.event(_event(i))
        # A crash mid-write: one complete line plus half a record in the
        # next (active, unlisted) segment file.
        active = tmp_path / "events-000001.jsonl"
        whole = json.dumps({"type": "rob_block", "ts": 50, "core": 0,
                            "pc": 64, "dur": 9}, sort_keys=True)
        active.write_text(whole + "\n" + '{"type": "dram_comm')
        return tmp_path

    def test_strict_read_raises_torn_tail(self, torn_dir):
        with pytest.raises(stream_mod.TornTailError):
            list(stream_mod.iter_records(torn_dir, "events"))

    def test_tolerant_read_salvages_complete_lines(self, torn_dir):
        records = list(
            stream_mod.iter_records(torn_dir, "events", tolerant=True)
        )
        assert len(records) == 5
        assert records[-1]["type"] == "rob_block"

    def test_finalize_refuses_then_salvages(self, torn_dir, tmp_path):
        out = tmp_path / "chrome.json"
        with pytest.raises(stream_mod.TornTailError):
            stream_mod.finalize_chrome(torn_dir, out)
        summary = stream_mod.finalize_chrome(torn_dir, out, allow_torn=True)
        assert summary["events"] == 5
        doc = json.loads(out.read_text())
        assert validate_chrome_trace(doc) == []

    def test_corrupt_sealed_segment_is_a_hard_error(self, torn_dir):
        manifest = stream_mod.read_manifest(torn_dir)
        sealed = torn_dir / manifest["events"]["segments"][0]["file"]
        sealed.write_text("not json\n")
        with pytest.raises(stream_mod.StreamError, match="corrupt"):
            list(stream_mod.iter_records(torn_dir, "events",
                                         tolerant=True))

    def test_abort_removes_unsealed_tail(self, tmp_path):
        writer = stream_mod.StreamWriter(tmp_path, segment_cap=4,
                                         flush_cycles=1 << 40)
        writer.begin("abort-test", [])
        for i in range(6):  # one sealed segment + two buffered events
            writer.event(_event(i))
        writer.abort()
        manifest = stream_mod.read_manifest(tmp_path)
        assert manifest["status"] == "failed"
        on_disk = sorted(
            p.name for p in tmp_path.glob("events-*.jsonl")
        )
        assert on_disk == ["events-000000.jsonl"]

    def test_system_aborts_stream_on_failure(self, tmp_path, monkeypatch):
        """A mid-run crash inside System.run tears down the stream."""
        from repro.config import SimScale, SystemConfig
        from repro.sim.system import System
        from repro.workloads.parallel import parallel_traces

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_STREAM_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_STREAM_SEGMENT", "8")
        config = SystemConfig.parallel_default()
        traces = parallel_traces("fft", config.cores, 400, seed=11)
        system = System(config, traces)

        calls = {"n": 0}

        def exploding(original):
            def step(now):
                calls["n"] += 1
                if calls["n"] > 200:
                    raise RuntimeError("injected mid-run failure")
                return original(now)

            return step

        # Cover both engines' DRAM clocking paths (naive uses step, the
        # batched engine uses step_window).
        monkeypatch.setattr(
            system.memory, "step", exploding(system.memory.step)
        )
        monkeypatch.setattr(
            system.memory, "step_window",
            exploding(system.memory.step_window),
        )
        with pytest.raises(RuntimeError, match="injected"):
            system.run()
        manifest = stream_mod.read_manifest(tmp_path)
        assert manifest["status"] == "failed"
        # No unsealed active files left behind.
        for path in tmp_path.glob("*.jsonl"):
            sealed_names = {
                s["file"]
                for kind in ("events", "samples")
                for s in manifest[kind]["segments"]
            }
            assert path.name in sealed_names


class TestReaderBugfixes:
    """watch/trace on missing or broken inputs: one clear line, never a
    traceback (Path.glob on a missing directory used to raise)."""

    def _watch_cli(self, directory, *extra):
        return subprocess.run(
            [sys.executable, "-m", "repro", "watch", str(directory),
             "--once", *extra],
            env=_cli_env(), capture_output=True, text=True, timeout=60,
        )

    def test_watch_missing_dir_prints_placeholder(self, tmp_path):
        proc = self._watch_cli(tmp_path / "never-created")
        assert proc.returncode == 0
        assert "waiting for a stream manifest" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_watch_corrupt_manifest_is_one_line_error(self, tmp_path):
        (tmp_path / stream_mod.MANIFEST_NAME).write_text('{"status": ')
        proc = self._watch_cli(tmp_path)
        assert proc.returncode == 1
        assert "error:" in proc.stdout
        assert "Traceback" not in proc.stderr

    def test_watch_dir_without_manifest_waits(self, tmp_path):
        out = io.StringIO()
        assert monitor.watch(tmp_path, once=True, out=out) == 0
        assert "waiting for a stream manifest" in out.getvalue()
