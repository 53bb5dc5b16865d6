"""Trace exporters: JSONL and Chrome ``trace_event`` JSON."""

from __future__ import annotations

import json
import os
import re

import pytest

from repro.telemetry.trace import (
    TraceRecorder,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
)


def _sample_recorder():
    t = TraceRecorder(cap=64)
    t.command(36, 0, 0, 3, "ACT", 84, 56)
    t.command(92, 0, 0, 3, "READ", 84, 16)
    t.command(40, 1, 1, 5, "PRE", 12, 40)
    t.command(200, 0, 0, 0, "REF", -1, 560)
    t.block_episode(120, 2, 0x4F0, 95)
    t.prediction(118, 2, 0x4F0, 3)
    t.cache_event(130, "l2_fill", -1, 0x1000)
    t.cache_event(150, "dirty_evict", -1, 0x2000)
    t.cache_event(160, "inval", 1, 0x1040)
    return t


class TestJsonl:
    def test_one_object_per_event(self):
        text = to_jsonl(_sample_recorder().events)
        lines = text.strip().splitlines()
        assert len(lines) == 9
        objs = [json.loads(line) for line in lines]
        kinds = [o["type"] for o in objs]
        assert kinds.count("dram_command") == 4
        assert kinds.count("rob_block") == 1
        assert kinds.count("cbp_prediction") == 1
        assert kinds.count("cache_event") == 3
        block = next(o for o in objs if o["type"] == "rob_block")
        assert block == {"type": "rob_block", "ts": 120, "core": 2,
                         "pc": 0x4F0, "dur": 95}
        inval = next(o for o in objs if o["type"] == "cache_event"
                     and o["kind"] == "inval")
        assert inval == {"type": "cache_event", "ts": 160, "kind": "inval",
                         "core": 1, "line": 0x1040}

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="unknown trace event tag"):
            to_jsonl([("bogus", 1, 2)])


class TestChromeTrace:
    def test_document_validates(self):
        doc = to_chrome_trace(_sample_recorder().events, label="unit")
        assert validate_chrome_trace(doc) == []
        assert doc["otherData"]["source"] == "unit"
        json.dumps(doc)  # must be serialisable

    def test_lane_assignment(self):
        doc = to_chrome_trace(_sample_recorder().events)
        events = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        act = next(e for e in events if e["name"].startswith("ACT"))
        assert act["pid"] == 1 and act["tid"] == 3  # channel 0, rank 0 bank 3
        pre = next(e for e in events if e["name"].startswith("PRE"))
        assert pre["pid"] == 2 and pre["tid"] == 1 * 32 + 5
        block = next(e for e in events if "ROB block" in e["name"])
        assert block["pid"] == 1002 and block["tid"] == 0
        pred = next(e for e in events
                    if e["ph"] == "i" and e["cat"] == "cbp")
        assert pred["pid"] == 1002 and pred["tid"] == 1
        assert pred["s"] == "t"
        fill = next(e for e in events if e["name"].startswith("l2_fill"))
        assert fill["pid"] == 2000 and fill["tid"] == 0
        evict = next(e for e in events
                     if e["name"].startswith("dirty_evict"))
        assert evict["pid"] == 2000 and evict["tid"] == 1
        inval = next(e for e in events if e["name"].startswith("inval"))
        assert inval["pid"] == 2000 and inval["tid"] == 2
        assert inval["args"] == {"kind": "inval", "core": 1, "line": 0x1040}

    def test_metadata_names_every_lane(self):
        doc = to_chrome_trace(_sample_recorder().events)
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        process_names = {e["pid"]: e["args"]["name"] for e in meta
                         if e["name"] == "process_name"}
        assert process_names[1] == "DRAM channel 0"
        assert process_names[2] == "DRAM channel 1"
        assert process_names[1002] == "core 2"
        thread_names = {(e["pid"], e["tid"]): e["args"]["name"] for e in meta
                        if e["name"] == "thread_name"}
        assert thread_names[(1, 3)] == "rank 0 bank 3"
        assert thread_names[(1002, 1)] == "CBP predictions"
        assert process_names[2000] == "cache hierarchy"
        assert thread_names[(2000, 0)] == "L2 fills"
        assert thread_names[(2000, 1)] == "dirty evictions"
        assert thread_names[(2000, 2)] == "coherence invalidations"

    def test_zero_duration_commands_render_visible(self):
        t = TraceRecorder(cap=4)
        t.command(10, 0, 0, 0, "READ", 5, 0)
        doc = to_chrome_trace(t.events)
        read = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert read["dur"] >= 1


class TestTruncationMarker:
    """A wrapped ring must be visible in every export surface."""

    def test_complete_trace_marked_untruncated(self):
        doc = to_chrome_trace(_sample_recorder().events, label="unit")
        assert doc["otherData"]["truncated"] is False
        assert "dropped_events" not in doc["otherData"]

    def test_dropped_events_marked_truncated(self):
        doc = to_chrome_trace(_sample_recorder().events, label="unit",
                              dropped=86)
        assert doc["otherData"]["truncated"] is True
        assert doc["otherData"]["dropped_events"] == 86
        assert validate_chrome_trace(doc) == []

    def test_stats_cli_warns_when_ring_wrapped(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_CAP", "32")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(["stats", "fft", "--instructions", "800"]) == 0
        err = capsys.readouterr().err
        assert "ring wrapped" in err
        assert "oldest" in err

    def test_stats_cli_silent_when_ring_holds(self, monkeypatch, capsys):
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        assert main(["stats", "fft", "--instructions", "400"]) == 0
        assert "ring wrapped" not in capsys.readouterr().err

    @pytest.mark.parametrize("cap", ["0", "-3", "many"])
    def test_trace_cli_rejects_a_cap_below_one(self, monkeypatch, capsys,
                                                cap):
        """A bad ``--cap`` is a usage error (exit 2) at parse time: no
        run starts and the ring's capacity knob is left alone."""
        from repro.__main__ import main

        monkeypatch.setenv("REPRO_TRACE_CAP", "64")
        with pytest.raises(SystemExit) as exc:
            main(["trace", "fft", "--cap", cap])
        assert exc.value.code == 2
        assert "argument --cap" in capsys.readouterr().err
        assert os.environ["REPRO_TRACE_CAP"] == "64"

    def test_trace_cli_warning_names_a_cap_that_keeps_every_event(
        self, monkeypatch, capsys, tmp_path
    ):
        from repro.__main__ import main

        # trace sets both for itself; keep them scoped to this test.
        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_TRACE_CAP", "64")
        out = tmp_path / "t.json"
        argv = ["trace", "fft", "--instructions", "400", "--out", str(out)]
        assert main([*argv, "--cap", "32"]) == 0
        err = capsys.readouterr().err
        assert "ring wrapped" in err
        assert json.loads(out.read_text())["otherData"]["truncated"] is True
        cap = re.search(r"--cap (\d+)", err).group(1)
        assert main([*argv, "--cap", cap]) == 0
        assert "ring wrapped" not in capsys.readouterr().err
        assert json.loads(out.read_text())["otherData"]["truncated"] is False


class TestValidator:
    def test_flags_structural_problems(self):
        assert validate_chrome_trace([]) == ["document is not a JSON object"]
        assert validate_chrome_trace({}) == ["missing traceEvents list"]
        assert "traceEvents is empty" in validate_chrome_trace(
            {"traceEvents": []}
        )

    def test_flags_bad_events(self):
        doc = {"traceEvents": [
            {"ph": "X", "pid": 1, "tid": 1, "ts": 0, "dur": 1},  # no name
            {"name": "a", "ph": "Q", "pid": 1, "tid": 1},         # bad phase
            {"name": "b", "ph": "X", "pid": "x", "tid": 1,
             "ts": 0, "dur": 1},                                   # bad pid
            {"name": "c", "ph": "X", "pid": 1, "tid": 1,
             "ts": -5, "dur": 1},                                  # bad ts
            {"name": "d", "ph": "X", "pid": 1, "tid": 1, "ts": 0},  # no dur
            {"name": "e", "ph": "i", "pid": 1, "tid": 1, "ts": 0},  # no scope
        ]}
        problems = validate_chrome_trace(doc)
        assert len(problems) == 6

    def test_end_to_end_run_produces_valid_trace(self, monkeypatch):
        from repro.config import SimScale
        from repro.sim.runner import run_parallel_workload

        monkeypatch.setenv("REPRO_TRACE", "1")
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        scale = SimScale(instructions_per_core=600, warmup_instructions=0,
                         seed=3)
        result = run_parallel_workload("fft", scale=scale)
        assert result.trace_events
        doc = to_chrome_trace(result.trace_events, label=result.label)
        assert validate_chrome_trace(doc) == []
        kinds = {e[5] for e in result.trace_events if e[0] == "cmd"}
        assert "ACT" in kinds and "READ" in kinds
        cache_kinds = {e[2] for e in result.trace_events if e[0] == "cache"}
        assert "l2_fill" in cache_kinds

    def test_unknown_cache_kind_rejected(self):
        t = TraceRecorder(cap=4)
        with pytest.raises(ValueError, match="unknown cache event kind"):
            t.cache_event(0, "l3_fill", -1, 0x0)
