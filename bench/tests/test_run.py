"""End-to-end checks of the benchmark command (quick scale)."""

import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import report
import suite

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_quick_emits_every_metric_for_every_workload(tmp_path):
    out = tmp_path / "quick.json"
    proc = _bench("--workload", "all", "--quick", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert record["correct"], [w["failures"] for w in record["workloads"].values()]
    assert set(record["workloads"]) == set(suite.WORKLOADS)
    for name, entry in record["workloads"].items():
        for m in SPEC["end_to_end"]:
            summary = entry["end_to_end"][m["name"]]
            assert summary["unit"] == m["unit"], (name, m["name"])
            assert summary["median"] > 0, (name, m["name"])
        for m in SPEC["per_layer"]:
            assert entry["per_layer"][m["name"]]["unit"] == m["unit"], (name, m["name"])
        per_layer = entry["per_layer"]
        assert per_layer["trace.attributed_frac"]["value"] > 0.98, name
        assert entry["cells"], name
    assert list(record["workloads"]["fig4-regen"]["tables"]) == ["r0"]
    assert json.loads(proc.stdout.strip().splitlines()[-1])["correct"]


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_contract_line(trace, section):
    proc = _bench("--workload", "mem-contention", "--seed", "7", "--quick",
                  "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert list(line["metrics"]) == [m["name"] for m in SPEC[section]]
    for m in SPEC[section]:
        assert line["metrics"][m["name"]]["unit"] == m["unit"]


def test_refuses_to_run_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "alone-idle", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _pass(monkeypatch, tmp_path, label, traced):
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        monkeypatch.delenv(key)
    monkeypatch.setenv("REPRO_JOBS", "1")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / label))
    record = child.run_pass({"workload": "parallel-busy", "seed": 1,
                             "quick": True, "traced": traced})
    assert record["failures"] == []
    return record


def _traced_pass(monkeypatch, tmp_path, label):
    record = _pass(monkeypatch, tmp_path, label, traced=True)
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in record["per_layer"].items()}


def test_allocation_heavy_slowdown_is_not_normalised_away(monkeypatch, tmp_path):
    """A change that allocates and keeps many objects slows the host-speed
    probes too if they run the garbage collector; its cost at nominal host
    speed must still read as a regression."""
    from repro.sched.tcm import TcmScheduler

    original = TcmScheduler.select
    kept = []

    def heavy_select(self, candidates, controller, now):
        scratch = [[i] for i in range(5000)]
        kept.append(scratch[:500])
        return original(self, candidates, controller, now)

    def cold_s(label, select):
        monkeypatch.setattr(TcmScheduler, "select", select)
        record = _pass(monkeypatch, tmp_path, label, traced=False)
        kept.clear()
        return record["pass_s"] * record["speed_during"]

    parent, change = [], []
    for i in range(3):  # interleaved, so drift of host speed is shared
        parent.append(cold_s(f"parent{i}", original))
        change.append(cold_s(f"change{i}", heavy_select))
    bound = next(m["bound"] for m in SPEC["end_to_end"] if m["name"] == "cold_s")
    assert report.verdict(parent, change, "lower", bound) == "regressed", (
        parent, change)


def test_slow_select_is_named_as_its_scheduler(monkeypatch, tmp_path):
    from repro.sched.tcm import TcmScheduler

    parent = _traced_pass(monkeypatch, tmp_path, "parent")
    original = TcmScheduler.select

    def slow_select(self, candidates, controller, now):
        time.sleep(0.001)
        return original(self, candidates, controller, now)

    monkeypatch.setattr(TcmScheduler, "select", slow_select)
    change = _traced_pass(monkeypatch, tmp_path, "change")

    diff = report.layer_changes(parent, change)
    assert diff["counts"] == []
    slower = [name for name, *_ in diff["slower"]]
    assert "sched.tcm.select_us" in slower
    assert all(name.startswith("sched.") for name in slower), slower
    assert "sched.fr-fcfs.select_us" not in slower
    assert diff["largest"] == "sched"
