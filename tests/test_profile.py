"""``repro profile``: one timed run per engine, cross-checked for identity."""

from __future__ import annotations

import json
import os

from repro.__main__ import main
from repro.cache import hierarchy
from repro.cpu import core
from repro.dram import controller
from repro.sim import events, runner, stats
from repro.sim.system import ENGINES, loop_implementation


def _profile(tmp_path):
    path = tmp_path / "profile.json"
    code = main(["profile", "fft", "--instructions", "600",
                 "--json", str(path)])
    return code, json.loads(path.read_text())


def test_default_times_every_engine_and_agrees(tmp_path, capsys):
    code, report = _profile(tmp_path)
    assert code == 0
    assert report["identical"] is True
    assert [run["engine"] for run in report["runs"]] == list(ENGINES)
    for run in report["runs"]:
        assert run["identical"] is True
        assert run["cycles"] > 0 and run["wall_seconds"] > 0
    assert "DIVERGED" not in capsys.readouterr().out


def test_divergent_engine_fails_the_command(tmp_path, capsys, monkeypatch):
    original = stats.result_fingerprint

    def engine_dependent(result):
        # Differs on every engine but the reference, as a broken fast
        # path would.
        return original(result), os.environ["REPRO_ENGINE"] == "naive"

    monkeypatch.setattr(stats, "result_fingerprint", engine_dependent)
    code, report = _profile(tmp_path)
    assert code == 1
    assert report["identical"] is False
    assert "DIVERGED" in capsys.readouterr().out


def test_capped_run_fails_the_command(tmp_path, capsys, monkeypatch):
    # Two runs stopped at the cap agree with each other, so identity
    # alone would pass them.
    monkeypatch.setattr(runner, "_max_cycles", lambda scale: 300)
    code, report = _profile(tmp_path)
    assert code == 1
    assert report["identical"] is True
    assert [run["hit_max_cycles"] for run in report["runs"]] == [True] * len(
        ENGINES)
    err = capsys.readouterr().err
    for engine in ENGINES:
        assert (f"error: fft/fr-fcfs ({engine} engine): stopped at cycle 300, "
                f"the livelock cap of 300 cycles") in err


def test_report_names_the_core_that_ran(tmp_path, capsys, monkeypatch):
    code, report = _profile(tmp_path)
    assert code == 0
    assert report["core"] == ("python" if core._kernel is None else "compiled")
    assert report["cache"] == (
        "python" if hierarchy._kernel is None else "compiled")
    assert report["events"] == (
        "python" if events._kernel is None else "compiled")
    assert report["dram"] == (
        "python" if controller._kernel is None else "compiled")
    assert report["loop"] == loop_implementation()
    assert all(run["hit_max_cycles"] is False for run in report["runs"])
    # The naive engine's cycles take the loop the kernels allow; the
    # batched engine's loop is Python.
    loops = {run["engine"]: (run["loop"], run["loop_cycles"], run["cycles"])
             for run in report["runs"]}
    for engine, path in (("naive", report["loop"]), ("batched", "python")):
        taken, cycles_by_path, cycles = loops[engine]
        assert taken == path
        assert cycles_by_path == {
            "compiled": cycles if path == "compiled" else 0,
            "python": cycles if path == "python" else 0,
        }
    monkeypatch.setattr(core, "_kernel", None)
    monkeypatch.setattr(hierarchy, "_kernel", None)
    monkeypatch.setattr(events, "EventQueue", events.HeapEventQueue)
    monkeypatch.setattr(controller, "_kernel", None)
    code, report = _profile(tmp_path)
    assert code == 0
    assert (report["core"], report["cache"], report["events"],
            report["dram"], report["loop"]) == (
        "python", "python", "python", "python", "python")
    assert all(run["loop"] == "python" for run in report["runs"])
    assert ("engine comparison on the python core and the python cache "
            "hierarchy, with the python event queue, the python DRAM "
            "controller and the python cycle loop") in capsys.readouterr().out
