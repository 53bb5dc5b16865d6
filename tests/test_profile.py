"""``repro profile``: one timed run per engine, cross-checked for identity."""

from __future__ import annotations

import json
import os

from repro.__main__ import main
from repro.sim import stats
from repro.sim.system import ENGINES


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
