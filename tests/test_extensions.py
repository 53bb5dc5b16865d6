"""Extension modules: Fields-like predictor, report, CLI."""

import pytest

from repro.core.fields import FieldsLikePredictor, FieldsLikeProvider


class TestFieldsLike:
    def test_marks_long_latency_loads(self):
        p = FieldsLikePredictor(latency_threshold=40, mark_ratio=0.5)
        for _ in range(4):
            p.record_latency(7, 100)
        assert p.is_critical(7)

    def test_short_latency_loads_unmarked(self):
        p = FieldsLikePredictor(latency_threshold=40, mark_ratio=0.5)
        for _ in range(10):
            p.record_latency(7, 3)
        assert not p.is_critical(7)

    def test_does_not_differentiate_among_misses(self):
        # The paper's exclusion argument: two loads with very different
        # stall magnitudes get the same binary answer.
        p = FieldsLikePredictor(latency_threshold=40, mark_ratio=0.2)
        for _ in range(5):
            p.record_latency(1, 60)      # barely long
            p.record_latency(2, 5000)    # enormously long
        assert p.is_critical(1) == p.is_critical(2) is True

    def test_provider_annotation(self):
        prov = FieldsLikeProvider(latency_threshold=40, mark_ratio=0.2)
        assert prov.annotate(9) == (False, 0)
        prov.on_blocked_commit(9, 200, 0)
        assert prov.annotate(9) == (True, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            FieldsLikePredictor(latency_threshold=0)
        with pytest.raises(ValueError):
            FieldsLikePredictor(mark_ratio=0.0)
        with pytest.raises(ValueError):
            FieldsLikePredictor(entries=100)


class TestReport:
    def _result(self):
        from repro.experiments.common import ExperimentResult

        return ExperimentResult(
            "demo", "Demo", ["name", "speedup"],
            [{"name": "a", "speedup": 1.25}, {"name": "b", "speedup": 0.9}],
            notes="note",
        )

    def test_markdown(self):
        from repro.sim.report import to_markdown

        md = to_markdown(self._result())
        assert "| name | speedup |" in md
        assert "| a | 1.250 |" in md
        assert "*note*" in md

    def test_csv(self):
        from repro.sim.report import to_csv

        text = to_csv(self._result())
        assert text.splitlines()[0] == "name,speedup"
        assert "a,1.250" in text

    def test_bar_chart(self):
        from repro.sim.report import bar_chart

        chart = bar_chart(self._result(), "name", "speedup")
        lines = chart.splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("a")
        assert "#" in lines[0]


class TestCli:
    def test_list_command(self, capsys):
        from repro.__main__ import main

        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fr-fcfs" in out
        assert "fig4" in out

    def test_experiment_overhead_markdown(self, capsys):
        from repro.__main__ import main

        assert main(["experiment", "overhead", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "| predictor |" in out

    def test_run_command(self, capsys, monkeypatch):
        from repro.__main__ import main
        from repro.workloads.synthetic import clear_trace_cache

        clear_trace_cache()
        assert main(["run", "radix", "--instructions", "700"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        clear_trace_cache()

    @pytest.mark.parametrize("command", ["run", "stats", "trace"])
    def test_capped_run_fails_loudly(self, capsys, monkeypatch, tmp_path,
                                     command):
        """A run stopped at the livelock cap prints no figures: the
        command names the run and the cap on stderr and fails."""
        from repro.__main__ import main
        from repro.sim import runner
        from repro.workloads.synthetic import clear_trace_cache

        # stats and trace set these for themselves; keep them scoped.
        monkeypatch.setenv("REPRO_NO_CACHE", "1")
        monkeypatch.setenv("REPRO_TRACE", "0")
        monkeypatch.setattr(runner, "_max_cycles", lambda scale: 500)
        clear_trace_cache()
        argv = [command, "radix", "--instructions", "700"]
        if command == "trace":
            argv += ["--out", str(tmp_path / "t.json")]
        assert main(argv) != 0
        captured = capsys.readouterr()
        assert "stopped at cycle" in captured.err
        assert "livelock cap of 500 cycles" in captured.err
        assert "speedup" not in captured.out
        assert "IPC" not in captured.out
        assert not (tmp_path / "t.json").exists()
        clear_trace_cache()

    @pytest.mark.parametrize("flag", [["--jobs", "2"], ["--no-cache"]])
    @pytest.mark.parametrize("command", ["run", "stats", "trace"])
    def test_batch_flags_are_experiment_only(self, capsys, command, flag):
        """run, stats and trace simulate one spec in process, never
        through the worker pool or the disk cache: neither flag exists
        for them."""
        from repro.__main__ import build_parser

        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "radix", *flag])
        assert "unrecognized arguments" in capsys.readouterr().err
        build_parser().parse_args(["experiment", "fig4", *flag])

    @pytest.mark.parametrize("tool", ["lint", "analyze"])
    def test_forwarded_tool_lists_its_rules(self, capsys, tool):
        """lint and analyze parse their own argv, so a leading option
        reaches them intact."""
        from repro.__main__ import main
        from repro.analysis.lint import RULES_BY_ID
        from repro.analysis.semantic import SEMANTIC_RULES

        assert main([tool, "--list-rules"]) == 0
        out = capsys.readouterr().out
        rules = RULES_BY_ID if tool == "lint" else SEMANTIC_RULES
        listed = {line.split()[0] for line in out.splitlines()
                  if line[:1].isupper()}
        assert listed == set(rules)
