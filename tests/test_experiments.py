"""Experiment harness: every registered experiment produces sane rows.

Runs at a drastically reduced scale (few hundred instructions) — these
tests check structure, not measured values.
"""

from types import SimpleNamespace

import pytest

from repro.experiments import common
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.workloads.synthetic import clear_trace_cache


@pytest.fixture(autouse=True)
def tiny_scale(monkeypatch):
    monkeypatch.setenv("REPRO_INSTRUCTIONS", "700")
    monkeypatch.setenv("REPRO_SEEDS", "1")
    common.clear_run_cache()
    clear_trace_cache()
    yield
    common.clear_run_cache()
    clear_trace_cache()


TWO_APPS = ("fft", "radix")


class TestRegistry:
    def test_all_expected_experiments_registered(self):
        expected = {
            "fig1", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9",
            "fig10", "fig11", "fig12", "table5", "table7", "naive", "reset",
            "overhead", "mechanism", "ablation",
        }
        assert set(EXPERIMENTS) == expected

    def test_unknown_experiment_raises(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")


class TestFigures:
    def test_fig1_rows(self):
        res = run_experiment("fig1", apps=TWO_APPS)
        assert [r["app"] for r in res.rows] == ["fft", "radix", "Average"]
        for row in res.rows:
            assert 0 <= row["blocking_loads_pct"] <= 100
            assert 0 <= row["blocked_cycles_pct"] <= 100

    def test_fig3_sweeps_sizes_and_algorithms(self):
        res = run_experiment("fig3", apps=("radix",),
                             algorithms=("casras-crit",))
        configs = [r["config"] for r in res.rows]
        assert "CLPT-Binary" in configs
        assert "Binary CBP 64" in configs
        assert "Binary CBP unlimited" in configs
        for row in res.rows:
            assert row["Average"] > 0.5

    def test_fig4_predictor_set(self):
        res = run_experiment("fig4", apps=("radix",))
        names = [r["predictor"] for r in res.rows]
        assert names == [
            "Binary", "CLPT-Consumers", "BlockCount", "LastStallTime",
            "MaxStallTime", "TotalStallTime",
        ]

    def test_fig5_table_sizes(self):
        res = run_experiment("fig5", apps=("radix",))
        assert [r["table"] for r in res.rows] == [
            "64-entry", "256-entry", "1024-entry", "unlimited"
        ]

    def test_fig6_latency_columns(self):
        res = run_experiment("fig6", apps=("radix",))
        assert "FR-FCFS crit" in res.columns
        assert "MaxStallTime noncrit" in res.columns

    def test_fig8_devices_and_ranks(self):
        res = run_experiment("fig8", apps=("radix",))
        devices = {r["device"] for r in res.rows}
        assert devices == {"DDR3-1600", "DDR3-2133"}
        assert {r["ranks"] for r in res.rows} == {1, 2, 4}

    def test_fig9_lq_sizes(self):
        res = run_experiment("fig9", apps=("radix",))
        assert [r["load_queue"] for r in res.rows] == [32, 48, 64]

    def test_fig11_monotone_axis(self):
        res = run_experiment("fig11", apps=("radix",))
        ns = [r["commands_checked"] for r in res.rows]
        assert ns == sorted(ns)

    def test_fig12_bundle_columns(self):
        res = run_experiment("fig12", bundles=("AELV",))
        schedulers = [r["scheduler"] for r in res.rows]
        assert schedulers == [
            "FR-FCFS", "TCM", "MaxStallTime", "TCM+MaxStallTime"
        ]
        for row in res.rows:
            assert row["AELV"] > 0.3

    def test_mechanism_runs(self):
        res = run_experiment("mechanism", instructions=3000)
        assert [r["scheduler"] for r in res.rows] == [
            "casras-crit", "crit-casras"
        ]


class TestSectionStudies:
    def test_naive_experiment(self):
        res = run_experiment("naive", apps=("radix",))
        assert [r["app"] for r in res.rows] == ["radix", "Average"]
        assert "naive" in res.columns

    def test_reset_experiment_structure(self, monkeypatch):
        # Shrink to a single train/test interval comparison via the
        # module's own constants.
        from repro.experiments import reset as reset_mod

        monkeypatch.setattr(reset_mod, "TRAIN_APPS", ("radix",))
        monkeypatch.setattr(reset_mod, "TEST_APPS", ("fft",))
        monkeypatch.setattr(reset_mod, "INTERVALS", (None, 50_000))
        res = reset_mod.run()
        sets = [r["set"] for r in res.rows]
        assert sets.count("train") == 2
        assert sets.count("test") == 2

    def test_ablation_experiment(self):
        res = run_experiment("ablation", apps=("radix",))
        configs = res.column("config")
        assert "Fields-like (excluded)" in configs
        assert "MaxStall / saturating" in configs


class TestTables:
    def test_table5_widths(self):
        res = run_experiment("table5", apps=("radix",))
        metrics = [r["metric"] for r in res.rows]
        assert "MaxStallTime" in metrics
        for row in res.rows:
            assert row["width_bits"] >= 1

    def test_overhead_is_analytic(self):
        res = run_experiment("overhead")
        by_name = {r["predictor"]: r for r in res.rows}
        assert by_name["Binary"]["value_bits"] == 1
        assert by_name["MaxStallTime"]["value_bits"] == 14

    def test_table7_summary(self):
        res = run_experiment("table7", apps=("radix",), bundles=("AELV",))
        names = [r["scheduler"] for r in res.rows]
        assert "MaxStallTime CBP" in names
        assert "MORSE-P" in names


class TestRenderer:
    def test_table_renders(self):
        res = run_experiment("overhead")
        text = res.table()
        assert "overhead" in text
        assert "Binary" in text

    def test_column_accessor(self):
        res = run_experiment("overhead")
        assert len(res.column("predictor")) == len(res.rows)


class TestRunCache:
    def test_baseline_shared_across_experiments(self):
        common.clear_run_cache()
        run_experiment("fig1", apps=("radix",))
        size_after_fig1 = len(common._RUN_CACHE)
        run_experiment("fig1", apps=("radix",))
        assert len(common._RUN_CACHE) == size_after_fig1

    def test_memo_keys_on_the_whole_config(self, monkeypatch):
        """Configs that differ only outside the old hand-picked key
        fields (ROB size, cache geometry, timings) must not share a
        memoised result."""
        import dataclasses

        from repro.config import DDR3_2133, SystemConfig

        simulated = []

        def fake_run(spec):
            simulated.append(spec.config)
            return SimpleNamespace(hit_max_cycles=False)

        monkeypatch.setattr(common, "run_one_cached", fake_run)
        base = SystemConfig()
        variants = [
            base,
            base.scaled(core=base.core.scaled(rob_entries=64)),
            base.scaled(l2=dataclasses.replace(base.l2, ways=16)),
            base.scaled(dram=base.dram.scaled(
                timings=dataclasses.replace(DDR3_2133, tCL=15))),
        ]
        results = [common.cached_run("parallel", "fft", config=c)
                   for c in variants]
        assert len({id(r) for r in results}) == len(variants)
        assert simulated == variants
        again = common.cached_run("parallel", "fft", config=SystemConfig())
        assert again is results[0]
        assert len(simulated) == len(variants)

    def test_capped_run_fails_its_figure(self, monkeypatch):
        """A run stopped by the livelock cap raises, naming the run, its
        cycle count and the cap, and is not memoised."""
        from repro.sim.runner import _max_cycles

        cap = _max_cycles(common.experiment_scale())
        calls = []

        def fake_run(spec):
            calls.append(spec)
            return SimpleNamespace(
                hit_max_cycles=True, cycles=cap, label="fft/fr-fcfs"
            )

        monkeypatch.setattr(common, "run_one_cached", fake_run)
        for _ in range(2):
            with pytest.raises(RuntimeError) as info:
                common.mean_speedup("fft", "fr-fcfs", None)
            message = str(info.value)
            assert "fft/fr-fcfs" in message
            assert f"cycle {cap}" in message
            assert f"cap of {cap} cycles" in message
        assert len(calls) == 2
