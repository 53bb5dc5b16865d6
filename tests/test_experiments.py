"""Experiment harness: every registered experiment produces sane rows.

Runs at a drastically reduced scale (few hundred instructions) — these
tests check structure, not measured values.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from repro.experiments import common
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.sim import engine
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

    def test_capped_mechanism_run_fails_its_figure(self, monkeypatch):
        """A mechanism run stopped by the livelock cap raises, naming its
        scheduler, instead of entering the table as a speedup."""
        from repro.sim.system import System

        original = System.run

        def capped_run(self, max_cycles=None, engine=None):
            return original(self, max_cycles=200, engine=engine)

        monkeypatch.setattr(System, "run", capped_run)
        with pytest.raises(RuntimeError) as info:
            run_experiment("mechanism", instructions=3000)
        message = str(info.value)
        assert message.startswith("fr-fcfs: stopped at cycle 200,")
        assert "livelock cap" in message


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

        def fake_run_many(specs):
            simulated.extend(spec.config for spec in specs)
            return [SimpleNamespace(hit_max_cycles=False) for _ in specs]

        monkeypatch.setattr(engine, "run_many", fake_run_many)
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

        def fake_run_many(specs):
            calls.extend(specs)
            return [
                SimpleNamespace(
                    hit_max_cycles=True, cycles=cap, label="fft/fr-fcfs"
                )
                for _ in specs
            ]

        monkeypatch.setattr(engine, "run_many", fake_run_many)
        for _ in range(2):
            with pytest.raises(RuntimeError) as info:
                common.mean_speedup("fft", "fr-fcfs", None)
            message = str(info.value)
            assert "fft/fr-fcfs" in message
            assert f"cycle {cap}" in message
            assert f"cap of {cap} cycles" in message
        assert len(calls) == 2

    def test_capped_run_in_a_batch_fails_its_figure_at_once(self, monkeypatch):
        """A figure whose batch returns one capped run raises naming that
        run, does not memoise it, and simulates nothing more."""
        from repro.sim.runner import _max_cycles

        cap = _max_cycles(common.experiment_scale())
        batches = []

        def fake_run_many(specs):
            batches.append(specs)
            return [
                SimpleNamespace(
                    hit_max_cycles=i == 3, cycles=cap if i == 3 else 1000,
                    label=f"run{i}",
                )
                for i, _ in enumerate(specs)
            ]

        def no_run(spec):
            raise AssertionError(f"{spec.workload} simulated after its batch")

        monkeypatch.setattr(engine, "run_many", fake_run_many)
        monkeypatch.setattr(engine, "run_one", no_run)
        with pytest.raises(RuntimeError) as info:
            run_experiment("fig4", apps=("radix",))
        assert str(info.value) == (
            f"run3: stopped at cycle {cap}, the livelock cap of {cap} cycles"
        )
        assert [len(specs) for specs in batches] == [7]
        memoised = sorted(r.label for r in common._RUN_CACHE.values())
        assert memoised == ["run0", "run1", "run2"]


#: Small arguments for every experiment that simulates through the engine
#: (``mechanism`` builds its own traces; ``overhead`` is analytic).
BATCHED = {
    "fig1": {"apps": TWO_APPS},
    "fig3": {"apps": TWO_APPS, "algorithms": ("casras-crit",)},
    "fig4": {"apps": TWO_APPS},
    "fig5": {"apps": TWO_APPS},
    "fig6": {"apps": TWO_APPS},
    "fig7": {"apps": TWO_APPS},
    "fig8": {"apps": TWO_APPS},
    "fig9": {"apps": TWO_APPS},
    "fig10": {"apps": TWO_APPS},
    "fig11": {"apps": TWO_APPS},
    "fig12": {"bundles": ("AELV",)},
    "table5": {"apps": TWO_APPS},
    "table7": {"apps": TWO_APPS, "bundles": ("AELV",)},
    "naive": {"apps": TWO_APPS},
    "reset": {},
    "ablation": {"apps": TWO_APPS},
}


class TestBatching:
    def test_every_simulating_experiment_is_listed(self):
        assert set(BATCHED) == set(EXPERIMENTS) - {"mechanism", "overhead"}

    @pytest.mark.parametrize("experiment_id", sorted(BATCHED))
    def test_every_simulation_comes_from_run_many(
        self, experiment_id, monkeypatch, tmp_path
    ):
        """Each experiment simulates only inside ``engine.run_many``, so
        its runs share the worker pool, whatever ``REPRO_JOBS`` says."""
        from repro.experiments import reset

        monkeypatch.setenv("REPRO_INSTRUCTIONS", "300")
        monkeypatch.setenv("REPRO_JOBS", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(reset, "TRAIN_APPS", ("radix",))
        monkeypatch.setattr(reset, "TEST_APPS", ("fft",))
        monkeypatch.setattr(reset, "INTERVALS", (None, 50_000))
        run_many, run_one = engine.run_many, engine.run_one
        depth, simulated = [0], []

        def batch(*args, **kwargs):
            depth[0] += 1
            try:
                return run_many(*args, **kwargs)
            finally:
                depth[0] -= 1

        def checked(spec):
            assert depth[0], f"{spec.workload} simulated outside run_many"
            simulated.append(spec)
            return run_one(spec)

        monkeypatch.setattr(engine, "run_many", batch)
        monkeypatch.setattr(engine, "run_one", checked)
        run_experiment(experiment_id, **BATCHED[experiment_id])
        assert simulated

    def test_warm_figure_reads_each_result_once(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        run_experiment("fig4", apps=TWO_APPS)
        common.clear_run_cache()
        reads = Counter()
        load_cached = engine.load_cached

        def counted(key):
            reads[key] += 1
            return load_cached(key)

        monkeypatch.setattr(engine, "load_cached", counted)
        engine.clear_metrics()
        run_experiment("fig4", apps=TWO_APPS)
        runs = len(TWO_APPS) * 7  # the baseline and six predictors
        assert len(reads) == runs and set(reads.values()) == {1}
        assert [m["source"] for m in engine.last_metrics] == ["disk"] * runs
        assert {m["key"] for m in engine.last_metrics} == set(reads)
