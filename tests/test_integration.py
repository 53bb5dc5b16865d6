"""Cross-module integration invariants."""

import pytest

from repro.config import DramConfig, SimScale, SystemConfig
from repro.cpu.instruction import INT, LOAD, STORE, Trace
from repro.sim.runner import run_parallel_workload
from repro.sim.system import System
from repro.workloads.synthetic import clear_trace_cache

TINY = SimScale(instructions_per_core=900, warmup_instructions=100)


@pytest.fixture(autouse=True)
def _fresh():
    clear_trace_cache()
    yield
    clear_trace_cache()


class TestFunctionalInvariance:
    """Scheduling policy must never change *what* executes, only *when*."""

    @pytest.mark.parametrize("sched", ["fcfs", "casras-crit", "par-bs", "tcm"])
    def test_commit_counts_identical_across_schedulers(self, sched):
        base = run_parallel_workload("radix", scheduler="fr-fcfs", scale=TINY)
        other = run_parallel_workload(
            "radix", scheduler=sched,
            provider_spec=("cbp", {"entries": 64}), scale=TINY,
        )
        assert base.committed == other.committed

    def test_loads_issued_identical(self):
        base = run_parallel_workload("radix", scheduler="fr-fcfs", scale=TINY)
        crit = run_parallel_workload(
            "radix", scheduler="casras-crit",
            provider_spec=("cbp", {"entries": 64}), scale=TINY,
        )
        assert base.hierarchy.loads == crit.hierarchy.loads
        assert base.hierarchy.stores == crit.hierarchy.stores


class TestConservation:
    def test_dram_reads_bounded_by_misses(self):
        result = run_parallel_workload("fft", scale=TINY)
        reads_done = sum(c.reads_done for c in result.channels)
        # Every DRAM read is a demand L2 miss, a store RFO, or a prefetch.
        h = result.hierarchy
        assert h.dram_loads <= reads_done

    def test_row_hits_bounded_by_reads(self):
        result = run_parallel_workload("swim", scale=TINY)
        for c in result.channels:
            assert 0 <= c.row_hit_reads <= c.reads_done

    def test_finish_cycles_bounded_by_total(self):
        result = run_parallel_workload("mg", scale=TINY)
        assert max(result.finish_cycles) == result.cycles


class TestStarvationCap:
    def test_noncritical_read_completes_despite_critical_flood(self):
        """One non-critical read amid a constant critical stream must
        finish within ~the starvation cap."""
        config = SystemConfig(
            cores=2,
            dram=DramConfig(channels=1, starvation_cap_dram_cycles=400),
        )
        victim = Trace("victim")
        victim.append(LOAD, 9, 5 << 30, 0)  # one cold load, never marked
        flood = Trace("flood")
        addr = 6 << 30
        while len(flood) < 12_000:
            flood.append(LOAD, 3, addr, 0)
            for i in range(4):
                flood.append(INT, 4, 0, 1 if i else 0)
            addr += 64

        class AlwaysCritical:
            def annotate(self, pc):
                return (True, 1000) if pc == 3 else (False, 0)

            def on_block_start(self, *a, **k):
                pass

            def on_blocked_commit(self, *a, **k):
                pass

            def on_load_consumers(self, *a, **k):
                pass

            def tick(self, *a, **k):
                pass

        system = System(
            config, [victim, flood], scheduler="casras-crit",
            provider_spec=lambda core: AlwaysCritical(),
        )
        result = system.run(max_cycles=2_000_000)
        # Victim core finishes well before the flood.
        assert result.finish_cycles[0] < result.finish_cycles[1]
        # And within cap * ratio * slack of its issue.
        assert result.finish_cycles[0] < 400 * 4 * 6


class TestPrefetchIntegration:
    def test_prefetcher_issues_and_hits(self):
        from repro.config import PrefetcherConfig

        config = SystemConfig(prefetcher=PrefetcherConfig(enabled=True))
        result = run_parallel_workload("swim", config=config, scale=TINY)
        assert result.hierarchy.prefetches_issued > 0

    def test_prefetch_disabled_by_default(self):
        result = run_parallel_workload("swim", scale=TINY)
        assert result.hierarchy.prefetches_issued == 0


class TestDeterminismAcrossRuns:
    def test_full_stack_deterministic(self):
        a = run_parallel_workload(
            "scalparc", scheduler="casras-crit",
            provider_spec=("cbp", {"entries": 64}), scale=TINY,
        )
        clear_trace_cache()
        b = run_parallel_workload(
            "scalparc", scheduler="casras-crit",
            provider_spec=("cbp", {"entries": 64}), scale=TINY,
        )
        assert a.cycles == b.cycles
        assert a.finish_cycles == b.finish_cycles
        assert a.hierarchy.dram_loads == b.hierarchy.dram_loads

    def test_morse_deterministic_despite_exploration(self):
        a = run_parallel_workload(
            "radix", scheduler="morse-p",
            scheduler_kwargs={"commands_checked": 6}, scale=TINY,
        )
        clear_trace_cache()
        b = run_parallel_workload(
            "radix", scheduler="morse-p",
            scheduler_kwargs={"commands_checked": 6}, scale=TINY,
        )
        assert a.cycles == b.cycles
