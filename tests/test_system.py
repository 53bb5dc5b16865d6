"""End-to-end system runs."""

import pytest

from repro.config import DramConfig, SimScale, SystemConfig
from repro.cpu.instruction import INT, LOAD, Trace
from repro.sim.runner import (
    run_application_alone,
    run_multiprogrammed_workload,
    run_parallel_workload,
)
from repro.sim.system import System, make_provider_factory
from repro.workloads.synthetic import clear_trace_cache

TINY = SimScale(instructions_per_core=800, warmup_instructions=100)


@pytest.fixture(autouse=True)
def _fresh():
    clear_trace_cache()
    yield
    clear_trace_cache()


def small_traces(cores=2, n=600):
    traces = []
    for c in range(cores):
        t = Trace(f"t{c}")
        addr = (c + 1) << 30
        for i in range(n):
            if i % 7 == 0:
                t.append(LOAD, 10 + (i % 5), addr, 0)
                addr += 4096 + 64
            else:
                t.append(INT, 100 + (i % 9), 0, 1)
        traces.append(t)
    return traces


class TestSystem:
    def test_runs_to_completion(self):
        cfg = SystemConfig(cores=2, dram=DramConfig(channels=2))
        system = System(cfg, small_traces())
        result = system.run(max_cycles=500_000)
        assert not result.hit_max_cycles
        assert result.total_committed == 1200
        assert all(f > 0 for f in result.finish_cycles)

    def test_trace_count_must_match_cores(self):
        cfg = SystemConfig(cores=4)
        with pytest.raises(ValueError):
            System(cfg, small_traces(cores=2))

    def test_deterministic(self):
        cfg = SystemConfig(cores=2, dram=DramConfig(channels=2))
        r1 = System(cfg, small_traces()).run(max_cycles=500_000)
        r2 = System(cfg, small_traces()).run(max_cycles=500_000)
        assert r1.cycles == r2.cycles
        assert r1.finish_cycles == r2.finish_cycles

    def test_max_cycles_cap(self):
        cfg = SystemConfig(cores=2, dram=DramConfig(channels=2))
        result = System(cfg, small_traces()).run(max_cycles=50)
        assert result.hit_max_cycles

    @pytest.mark.parametrize("engine", ["naive", "batched"])
    def test_run_end_ledger_catches_a_lost_commit(self, engine):
        cfg = SystemConfig(cores=2, dram=DramConfig(channels=2))
        system = System(cfg, small_traces())
        system.cores[1].stats.committed = -1  # one commit short at run end
        with pytest.raises(RuntimeError, match="core 1 .* committed 599 of 600"):
            system.run(max_cycles=500_000, engine=engine)

    def test_capped_run_skips_the_ledger(self):
        cfg = SystemConfig(cores=2, dram=DramConfig(channels=2))
        system = System(cfg, small_traces())
        system.cores[1].stats.committed = -1
        assert system.run(max_cycles=50).hit_max_cycles

    def test_empty_trace_core_finishes_immediately(self):
        cfg = SystemConfig(cores=2, dram=DramConfig(channels=2))
        traces = [small_traces(1)[0], Trace("idle")]
        result = System(cfg, traces).run(max_cycles=500_000)
        assert result.committed[1] == 0
        assert result.finish_cycles[1] <= result.finish_cycles[0]

    def test_scheduler_selected_by_name(self):
        cfg = SystemConfig(cores=2, dram=DramConfig(channels=2))
        system = System(cfg, small_traces(), scheduler="tcm",
                        scheduler_kwargs={"threads": 2})
        from repro.sched.tcm import TcmScheduler

        assert isinstance(system.memory.channels[0].scheduler, TcmScheduler)

    def test_unknown_scheduler_raises(self):
        cfg = SystemConfig(cores=2, dram=DramConfig(channels=2))
        with pytest.raises(ValueError):
            System(cfg, small_traces(), scheduler="nope")


class TestProviderFactory:
    def test_null_spec(self):
        from repro.core.provider import NullProvider

        factory = make_provider_factory(None)
        assert isinstance(factory(0), NullProvider)

    def test_cbp_spec(self):
        from repro.core.provider import CbpProvider

        factory = make_provider_factory(("cbp", {"entries": 64}))
        p0, p1 = factory(0), factory(1)
        assert isinstance(p0, CbpProvider)
        assert p0 is not p1  # per-core predictors

    def test_callable_spec(self):
        sentinel = object()
        factory = make_provider_factory(lambda core: sentinel)
        assert factory(3) is sentinel

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            make_provider_factory(("nope", {}))


class TestRunners:
    def test_parallel_runner(self):
        result = run_parallel_workload("radix", scale=TINY)
        assert not result.hit_max_cycles
        assert result.total_committed == 8 * 900

    def test_parallel_with_criticality(self):
        result = run_parallel_workload(
            "radix", scheduler="casras-crit",
            provider_spec=("cbp", {"entries": 64}), scale=TINY,
        )
        assert not result.hit_max_cycles
        assert sum(s.critical_loads_sent for s in result.core_stats) > 0

    def test_multiprogrammed_runner(self):
        result = run_multiprogrammed_workload("AELV", scale=TINY)
        assert not result.hit_max_cycles
        assert len(result.committed) == 4

    def test_alone_runner(self):
        result = run_application_alone("AELV", slot=1, scale=TINY)
        assert result.committed[1] == 900
        assert result.committed[0] == 0

    def test_naive_provider_end_to_end(self):
        result = run_parallel_workload(
            "radix", scheduler="casras-crit",
            provider_spec=("naive", {}), scale=TINY,
        )
        assert not result.hit_max_cycles


class TestSchedulerEndToEnd:
    @pytest.mark.parametrize("sched,kwargs", [
        ("fcfs", None),
        ("fr-fcfs", None),
        ("casras-crit", None),
        ("crit-casras", None),
        ("ahb", None),
        ("par-bs", None),
        ("tcm", {"threads": 8}),
        ("tcm+crit", {"threads": 8}),
        ("morse-p", {"commands_checked": 6}),
        ("crit-rl", {"commands_checked": 6}),
    ])
    def test_every_scheduler_completes(self, sched, kwargs):
        result = run_parallel_workload(
            "fft", scheduler=sched, scheduler_kwargs=kwargs,
            provider_spec=("cbp", {"entries": 64}), scale=TINY,
        )
        assert not result.hit_max_cycles
        assert result.total_committed == 8 * 900
