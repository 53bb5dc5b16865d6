"""The default (batched) loop must be bit-identical to the naive loop.

``System.run()`` jumps over dead cycles and windows stalled ones; every
counter, finish cycle, and channel statistic must nonetheless come out
exactly as if the loop had stepped cycle by cycle.  These tests pin that
contract across schedulers, providers, workload shapes, and the
max_cycles cap, plus determinism of repeated runs and runs in worker
processes.
"""

from __future__ import annotations

import pytest

from repro.config import SimScale, SystemConfig
from repro.cpu.instruction import Trace
from repro.sim.runner import (
    run_application_alone,
    run_multiprogrammed_workload,
    run_parallel_workload,
)
from repro.sim.stats import result_fingerprint
from repro.sim.system import System
from repro.workloads.multiprog import BUNDLES
from repro.workloads.parallel import parallel_traces

SCALE = SimScale(instructions_per_core=800, warmup_instructions=0, seed=11)


def _parallel_system(app="fft", scheduler="fr-fcfs", provider_spec=None,
                     scheduler_kwargs=None, config=None):
    config = config or SystemConfig.parallel_default()
    traces = parallel_traces(
        app, config.cores, SCALE.instructions_per_core, seed=SCALE.seed
    )
    return System(
        config,
        traces,
        scheduler=scheduler,
        scheduler_kwargs=scheduler_kwargs,
        provider_spec=provider_spec,
    )


def _both_modes(make_system, max_cycles=None):
    naive = make_system().run(max_cycles=max_cycles, engine="naive")
    fast = make_system().run(max_cycles=max_cycles)
    return naive, fast


CASES = [
    {},
    {"scheduler": "crit-casras", "provider_spec": ("cbp", {"entries": 64})},
    {
        "app": "radix",
        "scheduler": "casras-crit",
        "provider_spec": ("cbp", {"entries": 64, "reset_interval": 500}),
    },
    {"app": "mg", "provider_spec": ("naive", {})},
    {"app": "ocean", "scheduler": "par-bs"},
    {"app": "cg", "scheduler": "tcm"},
]


class TestBitIdentity:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.get("app", "fft")
                             + "/" + c.get("scheduler", "fr-fcfs"))
    def test_parallel_workloads(self, case):
        naive, fast = _both_modes(lambda: _parallel_system(**case))
        assert result_fingerprint(naive) == result_fingerprint(fast)

    def test_prefetcher_enabled(self):
        from repro.config import PrefetcherConfig

        config = SystemConfig.parallel_default().scaled(
            prefetcher=PrefetcherConfig(enabled=True)
        )
        naive, fast = _both_modes(lambda: _parallel_system(config=config))
        assert result_fingerprint(naive) == result_fingerprint(fast)

    def test_max_cycles_cap(self):
        naive, fast = _both_modes(lambda: _parallel_system(), max_cycles=900)
        assert naive.hit_max_cycles
        assert result_fingerprint(naive) == result_fingerprint(fast)

    def test_idle_cores(self):
        """Execute-alone shape: most cores run empty traces (deep skips)."""
        config = SystemConfig.multiprogrammed_default()
        bundle = sorted(BUNDLES)[0]
        from repro.workloads.multiprog import bundle_traces

        traces = bundle_traces(
            bundle, SCALE.instructions_per_core, seed=SCALE.seed
        )
        solo = [traces[0]] + [Trace(name="idle")] * (config.cores - 1)

        def make():
            return System(config, solo, scheduler="par-bs")

        naive, fast = _both_modes(make)
        assert result_fingerprint(naive) == result_fingerprint(fast)

    def test_duck_typed_provider_never_skips(self):
        """Providers without next_tick_cycle run safely (and identically)."""

        class Quiet:
            def annotate(self, pc):
                return (False, 0)

            def on_block_start(self, *a, **k):
                pass

            def on_blocked_commit(self, *a, **k):
                pass

            def on_load_consumers(self, *a, **k):
                pass

            def tick(self, *a, **k):
                pass

        naive, fast = _both_modes(
            lambda: _parallel_system(provider_spec=lambda core: Quiet())
        )
        assert result_fingerprint(naive) == result_fingerprint(fast)


class TestRunnerKnobs:
    def test_no_skip_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_ENGINE", "naive")
        forced = run_parallel_workload("fft", scale=SCALE)
        monkeypatch.delenv("REPRO_ENGINE")
        default = run_parallel_workload("fft", scale=SCALE)
        assert result_fingerprint(forced) == result_fingerprint(default)

    def test_verify_skip_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY_SKIP", "1")
        result = run_multiprogrammed_workload(sorted(BUNDLES)[0], scale=SCALE)
        assert result.cycles > 0

    def test_wall_seconds_recorded(self):
        result = run_parallel_workload("fft", scale=SCALE)
        assert result.wall_seconds > 0
        assert result.cycles_per_second > 0


class TestDeterminism:
    def test_same_seed_same_result(self):
        a = run_parallel_workload("fft", scale=SCALE)
        b = run_parallel_workload("fft", scale=SCALE)
        assert result_fingerprint(a) == result_fingerprint(b)

    def test_identical_across_worker_processes(self, tmp_path, monkeypatch):
        """A run in a forked worker equals the same run done inline."""
        from repro.sim.engine import RunSpec, run_many, run_one

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        specs = [
            RunSpec(kind="parallel", workload="fft", scale=SCALE),
            RunSpec(kind="parallel", workload="radix", scale=SCALE),
        ]
        pooled = run_many(specs, jobs=2)
        for spec, result in zip(specs, pooled):
            assert result_fingerprint(run_one(spec)) == result_fingerprint(
                result
            )

    def test_alone_run_accepts_provider_and_kwargs(self):
        """Regression: run_application_alone used to drop these silently."""
        from repro.core.provider import CbpProvider

        bundle = sorted(BUNDLES)[0]
        result = run_application_alone(
            bundle,
            0,
            scheduler="crit-casras",
            scale=SCALE,
            provider_spec=("cbp", {"entries": 64}),
            scheduler_kwargs={},
        )
        assert all(isinstance(p, CbpProvider) for p in result.providers)
