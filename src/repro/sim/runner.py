"""Convenience runners used by examples, tests, and every experiment.

Environment knobs (also settable via ``python -m repro`` flags):

* ``REPRO_ENGINE``        — loop implementation: ``naive`` (cycle by
  cycle, the reference) or ``batched`` (wake-driven windows; default);
* ``REPRO_VERIFY_SKIP=1`` — run every simulation twice (the selected
  engine plus the other one) and assert bit-identical results.
"""

from __future__ import annotations

import os

from repro.config import DEFAULT_SCALE, SimScale, SystemConfig
from repro.sim.stats import SimResult, result_fingerprint, speedup
from repro.sim.system import System
from repro.util import hostclock
from repro.workloads.multiprog import BUNDLES, bundle_traces
from repro.workloads.parallel import parallel_traces

#: Safety cap: a run exceeding this many cycles per trace instruction is
#: treated as a livelock and aborted (surfaces as ``hit_max_cycles``).
_CYCLE_BUDGET_PER_INSTRUCTION = 60


def _max_cycles(scale: SimScale) -> int:
    total = scale.instructions_per_core + scale.warmup_instructions
    return max(200_000, total * _CYCLE_BUDGET_PER_INSTRUCTION)


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0")


def _run_system(make_system, max_cycles: int) -> SimResult:
    """Run a system built by ``make_system()``, honouring the env knobs.

    Wall-clock time is recorded on the result; with ``REPRO_VERIFY_SKIP``
    a second system is built and run on a reference engine (``naive``
    unless that is the engine under test, then ``batched``) and the two
    results are cross-checked for bit-identity.
    """
    engine = System.resolve_engine(None)
    # Wall-clock observability only (the sanctioned host clock): never
    # feeds back into simulated state.
    start = hostclock.now()
    result = make_system().run(max_cycles=max_cycles, engine=engine)
    result.wall_seconds = hostclock.now() - start
    if _env_flag("REPRO_VERIFY_SKIP"):
        reference = "naive" if engine != "naive" else "batched"
        # The cross-check run must not clobber the primary run's streamed
        # telemetry (its stream would be bit-identical anyway — that is
        # the point of the check — but rewriting it would confuse a live
        # `repro watch` tailing the directory), and must not register a
        # second phantom run in the fleet registry.
        saved_stream = os.environ.pop("REPRO_STREAM_DIR", None)
        saved_fleet = os.environ.pop("REPRO_FLEET_DIR", None)
        try:
            other = make_system().run(
                max_cycles=max_cycles, engine=reference
            )
        finally:
            if saved_stream is not None:
                os.environ["REPRO_STREAM_DIR"] = saved_stream
            if saved_fleet is not None:
                os.environ["REPRO_FLEET_DIR"] = saved_fleet
        if result_fingerprint(result) != result_fingerprint(other):
            from repro.analysis.detchain import first_divergence

            where = first_divergence(
                result.det_checkpoints, other.det_checkpoints
            )
            location = (
                f" (determinism chain first diverges at cycle {where['cycle']})"
                if where
                else " (determinism chains agree; divergence is in statistics)"
            )
            raise AssertionError(
                f"the {engine!r} loop diverged from the {reference!r} "
                f"loop for {result.label!r}{location}"
            )
    return result


def trace_set(spec) -> tuple:
    """Name of the trace set a ``RunSpec`` runs on (its per-core traces).

    Two specs with equal names simulate the same traces: a parallel run's
    depend on the app, the core count, the trace length and the seed; a
    bundle run and each of its alone runs use the bundle's traces.
    """
    scale = spec.scale
    instructions = scale.instructions_per_core + scale.warmup_instructions
    if spec.kind == "parallel":
        cores = (spec.config or SystemConfig.parallel_default()).cores
        return ("parallel", spec.workload, cores, instructions, scale.seed)
    return ("bundle", spec.workload, instructions, scale.seed)


def run_parallel_workload(
    app: str,
    scheduler: str = "fr-fcfs",
    provider_spec=None,
    config: SystemConfig | None = None,
    scale: SimScale = DEFAULT_SCALE,
    scheduler_kwargs: dict | None = None,
    label: str | None = None,
) -> SimResult:
    """Run one Table 2 parallel app (8 threads) on the Table 1/3 machine."""
    config = config or SystemConfig.parallel_default()
    instructions = scale.instructions_per_core + scale.warmup_instructions
    traces = parallel_traces(app, config.cores, instructions, seed=scale.seed)
    return _run_system(
        lambda: System(
            config,
            traces,
            scheduler=scheduler,
            scheduler_kwargs=scheduler_kwargs,
            provider_spec=provider_spec,
            label=label or f"{app}/{scheduler}",
        ),
        _max_cycles(scale),
    )


def run_multiprogrammed_workload(
    bundle: str,
    scheduler: str = "par-bs",
    provider_spec=None,
    config: SystemConfig | None = None,
    scale: SimScale = DEFAULT_SCALE,
    scheduler_kwargs: dict | None = None,
    label: str | None = None,
) -> SimResult:
    """Run one Table 4 bundle on the 4-core, 2-channel machine."""
    config = config or SystemConfig.multiprogrammed_default()
    instructions = scale.instructions_per_core + scale.warmup_instructions
    traces = bundle_traces(bundle, instructions, seed=scale.seed)
    return _run_system(
        lambda: System(
            config,
            traces,
            scheduler=scheduler,
            scheduler_kwargs=scheduler_kwargs,
            provider_spec=provider_spec,
            label=label or f"{bundle}/{scheduler}",
        ),
        _max_cycles(scale),
    )


def run_application_alone(
    bundle: str,
    slot: int,
    scheduler: str = "par-bs",
    config: SystemConfig | None = None,
    scale: SimScale = DEFAULT_SCALE,
    provider_spec=None,
    scheduler_kwargs: dict | None = None,
    label: str | None = None,
) -> SimResult:
    """One bundle application running alone (weighted-speedup denominator).

    The other cores execute empty traces, so the application has the whole
    memory system to itself — the paper's "executing alone in the baseline
    PAR-BS configuration".  The provider and scheduler kwargs must match the
    shared run being normalised, otherwise the alone baseline is simulated
    on a different machine than the one under test.
    """
    from repro.cpu.instruction import Trace

    config = config or SystemConfig.multiprogrammed_default()
    instructions = scale.instructions_per_core + scale.warmup_instructions
    traces = bundle_traces(bundle, instructions, seed=scale.seed)
    solo = []
    for core in range(config.cores):
        solo.append(traces[core] if core == slot else Trace(name="idle"))
    return _run_system(
        lambda: System(
            config,
            solo,
            scheduler=scheduler,
            scheduler_kwargs=scheduler_kwargs,
            provider_spec=provider_spec,
            label=label or f"{bundle}[{slot}]/alone",
        ),
        _max_cycles(scale),
    )


def parallel_average_speedup(
    apps,
    scheduler: str,
    provider_spec=None,
    config: SystemConfig | None = None,
    baseline_config: SystemConfig | None = None,
    scale: SimScale = DEFAULT_SCALE,
    scheduler_kwargs: dict | None = None,
    baseline_scheduler: str = "fr-fcfs",
) -> dict:
    """Per-app and average speedups of a configuration over a baseline.

    Runs fan out over the engine's worker pool and disk cache
    (:mod:`repro.sim.engine`), so repeated sweeps only pay for what
    changed.
    """
    from repro.sim.engine import RunSpec, run_many

    apps = list(apps)
    specs = []
    for app in apps:
        specs.append(
            RunSpec(
                kind="parallel",
                workload=app,
                scheduler=baseline_scheduler,
                config=baseline_config or config,
                scale=scale,
            )
        )
        specs.append(
            RunSpec(
                kind="parallel",
                workload=app,
                scheduler=scheduler,
                provider_spec=provider_spec,
                config=config,
                scale=scale,
                scheduler_kwargs=scheduler_kwargs,
            )
        )
    results = run_many(specs)
    per_app = {
        app: speedup(results[2 * i], results[2 * i + 1])
        for i, app in enumerate(apps)
    }
    avg = sum(per_app.values()) / len(per_app) if per_app else 0.0
    return {"per_app": per_app, "average": avg}
