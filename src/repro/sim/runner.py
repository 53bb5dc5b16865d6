"""The one simulation body: :func:`run_spec` runs any ``RunSpec``.

The engine's ``run_one`` and the one-spec wrappers below (for examples,
tools and tests) call it; it is the only place a ``System`` is built.

Environment knobs (also settable via ``python -m repro`` flags):

* ``REPRO_ENGINE``        — loop implementation: ``naive`` (cycle by
  cycle, the reference and the default, its cycles in the event kernel's
  compiled loop where the kernels build) or ``batched`` (wake-driven
  windows);
* ``REPRO_VERIFY_SKIP=1`` — run every simulation twice (the selected
  engine plus the other one) and assert bit-identical results.
"""

from __future__ import annotations

import os
from functools import partial

from repro.config import DEFAULT_SCALE, SimScale, SystemConfig
from repro.cpu.instruction import Trace
from repro.sim.engine import RunSpec
from repro.sim.stats import SimResult, result_fingerprint, speedup
from repro.sim.system import System
from repro.util import hostclock
from repro.workloads.multiprog import bundle_traces
from repro.workloads.parallel import parallel_traces
from repro.workloads.scenario import check_roles, scenario_traces

#: Safety cap: a run exceeding this many cycles per trace instruction is
#: treated as a livelock and aborted (surfaces as ``hit_max_cycles``).
_CYCLE_BUDGET_PER_INSTRUCTION = 60


def _max_cycles(scale: SimScale) -> int:
    total = scale.instructions_per_core + scale.warmup_instructions
    return max(200_000, total * _CYCLE_BUDGET_PER_INSTRUCTION)


def _env_flag(name: str) -> bool:
    return os.environ.get(name, "") not in ("", "0")


def livelock_message(label: str, cycles: int, scale: SimScale) -> str:
    """How every caller reports a run that stopped at the livelock cap
    (``hit_max_cycles``): its cycle count measures the cap, not the
    machine."""
    return (
        f"{label}: stopped at cycle {cycles}, the livelock cap of "
        f"{_max_cycles(scale)} cycles"
    )


def _run_system(make_system, max_cycles: int) -> SimResult:
    """Run a system built by ``make_system()``, honouring the env knobs.

    Wall-clock time is recorded on the result; with ``REPRO_VERIFY_SKIP``
    a second system is built and run on the other engine (``batched``
    when the engine under test is ``naive``, the default, else
    ``naive``) and the two results are cross-checked for bit-identity.
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
        # `repro watch` tailing the directory).
        saved_stream = os.environ.pop("REPRO_STREAM_DIR", None)
        try:
            other = make_system().run(
                max_cycles=max_cycles, engine=reference
            )
        finally:
            if saved_stream is not None:
                os.environ["REPRO_STREAM_DIR"] = saved_stream
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


def _workload(spec):
    """What ``spec`` simulates: ``(config, trace set, make_traces, label)``.

    The one branch on ``RunSpec.kind``: the machine (``spec.config`` or
    the kind's default), the name of the trace set (:func:`trace_set`),
    a builder of the per-core traces, each ``instructions_per_core +
    warmup_instructions`` long, and the default label.  Raises
    ``ValueError`` for a spec no kind can run.
    """
    kind, name, seed = spec.kind, spec.workload, spec.scale.seed
    length = spec.scale.instructions_per_core + spec.scale.warmup_instructions
    label = f"{name}/{spec.scheduler}"
    if kind in ("parallel", "scenario"):
        config = spec.config or SystemConfig.parallel_default()
        if kind == "parallel":
            traces = partial(parallel_traces, name, config.cores, length, seed)
            return config, (kind, name, config.cores, length, seed), traces, label
        check_roles(name, config.cores)
        traces = partial(scenario_traces, name, length)
        return config, (kind, name, length), traces, label
    if kind not in ("bundle", "alone"):
        raise ValueError(f"unknown run kind {kind!r}")
    config = spec.config or SystemConfig.multiprogrammed_default()
    traces = partial(bundle_traces, name, length, seed)
    if kind == "alone":
        if spec.slot is None:
            raise ValueError("kind='alone' requires slot")
        traces = partial(_alone, traces, spec.slot, config.cores)
        label = f"{name}[{spec.slot}]/alone"
    return config, ("bundle", name, length, seed), traces, label


def _alone(bundle, slot: int, cores: int) -> list:
    """Trace ``slot`` of ``bundle()`` with every other core idle, so the
    application has the whole memory system to itself."""
    traces = bundle()
    return [
        traces[core] if core == slot else Trace(name="idle")
        for core in range(cores)
    ]


def trace_set(spec) -> tuple:
    """Name of the trace set a ``RunSpec`` runs on (its per-core traces):
    specs with equal names simulate the same traces, as a bundle run and
    each of its alone runs do."""
    return _workload(spec)[1]


def run_spec(spec) -> SimResult:
    """Simulate one ``RunSpec`` in process, uncached, under the livelock
    cap of :func:`_max_cycles`."""
    config, _, make_traces, label = _workload(spec)
    traces = make_traces()
    return _run_system(
        lambda: System(
            config,
            traces,
            scheduler=spec.scheduler,
            scheduler_kwargs=spec.scheduler_kwargs,
            provider_spec=spec.provider_spec,
            label=spec.label or label,
        ),
        _max_cycles(spec.scale),
    )


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
    return run_spec(RunSpec(
        "parallel", app, scheduler, provider_spec, config, scale,
        scheduler_kwargs, label=label,
    ))


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
    return run_spec(RunSpec(
        "bundle", bundle, scheduler, provider_spec, config, scale,
        scheduler_kwargs, label=label,
    ))


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
    return run_spec(RunSpec(
        "alone", bundle, scheduler, provider_spec, config, scale,
        scheduler_kwargs, slot=slot, label=label,
    ))


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
    from repro.sim.engine import run_many

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
