"""Shared experiment machinery: run cache, seed averaging, result tables.

Simulation runs are memoised process-wide, so the FR-FCFS baseline an
experiment needs is computed once even when several figures share it.
Scales are environment-tunable for the benchmark harness:

* ``REPRO_INSTRUCTIONS`` — instructions per core (default 12,000);
* ``REPRO_SEEDS``        — seeds averaged per data point (default 1);
* ``REPRO_APPS``         — comma-separated subset of parallel apps.
"""

from __future__ import annotations

import os
import statistics

from repro.config import SimScale, SystemConfig
from repro.sim import runner
from repro.sim.engine import RunSpec, run_one_cached
from repro.workloads.parallel import PARALLEL_APP_NAMES


def experiment_scale(seed: int = 1) -> SimScale:
    instructions = int(os.environ.get("REPRO_INSTRUCTIONS", "12000"))
    warmup = max(500, instructions // 10)
    return SimScale(
        instructions_per_core=instructions, warmup_instructions=warmup, seed=seed
    )


def default_seeds() -> tuple[int, ...]:
    n = int(os.environ.get("REPRO_SEEDS", "1"))
    return tuple(range(1, n + 1))


def default_apps() -> tuple[str, ...]:
    env = os.environ.get("REPRO_APPS")
    if env:
        return tuple(a.strip() for a in env.split(",") if a.strip())
    return PARALLEL_APP_NAMES


#: Subset used by the sensitivity sweeps (Figures 8, 9, 11), which the
#: paper reports as averages only.
SENSITIVITY_APPS = ("art", "fft", "mg", "swim")

_RUN_CACHE: dict = {}


def clear_run_cache() -> None:
    _RUN_CACHE.clear()


def _provider_key(spec):
    if spec is None or spec == "null":
        return None
    kind, kwargs = spec
    return (kind, tuple(sorted((k, str(v)) for k, v in kwargs.items())))


def cached_run(
    kind: str,
    workload: str,
    scheduler: str = "fr-fcfs",
    provider_spec=None,
    config: SystemConfig | None = None,
    seed: int = 1,
    scheduler_kwargs: dict | None = None,
    slot: int | None = None,
):
    """Run (or fetch) one simulation.

    ``kind`` is "parallel", "bundle", or "alone".  Misses in the in-memory
    memo fall through to the engine's content-addressed disk cache before
    simulating (see :mod:`repro.sim.engine`).  A run that hit the livelock
    cap raises ``RuntimeError`` instead of entering a figure.
    """
    key = (
        kind,
        workload,
        scheduler,
        _provider_key(provider_spec),
        config,  # frozen and hashable: every field is part of the key
        seed,
        tuple(sorted((scheduler_kwargs or {}).items())),
        slot,
        int(os.environ.get("REPRO_INSTRUCTIONS", "12000")),
    )
    result = _RUN_CACHE.get(key)
    if result is not None:
        return result
    spec = _spec_for(kind, workload, scheduler, provider_spec, config, seed,
                     scheduler_kwargs, slot)
    result = run_one_cached(spec)
    if result.hit_max_cycles:
        # A wedged run stops at the cap: its cycle count measures the
        # cap, not the machine, so no figure may average it.
        raise RuntimeError(
            f"{result.label}: stopped at cycle {result.cycles}, the "
            f"livelock cap of {runner._max_cycles(spec.scale)} cycles"
        )
    _RUN_CACHE[key] = result
    return result


def _spec_for(kind, workload, scheduler, provider_spec, config, seed,
              scheduler_kwargs, slot) -> RunSpec:
    if kind not in ("parallel", "bundle", "alone"):
        raise ValueError(f"unknown run kind {kind!r}")
    return RunSpec(
        kind=kind,
        workload=workload,
        scheduler=scheduler,
        provider_spec=provider_spec,
        config=config,
        scale=experiment_scale(seed),
        scheduler_kwargs=scheduler_kwargs,
        slot=slot,
    )


def prefetch_runs(requests) -> None:
    """Warm the cache for a batch of upcoming :func:`cached_run` calls.

    ``requests`` are dicts of ``cached_run`` keyword arguments (``kind``
    and ``workload`` required).  Misses are simulated concurrently on the
    engine's worker pool and land in the disk cache, so the figure's
    subsequent serial ``cached_run`` calls all hit.  Purely an
    optimisation: results are identical with or without prefetching.
    """
    from repro.sim.engine import run_many

    if os.environ.get("REPRO_NO_CACHE", "") not in ("", "0"):
        return  # nowhere to park the results: prefetching would double work
    specs = [
        _spec_for(
            req["kind"],
            req["workload"],
            req.get("scheduler", "fr-fcfs"),
            req.get("provider_spec"),
            req.get("config"),
            req.get("seed", 1),
            req.get("scheduler_kwargs"),
            req.get("slot"),
        )
        for req in requests
    ]
    run_many(specs)


def mean_speedup(app, scheduler, provider_spec, config=None, seeds=None,
                 scheduler_kwargs=None, baseline_scheduler="fr-fcfs",
                 baseline_config=None, baseline_provider=None) -> float:
    """Seed-averaged speedup of a configuration over its baseline."""
    seeds = seeds or default_seeds()
    values = []
    for seed in seeds:
        base = cached_run(
            "parallel", app, baseline_scheduler,
            baseline_provider, baseline_config or config, seed,
        )
        conf = cached_run(
            "parallel", app, scheduler, provider_spec, config, seed,
            scheduler_kwargs=scheduler_kwargs,
        )
        values.append(base.cycles / conf.cycles)
    return statistics.mean(values)


class ExperimentResult:
    """Rows of one regenerated figure/table plus a plain-text renderer."""

    def __init__(self, experiment_id: str, title: str, columns, rows,
                 notes: str = ""):
        self.experiment_id = experiment_id
        self.title = title
        self.columns = list(columns)
        self.rows = [dict(r) for r in rows]
        self.notes = notes

    def table(self) -> str:
        widths = {
            c: max(len(str(c)), *(len(_fmt(r.get(c))) for r in self.rows))
            if self.rows else len(str(c))
            for c in self.columns
        }
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append("  ".join(str(c).ljust(widths[c]) for c in self.columns))
        for row in self.rows:
            lines.append(
                "  ".join(_fmt(row.get(c)).ljust(widths[c]) for c in self.columns)
            )
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)

    def column(self, name):
        return [row.get(name) for row in self.rows]

    def __repr__(self):
        return f"ExperimentResult({self.experiment_id}, rows={len(self.rows)})"


def _fmt(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)


def geo_or_mean(values) -> float:
    """Arithmetic mean, as the paper averages speedups."""
    values = list(values)
    return sum(values) / len(values) if values else 0.0
