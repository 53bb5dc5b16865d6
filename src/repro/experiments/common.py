"""Shared experiment machinery: run cache, seed averaging, result tables.

Each figure lists its simulations first and hands them to
:func:`cached_runs` as one batch, which simulates them on the engine's
worker pool (``REPRO_JOBS``).  Results are memoised process-wide, so the
FR-FCFS baseline an experiment needs is computed once even when several
figures share it.  Scales are environment-tunable for the benchmark harness:

* ``REPRO_INSTRUCTIONS`` — instructions per core (default 12,000);
* ``REPRO_SEEDS``        — seeds averaged per data point (default 1);
* ``REPRO_APPS``         — comma-separated subset of parallel apps.
"""

from __future__ import annotations

import os
import statistics

from repro.config import SimScale, SystemConfig
from repro.sim import engine, runner
from repro.sim.engine import RunSpec
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


def _spec_for(kind, workload, scheduler="fr-fcfs", provider_spec=None,
              config=None, seed=1, scheduler_kwargs=None, slot=None,
              scale=None) -> RunSpec:
    """The ``RunSpec`` of one request; ``scale`` defaults to
    :func:`experiment_scale` at ``seed``."""
    return RunSpec(
        kind=kind,
        workload=workload,
        scheduler=scheduler,
        provider_spec=provider_spec,
        config=config,
        scale=scale or experiment_scale(seed),
        scheduler_kwargs=scheduler_kwargs,
        slot=slot,
    )


def _memo_key(spec: RunSpec) -> tuple:
    return (
        spec.kind,
        spec.workload,
        spec.scheduler,
        _provider_key(spec.provider_spec),
        spec.config,  # frozen and hashable: every field is part of the key
        spec.scale,
        tuple(sorted((spec.scheduler_kwargs or {}).items())),
        spec.slot,
    )


def cached_runs(requests) -> list:
    """Run (or fetch) a figure's simulations as one batch.

    ``requests`` are dicts of :func:`cached_run` keyword arguments
    (``kind`` and ``workload`` required), plus an optional ``scale`` in
    place of the experiment scale at ``seed``.  The requests missing from
    the in-memory memo go to :func:`repro.sim.engine.run_many` together,
    so they share its worker pool (``REPRO_JOBS``), its disk cache and
    its one trace set per process; every result it returns is memoised.
    Returns the results in request order.  A run that hit the livelock
    cap raises ``RuntimeError`` as soon as the batch returns, instead of
    entering a figure, and is not memoised.
    """
    specs = [_spec_for(**request) for request in requests]
    keys = [_memo_key(spec) for spec in specs]
    missing = {}
    for key, spec in zip(keys, specs):
        if key not in _RUN_CACHE:
            missing.setdefault(key, spec)
    if missing:
        batch = list(missing.values())
        for key, spec, result in zip(missing, batch, engine.run_many(batch)):
            if result.hit_max_cycles:
                # A wedged run stops at the cap: its cycle count measures
                # the cap, not the machine, so no figure may average it.
                raise RuntimeError(runner.livelock_message(
                    result.label, result.cycles, spec.scale
                ))
            _RUN_CACHE[key] = result
    return [_RUN_CACHE[key] for key in keys]


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
    """Run (or fetch) one simulation: a batch of one (:func:`cached_runs`).

    ``kind`` is a ``RunSpec`` kind ("parallel", "bundle", "alone" or
    "scenario").  Misses in the in-memory memo fall through to the
    engine's content-addressed disk cache before simulating (see
    :mod:`repro.sim.engine`).
    """
    return cached_runs([dict(
        kind=kind, workload=workload, scheduler=scheduler,
        provider_spec=provider_spec, config=config, seed=seed,
        scheduler_kwargs=scheduler_kwargs, slot=slot,
    )])[0]


def _speedup_runs(seed, app, scheduler, provider_spec, config=None,
                  scheduler_kwargs=None, baseline_scheduler="fr-fcfs",
                  baseline_config=None, baseline_provider=None):
    """The baseline and configuration requests of one speedup cell."""
    base = dict(
        kind="parallel", workload=app, scheduler=baseline_scheduler,
        provider_spec=baseline_provider, config=baseline_config or config,
        seed=seed,
    )
    conf = dict(
        kind="parallel", workload=app, scheduler=scheduler,
        provider_spec=provider_spec, config=config, seed=seed,
        scheduler_kwargs=scheduler_kwargs,
    )
    return base, conf


def speedups(cells) -> list[float]:
    """Speedups of many configurations over their baselines, as one batch.

    Each cell is a dict of :func:`mean_speedup` keyword arguments, with
    one ``seed`` in place of ``seeds`` (``seed``, ``app``, ``scheduler``
    and ``provider_spec`` required).  Returns each cell's speedup, in
    cell order.  The batch lists every baseline before any
    configuration.
    """
    pairs = [_speedup_runs(**cell) for cell in cells]
    runs = cached_runs([base for base, _ in pairs] + [conf for _, conf in pairs])
    return [
        base.cycles / conf.cycles
        for base, conf in zip(runs[:len(pairs)], runs[len(pairs):])
    ]


def mean_speedups(cells, seeds=None) -> dict:
    """Seed-averaged speedups of many configurations, as one batch.

    ``cells`` maps any key to a dict of :func:`mean_speedup` keyword
    arguments other than ``seeds`` (``app``, ``scheduler`` and
    ``provider_spec`` required); returns each key's speedup.  The batch
    runs seed by seed, cells in order.
    """
    seeds = seeds or default_seeds()
    ratios = speedups(
        dict(cell, seed=seed) for seed in seeds for cell in cells.values()
    )
    # ``ratios`` is seed-major: cell i's value at each seed, in seed order.
    return {
        key: statistics.mean(ratios[i::len(cells)])
        for i, key in enumerate(cells)
    }


def mean_speedup(app, scheduler, provider_spec, config=None, seeds=None,
                 scheduler_kwargs=None, baseline_scheduler="fr-fcfs",
                 baseline_config=None, baseline_provider=None) -> float:
    """Seed-averaged speedup of a configuration over its baseline."""
    return mean_speedups({app: dict(
        app=app, scheduler=scheduler, provider_spec=provider_spec,
        config=config, scheduler_kwargs=scheduler_kwargs,
        baseline_scheduler=baseline_scheduler,
        baseline_config=baseline_config,
        baseline_provider=baseline_provider,
    )}, seeds)[app]


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
