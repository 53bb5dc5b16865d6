"""Figure 1: ROB-head blocking under FR-FCFS.

Left panel: percentage of dynamic (long-latency) loads that block at the
ROB head.  Right panel: percentage of processor cycles those loads spend
blocking the head.  Paper averages: 6.1% of loads, 48.6% of cycles.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    cached_runs,
    default_apps,
    default_seeds,
    geo_or_mean,
)


def run(apps=None, seeds=None) -> ExperimentResult:
    apps = apps or default_apps()
    seeds = seeds or default_seeds()
    results = iter(cached_runs(
        dict(kind="parallel", workload=app, seed=seed)
        for app in apps
        for seed in seeds
    ))
    rows = []
    for app in apps:
        load_fracs, cycle_fracs = [], []
        for _ in seeds:
            result = next(results)
            load_fracs.append(result.blocking_load_fraction())
            cycle_fracs.append(result.blocked_cycle_fraction())
        rows.append(
            {
                "app": app,
                "blocking_loads_pct": 100 * geo_or_mean(load_fracs),
                "blocked_cycles_pct": 100 * geo_or_mean(cycle_fracs),
            }
        )
    rows.append(
        {
            "app": "Average",
            "blocking_loads_pct": geo_or_mean(r["blocking_loads_pct"] for r in rows),
            "blocked_cycles_pct": geo_or_mean(r["blocked_cycles_pct"] for r in rows),
        }
    )
    return ExperimentResult(
        "fig1",
        "Dynamic loads blocking the ROB head / cycles blocked (FR-FCFS)",
        ["app", "blocking_loads_pct", "blocked_cycles_pct"],
        rows,
        notes="Paper averages: 6.1% of dynamic loads, 48.6% of cycles.",
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
