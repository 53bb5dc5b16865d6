"""Figure 7: criticality + an aggressive L2 stream prefetcher.

All configurations run with the Section 5.5 prefetcher (64 streams,
distance 64, degree 4); speedups are normalised to FR-FCFS *without*
prefetching.  Paper: FR-FCFS-Prefetch 1.084; adding the CBP still helps
(Binary +4.9% .. TotalStallTime +7.4% over the prefetching baseline).
"""

from __future__ import annotations

from repro.config import PrefetcherConfig, SystemConfig
from repro.core.cbp import CbpMetric
from repro.experiments.common import (
    ExperimentResult,
    default_apps,
    default_seeds,
    geo_or_mean,
    mean_speedups,
)

METRICS = (
    ("FR-FCFS-Prefetch", None, "fr-fcfs"),
    ("Binary", CbpMetric.BINARY, "casras-crit"),
    ("BlockCount", CbpMetric.BLOCK_COUNT, "casras-crit"),
    ("LastStallTime", CbpMetric.LAST_STALL, "casras-crit"),
    ("MaxStallTime", CbpMetric.MAX_STALL, "casras-crit"),
    ("TotalStallTime", CbpMetric.TOTAL_STALL, "casras-crit"),
)


def prefetch_config(streams: int = 64) -> SystemConfig:
    return SystemConfig(
        prefetcher=PrefetcherConfig(enabled=True, streams=streams)
    )


def run(apps=None, seeds=None) -> ExperimentResult:
    apps = apps or default_apps()
    seeds = seeds or default_seeds()
    pf = prefetch_config()
    speedup = mean_speedups({
        (label, app): dict(
            app=app,
            scheduler=scheduler,
            provider_spec=(
                None if metric is None
                else ("cbp", {"entries": 64, "metric": metric})
            ),
            config=pf,
            baseline_config=SystemConfig(),  # no prefetch baseline
        )
        for label, metric, scheduler in METRICS
        for app in apps
    }, seeds)
    columns = ["config"] + list(apps) + ["Average"]
    rows = []
    for label, _, _ in METRICS:
        row = {"config": label}
        for app in apps:
            row[app] = speedup[label, app]
        row["Average"] = geo_or_mean(row[a] for a in apps)
        rows.append(row)
    return ExperimentResult(
        "fig7",
        "Speedups with an L2 stream prefetcher (vs FR-FCFS, no prefetch)",
        columns,
        rows,
        notes=(
            "Paper: FR-FCFS-Prefetch 1.084; CBP metrics stack a further "
            "+4.9%..+7.4% on top."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
