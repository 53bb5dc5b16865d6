"""Figure 8: rank sweep for DDR3-1600 and DDR3-2133.

Speedups relative to a *single-rank* FR-FCFS system of the same device.
Paper: fewer ranks => more contention => larger criticality gains (e.g.
14.6% for MaxStallTime on single-rank DDR3-2133).
"""

from __future__ import annotations

from itertools import islice

from repro.config import DDR3_1600, DDR3_2133, DramConfig, SystemConfig
from repro.core.cbp import CbpMetric
from repro.experiments.common import (
    ExperimentResult,
    default_seeds,
    geo_or_mean,
    speedups,
    SENSITIVITY_APPS,
)

DEVICES = (DDR3_1600, DDR3_2133)
RANKS = (1, 2, 4)
CONFIGS = (
    ("FR-FCFS", "fr-fcfs", None),
    ("Binary", "casras-crit", ("cbp", {"entries": 64, "metric": CbpMetric.BINARY})),
    ("MaxStallTime", "casras-crit",
     ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL})),
)


def _system(timings, ranks) -> SystemConfig:
    return SystemConfig(dram=DramConfig(timings=timings, ranks_per_channel=ranks))


def run(apps=SENSITIVITY_APPS, seeds=None) -> ExperimentResult:
    seeds = seeds or default_seeds()
    ratios = iter(speedups(
        dict(
            app=app, scheduler=scheduler, provider_spec=spec, seed=seed,
            config=_system(timings, ranks),
            # Baseline: single-rank FR-FCFS on the same device.
            baseline_config=_system(timings, 1),
        )
        for timings in DEVICES
        for ranks in RANKS
        for _, scheduler, spec in CONFIGS
        for app in apps
        for seed in seeds
    ))
    rows = []
    for timings in DEVICES:
        for ranks in RANKS:
            row = {"device": timings.name, "ranks": ranks}
            for label, _, _ in CONFIGS:
                row[label] = geo_or_mean(islice(ratios, len(apps) * len(seeds)))
            rows.append(row)
    return ExperimentResult(
        "fig8",
        "Rank sweep (speedup vs single-rank FR-FCFS, per device)",
        ["device", "ranks", "FR-FCFS", "Binary", "MaxStallTime"],
        rows,
        notes=(
            "Paper shape: criticality's edge over FR-FCFS grows as ranks "
            "shrink (single-rank DDR3-2133 MaxStallTime ~ +14.6%)."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
