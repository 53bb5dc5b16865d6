"""Figure 4: ranked criticality speedups (CASRAS-Crit, 64-entry tables).

Compares Binary, CLPT-Consumers, BlockCount, LastStallTime, MaxStallTime
and TotalStallTime.  Paper averages over FR-FCFS: Binary 6.5%, BlockCount
8.7%, LastStallTime ~Binary, MaxStallTime 9.3%, TotalStallTime best by a
hair, CLPT-Consumers ~0.
"""

from __future__ import annotations

from repro.core.cbp import CbpMetric
from repro.experiments.common import (
    ExperimentResult,
    default_apps,
    default_seeds,
    geo_or_mean,
    mean_speedups,
)

PREDICTORS = (
    ("Binary", ("cbp", {"entries": 64, "metric": CbpMetric.BINARY})),
    ("CLPT-Consumers", ("clpt", {"ranked": True})),
    ("BlockCount", ("cbp", {"entries": 64, "metric": CbpMetric.BLOCK_COUNT})),
    ("LastStallTime", ("cbp", {"entries": 64, "metric": CbpMetric.LAST_STALL})),
    ("MaxStallTime", ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL})),
    ("TotalStallTime", ("cbp", {"entries": 64, "metric": CbpMetric.TOTAL_STALL})),
)


def run(apps=None, seeds=None, scheduler="casras-crit") -> ExperimentResult:
    apps = apps or default_apps()
    seeds = seeds or default_seeds()
    speedup = mean_speedups({
        (app, label): dict(app=app, scheduler=scheduler, provider_spec=spec)
        for app in apps
        for label, spec in PREDICTORS
    }, seeds)
    columns = ["predictor"] + list(apps) + ["Average"]
    rows = []
    for label, _ in PREDICTORS:
        row = {"predictor": label}
        for app in apps:
            row[app] = speedup[app, label]
        row["Average"] = geo_or_mean(row[a] for a in apps)
        rows.append(row)
    return ExperimentResult(
        "fig4",
        "Ranked criticality speedups vs FR-FCFS (CASRAS-Crit, 64 entries)",
        columns,
        rows,
        notes=(
            "Paper averages: Binary 1.065, BlockCount 1.087, LastStallTime "
            "~Binary, MaxStallTime 1.093, TotalStallTime best, CLPT ~1.00."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
