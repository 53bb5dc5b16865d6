"""Figure 5: MaxStallTime table-size sweep (64/256/1024/unlimited).

Paper: the 64-entry table performs essentially identically to the
unlimited fully-associative table; fft and art slightly *prefer* small
tables (art by a large margin, via its memory-footprint anomaly).
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

TABLE_SIZES = (64, 256, 1024, None)


def run(apps=None, seeds=None) -> ExperimentResult:
    apps = apps or default_apps()
    seeds = seeds or default_seeds()
    speedup = mean_speedups({
        (entries, app): dict(
            app=app,
            scheduler="casras-crit",
            provider_spec=(
                "cbp", {"entries": entries, "metric": CbpMetric.MAX_STALL}
            ),
        )
        for entries in TABLE_SIZES
        for app in apps
    }, seeds)
    columns = ["table"] + list(apps) + ["Average"]
    rows = []
    for entries in TABLE_SIZES:
        label = "unlimited" if entries is None else f"{entries}-entry"
        row = {"table": label}
        for app in apps:
            row[app] = speedup[entries, app]
        row["Average"] = geo_or_mean(row[a] for a in apps)
        rows.append(row)
    return ExperimentResult(
        "fig5",
        "MaxStallTime CBP table-size sweep (speedup vs FR-FCFS)",
        columns,
        rows,
        notes="Paper: 64-entry within noise of unlimited (~1.093 average).",
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
