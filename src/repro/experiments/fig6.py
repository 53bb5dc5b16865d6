"""Figure 6: average L2-miss (DRAM-serviced) load latency, split into
critical and non-critical loads, under FR-FCFS / Binary / MaxStallTime.

The FR-FCFS bars annotate loads with the 64-entry CBP but do not act on
the annotation, exactly as the paper's figure requires.  Expected shape:
critical latency drops under the criticality schedulers; non-critical
latency holds or rises (the scheduler exploits slack).
"""

from __future__ import annotations

from repro.core.cbp import CbpMetric
from repro.experiments.common import (
    ExperimentResult,
    cached_runs,
    default_apps,
    default_seeds,
    geo_or_mean,
)

CONFIGS = (
    ("FR-FCFS", "fr-fcfs", CbpMetric.MAX_STALL),
    ("Binary", "casras-crit", CbpMetric.BINARY),
    ("MaxStallTime", "casras-crit", CbpMetric.MAX_STALL),
)


def run(apps=None, seeds=None) -> ExperimentResult:
    apps = apps or default_apps()
    seeds = seeds or default_seeds()
    columns = ["app"]
    for label, _s, _m in CONFIGS:
        columns += [f"{label} crit", f"{label} noncrit"]
    results = iter(cached_runs(
        dict(kind="parallel", workload=app, scheduler=scheduler,
             provider_spec=("cbp", {"entries": 64, "metric": metric}),
             seed=seed)
        for app in apps
        for _, scheduler, metric in CONFIGS
        for seed in seeds
    ))
    rows = []
    for app in apps:
        row = {"app": app}
        for label, _, _ in CONFIGS:
            crit_vals, noncrit_vals = [], []
            for _ in seeds:
                result = next(results)
                crit_vals.append(result.hierarchy.mean_latency(True))
                noncrit_vals.append(result.hierarchy.mean_latency(False))
            row[f"{label} crit"] = geo_or_mean(crit_vals)
            row[f"{label} noncrit"] = geo_or_mean(noncrit_vals)
        rows.append(row)
    avg = {"app": "Average"}
    for c in columns[1:]:
        avg[c] = geo_or_mean(r[c] for r in rows)
    rows.append(avg)
    return ExperimentResult(
        "fig6",
        "L2-miss load latency (CPU cycles), critical vs non-critical",
        columns,
        rows,
        notes=(
            "Paper shape: criticality schedulers cut critical-load latency; "
            "non-critical latency holds or rises (slack exploited)."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
