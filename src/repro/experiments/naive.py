"""Section 5.1: the naive predictor-less forwarding mechanism.

Criticality is forwarded over an optimistic side channel only when a load
is already blocking the ROB head — no table, no prediction.  Paper: 3.5%
average (within noise), motivating the predictor.
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

PROVIDERS = (
    ("naive", ("naive", {})),
    ("MaxStallTime CBP", ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL})),
)


def run(apps=None, seeds=None) -> ExperimentResult:
    apps = apps or default_apps()
    seeds = seeds or default_seeds()
    speedup = mean_speedups({
        (app, label): dict(app=app, scheduler="casras-crit", provider_spec=spec)
        for app in apps
        for label, spec in PROVIDERS
    }, seeds)
    rows = [
        {
            "app": app,
            "naive": speedup[app, "naive"],
            "MaxStallTime CBP": speedup[app, "MaxStallTime CBP"],
        }
        for app in apps
    ]
    rows.append(
        {
            "app": "Average",
            "naive": geo_or_mean(r["naive"] for r in rows),
            "MaxStallTime CBP": geo_or_mean(r["MaxStallTime CBP"] for r in rows),
        }
    )
    return ExperimentResult(
        "naive",
        "Naive block-time forwarding vs predictor-based criticality",
        ["app", "naive", "MaxStallTime CBP"],
        rows,
        notes=(
            "Paper: naive forwarding gains only ~3.5% (no memory of past "
            "blocks); prediction at issue time is required."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
