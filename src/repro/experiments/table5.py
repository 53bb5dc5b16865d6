"""Table 5: criticality counter widths.

Runs every CBP metric with an unlimited table, records the maximum value
ever written, and derives the counter width in bits.  Paper: Binary 1 b,
BlockCount 21 b, Last/MaxStallTime 14 b, TotalStallTime 27 b (at 500M
instructions per core; widths shrink with trace length, which the notes
call out).
"""

from __future__ import annotations

from repro.core.cbp import CbpMetric, CommitBlockPredictor
from repro.experiments.common import (
    ExperimentResult,
    cached_runs,
    default_apps,
    default_seeds,
)

PAPER_WIDTHS = {
    "Binary": 1,
    "BlockCount": 21,
    "LastStallTime": 14,
    "MaxStallTime": 14,
    "TotalStallTime": 27,
}


def run(apps=None, seeds=None) -> ExperimentResult:
    apps = apps or default_apps()
    seeds = seeds or default_seeds()
    results = cached_runs(
        dict(kind="parallel", workload=app, scheduler="casras-crit",
             provider_spec=("cbp", {"entries": None, "metric": metric}),
             seed=seed)
        for metric in CbpMetric
        for app in apps
        for seed in seeds
    )
    per_metric = len(apps) * len(seeds)
    rows = []
    for i, metric in enumerate(CbpMetric):
        max_observed = 0
        for result in results[i * per_metric:(i + 1) * per_metric]:
            for provider in result.providers:
                max_observed = max(max_observed, provider.cbp.max_observed)
        rows.append(
            {
                "metric": metric.value,
                "max_observed": max_observed,
                "width_bits": CommitBlockPredictor.counter_width(max_observed),
                "paper_width_bits": PAPER_WIDTHS[metric.value],
            }
        )
    return ExperimentResult(
        "table5",
        "Criticality counter widths (worst observed value per metric)",
        ["metric", "max_observed", "width_bits", "paper_width_bits"],
        rows,
        notes=(
            "Widths scale with simulated instruction count; the paper runs "
            "500M instructions per core, so absolute widths differ while "
            "the ordering (Binary < Last/Max < BlockCount/Total) holds."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
