"""Section 5.3.2: periodic CBP table reset.

Sweeps reset intervals on the training set (fft, mg, radix), then applies
the best interval to the test set (the remaining six apps).  Paper: 100K
cycles is best for the 64-entry table; reset lifts Binary from 7.5% to
9.0% on the test set; unlimited tables are insensitive (criticality
information is useful long-term).
"""

from __future__ import annotations

from repro.core.cbp import CbpMetric
from repro.experiments.common import (
    ExperimentResult,
    default_seeds,
    geo_or_mean,
    mean_speedups,
)
from repro.workloads.parallel import PARALLEL_APP_NAMES

TRAIN_APPS = ("fft", "mg", "radix")
TEST_APPS = tuple(a for a in PARALLEL_APP_NAMES if a not in TRAIN_APPS)
INTERVALS = (None, 5_000, 10_000, 50_000, 100_000, 500_000, 1_000_000)


def _speedups_over_apps(apps, settings, metric, seeds):
    """Per ``(interval, entries)`` setting, the average speedup over
    ``apps``; all the settings' runs go in one batch."""
    speedup = mean_speedups({
        (interval, entries, app): dict(
            app=app,
            scheduler="casras-crit",
            provider_spec=("cbp", {"entries": entries, "metric": metric,
                                   "reset_interval": interval}),
        )
        for interval, entries in settings
        for app in apps
    }, seeds)
    return {
        (interval, entries): geo_or_mean(
            speedup[interval, entries, app] for app in apps
        )
        for interval, entries in settings
    }


def run(seeds=None, metric=CbpMetric.BINARY) -> ExperimentResult:
    seeds = seeds or default_seeds()
    # The test set's interval is the training set's best: two batches.
    train = _speedups_over_apps(
        TRAIN_APPS, [(interval, 64) for interval in INTERVALS], metric, seeds
    )
    rows = []
    best_interval, best_value = None, -1.0
    for interval in INTERVALS:
        value = train[interval, 64]
        rows.append(
            {
                "set": "train",
                "interval": "none" if interval is None else interval,
                "speedup_64": value,
                "speedup_unlimited": None,
            }
        )
        if interval is not None and value > best_value:
            best_interval, best_value = interval, value
    # Test set: no-reset vs best interval, finite and unlimited tables.
    test = _speedups_over_apps(
        TEST_APPS,
        [(interval, entries)
         for interval in (None, best_interval) for entries in (64, None)],
        metric,
        seeds,
    )
    for interval in (None, best_interval):
        rows.append(
            {
                "set": "test",
                "interval": "none" if interval is None else interval,
                "speedup_64": test[interval, 64],
                "speedup_unlimited": test[interval, None],
            }
        )
    return ExperimentResult(
        "reset",
        f"CBP table-reset interval study ({metric.value})",
        ["set", "interval", "speedup_64", "speedup_unlimited"],
        rows,
        notes=(
            "Paper: 100K-cycle reset best on the training set; lifts the "
            "64-entry Binary test-set speedup to the unlimited table's; "
            "resetting the unlimited table changes nothing."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
