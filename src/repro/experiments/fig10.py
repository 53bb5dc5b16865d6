"""Figure 10: MaxStallTime vs the state-of-the-art schedulers.

Compares MaxStallTime CBP, AHB (Hur/Lin), MORSE-P (24 commands/cycle,
the paper's optimistic assumption) and Crit-RL (MORSE + CBP criticality
features, Table 6).  Paper averages over FR-FCFS: MaxStallTime 1.093,
AHB ~1.016, MORSE-P 1.112, Crit-RL ~ MORSE-P.
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

SCHEDULERS = (
    ("MaxStallTime", "casras-crit",
     ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL}), None),
    ("AHB (Hur/Lin)", "ahb", None, None),
    ("MORSE-P", "morse-p", None, {"commands_checked": 24}),
    ("Crit-RL", "crit-rl",
     ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL}),
     {"commands_checked": 24}),
)


def run(apps=None, seeds=None) -> ExperimentResult:
    apps = apps or default_apps()
    seeds = seeds or default_seeds()
    speedup = mean_speedups({
        (label, app): dict(app=app, scheduler=scheduler, provider_spec=spec,
                           scheduler_kwargs=kwargs)
        for label, scheduler, spec, kwargs in SCHEDULERS
        for app in apps
    }, seeds)
    columns = ["scheduler"] + list(apps) + ["Average"]
    rows = []
    for label, _, _, _ in SCHEDULERS:
        row = {"scheduler": label}
        for app in apps:
            row[app] = speedup[label, app]
        row["Average"] = geo_or_mean(row[a] for a in apps)
        rows.append(row)
    return ExperimentResult(
        "fig10",
        "State-of-the-art scheduler comparison (speedup vs FR-FCFS)",
        columns,
        rows,
        notes=(
            "Paper: MaxStallTime 1.093, AHB ~1.016, MORSE-P 1.112, "
            "Crit-RL matches MORSE-P (criticality features are implicit)."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
