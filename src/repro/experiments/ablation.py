"""Ablation studies (reproduction extensions, beyond the paper's figures).

1. **Counter modes** — the paper's Section 5.3 aside: saturating and
   probabilistic (Riley & Zilles) counters in place of full-width ones.
   Expectation: saturation at Table 5's widths is performance-neutral;
   probabilistic compression costs little.
2. **Excluded predictors** — the Section 2 exclusion of Fields-style
   long-latency criticality, reproduced quantitatively: the Fields-like
   predictor marks essentially *all* DRAM loads critical (no
   differentiation), so its speedup collapses toward FR-FCFS.
"""

from __future__ import annotations

from repro.core.cbp import CbpMetric
from repro.experiments.common import (
    ExperimentResult,
    default_seeds,
    geo_or_mean,
    mean_speedups,
    SENSITIVITY_APPS,
)

CONFIGS = (
    ("MaxStall / full counters", "casras-crit",
     ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL}), None),
    ("MaxStall / saturating", "casras-crit",
     ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL,
              "counter": "saturating"}), None),
    ("MaxStall / probabilistic", "casras-crit",
     ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL,
              "counter": "probabilistic"}), None),
    ("Fields-like (excluded)", "casras-crit", ("fields", {}), None),
)


def run(apps=SENSITIVITY_APPS, seeds=None) -> ExperimentResult:
    seeds = seeds or default_seeds()
    speedup = mean_speedups({
        (label, app): dict(app=app, scheduler=scheduler, provider_spec=spec,
                           scheduler_kwargs=kwargs)
        for label, scheduler, spec, kwargs in CONFIGS
        for app in apps
    }, seeds)
    rows = [
        {
            "config": label,
            "speedup": geo_or_mean(speedup[label, app] for app in apps),
        }
        for label, _, _, _ in CONFIGS
    ]
    return ExperimentResult(
        "ablation",
        "Counter modes and excluded predictors",
        ["config", "speedup"],
        rows,
        notes=(
            "Counter compression should be ~neutral; the Fields-like "
            "predictor should not beat FR-FCFS (the paper's exclusion)."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
