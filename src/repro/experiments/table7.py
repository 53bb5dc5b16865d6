"""Table 7: scheduler comparison summary.

Combines the parallel (Figure 10-style) and multiprogrammed (Figure 12-
style) averages with the analytical storage overheads and the Section
5.8.1 timing-feasibility argument (can the scheduler evaluate a command
within one DDR3-2133 command clock?).
"""

from __future__ import annotations

from repro.core.cbp import CbpMetric
from repro.experiments import fig12
from repro.experiments.common import (
    ExperimentResult,
    default_seeds,
    geo_or_mean,
    mean_speedups,
    SENSITIVITY_APPS,
)
from repro.experiments.overhead import predictor_overhead

#: Section 5.8.1 latency arithmetic, DDR3-2133: the command clock is
#: 937 ps; MORSE's CMAC access (~180 ps) + adder tree and comparator
#: (~700 ps) leave <60 ps for selection logic => infeasible.
DDR3_2133_CYCLE_PS = 937
MORSE_PIPELINE_PS = 180 + 700

SCHEDULERS = (
    ("AHB (Hur/Lin)", "ahb", None, None, "31 B", True),
    ("TCM", "tcm", None, None, "4816 B", True),
    ("MORSE-P", "morse-p", None, {"commands_checked": 24}, "128-512 kB", False),
    ("Binary CBP", "casras-crit",
     ("cbp", {"entries": 64, "metric": CbpMetric.BINARY}), None, None, True),
    ("MaxStallTime CBP", "casras-crit",
     ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL}), None, None, True),
)

_CBP_BITS = {"Binary CBP": 1, "MaxStallTime CBP": 14}


def morse_feasible_at_2133() -> bool:
    """The Section 5.8.1 conclusion, derived from the same arithmetic."""
    return MORSE_PIPELINE_PS < DDR3_2133_CYCLE_PS - 60


def run(apps=SENSITIVITY_APPS, seeds=None, bundles=("AELV", "RFGI")) -> ExperimentResult:
    seeds = seeds or default_seeds()
    multi = fig12.run(bundles=bundles, seeds=seeds)
    multi_by_label = {
        row["scheduler"]: row["Average"] for row in multi.rows
    }
    speedup = mean_speedups({
        (label, app): dict(app=app, scheduler=scheduler, provider_spec=spec,
                           scheduler_kwargs=kwargs)
        for label, scheduler, spec, kwargs, _, _ in SCHEDULERS
        for app in apps
    }, seeds)
    rows = []
    for label, scheduler, _, _, storage, scales in SCHEDULERS:
        parallel = geo_or_mean(speedup[label, app] for app in apps)
        if storage is None:
            o = predictor_overhead(_CBP_BITS[label])
            storage = f"{o['total_bytes_low']}-{o['total_bytes_high']} B"
        multi_label = {
            "MaxStallTime CBP": "MaxStallTime",
            "Binary CBP": None,
            "TCM": "TCM",
        }.get(label)
        rows.append(
            {
                "scheduler": label,
                "parallel_speedup": parallel,
                "multiprog_wspeedup": multi_by_label.get(multi_label),
                "storage": storage,
                "processor_side_info": scheduler in (
                    "morse-p", "crit-rl", "casras-crit", "crit-casras"
                ),
                "scales_to_fast_dram": scales,
            }
        )
    return ExperimentResult(
        "table7",
        "Scheduler comparison summary (paper Table 7)",
        [
            "scheduler",
            "parallel_speedup",
            "multiprog_wspeedup",
            "storage",
            "processor_side_info",
            "scales_to_fast_dram",
        ],
        rows,
        notes=(
            "MORSE-P feasibility at DDR3-2133 per Section 5.8.1 arithmetic: "
            f"{morse_feasible_at_2133()} (pipeline {MORSE_PIPELINE_PS} ps vs "
            f"{DDR3_2133_CYCLE_PS} ps cycle)."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
