"""Figure 11: MORSE-P restricted to N oldest ready commands per cycle.

The paper sweeps N = 6..24 (each extra evaluated command costs replicated
CMAC ways in hardware); performance falls as fewer commands can be
examined.  Reported against FR-FCFS.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    default_seeds,
    geo_or_mean,
    mean_speedups,
    SENSITIVITY_APPS,
)

COMMAND_COUNTS = (6, 9, 12, 15, 18, 21, 24)


def run(apps=SENSITIVITY_APPS, seeds=None) -> ExperimentResult:
    seeds = seeds or default_seeds()
    speedup = mean_speedups({
        (n, app): dict(app=app, scheduler="morse-p", provider_spec=None,
                       scheduler_kwargs={"commands_checked": n})
        for n in COMMAND_COUNTS
        for app in apps
    }, seeds)
    rows = [
        {
            "commands_checked": n,
            "speedup": geo_or_mean(speedup[n, app] for app in apps),
        }
        for n in COMMAND_COUNTS
    ]
    return ExperimentResult(
        "fig11",
        "MORSE-P vs number of ready commands evaluated per DRAM cycle",
        ["commands_checked", "speedup"],
        rows,
        notes=(
            "Paper shape: monotone non-decreasing in N; matching "
            "MaxStallTime requires ~15 commands (80 kB of CMAC per "
            "controller)."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
