"""Mechanism validation (reproduction extension, not a paper figure).

A controlled heterogeneous scenario that isolates the proposal's core
economics: latency-bound cores issuing sparse serial misses share the
memory system with bandwidth-bound cores streaming continuously.
Criticality-aware scheduling should accelerate the latency-bound cores
substantially while costing the bandwidth-bound cores almost nothing
(their finish time is total-bus-backlog-bound, not order-bound).  The
traces are the ``scenario`` run kind's roles
(:mod:`repro.workloads.scenario`).

This is the regime in which the paper's 9-14% gains arise; at the scaled-
down synthetic-app operating point the effect is strongly attenuated (see
EXPERIMENTS.md), so this experiment demonstrates the machinery delivers
the full-size effect when the workload presents the required structure.
"""

from __future__ import annotations

import statistics

from repro.config import DramConfig, SimScale, SystemConfig
from repro.experiments.common import (
    ExperimentResult,
    cached_runs,
    experiment_scale,
)

SCHEDULERS = ("fr-fcfs", "casras-crit", "crit-casras")


def _role_speedup(base, res, cores: slice) -> float | None:
    """Mean finish-time speedup over one role's cores; None when the
    scenario gives that role no core."""
    before, after = base.finish_cycles[cores], res.finish_cycles[cores]
    if not before:
        return None
    return statistics.mean(before) / statistics.mean(after)


def run(latency_cores: int = 1, cores: int = 2, instructions: int | None = None,
        channels: int = 1) -> ExperimentResult:
    # This two-core scenario is cheap, and the predictor needs a few
    # thousand walker misses to stabilise: use a fixed floor rather than
    # the (possibly small) REPRO_INSTRUCTIONS experiment scale.
    n = instructions or max(24_000, experiment_scale().instructions_per_core)
    roles = "L" * latency_cores + "S" * (cores - latency_cores)
    config = SystemConfig(cores=cores, dram=DramConfig(channels=channels))
    scale = SimScale(instructions_per_core=n, warmup_instructions=0)
    results = dict(zip(SCHEDULERS, cached_runs(
        dict(kind="scenario", workload=roles, scheduler=scheduler,
             provider_spec=("cbp", {"entries": None}), config=config,
             scale=scale)
        for scheduler in SCHEDULERS
    )))
    base = results["fr-fcfs"]
    lat = slice(0, latency_cores)
    bw = slice(latency_cores, config.cores)
    rows = []
    for scheduler in SCHEDULERS[1:]:
        res = results[scheduler]
        rows.append(
            {
                "scheduler": scheduler,
                "latency_core_speedup": _role_speedup(base, res, lat),
                "bandwidth_core_speedup": _role_speedup(base, res, bw),
            }
        )
    return ExperimentResult(
        "mechanism",
        "Controlled heterogeneous validation of criticality scheduling",
        ["scheduler", "latency_core_speedup", "bandwidth_core_speedup"],
        rows,
        notes=(
            "Crit-CASRAS preempts the hog's row-hit train (critical RAS > "
            "non-critical CAS) and accelerates the latency-bound core "
            "dramatically at small cost to the bandwidth hog; CASRAS-Crit "
            "cannot preempt an active train.  The two arrangements, equal "
            "at the paper's operating point, differ sharply here."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
