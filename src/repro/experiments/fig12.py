"""Figure 12: multiprogrammed weighted speedups over PAR-BS.

Four-application Table 4 bundles on the 4-core / 2-channel machine.
Weighted speedup normalises each application's IPC to its alone-run IPC
under baseline PAR-BS.  Paper: FR-FCFS ~1.00-1.02, TCM +1.9%,
MaxStallTime +6.0%, TCM+MaxStallTime ~ TCM-or-better but not above
MaxStallTime; MaxStallTime also cuts maximum slowdown ~11.6% vs TCM.
"""

from __future__ import annotations

from repro.core.cbp import CbpMetric
from repro.experiments.common import (
    ExperimentResult,
    cached_runs,
    default_seeds,
    geo_or_mean,
)
from repro.sim.stats import maximum_slowdown, weighted_speedup
from repro.workloads.multiprog import BUNDLES

SCHEDULERS = (
    ("FR-FCFS", "fr-fcfs", None, None),
    ("TCM", "tcm", None, {"threads": 4}),
    ("MaxStallTime", "casras-crit",
     ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL}), None),
    ("TCM+MaxStallTime", "tcm+crit",
     ("cbp", {"entries": 64, "metric": CbpMetric.MAX_STALL}), {"threads": 4}),
)


def _requests(bundles, seeds) -> dict:
    """Every run of the figure, keyed by ``(role, bundle, seed)`` (alone
    runs add their slot); the role is ``alone``, ``base`` or a
    scheduler label."""
    requests = {}
    for bundle in bundles:
        for seed in seeds:
            for slot in range(len(BUNDLES[bundle])):
                requests["alone", bundle, seed, slot] = dict(
                    kind="alone", workload=bundle, scheduler="par-bs",
                    seed=seed, slot=slot,
                )
            requests["base", bundle, seed] = dict(
                kind="bundle", workload=bundle, scheduler="par-bs", seed=seed
            )
            for label, scheduler, spec, kwargs in SCHEDULERS:
                requests[label, bundle, seed] = dict(
                    kind="bundle", workload=bundle, scheduler=scheduler,
                    provider_spec=spec, seed=seed, scheduler_kwargs=kwargs,
                )
    return requests


def run(bundles=None, seeds=None) -> ExperimentResult:
    bundles = bundles or tuple(sorted(BUNDLES))
    seeds = seeds or default_seeds()
    requests = _requests(bundles, seeds)
    runs = dict(zip(requests, cached_runs(requests.values())))
    columns = ["scheduler"] + list(bundles) + ["Average", "max_slowdown"]
    rows = []
    for label, _, _, _ in SCHEDULERS:
        row = {"scheduler": label}
        slowdowns = []
        for bundle in bundles:
            values = []
            for seed in seeds:
                alone = [
                    runs["alone", bundle, seed, slot].core_ipc(slot)
                    for slot in range(len(BUNDLES[bundle]))
                ]
                base = runs["base", bundle, seed]
                conf = runs[label, bundle, seed]
                values.append(
                    weighted_speedup(conf, alone) / weighted_speedup(base, alone)
                )
                slowdowns.append(maximum_slowdown(conf, alone))
            row[bundle] = geo_or_mean(values)
        row["Average"] = geo_or_mean(row[b] for b in bundles)
        row["max_slowdown"] = geo_or_mean(slowdowns)
        rows.append(row)
    return ExperimentResult(
        "fig12",
        "Multiprogrammed weighted speedup over PAR-BS (Table 4 bundles)",
        columns,
        rows,
        notes=(
            "Paper: TCM +1.9%, MaxStallTime +6.0% weighted speedup over "
            "PAR-BS; MaxStallTime also improves maximum slowdown."
        ),
    )


def main():
    print(run().table())


if __name__ == "__main__":
    main()
