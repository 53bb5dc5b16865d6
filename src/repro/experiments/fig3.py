"""Figure 3: Binary criticality speedups over FR-FCFS.

Sweeps the CBP table size (64 / 256 / 1024 / unlimited) under both
priority arrangements (Crit-CASRAS on top, CASRAS-Crit below) and includes
CLPT-Binary.  Paper: ~6.5% average for a 64-entry table under either
arrangement; 7.4% unlimited; CLPT-Binary ~0; the two arrangements match.
"""

from __future__ import annotations

from repro.experiments.common import (
    ExperimentResult,
    default_apps,
    default_seeds,
    geo_or_mean,
    mean_speedups,
)

TABLE_SIZES = (64, 256, 1024, None)


def _size_label(entries):
    return "unlimited" if entries is None else str(entries)


def _configs():
    configs = [("CLPT-Binary", ("clpt", {"ranked": False}))]
    configs += [
        (f"Binary CBP {_size_label(s)}", ("cbp", {"entries": s, "metric": "BINARY"}))
        for s in TABLE_SIZES
    ]
    return configs


def run(apps=None, seeds=None, algorithms=("crit-casras", "casras-crit")) -> ExperimentResult:
    apps = apps or default_apps()
    seeds = seeds or default_seeds()
    speedup = mean_speedups({
        (app, algorithm, label): dict(
            app=app, scheduler=algorithm, provider_spec=_normalise(spec)
        )
        for app in apps
        for algorithm in algorithms
        for label, spec in _configs()
    }, seeds)
    columns = ["algorithm", "config"] + list(apps) + ["Average"]
    rows = []
    for algorithm in algorithms:
        for label, _ in _configs():
            row = {"algorithm": algorithm, "config": label}
            for app in apps:
                row[app] = speedup[app, algorithm, label]
            row["Average"] = geo_or_mean(row[a] for a in apps)
            rows.append(row)
    return ExperimentResult(
        "fig3",
        "Binary criticality speedup vs FR-FCFS (CBP size sweep + CLPT)",
        columns,
        rows,
        notes=(
            "Paper: 64-entry Binary CBP ~1.065 average under both "
            "arrangements; unlimited ~1.074; CLPT-Binary ~1.00."
        ),
    )


def _normalise(spec):
    kind, kwargs = spec
    if kind == "cbp" and isinstance(kwargs.get("metric"), str):
        from repro.core.cbp import CbpMetric

        kwargs = dict(kwargs, metric=CbpMetric[kwargs["metric"]])
    return (kind, kwargs)


def main():
    print(run().table())


if __name__ == "__main__":
    main()
